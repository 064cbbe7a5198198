//! The per-session append-only delta WAL.
//!
//! ## File format
//!
//! ```text
//! magic "E3DWAL02"                                  (8 bytes)
//! record*:  len: u32 | payload: len bytes | crc32(payload): u32
//! payload:  seq: u64 | deadline: Option<u64 nanos>
//!           | request_id: Option<str> | RelationDelta
//! ```
//!
//! The WAL is a **redo log of applied deltas**: the registry appends a
//! record only after `re_explain` succeeded and before the caller is
//! acknowledged. Each append is a single `write_all` straight to the file
//! descriptor (no user-space buffering), so a `kill -9` can lose at most
//! the record being written — never an acknowledged one — and `fsync`
//! policy only decides what a *power loss* can take.
//!
//! ## Torn tails
//!
//! [`read_wal`] scans records until the first frame that is short, fails
//! its checksum, or does not decode, and **stops there**: the valid prefix
//! is returned together with the byte offset it ends at and a flag saying
//! whether trailing garbage was discarded. It never panics on any byte
//! sequence — the corpus tests flip, truncate, and extend real logs at
//! every offset. [`WalWriter::open_end`] truncates the file back to that
//! valid offset before resuming appends, so a torn tail is physically
//! repaired on recovery.

use crate::codec::{crc32, dec_delta, enc_delta, Dec, Enc};
use crate::fault::{self, ShimHandle};
use crate::DurabilityError;
use explain3d_incremental::RelationDelta;
use std::fs::File;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL file (format version 02 — records carry
/// the client-generated `request_id` used for exactly-once retry dedup).
pub const WAL_MAGIC: [u8; 8] = *b"E3DWAL02";

/// Sanity bound on one record's payload: a corrupt length field larger
/// than this is treated as a torn tail instead of attempted.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// When (not whether) appended records reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync from the append path; the OS flushes on its schedule.
    /// Survives process crashes (`kill -9`) but not power loss.
    Never,
    /// Group commit: fsync once every N appended records (and on every
    /// explicit [`WalWriter::sync`]). Bounds power-loss exposure to N
    /// acknowledged deltas at a fraction of `Always`'s cost.
    EveryN(u32),
    /// fsync after every record: an acknowledged delta is never lost,
    /// at ~one disk flush per request.
    Always,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `off`/`never`, `interval` (group commit
    /// every 16 records), `interval:N`, or `always`.
    pub fn parse(raw: &str) -> Option<FsyncPolicy> {
        match raw {
            "off" | "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::EveryN(16)),
            "always" => Some(FsyncPolicy::Always),
            other => {
                let n = other.strip_prefix("interval:")?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

/// One durable log entry: an applied delta, its position in the session's
/// apply order, and the per-request MILP deadline it ran under (the node
/// budget — and therefore the report — is a deterministic function of it).
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// 1-based position in the session's delta order.
    pub seq: u64,
    /// The request's scoped deadline override, if any.
    pub deadline: Option<Duration>,
    /// The client-generated idempotency token, if the request carried one
    /// — recovery rebuilds the retry-dedup window from these.
    pub request_id: Option<String>,
    /// The applied edit script.
    pub delta: RelationDelta,
}

fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(record.seq);
    e.opt_duration(record.deadline);
    e.opt_str(record.request_id.as_deref());
    enc_delta(&mut e, &record.delta);
    e.into_bytes()
}

/// An open WAL with append access.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    shim: ShimHandle,
    /// When true, [`WalWriter::append`] records how long the write and the
    /// policy-driven fsync took, readable via [`WalWriter::last_timings`].
    /// Off by default so the clock reads cost nothing when nobody asks.
    timing: bool,
    last_write: Duration,
    last_fsync: Duration,
}

impl WalWriter {
    /// Creates a fresh (truncated) WAL containing only the magic header.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<WalWriter> {
        WalWriter::create_with(path, policy, &None)
    }

    /// [`WalWriter::create`] with I/O routed through `shim`.
    pub fn create_with(
        path: &Path,
        policy: FsyncPolicy,
        shim: &ShimHandle,
    ) -> std::io::Result<WalWriter> {
        let mut file = fault::open_write(shim, path, true)?;
        fault::write_all(shim, &mut file, path, &WAL_MAGIC)?;
        fault::fsync(shim, &file, path)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            shim: shim.clone(),
            timing: false,
            last_write: Duration::ZERO,
            last_fsync: Duration::ZERO,
        })
    }

    /// Reopens an existing WAL for appending, first truncating it to
    /// `valid_len` (the end of the last valid record, per [`read_wal`]) so
    /// a torn tail is physically discarded. A `valid_len` below the header
    /// size recreates the file.
    pub fn open_end(
        path: &Path,
        policy: FsyncPolicy,
        valid_len: u64,
    ) -> std::io::Result<WalWriter> {
        WalWriter::open_end_with(path, policy, valid_len, &None)
    }

    /// [`WalWriter::open_end`] with I/O routed through `shim`.
    pub fn open_end_with(
        path: &Path,
        policy: FsyncPolicy,
        valid_len: u64,
        shim: &ShimHandle,
    ) -> std::io::Result<WalWriter> {
        if valid_len < WAL_MAGIC.len() as u64 {
            return WalWriter::create_with(path, policy, shim);
        }
        let mut file = fault::open_write(shim, path, false)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            shim: shim.clone(),
            timing: false,
            last_write: Duration::ZERO,
            last_fsync: Duration::ZERO,
        })
    }

    /// Enables (or disables) per-append timing capture; see
    /// [`WalWriter::last_timings`]. Disabled writers never read the clock.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
        self.last_write = Duration::ZERO;
        self.last_fsync = Duration::ZERO;
    }

    /// `(write, fsync)` durations of the most recent [`WalWriter::append`]
    /// — both zero unless timing is enabled. The fsync component is zero
    /// for appends whose policy skipped the sync.
    pub fn last_timings(&self) -> (Duration, Duration) {
        (self.last_write, self.last_fsync)
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (a single `write_all` of the whole frame) and
    /// fsyncs according to the policy.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let payload = encode_record(record);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        let started = self.timing.then(Instant::now);
        fault::write_all(&self.shim, &mut self.file, &self.path, &frame)?;
        if let Some(t0) = started {
            self.last_write = t0.elapsed();
            self.last_fsync = Duration::ZERO;
        }
        let sync_due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                self.unsynced >= n
            }
        };
        if sync_due {
            let t0 = started.map(|_| Instant::now());
            fault::fsync(&self.shim, &self.file, &self.path)?;
            if let Some(t0) = t0 {
                self.last_fsync = t0.elapsed();
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.unsynced = 0;
        fault::fsync(&self.shim, &self.file, &self.path)
    }

    /// Truncates the log back to just the header — called after a snapshot
    /// has durably captured everything the log contained.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.unsynced = 0;
        fault::fsync(&self.shim, &self.file, &self.path)
    }
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalReadOutcome {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset at which the valid prefix ends (where a reopening
    /// writer must truncate to). Below the header size means the file
    /// itself is unusable and must be recreated.
    pub valid_len: u64,
    /// True when bytes past `valid_len` were discarded (a torn or corrupt
    /// tail — expected after a crash mid-append, never an error).
    pub tail_discarded: bool,
}

/// Reads the valid prefix of a WAL file. Never panics and never errors on
/// *content*: any undecodable suffix — short frame, checksum mismatch,
/// invalid payload, even a missing or wrong magic header — just ends the
/// valid prefix. Two things surface as errors: I/O failures, and a magic
/// naming another `E3DWAL0` version
/// ([`DurabilityError::UnsupportedVersion`] — a valid prefix of length 0
/// would make [`WalWriter::open_end`] recreate, and so destroy, a log a
/// newer build wrote).
pub fn read_wal(path: &Path) -> Result<WalReadOutcome, DurabilityError> {
    read_wal_with(path, &None)
}

/// [`read_wal`] with I/O routed through `shim`.
pub fn read_wal_with(path: &Path, shim: &ShimHandle) -> Result<WalReadOutcome, DurabilityError> {
    let mut bytes = Vec::new();
    match fault::open_read(shim, path) {
        Ok(mut f) => {
            fault::read_to_end(shim, &mut f, path, &mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReadOutcome { records: Vec::new(), valid_len: 0, tail_discarded: false })
        }
        Err(e) => return Err(e.into()),
    }
    crate::reject_other_version(&bytes, &WAL_MAGIC, "WAL")?;
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(WalReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            tail_discarded: !bytes.is_empty(),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let Some(header) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("4-byte slice"));
        if len > MAX_RECORD_BYTES {
            break;
        }
        let payload_start = pos + 4;
        let crc_start = payload_start + len as usize;
        let Some(payload) = bytes.get(payload_start..crc_start) else { break };
        let Some(crc_bytes) = bytes.get(crc_start..crc_start + 4) else { break };
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc32(payload) != stored_crc {
            break;
        }
        let mut d = Dec::new(payload);
        let record = (|| -> Result<WalRecord, crate::codec::CodecError> {
            let seq = d.u64()?;
            let deadline = d.opt_duration()?;
            let request_id = d.opt_str()?;
            let delta = dec_delta(&mut d)?;
            Ok(WalRecord { seq, deadline, request_id, delta })
        })();
        let Ok(record) = record else { break };
        if !d.finished() {
            break;
        }
        records.push(record);
        pos = crc_start + 4;
    }
    Ok(WalReadOutcome { records, valid_len: pos as u64, tail_discarded: pos < bytes.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_core::prelude::{CanonicalTuple, Side};
    use explain3d_relation::prelude::{Row, Value};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e3d-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tuple(key: &str) -> CanonicalTuple {
        CanonicalTuple {
            id: 0,
            key: vec![Value::str(key)],
            impact: 1.5,
            members: vec![0],
            representative: Row::new(vec![Value::str(key)]),
        }
    }

    fn record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            deadline: seq.is_multiple_of(2).then(|| Duration::from_millis(seq * 10)),
            request_id: seq.is_multiple_of(3).then(|| format!("req-{seq}")),
            delta: RelationDelta::new()
                .insert(Side::Left, tuple(&format!("k{seq}")))
                .delete(Side::Right, seq as usize),
        }
    }

    fn write_log(path: &Path, n: u64, policy: FsyncPolicy) {
        let mut w = WalWriter::create(path, policy).unwrap();
        for seq in 1..=n {
            w.append(&record(seq)).unwrap();
        }
        w.sync().unwrap();
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tempdir("roundtrip");
        let path = dir.join("wal.log");
        write_log(&path, 5, FsyncPolicy::EveryN(2));
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 5);
        assert!(!out.tail_discarded);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.deadline, record(r.seq).deadline);
            assert_eq!(r.request_id, record(r.seq).request_id);
            assert_eq!(r.delta.ops.len(), 2);
        }
        assert_eq!(out.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_prefix() {
        let dir = tempdir("trunc");
        let path = dir.join("wal.log");
        write_log(&path, 4, FsyncPolicy::Never);
        let full = std::fs::read(&path).unwrap();
        let whole = read_wal(&path).unwrap();
        // Byte offsets at which each record ends.
        let mut ends = vec![WAL_MAGIC.len() as u64];
        {
            let mut pos = WAL_MAGIC.len();
            for _ in 0..4 {
                let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4 + len + 4;
                ends.push(pos as u64);
            }
        }
        let cut_path = dir.join("cut.log");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let out = read_wal(&cut_path).unwrap();
            // The valid prefix is exactly the records whose frames fit.
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count().saturating_sub(1);
            assert_eq!(out.records.len(), expect, "cut at byte {cut}");
            assert_eq!(out.tail_discarded, out.valid_len < cut as u64, "cut at byte {cut}");
            for (a, b) in out.records.iter().zip(&whole.records) {
                assert_eq!(a.seq, b.seq);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_never_panic_and_never_fabricate_records() {
        let dir = tempdir("flip");
        let path = dir.join("wal.log");
        write_log(&path, 3, FsyncPolicy::Never);
        let full = std::fs::read(&path).unwrap();
        let flip_path = dir.join("flip.log");
        for i in 0..full.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bytes = full.clone();
                bytes[i] ^= bit;
                std::fs::write(&flip_path, &bytes).unwrap();
                if i == WAL_MAGIC.len() - 1 {
                    // The version byte: another version is typed, never
                    // read as an empty log.
                    let err = read_wal(&flip_path).unwrap_err();
                    assert!(matches!(err, DurabilityError::UnsupportedVersion(_)), "{err}");
                    continue;
                }
                let out = read_wal(&flip_path).unwrap();
                // A flip can only shorten the valid prefix; surviving
                // records must equal the originals.
                assert!(out.records.len() <= 3, "flip at byte {i}");
                let original = read_wal(&path).unwrap();
                for (a, b) in out.records.iter().zip(&original.records) {
                    // Sequence numbers live inside the checksummed payload,
                    // so a surviving record is bit-identical.
                    assert_eq!(a.seq, b.seq, "flip at byte {i}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_is_discarded_and_repaired_on_reopen() {
        let dir = tempdir("garbage");
        let path = dir.join("wal.log");
        write_log(&path, 2, FsyncPolicy::Never);
        let valid = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out.tail_discarded);
        assert_eq!(out.valid_len, valid);
        // Reopening truncates the tail and appends cleanly after it.
        let mut w = WalWriter::open_end(&path, FsyncPolicy::Always, out.valid_len).unwrap();
        w.append(&record(3)).unwrap();
        let repaired = read_wal(&path).unwrap();
        assert_eq!(repaired.records.len(), 3);
        assert!(!repaired.tail_discarded);
        assert_eq!(repaired.records[2].seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_missing_and_unmagical_files_read_cleanly() {
        let dir = tempdir("empty");
        let missing = read_wal(&dir.join("nope.log")).unwrap();
        assert!(missing.records.is_empty() && !missing.tail_discarded);
        let empty = dir.join("empty.log");
        std::fs::write(&empty, b"").unwrap();
        let out = read_wal(&empty).unwrap();
        assert!(out.records.is_empty() && !out.tail_discarded && out.valid_len == 0);
        let wrong = dir.join("wrong.log");
        std::fs::write(&wrong, b"NOTAWAL!extra").unwrap();
        let out = read_wal(&wrong).unwrap();
        assert!(out.records.is_empty() && out.tail_discarded && out.valid_len == 0);
        // A writer reopening an unusable file recreates it.
        let mut w = WalWriter::open_end(&wrong, FsyncPolicy::Never, out.valid_len).unwrap();
        w.append(&record(1)).unwrap();
        assert_eq!(read_wal(&wrong).unwrap().records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_truncates_to_header() {
        let dir = tempdir("reset");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            w.append(&record(seq)).unwrap();
        }
        w.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_MAGIC.len() as u64);
        w.append(&record(4)).unwrap();
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("interval"), Some(FsyncPolicy::EveryN(16)));
        assert_eq!(FsyncPolicy::parse("interval:4"), Some(FsyncPolicy::EveryN(4)));
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("interval:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
