//! Atomic session snapshots.
//!
//! A snapshot captures everything needed to rebuild an [`ExplainSession`]
//! from nothing: the two canonical relations *as of* delta `seq`, the
//! attribute matches, the full session configuration, whether the session
//! has produced a report, and the deadline its last run executed under.
//! Recovery loads the snapshot and replays the WAL suffix with
//! `seq > snapshot.seq`; the byte-identity-to-cold invariant of
//! `re_explain` guarantees one cold `explain` over the replayed relations
//! (under `last_deadline`) reproduces the pre-crash report exactly.
//!
//! Snapshots are written **atomically**: encode to `<file>.tmp` in the same
//! directory, flush + fsync, then `rename` over the target (POSIX rename is
//! atomic within a filesystem). A crash mid-write leaves the previous
//! snapshot untouched; a reader therefore sees either the old complete
//! snapshot or the new complete one, never a torn hybrid — and the trailing
//! CRC-32 rejects anything else (bit rot, partial rename on exotic
//! filesystems) as [`DurabilityError::Corrupt`].
//!
//! [`ExplainSession`]: explain3d_incremental::ExplainSession

use crate::codec::{
    crc32, dec_matches, dec_relation, dec_session_config, enc_matches, enc_relation,
    enc_session_config, Dec, Enc,
};
use crate::fault::{self, ShimHandle};
use crate::DurabilityError;
use explain3d_core::prelude::{AttributeMatches, CanonicalRelation};
use explain3d_incremental::SessionConfig;
use std::path::Path;
use std::time::Duration;

/// Magic bytes opening every snapshot file (format version 2 — carries
/// the retry-dedup window used for exactly-once client retries).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"E3DSNAP2";

/// A complete durable image of one session at a delta sequence number.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Number of deltas applied to reach this state (0 = as created).
    pub seq: u64,
    /// Whether the session had produced a report (recovery re-runs the
    /// explain only when it had — a never-explained session recovers to
    /// the same `NoReport` state it crashed in).
    pub explained: bool,
    /// The scoped deadline override of the session's last run, if any —
    /// the node budget (and so the report) is a deterministic function
    /// of it, so recovery must re-run under the same one.
    pub last_deadline: Option<Duration>,
    /// Full session configuration (pipeline, MILP, mapping options).
    pub config: SessionConfig,
    /// The attribute matches the session was created with.
    pub matches: AttributeMatches,
    /// Left canonical relation, post-`seq` deltas.
    pub left: CanonicalRelation,
    /// Right canonical relation, post-`seq` deltas.
    pub right: CanonicalRelation,
    /// The retry-dedup window as of `seq`: recently applied
    /// `(request_id, seq)` pairs, oldest first, so a recovered session
    /// still answers retried deltas exactly once.
    pub retry_window: Vec<(String, u64)>,
}

fn encode(snapshot: &SessionSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(snapshot.seq);
    e.bool(snapshot.explained);
    e.opt_duration(snapshot.last_deadline);
    enc_session_config(&mut e, &snapshot.config);
    enc_matches(&mut e, &snapshot.matches);
    enc_relation(&mut e, &snapshot.left);
    enc_relation(&mut e, &snapshot.right);
    e.usize(snapshot.retry_window.len());
    for (request_id, seq) in &snapshot.retry_window {
        e.str(request_id);
        e.u64(*seq);
    }
    e.into_bytes()
}

fn decode(payload: &[u8]) -> Result<SessionSnapshot, DurabilityError> {
    let mut d = Dec::new(payload);
    let inner = (|| -> Result<SessionSnapshot, crate::codec::CodecError> {
        let seq = d.u64()?;
        let explained = d.bool()?;
        let last_deadline = d.opt_duration()?;
        let config = dec_session_config(&mut d)?;
        let matches = dec_matches(&mut d)?;
        let left = dec_relation(&mut d)?;
        let right = dec_relation(&mut d)?;
        let window_len = d.len(9)?;
        let mut retry_window = Vec::with_capacity(window_len);
        for _ in 0..window_len {
            let request_id = d.str()?;
            let seq = d.u64()?;
            retry_window.push((request_id, seq));
        }
        Ok(SessionSnapshot {
            seq,
            explained,
            last_deadline,
            config,
            matches,
            left,
            right,
            retry_window,
        })
    })();
    let snapshot = inner.map_err(|e| DurabilityError::Corrupt(format!("snapshot payload: {e}")))?;
    if !d.finished() {
        return Err(DurabilityError::Corrupt("snapshot has trailing bytes".into()));
    }
    Ok(snapshot)
}

/// Writes `snapshot` to `path` atomically (tmp + fsync + rename + best-
/// effort directory fsync).
pub fn write_snapshot(path: &Path, snapshot: &SessionSnapshot) -> Result<(), DurabilityError> {
    write_snapshot_with(path, snapshot, &None)
}

/// [`write_snapshot`] with I/O routed through `shim`.
pub fn write_snapshot_with(
    path: &Path,
    snapshot: &SessionSnapshot,
    shim: &ShimHandle,
) -> Result<(), DurabilityError> {
    let payload = encode(snapshot);
    let mut bytes = Vec::with_capacity(payload.len() + 20);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut file = fault::open_write(shim, &tmp, true)?;
        fault::write_all(shim, &mut file, &tmp, &bytes)?;
        fault::fsync(shim, &file, &tmp)?;
    }
    fault::rename(shim, &tmp, path)?;
    // Persist the rename itself; failure here only risks power-loss
    // visibility of the *new* snapshot, never corruption of the old.
    if let Some(dir) = path.parent() {
        let _ = fault::dir_sync(shim, dir);
    }
    Ok(())
}

/// Loads a snapshot, validating magic, length, and checksum. `Ok(None)`
/// when the file does not exist; [`DurabilityError::UnsupportedVersion`]
/// when its magic names another `E3DSNAP` version;
/// [`DurabilityError::Corrupt`] (never a panic) when it exists but does
/// not validate.
pub fn load_snapshot(path: &Path) -> Result<Option<SessionSnapshot>, DurabilityError> {
    load_snapshot_with(path, &None)
}

/// [`load_snapshot`] with I/O routed through `shim`.
pub fn load_snapshot_with(
    path: &Path,
    shim: &ShimHandle,
) -> Result<Option<SessionSnapshot>, DurabilityError> {
    let mut bytes = Vec::new();
    match fault::open_read(shim, path) {
        Ok(mut f) => {
            fault::read_to_end(shim, &mut f, path, &mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    crate::reject_other_version(&bytes, &SNAPSHOT_MAGIC, "snapshot")?;
    let header = SNAPSHOT_MAGIC.len() + 8;
    if bytes.len() < header || bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(DurabilityError::Corrupt("snapshot header".into()));
    }
    let len =
        u64::from_le_bytes(bytes[SNAPSHOT_MAGIC.len()..header].try_into().expect("8-byte slice"));
    let len = usize::try_from(len)
        .ok()
        .filter(|l| header + l + 4 == bytes.len())
        .ok_or_else(|| DurabilityError::Corrupt("snapshot length".into()))?;
    let payload = &bytes[header..header + len];
    let stored_crc = u32::from_le_bytes(bytes[header + len..].try_into().expect("4-byte slice"));
    if crc32(payload) != stored_crc {
        return Err(DurabilityError::Corrupt("snapshot checksum".into()));
    }
    decode(payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_core::prelude::CanonicalTuple;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e3d-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SessionSnapshot {
        let rel = |name: &str, keys: &[&str]| CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: keys
                .iter()
                .enumerate()
                .map(|(i, k)| CanonicalTuple {
                    id: i,
                    key: vec![Value::str(*k)],
                    impact: i as f64 + 0.5,
                    members: vec![i],
                    representative: Row::new(vec![Value::str(*k)]),
                })
                .collect(),
            aggregate: None,
        };
        SessionSnapshot {
            seq: 42,
            explained: true,
            last_deadline: Some(Duration::from_millis(250)),
            config: SessionConfig::default(),
            matches: AttributeMatches::single_equivalent("k", "k"),
            left: rel("Q1", &["a", "b", "c"]),
            right: rel("Q2", &["a", "b"]),
            retry_window: vec![("req-40".to_string(), 40), ("req-42".to_string(), 42)],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tempdir("roundtrip");
        let path = dir.join("current.snap");
        let snap = sample();
        write_snapshot(&path, &snap).unwrap();
        let back = load_snapshot(&path).unwrap().expect("snapshot present");
        assert_eq!(back.seq, 42);
        assert!(back.explained);
        assert_eq!(back.last_deadline, Some(Duration::from_millis(250)));
        assert_eq!(back.matches, snap.matches);
        assert_eq!(back.left, snap.left);
        assert_eq!(back.right, snap.right);
        assert_eq!(back.retry_window, snap.retry_window);
        // No stray tmp file remains after the rename.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_none_and_corruption_is_typed() {
        let dir = tempdir("corrupt");
        let path = dir.join("current.snap");
        assert!(load_snapshot(&path).unwrap().is_none());
        write_snapshot(&path, &sample()).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one payload byte: checksum must reject it.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(load_snapshot(&path), Err(DurabilityError::Corrupt(_))));
        // Truncations at every length are a typed error, never a panic.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(matches!(load_snapshot(&path), Err(DurabilityError::Corrupt(_))));
        }
        // Restoring the original bytes loads again.
        std::fs::write(&path, &good).unwrap();
        assert!(load_snapshot(&path).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tempdir("rewrite");
        let path = dir.join("current.snap");
        let mut snap = sample();
        write_snapshot(&path, &snap).unwrap();
        snap.seq = 43;
        snap.left.tuples.pop();
        write_snapshot(&path, &snap).unwrap();
        let back = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(back.seq, 43);
        assert_eq!(back.left.tuples.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
