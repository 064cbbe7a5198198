//! # explain3d-durability
//!
//! Durable sessions for the Explain3D service: a per-session append-only
//! **delta WAL** plus periodic atomic **canonical-relation snapshots**,
//! with recovery = latest valid snapshot + replay of the checksummed log
//! suffix. Entirely `std` — no serialisation or checksum dependencies.
//!
//! * [`codec`] — the bounds-checked binary codec (and CRC-32) every
//!   durable byte goes through; decoding arbitrary bytes never panics;
//! * [`wal`] — length-prefixed, checksummed redo records of *applied*
//!   deltas, with a configurable [`FsyncPolicy`] (off / group-commit /
//!   always) and a reader that cleanly discards torn or corrupt tails;
//! * [`snapshot`] — tmp + fsync + rename atomic images of everything a
//!   session needs to rebuild (relations, config, matches, seq, the last
//!   run's deadline);
//! * [`store`] — the per-session directory layout and
//!   [`SessionStore::recover`], which replays the WAL suffix onto the
//!   snapshot relations.
//!
//! ## Why recovery is provably exact
//!
//! The WAL logs a delta only after the session's `re_explain` succeeded
//! (and before the caller is acknowledged), so the log is precisely the
//! session's applied-delta order. `re_explain` is byte-identical (equal
//! `report_fingerprint`) to a cold `explain` over the post-delta
//! relations under the same deadline-derived node budget — the invariant
//! PR 4/5 pinned. Recovery therefore rebuilds the relations by pure
//! `apply_delta` replay and runs **one** cold explain under the recorded
//! deadline: the result must equal the last report the crashed process
//! served. The service-layer torture tests assert exactly that, under
//! randomized `kill -9`.

#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use fault::{
    FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, IoShim, RealIo, ShimHandle, Trigger,
};
pub use snapshot::{load_snapshot, write_snapshot, SessionSnapshot};
pub use store::{
    session_dirname, DurabilityConfig, RecoveredSession, SessionStore, QUARANTINE_DIR,
    SNAPSHOT_FILE, WAL_FILE,
};
pub use wal::{read_wal, FsyncPolicy, WalReadOutcome, WalRecord, WalWriter};

use std::fmt;

/// A durability failure: an I/O error or on-disk state that fails
/// validation. Torn WAL tails are **not** errors — they are expected
/// crash residue and handled by truncation.
#[derive(Debug)]
pub enum DurabilityError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes exist but do not validate (bad magic, checksum, or
    /// a logged delta that no longer applies).
    Corrupt(String),
    /// A snapshot or WAL whose magic has this build's family prefix
    /// (`E3DSNAP` / `E3DWAL0`) but another format version — written by a
    /// newer (or retired) build. Not corruption: the files must be left
    /// exactly as they are.
    UnsupportedVersion(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "durable state corrupt: {what}"),
            DurabilityError::UnsupportedVersion(what) => {
                write!(f, "unsupported durable format: {what}")
            }
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Corrupt(_) | DurabilityError::UnsupportedVersion(_) => None,
        }
    }
}

/// [`DurabilityError::UnsupportedVersion`] when `bytes` open with the
/// first seven bytes of `magic` (the format family) but a different
/// eighth (the version). Anything else passes; the caller's own magic
/// check decides whether it is valid.
pub(crate) fn reject_other_version(
    bytes: &[u8],
    magic: &[u8; 8],
    kind: &str,
) -> Result<(), DurabilityError> {
    match bytes.get(..magic.len()) {
        Some(found) if found[..7] == magic[..7] && found != magic => {
            Err(DurabilityError::UnsupportedVersion(format!(
                "{kind} format {} (this build reads {})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(magic)
            )))
        }
        _ => Ok(()),
    }
}
