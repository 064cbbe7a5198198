//! Fixture: rank-order inversions in the registry lock family — two
//! direct ones and one hidden behind a same-file helper call (the
//! one-level inlining case). Linted under a virtual registry.rs path.

use std::sync::{Mutex, MutexGuard, RwLock};

pub struct Slot {
    pub state: Mutex<u32>,
    pub pending: Mutex<Vec<u32>>,
    pub report: Mutex<Option<u32>>,
}

pub struct Shard {
    pub slots: RwLock<Vec<Slot>>,
}

/// Blocks on slot-state (rank 2) while holding slot-pending (rank 4).
pub fn drain_wrong_way(slot: &Slot) {
    let pending = slot.pending.lock().unwrap();
    let state = slot.state.lock().unwrap();
    let _ = (pending, state);
}

fn grab_state(slot: &Slot) -> MutexGuard<'_, u32> {
    slot.state.lock().unwrap()
}

/// The same inversion, one call deep: `grab_state` blocks on rank 2.
pub fn inlined_wrong_way(slot: &Slot) {
    let pending = slot.pending.lock().unwrap();
    let state = grab_state(slot);
    let _ = (pending, state);
}

/// Blocks on slot-state (rank 2) while holding the slot-report leaf
/// (rank 5): a report read must never wait for a running session.
pub fn read_then_lock_state(slot: &Slot) {
    let report = slot.report.lock().unwrap();
    let state = slot.state.lock().unwrap();
    let _ = (report, state);
}
