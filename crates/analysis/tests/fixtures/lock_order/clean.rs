//! Fixture: lock nestings that follow the declared rank order, plus the
//! patterns the checker must tolerate — try-acquisitions, `drop()`
//! releases, and statement-scoped temporaries.

use std::sync::{Mutex, RwLock};

pub struct Slot {
    pub state: Mutex<u32>,
    pub pending: Mutex<Vec<u32>>,
    pub report: Mutex<Option<u32>>,
}

pub struct Shard {
    pub slots: RwLock<Vec<Slot>>,
}

/// slot-state (2) then slot-pending (4): ascending, fine.
pub fn drain(slot: &Slot) {
    let state = slot.state.lock().unwrap();
    let pending = slot.pending.lock().unwrap();
    let _ = (state, pending);
}

/// slot-state (2) then index-stripe (3): ascending, fine.
pub fn revalidate(slot: &Slot, shard: &Shard) -> usize {
    let state = slot.state.lock().unwrap();
    let n = shard.slots.read().unwrap().len();
    let _ = state;
    n
}

/// A try-acquisition never blocks, so it is exempt from the order even
/// against a held higher rank.
pub fn probe(slot: &Slot) {
    let pending = slot.pending.lock().unwrap();
    if let Ok(state) = slot.state.try_lock() {
        let _ = (&pending, state);
    }
}

/// An explicit `drop()` releases the guard: the later low-rank
/// acquisition happens with nothing held.
pub fn sequential(slot: &Slot) {
    let pending = slot.pending.lock().unwrap();
    drop(pending);
    let state = slot.state.lock().unwrap();
    let _ = state;
}

/// A statement-scoped temporary dies at the `;` — the next statement
/// holds nothing.
pub fn temporary(slot: &Slot) {
    slot.pending.lock().unwrap().push(1);
    let state = slot.state.lock().unwrap();
    let _ = state;
}

/// slot-state (2) then the slot-report leaf (5): publishing a report
/// under the state lock ascends.
pub fn publish(slot: &Slot) {
    let state = slot.state.lock().unwrap();
    *slot.report.lock().unwrap() = Some(*state);
}
