//! The replica fleet: N enclave replicas sharing one machine's EPC,
//! each destined to run its own serving pipeline, with an explicit
//! lifecycle so failover logic cannot serve from a half-restored
//! replica.
//!
//! The lifecycle is a strict state machine (documented in
//! `docs/fleet.md`):
//!
//! ```text
//! cold ──spawn──▶ restoring ──mark_serving──▶ serving
//!                   │ ▲                          │
//!                   │ └──respawn── dead ◀──kill──┤
//!                   │               ▲ ▲          ▼
//!                   └─────kill──────┘ └─kill── draining
//! ```
//!
//! A replica serves traffic only in `Serving`. `kill` routes through
//! `Draining` implicitly (the serving layer drains at a sub-batch
//! fence before calling it) and ends in `Dead`, releasing the
//! enclave's EPC frames and swap through the driver so survivors'
//! fair share grows immediately. `respawn` creates a *fresh* enclave
//! (new id, new sealing identity) in `Restoring`; the caller restores
//! state into it over the cross-enclave channel before promoting it,
//! or — when the restore is refused — `kill`s it back to `Dead`.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::enclave::Enclave;
use crate::machine::SgxMachine;

/// Where a replica is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Slot allocated, no enclave yet.
    Cold,
    /// Enclave exists; state is being provisioned into it.
    Restoring,
    /// In rotation: owns shards and answers requests.
    Serving,
    /// Still answering its reaped requests but taking no new shards.
    Draining,
    /// Enclave destroyed; EPC frames and swap reclaimed.
    Dead,
}

struct Slot {
    enclave: Option<Arc<Enclave>>,
    state: ReplicaState,
}

/// A fixed-width set of enclave replica slots over one machine.
///
/// The fleet owns lifecycle and enclave identity only; shard
/// ownership, snapshots and the serving pipelines live a layer up
/// (the apps crate), which keeps this type reusable by any server.
pub struct Fleet {
    machine: Arc<SgxMachine>,
    linear_bytes: usize,
    slots: Mutex<Vec<Slot>>,
}

impl Fleet {
    /// Spawns `n` replicas, each a fresh enclave with `linear_bytes`
    /// of linear space, all starting in `Restoring` (a new fleet has
    /// no state to provision, so callers typically `mark_serving`
    /// right after seeding).
    #[must_use]
    pub fn new(machine: &Arc<SgxMachine>, n: usize, linear_bytes: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one replica");
        let slots = (0..n)
            .map(|_| Slot {
                enclave: Some(machine.driver.create_enclave(machine, linear_bytes)),
                state: ReplicaState::Restoring,
            })
            .collect();
        Self {
            machine: Arc::clone(machine),
            linear_bytes,
            slots: Mutex::new(slots),
        }
    }

    /// Number of replica slots (fixed at construction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when the fleet has no slots (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The replica's current lifecycle state.
    #[must_use]
    pub fn state(&self, idx: usize) -> ReplicaState {
        self.slots.lock()[idx].state
    }

    /// The replica's enclave.
    ///
    /// # Panics
    /// Panics when the slot is `Cold` or `Dead` — touching a dead
    /// replica's enclave is a lifecycle bug, not a recoverable error.
    #[must_use]
    pub fn enclave(&self, idx: usize) -> Arc<Enclave> {
        let slots = self.slots.lock();
        let slot = &slots[idx];
        assert!(
            !matches!(slot.state, ReplicaState::Cold | ReplicaState::Dead),
            "replica {idx} has no live enclave ({:?})",
            slot.state
        );
        Arc::clone(slot.enclave.as_ref().expect("live slot has an enclave"))
    }

    /// Indices of replicas currently in `Serving`.
    #[must_use]
    pub fn serving(&self) -> Vec<usize> {
        self.slots
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == ReplicaState::Serving)
            .map(|(i, _)| i)
            .collect()
    }

    /// Promotes a `Restoring` replica into rotation.
    pub fn mark_serving(&self, idx: usize) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[idx];
        assert_eq!(
            slot.state,
            ReplicaState::Restoring,
            "only a restoring replica can start serving (replica {idx})"
        );
        slot.state = ReplicaState::Serving;
    }

    /// Fences a `Serving` replica out of new work (shards stop being
    /// assigned to it; it still answers what it already reaped).
    pub fn mark_draining(&self, idx: usize) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[idx];
        assert_eq!(
            slot.state,
            ReplicaState::Serving,
            "only a serving replica can drain (replica {idx})"
        );
        slot.state = ReplicaState::Draining;
    }

    /// Destroys the replica's enclave, reclaiming its EPC frames and
    /// swap. Valid from `Serving` (abrupt kill at a fence),
    /// `Draining` (graceful) or `Restoring` (provisioning abandoned:
    /// the state it was sent was refused). The slot ends `Dead` and
    /// can be respawned.
    pub fn kill(&self, idx: usize) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[idx];
        assert!(
            !matches!(slot.state, ReplicaState::Cold | ReplicaState::Dead),
            "kill needs a live replica (replica {idx} is {:?})",
            slot.state
        );
        let e = slot.enclave.take().expect("live slot has an enclave");
        self.machine.driver.destroy_enclave(&self.machine, &e);
        slot.state = ReplicaState::Dead;
    }

    /// Replaces a `Dead` (or `Cold`) slot with a fresh enclave in
    /// `Restoring`. The new enclave has a new id and sealing identity:
    /// nothing sealed by its predecessor opens under it, which is why
    /// restore traffic flows as a portable `eleos_core::snapshot`
    /// blob (sealed under a key both ends share) rather than raw swap
    /// pages.
    pub fn respawn(&self, idx: usize) -> Arc<Enclave> {
        let mut slots = self.slots.lock();
        let slot = &mut slots[idx];
        assert!(
            matches!(slot.state, ReplicaState::Dead | ReplicaState::Cold),
            "respawn needs a dead slot (replica {idx} is {:?})",
            slot.state
        );
        let e = self
            .machine
            .driver
            .create_enclave(&self.machine, self.linear_bytes);
        slot.enclave = Some(Arc::clone(&e));
        slot.state = ReplicaState::Restoring;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn fleet(n: usize) -> (Arc<SgxMachine>, Fleet) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let f = Fleet::new(&m, n, 1 << 20);
        (m, f)
    }

    #[test]
    fn lifecycle_happy_path() {
        let (m, f) = fleet(2);
        assert_eq!(f.len(), 2);
        assert_eq!(m.driver.active_enclaves(), 2);
        for i in 0..2 {
            assert_eq!(f.state(i), ReplicaState::Restoring);
            f.mark_serving(i);
        }
        assert_eq!(f.serving(), vec![0, 1]);
        f.mark_draining(0);
        assert_eq!(f.serving(), vec![1]);
        f.kill(0);
        assert_eq!(f.state(0), ReplicaState::Dead);
        assert_eq!(m.driver.active_enclaves(), 1);
        let e = f.respawn(0);
        assert_eq!(f.state(0), ReplicaState::Restoring);
        assert_eq!(m.driver.active_enclaves(), 2);
        // The respawned enclave is a new identity.
        assert_ne!(e.id, f.enclave(1).id);
        // Provisioning can be abandoned: the slot is dead again.
        f.kill(0);
        assert_eq!(f.state(0), ReplicaState::Dead);
        assert_eq!(m.driver.active_enclaves(), 1);
    }

    #[test]
    fn kill_reclaims_epc_frames() {
        let (m, f) = fleet(2);
        f.mark_serving(0);
        f.mark_serving(1);
        let e = f.enclave(0);
        let mut t = crate::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let buf = e.alloc(8 * eleos_sim::costs::PAGE_SIZE);
        t.write_enclave(buf, &[7u8; 8 * eleos_sim::costs::PAGE_SIZE]);
        t.exit();
        assert!(m.driver.resident_frames(e.id) >= 8);
        let free_before = m.driver.free_frames();
        f.kill(0);
        assert_eq!(m.driver.resident_frames(e.id), 0);
        assert!(m.driver.free_frames() >= free_before + 8);
    }

    #[test]
    #[should_panic(expected = "only a restoring replica can start serving")]
    fn double_promotion_fails_fast() {
        let (_m, f) = fleet(1);
        f.mark_serving(0);
        f.mark_serving(0);
    }

    #[test]
    #[should_panic(expected = "kill needs a live replica")]
    fn double_kill_fails_fast() {
        let (_m, f) = fleet(1);
        f.mark_serving(0);
        f.kill(0);
        f.kill(0);
    }

    #[test]
    #[should_panic(expected = "has no live enclave")]
    fn dead_enclave_access_fails_fast() {
        let (_m, f) = fleet(1);
        f.mark_serving(0);
        f.kill(0);
        let _ = f.enclave(0);
    }
}
