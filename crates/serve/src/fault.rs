//! Deterministic fault injection for the multi-process shard host.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This module describes failures *declaratively* — a
//! [`FaultPlan`] maps worker slots to a [`WorkerFault`] — and the
//! parent side of the serving stack (the worker-stream reader, the
//! supervisor) executes them at fixed, deterministic checkpoints. The same plan therefore produces
//! the same failure schedule on every run, which is what lets the
//! fault-injection tests assert *bit-identical* merged winners rather
//! than "it didn't crash".
//!
//! Every fault is delivered by the parent, so a worker only ever runs
//! the production loop:
//!
//! * **Stream faults** ([`WorkerFault::DieAt`],
//!   [`StallBeforeResult`](WorkerFault::StallBeforeResult),
//!   [`CorruptResult`](WorkerFault::CorruptResult),
//!   [`DropResult`](WorkerFault::DropResult),
//!   [`SlowFrames`](WorkerFault::SlowFrames)) are executed on the
//!   parent's end of the worker's frame stream, by the reader thread
//!   both spawners run: it ends, swallows, delays or corrupts the
//!   worker's frames exactly as a faulting worker would have sent them.
//! * **Kills** ([`WorkerFault::KillAfterFrames`]) are executed by the
//!   supervisor: it counts frames received from the slot since
//!   dispatch and delivers a real kill (SIGKILL for processes) once the
//!   count is reached — the worker gets no chance to clean up, which
//!   is exactly the point.
//!
//! Faults apply to a slot's *first* spawn only; restarted workers come
//! up clean, so every injected failure is recoverable by supervision.

use std::collections::HashMap;

/// Deterministic checkpoints at which a worker's stream can end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiePoint {
    /// Before anything arrives (spawn looks successful, then the worker
    /// is dead).
    Startup,
    /// Right after the `Hello` handshake (dies while idle).
    AfterHello,
    /// After the first task is computed, in place of its result (the
    /// most expensive place to lose a worker).
    BeforeResult,
}

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker's stream ends cleanly at the given checkpoint; the
    /// supervisor books the death and drops the worker.
    DieAt(DiePoint),
    /// The worker computes its task, then its stream goes silent: no
    /// result, no further heartbeats — exercises the heartbeat-timeout
    /// path.
    StallBeforeResult,
    /// The worker's first result frame arrives with one payload byte
    /// flipped after checksumming — exercises the corrupt-frame path.
    CorruptResult,
    /// The worker's first result frame (and the `Stats` ahead of it) is
    /// silently discarded while the worker waits for commands — the
    /// parent sees heartbeats stop with no death signal and must time
    /// the slot out.
    DropResult,
    /// Parent kills the worker (SIGKILL for processes) once it has
    /// received this many frames from it since task dispatch.
    KillAfterFrames(u32),
    /// The worker's first result frames arrive *late* (never dropped)
    /// by this many milliseconds, with nothing in between — a
    /// deterministic straggler that is late but alive. The delay must
    /// stay under the host's heartbeat timeout to ride through without
    /// a restart.
    SlowFrames {
        /// Delay before the result frames are forwarded, milliseconds.
        delay_ms: u64,
    },
}

/// A deterministic schedule of injected failures, keyed by worker slot.
///
/// Each slot's fault is consumed by that slot's first spawn; the
/// restarted worker runs clean.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: HashMap<u32, WorkerFault>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault for `slot` (builder-style).
    pub fn with(mut self, slot: u32, fault: WorkerFault) -> Self {
        self.faults.insert(slot, fault);
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Removes and returns the fault scheduled for `slot`, if any —
    /// called once per slot at first spawn.
    pub fn take(&mut self, slot: u32) -> Option<WorkerFault> {
        self.faults.remove(&slot)
    }

    /// Peeks at the fault scheduled for `slot` without consuming it.
    pub fn peek(&self, slot: u32) -> Option<WorkerFault> {
        self.faults.get(&slot).copied()
    }

    /// Derives a plan from a seed: one pseudo-random fault on one
    /// pseudo-random slot out of `workers`. Same seed, same plan —
    /// the harness sweeps seeds to sweep failure schedules.
    pub fn from_seed(seed: u64, workers: u32) -> Self {
        if workers == 0 {
            return FaultPlan::none();
        }
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64: tiny, dependency-free, well-distributed
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let slot = (next() % workers as u64) as u32;
        let fault = match next() % 8 {
            0 => WorkerFault::DieAt(DiePoint::Startup),
            1 => WorkerFault::DieAt(DiePoint::AfterHello),
            2 => WorkerFault::DieAt(DiePoint::BeforeResult),
            3 => WorkerFault::StallBeforeResult,
            4 => WorkerFault::CorruptResult,
            5 => WorkerFault::DropResult,
            6 => WorkerFault::SlowFrames {
                delay_ms: 10 * (1 + next() % 4),
            },
            _ => WorkerFault::KillAfterFrames((next() % 4) as u32),
        };
        FaultPlan::none().with(slot, fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_consume_faults_once() {
        let mut plan = FaultPlan::none().with(1, WorkerFault::StallBeforeResult);
        assert_eq!(plan.peek(1), Some(WorkerFault::StallBeforeResult));
        assert_eq!(plan.take(1), Some(WorkerFault::StallBeforeResult));
        assert_eq!(plan.take(1), None, "restarts come up clean");
        assert_eq!(plan.take(0), None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_varied() {
        for seed in 0..32u64 {
            let a = FaultPlan::from_seed(seed, 3);
            let b = FaultPlan::from_seed(seed, 3);
            for slot in 0..3 {
                assert_eq!(a.peek(slot), b.peek(slot), "seed {seed} slot {slot}");
            }
            assert!(!a.is_empty());
        }
        // the family must exercise more than one fault kind
        let kinds: std::collections::HashSet<String> = (0..32u64)
            .map(|s| {
                let p = FaultPlan::from_seed(s, 3);
                let f = (0..3).find_map(|slot| p.peek(slot)).unwrap();
                format!("{f:?}")
            })
            .collect();
        assert!(kinds.len() >= 4, "seed family too uniform: {kinds:?}");
        assert!(FaultPlan::from_seed(7, 0).is_empty());
    }
}
