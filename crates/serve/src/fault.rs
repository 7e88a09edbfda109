//! Deterministic fault injection for the multi-process shard host.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This module describes failures *declaratively* — a
//! [`FaultPlan`] maps worker slots to a [`WorkerFault`] — and the rest
//! of the serving stack (worker loop, supervisor) executes them at
//! fixed, deterministic checkpoints. The same plan therefore produces
//! the same failure schedule on every run, which is what lets the
//! fault-injection tests assert *bit-identical* merged winners rather
//! than "it didn't crash".
//!
//! Two delivery paths exist:
//!
//! * **Worker-side faults** ([`WorkerFault::DieAt`],
//!   [`StallBeforeResult`](WorkerFault::StallBeforeResult),
//!   [`CorruptResult`](WorkerFault::CorruptResult),
//!   [`DropResult`](WorkerFault::DropResult),
//!   [`SlowFrames`](WorkerFault::SlowFrames)) are executed by the
//!   worker loop itself. For real processes they travel in the
//!   [`FAULT_ENV`] environment variable; in-thread workers receive them
//!   directly.
//! * **Parent-side kills** ([`WorkerFault::KillAfterFrames`]) are
//!   executed by the supervisor: it counts frames received from the
//!   slot since dispatch and delivers a real kill (SIGKILL for
//!   processes) once the count is reached — the worker gets no chance
//!   to clean up, which is exactly the point.
//!
//! Faults apply to a slot's *first* spawn only; restarted workers come
//! up clean, so every injected failure is recoverable by supervision.

use std::collections::HashMap;

/// Environment variable carrying a worker-side fault to a spawned
/// process (value format: [`WorkerFault::to_env`]).
pub const FAULT_ENV: &str = "SPARSELOOP_WORKER_FAULT";

/// Deterministic checkpoints at which a worker can be told to die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiePoint {
    /// Exit before sending anything (spawn looks successful, then the
    /// pipe is dead).
    Startup,
    /// Exit right after the `Hello` handshake (dies while idle).
    AfterHello,
    /// Exit after computing a task but before sending its result (the
    /// most expensive place to lose a worker).
    BeforeResult,
}

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Worker exits silently at the given checkpoint.
    DieAt(DiePoint),
    /// Worker computes its task, then stalls without sending the result
    /// or further heartbeats — exercises the heartbeat-timeout path.
    StallBeforeResult,
    /// Worker sends its result frame with one payload byte flipped
    /// after checksumming — exercises the corrupt-frame path.
    CorruptResult,
    /// Worker silently discards its result frame and goes back to
    /// waiting for commands — the parent sees heartbeats stop with no
    /// death signal and must time the slot out.
    DropResult,
    /// Parent kills the worker (SIGKILL for processes) once it has
    /// received this many frames from it since task dispatch.
    KillAfterFrames(u32),
    /// Worker computes its task, then *delays* (never drops) its result
    /// frames by this many milliseconds, silently — a deterministic
    /// straggler that is late but alive. The delay must stay under the
    /// host's heartbeat timeout to ride through without a restart.
    SlowFrames {
        /// Delay before the result frames are written, milliseconds.
        delay_ms: u64,
    },
}

impl WorkerFault {
    /// Serializes a *worker-side* fault for [`FAULT_ENV`]; `None` for
    /// parent-side faults (they never travel to the worker).
    pub fn to_env(self) -> Option<String> {
        match self {
            WorkerFault::DieAt(DiePoint::Startup) => Some("die:startup".into()),
            WorkerFault::DieAt(DiePoint::AfterHello) => Some("die:hello".into()),
            WorkerFault::DieAt(DiePoint::BeforeResult) => Some("die:result".into()),
            WorkerFault::StallBeforeResult => Some("stall".into()),
            WorkerFault::CorruptResult => Some("corrupt".into()),
            WorkerFault::DropResult => Some("drop".into()),
            WorkerFault::SlowFrames { delay_ms } => Some(format!("slow:{delay_ms}")),
            WorkerFault::KillAfterFrames(_) => None,
        }
    }

    /// Parses a [`FAULT_ENV`] value written by [`to_env`](Self::to_env).
    pub fn from_env(value: &str) -> Option<WorkerFault> {
        match value {
            "die:startup" => Some(WorkerFault::DieAt(DiePoint::Startup)),
            "die:hello" => Some(WorkerFault::DieAt(DiePoint::AfterHello)),
            "die:result" => Some(WorkerFault::DieAt(DiePoint::BeforeResult)),
            "stall" => Some(WorkerFault::StallBeforeResult),
            "corrupt" => Some(WorkerFault::CorruptResult),
            "drop" => Some(WorkerFault::DropResult),
            _ => {
                let delay_ms = value.strip_prefix("slow:")?.parse().ok()?;
                Some(WorkerFault::SlowFrames { delay_ms })
            }
        }
    }
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
    fn env_roundtrip_for_worker_side_faults() {
        let faults = [
            WorkerFault::DieAt(DiePoint::Startup),
            WorkerFault::DieAt(DiePoint::AfterHello),
            WorkerFault::DieAt(DiePoint::BeforeResult),
            WorkerFault::StallBeforeResult,
            WorkerFault::CorruptResult,
            WorkerFault::DropResult,
            WorkerFault::SlowFrames { delay_ms: 35 },
        ];
        for f in faults {
            let env = f.to_env().expect("worker-side fault serializes");
            assert_eq!(WorkerFault::from_env(&env), Some(f));
        }
        assert_eq!(WorkerFault::KillAfterFrames(2).to_env(), None);
        assert_eq!(WorkerFault::from_env("nonsense"), None);
    }

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
