//! Drift-aware background recalibration: rotating replicas through a
//! reprogram while the fleet keeps serving.
//!
//! Analog conductances decay (the paper's §IV drift model), so a real
//! deployment periodically re-writes each tile from its digital weights.
//! Doing that fleet-wide means downtime; doing it **one replica at a
//! time** means none — a model group with N members serves on N−1 while
//! the Nth is re-written. [`RecalHandle`] is that rotation: a background
//! worker that wakes every [`RecalPolicy::cadence`], scans the router's
//! [`ShardHealth`] rows, and recalibrates the *stalest eligible* seat via
//! [`FleetHandle::recalibrate_shard`].
//!
//! ## What a rotation does — and what it never does
//!
//! One rotation drains exactly one seat, reprograms its replica from the
//! [`ShardSpec`](aimc_wire::ShardSpec) seed, drifts it to the fleet's
//! time since programming so the fresh conductances match the
//! incumbents' bit-for-bit, and returns the seat to the routing
//! rotation. Because every request carries its global stream coordinate
//! and noise is keyed by coordinate, the recalibrated replica computes
//! **the same bits at every coordinate** as any incumbent — so a rotation
//! never changes a completed logit, never changes an in-flight logit, and
//! never shifts a coordinate. The scheduler models the *operational
//! procedure* (which seat is out of rotation when, and what that costs in
//! capacity); the accuracy effect of skipping recalibration is quantified
//! separately by the drift ablation bench.
//!
//! ## Eligibility
//!
//! A seat is a candidate when it is not already draining and its
//! [`ShardHealth::drift_age`] has reached [`RecalPolicy::max_drift_age`]
//! (health rows cover seats in service only: a retired seat has none).
//! A candidate is **eligible** only if taking it out of rotation leaves at
//! least [`RecalPolicy::min_live_per_group`] routable members serving its
//! model group — the live floor. The scheduler picks the eligible seat
//! with the largest drift age (ties break toward the lowest seat id), so
//! under steady drift every member of every group is rotated through in a
//! deterministic order.

use crate::handle::ServeError;
use crate::router::{FleetHandle, ShardHealth};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the background scheduler recalibrates, and what it refuses to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalPolicy {
    /// Drift transitions a replica may accumulate before it becomes a
    /// recalibration candidate (compared against
    /// [`ShardHealth::drift_age`]).
    pub max_drift_age: u64,
    /// The live floor: routable members a model group must keep **while
    /// one of its seats is out of rotation**. A candidate whose group
    /// would drop below this is skipped (and counted in
    /// [`RecalStats::skipped_live_floor`]).
    pub min_live_per_group: usize,
    /// How often the worker wakes to scan the fleet's health rows.
    pub cadence: Duration,
}

impl RecalPolicy {
    /// A policy recalibrating any replica older than `max_drift_age`
    /// drift transitions, with a live floor of 1 and a 100 ms scan
    /// cadence.
    pub fn new(max_drift_age: u64) -> Self {
        RecalPolicy {
            max_drift_age,
            min_live_per_group: 1,
            cadence: Duration::from_millis(100),
        }
    }

    /// Overrides the live floor (clamped to ≥ 1 at use — the router
    /// refuses to drain a group's last member regardless).
    pub fn with_live_floor(mut self, min_live_per_group: usize) -> Self {
        self.min_live_per_group = min_live_per_group;
        self
    }

    /// Overrides the scan cadence.
    pub fn with_cadence(mut self, cadence: Duration) -> Self {
        self.cadence = cadence;
        self
    }

    /// The id of the seat one scan would recalibrate, given the router's
    /// health rows (in id order): the stalest eligible seat, ties toward
    /// the lowest id. Pure — unit-testable without a fleet. The second
    /// return reports whether any aged-out candidate was blocked by the
    /// live floor.
    pub fn candidate(&self, health: &[ShardHealth]) -> (Option<usize>, bool) {
        let groups = health.iter().map(|h| h.group).max().map_or(0, |g| g + 1);
        let mut routable = vec![0usize; groups];
        for h in health.iter().filter(|h| !h.draining) {
            routable[h.group] += 1;
        }
        let floor = self.min_live_per_group.max(1);
        let mut best: Option<(u64, usize)> = None;
        let mut floor_blocked = false;
        for h in health {
            if h.draining || h.drift_age < self.max_drift_age {
                continue;
            }
            if routable[h.group] <= floor {
                floor_blocked = true;
                continue;
            }
            if best.is_none_or(|(age, _)| h.drift_age > age) {
                best = Some((h.drift_age, h.id));
            }
        }
        (best.map(|(_, id)| id), floor_blocked)
    }
}

impl Default for RecalPolicy {
    /// Recalibrate after a single drift transition, floor 1, 100 ms scans.
    fn default() -> Self {
        RecalPolicy::new(1)
    }
}

/// The background scheduler's ledger (see [`RecalHandle::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecalStats {
    /// Health scans performed.
    pub scans: u64,
    /// Seats successfully recalibrated.
    pub rotations: u64,
    /// Scans where an aged-out seat existed but every candidate was
    /// blocked by the live floor.
    pub skipped_live_floor: u64,
    /// Recalibrations that failed (the router retires such a seat).
    pub failures: u64,
    /// The seat id of the most recent successful rotation.
    pub last_rotated: Option<usize>,
}

struct RecalShared {
    stop: Mutex<bool>,
    cv: Condvar,
    stats: Mutex<RecalStats>,
}

/// A running background recalibration worker over one fleet. Stop it with
/// [`RecalHandle::stop`]; dropping the handle stops it too.
pub struct RecalHandle {
    shared: Arc<RecalShared>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RecalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecalHandle")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl RecalHandle {
    /// Starts the background worker over `fleet` (any clone) under
    /// `policy`. The worker holds a fleet clone, so the fleet outlives the
    /// scheduler; stop the scheduler before fleet shutdown for a clean
    /// exit (a scan against a closed fleet just counts a failure).
    pub fn start(fleet: FleetHandle, policy: RecalPolicy) -> Self {
        let shared = Arc::new(RecalShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
            stats: Mutex::new(RecalStats::default()),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("aimc-recal".into())
            .spawn(move || loop {
                {
                    let stopped = worker_shared.stop.lock().unwrap();
                    let (stopped, _) = worker_shared
                        .cv
                        .wait_timeout_while(stopped, policy.cadence, |s| !*s)
                        .unwrap();
                    if *stopped {
                        return;
                    }
                }
                Self::scan(&fleet, &policy, &worker_shared);
            })
            .expect("spawn recal worker");
        RecalHandle {
            shared,
            worker: Some(worker),
        }
    }

    /// One scan: pick the stalest eligible seat and rotate it.
    fn scan(fleet: &FleetHandle, policy: &RecalPolicy, shared: &RecalShared) {
        let (candidate, floor_blocked) = policy.candidate(&fleet.shard_health());
        let mut stats = shared.stats.lock().unwrap();
        stats.scans += 1;
        if floor_blocked {
            stats.skipped_live_floor += 1;
        }
        let Some(id) = candidate else { return };
        // Rotate outside the stats lock: a drain can take a while and
        // stats() must stay responsive.
        drop(stats);
        let outcome = fleet.recalibrate_shard(id);
        let mut stats = shared.stats.lock().unwrap();
        match outcome {
            Ok(()) => {
                stats.rotations += 1;
                stats.last_rotated = Some(id);
            }
            // The health snapshot raced a concurrent eviction or drain:
            // the floor held at decision time, count it as a skip.
            Err(ServeError::LiveFloor) => stats.skipped_live_floor += 1,
            Err(_) => stats.failures += 1,
        }
    }

    /// Point-in-time scheduler counters.
    pub fn stats(&self) -> RecalStats {
        self.shared.stats.lock().unwrap().clone()
    }

    /// Stops the worker and waits for any in-progress rotation to finish.
    /// Idempotent.
    pub fn stop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for RecalHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl FleetHandle {
    /// Starts a background recalibration scheduler over this fleet (see
    /// [`RecalHandle`]).
    pub fn start_recal(&self, policy: RecalPolicy) -> RecalHandle {
        RecalHandle::start(self.clone(), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The health row of seat `id`.
    fn row(id: usize, group: usize, draining: bool, drift_age: u64) -> ShardHealth {
        ShardHealth {
            id,
            model_id: format!("m{group}"),
            group,
            draining,
            drift_age,
            recals: 0,
        }
    }

    #[test]
    fn candidate_picks_the_stalest_eligible_seat() {
        let policy = RecalPolicy::new(2);
        // Seat 7 is stalest; seat 3 aged out but younger; seat 4 fresh.
        // The candidate is named by id, not by row position.
        let health = vec![
            row(3, 0, false, 2),
            row(4, 0, false, 0),
            row(7, 0, false, 5),
        ];
        assert_eq!(policy.candidate(&health), (Some(7), false));
        // Ties break toward the lowest seat id.
        let health = vec![
            row(0, 0, false, 5),
            row(1, 0, false, 5),
            row(2, 0, false, 5),
        ];
        assert_eq!(policy.candidate(&health), (Some(0), false));
        // Nothing aged out: no candidate, no floor pressure.
        let health = vec![row(0, 0, false, 1), row(1, 0, false, 0)];
        assert_eq!(policy.candidate(&health), (None, false));
    }

    #[test]
    fn candidate_respects_the_live_floor_per_group() {
        let policy = RecalPolicy::new(1);
        // Group 0 has one member: aged out but rotating it would empty the
        // group — floor-blocked. Group 1 has two: its stale seat rotates.
        let health = vec![
            row(0, 0, false, 9),
            row(1, 1, false, 3),
            row(2, 1, false, 0),
        ];
        assert_eq!(policy.candidate(&health), (Some(1), true));
        // A higher floor blocks the two-member group too.
        let policy = policy.with_live_floor(2);
        assert_eq!(policy.candidate(&health), (None, true));
    }

    #[test]
    fn candidate_ignores_dead_and_draining_seats() {
        let policy = RecalPolicy::new(1);
        // A draining seat neither rotates nor holds the floor: with it
        // out, the group's only other member is floor-blocked.
        let health = vec![row(0, 0, true, 9), row(1, 0, false, 4)];
        assert_eq!(policy.candidate(&health), (None, true));
    }
}
