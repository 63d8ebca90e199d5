//! Chaos & elasticity: fault injection, autoscaling, and rolling
//! rollouts for the cluster simulator.
//!
//! A fleet that only ever sees healthy replicas is a fleet nobody has
//! operated. This module scripts the unhappy paths against the
//! [`ClusterSim`](crate::cluster::ClusterSim) front end:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of
//!   [`FaultEvent`]s: replica crashes (warm sets and in-flight requests
//!   lost, placement re-replicates around the hole),
//! * [`Autoscaler`] — an SLO-pressure control loop that activates cold
//!   spare replicas when the live fleet's backlog climbs and drains the
//!   emptiest replica when it falls (new replicas start *cold*:
//!   prefetch races traffic to warm them),
//! * [`Rollout`] — a rolling delta-version upgrade: over a window, an
//!   increasing fraction of one model's traffic is remapped to its v2
//!   delta.
//!
//! The front end applies crashes, restarts and autoscaler ticks through
//! the crate-private `Membership`, which holds the rules: a crash of a
//! down replica does nothing, a restart revives only a down replica, and
//! scale-up never activates a replica whose restart is pending.
//!
//! Everything is driven by **one recorded seed** ([`ChaosConfig::seed`])
//! so a chaos run is exactly reproducible: the rollout coin flips, and
//! nothing else, consume randomness.

// ---------------------------------------------------------------------------
// Faults.
// ---------------------------------------------------------------------------

/// What goes wrong when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica process dies at the event time: its host warm set and
    /// decoded cache are lost, every in-flight request is lost and
    /// re-queued at the front end, and the router stops scoring it.
    /// With `restart_after_s = Some(d)` the replica comes back — cold —
    /// `d` seconds later; `None` means it stays down for the whole run.
    Crash {
        /// Replica to kill.
        replica: usize,
        /// Seconds until the replica restarts (cold); `None` = never.
        restart_after_s: Option<f64>,
    },
}

/// One scheduled fault: `kind` fires at simulation time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time (s) the fault fires.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: events sorted by fire time, built
/// with [`scripted`](FaultPlan::scripted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A scripted schedule; events are sorted by fire time.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultPlan { events }
    }

    /// The schedule, sorted by fire time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The plan's crashes as membership events, with their fire times.
    pub(crate) fn crashes(&self) -> impl Iterator<Item = (f64, MemberEvent)> + '_ {
        self.events.iter().map(|ev| {
            let FaultKind::Crash {
                replica,
                restart_after_s,
            } = ev.kind;
            (
                ev.at.max(0.0),
                MemberEvent::Crash {
                    replica,
                    restart_after_s,
                },
            )
        })
    }

    /// Panics if an event names a replica `>= n_replicas`.
    pub(crate) fn assert_replicas_below(&self, n_replicas: usize) {
        for ev in &self.events {
            let FaultKind::Crash { replica, .. } = ev.kind;
            assert!(
                replica < n_replicas,
                "fault at {}s names replica {replica} of {n_replicas}",
                ev.at
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Autoscaling.
// ---------------------------------------------------------------------------

/// SLO-pressure-driven autoscaling: a control loop sampled every
/// `interval_s` of simulation time over the *live* fleet's mean
/// estimated backlog.
///
/// * mean backlog > `up_backlog_s` → activate the lowest-id down replica
///   with no pending restart, if any, under `max_replicas`;
/// * mean backlog < `down_backlog_s` → drain the live replica that
///   empties first, lowest id on ties (it stops receiving traffic but
///   finishes what it has), down to `min_replicas`.
///
/// `cooldown_s` suppresses flapping: after any scale action the loop
/// holds for that long. New replicas start **cold** — empty predicted
/// warm set and a fresh engine epoch — so the cost of elasticity (cache
/// refill racing traffic) is modeled, not assumed away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Autoscaler {
    /// Never drain below this many live replicas.
    pub min_replicas: usize,
    /// Never activate beyond this many live replicas (capped by the
    /// cluster's configured replica count).
    pub max_replicas: usize,
    /// Mean live backlog (s) above which the fleet scales up.
    pub up_backlog_s: f64,
    /// Mean live backlog (s) below which the fleet scales down.
    pub down_backlog_s: f64,
    /// Control-loop sampling interval (s).
    pub interval_s: f64,
    /// Minimum seconds between scale actions.
    pub cooldown_s: f64,
}

impl Autoscaler {
    /// A loop between `min` and `max` live replicas with bench-tuned
    /// thresholds: scale up past 20 s mean backlog, down under 2 s,
    /// sampled every 5 s with a 15 s cooldown.
    pub fn new(min: usize, max: usize) -> Self {
        Autoscaler {
            min_replicas: min.max(1),
            max_replicas: max.max(min.max(1)),
            up_backlog_s: 20.0,
            down_backlog_s: 2.0,
            interval_s: 5.0,
            cooldown_s: 15.0,
        }
    }

    /// Panics unless `interval_s` is finite and positive: a zero or NaN
    /// interval would tick the control loop forever at one instant.
    pub(crate) fn assert_interval(&self) {
        assert!(
            self.interval_s.is_finite() && self.interval_s > 0.0,
            "autoscaler interval_s {} must be finite and positive",
            self.interval_s
        );
    }

    /// The control decision for one tick: `+1` (scale up), `-1` (scale
    /// down), or `0` (hold), given the live count and the mean backlog
    /// across live replicas.
    pub fn decide(&self, live: usize, mean_backlog_s: f64) -> i32 {
        if mean_backlog_s > self.up_backlog_s && live < self.max_replicas {
            1
        } else if mean_backlog_s < self.down_backlog_s && live > self.min_replicas {
            -1
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Replica membership.
// ---------------------------------------------------------------------------

/// A membership change scheduled on a simulator's event heap.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemberEvent {
    /// A crash from the fault plan fires.
    Crash {
        replica: usize,
        restart_after_s: Option<f64>,
    },
    /// A crashed replica rejoins, cold.
    Restart { replica: usize },
    /// Autoscaler control-loop sample.
    Tick,
}

/// The replica an autoscaler tick activated or drained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scale {
    Up(usize),
    Down(usize),
}

/// Which replicas are live, and the rules that change it.
#[derive(Debug)]
pub(crate) struct Membership {
    alive: Vec<bool>,
    /// Down with a restart scheduled: scale-up must not activate it.
    pending_restart: Vec<bool>,
    live: usize,
    /// Bumped whenever the live set changes; routers that cache
    /// membership (the hash ring) rebuild when it moves.
    epoch: u64,
    /// Fewest and most live replicas so far.
    pub(crate) min_live: usize,
    pub(crate) max_live: usize,
    last_scale_at: f64,
}

impl Membership {
    /// `n` replicas, of which ids `0..initial_live` start live.
    pub(crate) fn new(n: usize, initial_live: usize) -> Self {
        Membership {
            alive: (0..n).map(|r| r < initial_live).collect(),
            pending_restart: vec![false; n],
            live: initial_live,
            epoch: 0,
            min_live: initial_live,
            max_live: initial_live,
            last_scale_at: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn is_alive(&self, r: usize) -> bool {
        self.alive[r]
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What scale-up activates: the lowest-id down replica that no
    /// scheduled restart will bring back.
    pub(crate) fn spare(&self) -> Option<usize> {
        (0..self.alive.len()).find(|&r| !self.alive[r] && !self.pending_restart[r])
    }

    /// Crashes replica `r` at `t`: `None` when it is already down (the
    /// crash does nothing), else `Some` of when its restart fires, if
    /// it has one.
    pub(crate) fn crash(
        &mut self,
        r: usize,
        t: f64,
        restart_after_s: Option<f64>,
    ) -> Option<Option<f64>> {
        if !self.alive[r] {
            return None;
        }
        self.down(r);
        self.pending_restart[r] = restart_after_s.is_some();
        Some(restart_after_s.map(|d| t + d.max(0.0)))
    }

    /// Brings replica `r` back up; `false` when it is already live.
    pub(crate) fn restart(&mut self, r: usize) -> bool {
        if self.alive[r] {
            return false;
        }
        self.up(r);
        true
    }

    /// One autoscaler sample at `t` over the live replicas' mean
    /// backlog, where `busy_until(r)` is when replica `r` drains its
    /// queue.
    pub(crate) fn autoscale(
        &mut self,
        t: f64,
        scaler: &Autoscaler,
        busy_until: impl Fn(usize) -> f64,
    ) -> Option<Scale> {
        if t - self.last_scale_at < scaler.cooldown_s {
            return None;
        }
        let live_ids = (0..self.alive.len()).filter(|&r| self.alive[r]);
        // An empty live set is infinite pressure.
        let mean_backlog = if self.live == 0 {
            f64::INFINITY
        } else {
            live_ids
                .clone()
                .map(|r| (busy_until(r) - t).max(0.0))
                .sum::<f64>()
                / self.live as f64
        };
        let scale = match scaler.decide(self.live, mean_backlog) {
            1 => Scale::Up(self.spare()?),
            -1 => Scale::Down(live_ids.min_by(|&a, &b| busy_until(a).total_cmp(&busy_until(b)))?),
            _ => return None,
        };
        match scale {
            Scale::Up(r) => self.up(r),
            Scale::Down(r) => self.down(r),
        }
        self.last_scale_at = t;
        Some(scale)
    }

    fn up(&mut self, r: usize) {
        self.alive[r] = true;
        self.pending_restart[r] = false;
        self.live += 1;
        self.epoch += 1;
        self.max_live = self.max_live.max(self.live);
    }

    fn down(&mut self, r: usize) {
        self.alive[r] = false;
        self.live -= 1;
        self.epoch += 1;
        self.min_live = self.min_live.min(self.live);
    }
}

// ---------------------------------------------------------------------------
// Rolling rollout.
// ---------------------------------------------------------------------------

/// A rolling delta-version upgrade: over `[start_s, start_s +
/// duration_s)` an increasing fraction of `model`'s traffic is remapped
/// to the `v2` model id; after the window, all of it.
///
/// The remap is a seeded coin flip per request (probability =
/// [`fraction_at`](Rollout::fraction_at)), so the rollout is gradual the
/// way a weighted canary is — not a hard cutover — and exactly
/// reproducible from [`ChaosConfig::seed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rollout {
    /// Model id whose traffic is being migrated (v1).
    pub model: usize,
    /// Replacement model id (v2) — must be a valid model in the trace's
    /// model space (`< n_models`).
    pub v2: usize,
    /// When the rollout starts (s).
    pub start_s: f64,
    /// Ramp length (s): traffic shifts linearly from 0% to 100% v2 over
    /// this window. Zero means an instant cutover at `start_s`.
    pub duration_s: f64,
}

impl Rollout {
    /// Fraction of `model`'s traffic on `v2` at time `now` (clamped to
    /// `[0, 1]`; zero before `start_s`).
    pub fn fraction_at(&self, now: f64) -> f64 {
        if now < self.start_s {
            0.0
        } else if self.duration_s <= 0.0 {
            1.0
        } else {
            ((now - self.start_s) / self.duration_s).clamp(0.0, 1.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Config + stats.
// ---------------------------------------------------------------------------

/// Everything chaotic about one cluster run, wired in via
/// [`ClusterSim::with_chaos`](crate::cluster::ClusterSim::with_chaos).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Elastic scaling, if enabled.
    pub autoscaler: Option<Autoscaler>,
    /// Rolling delta-version upgrades.
    pub rollouts: Vec<Rollout>,
    /// Master seed for every chaos-side random draw (rollout coin
    /// flips). Recorded in bench provenance so runs are reproducible.
    pub seed: u64,
    /// Live replicas at t=0; the rest are cold spares the autoscaler can
    /// activate. `None` starts everything live.
    pub initial_replicas: Option<usize>,
}

impl ChaosConfig {
    /// A config with only a fault plan (no autoscaler, no rollouts).
    pub fn faults(plan: FaultPlan, seed: u64) -> Self {
        ChaosConfig {
            plan,
            seed,
            ..ChaosConfig::default()
        }
    }
}

/// What the chaos machinery actually did during a run — reported in
/// [`ClusterReport::chaos`](crate::cluster::ClusterReport::chaos).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosStats {
    /// Crash faults fired.
    pub crashes: usize,
    /// Cold restarts completed.
    pub restarts: usize,
    /// In-flight requests lost to crashes and re-queued at the front
    /// end.
    pub lost_in_flight: usize,
    /// Requests shed because no replica was live and none was ever
    /// coming back (graceful degradation's last resort).
    pub shed_no_capacity: usize,
    /// Autoscaler scale-up actions.
    pub scale_ups: usize,
    /// Autoscaler scale-down actions.
    pub scale_downs: usize,
    /// Requests remapped v1 → v2 by rollouts.
    pub rollout_remapped: usize,
    /// Prefetch hints dropped because they targeted a dead replica.
    pub dropped_hints: usize,
    /// Fewest live replicas at any point of the run.
    pub min_live: usize,
    /// Most live replicas at any point of the run.
    pub max_live: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_sorts_its_events() {
        let crash = |at: f64, replica: usize| FaultEvent {
            at,
            kind: FaultKind::Crash {
                replica,
                restart_after_s: None,
            },
        };
        let plan = FaultPlan::scripted(vec![crash(30.0, 0), crash(5.0, 1), crash(12.5, 2)]);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, [5.0, 12.5, 30.0], "events must be sorted");
        assert!(FaultPlan::scripted(Vec::new()).is_empty());
    }

    #[test]
    fn rollout_fraction_ramps_linearly() {
        let ro = Rollout {
            model: 0,
            v2: 5,
            start_s: 10.0,
            duration_s: 20.0,
        };
        assert_eq!(ro.fraction_at(0.0), 0.0);
        assert_eq!(ro.fraction_at(10.0), 0.0);
        assert!((ro.fraction_at(20.0) - 0.5).abs() < 1e-12);
        assert_eq!(ro.fraction_at(30.0), 1.0);
        assert_eq!(ro.fraction_at(1e9), 1.0);
        let cutover = Rollout {
            duration_s: 0.0,
            ..ro
        };
        assert_eq!(cutover.fraction_at(9.9), 0.0);
        assert_eq!(cutover.fraction_at(10.0), 1.0);
    }

    #[test]
    fn autoscaler_decides_by_backlog_within_bounds() {
        let a = Autoscaler::new(1, 4);
        assert_eq!(a.decide(2, 100.0), 1, "pressure scales up");
        assert_eq!(a.decide(4, 100.0), 0, "capped at max");
        assert_eq!(a.decide(3, 0.5), -1, "idle scales down");
        assert_eq!(a.decide(1, 0.0), 0, "floored at min");
        assert_eq!(a.decide(2, 10.0), 0, "hysteresis band holds");
    }

    /// Up past 1 s of mean backlog, down under 0.5 s, between 1 and 4
    /// live replicas.
    fn scaler(cooldown_s: f64) -> Autoscaler {
        Autoscaler {
            up_backlog_s: 1.0,
            down_backlog_s: 0.5,
            cooldown_s,
            ..Autoscaler::new(1, 4)
        }
    }

    #[test]
    fn membership_drains_the_lowest_id_among_equal_backlogs() {
        let mut m = Membership::new(4, 4);
        let busy = [0.4, 0.1, 0.1, 0.4];
        assert_eq!(
            m.autoscale(0.0, &scaler(0.0), |r| busy[r]),
            Some(Scale::Down(1))
        );
        assert!(!m.is_alive(1) && m.is_alive(2));
        assert_eq!((m.live(), m.min_live), (3, 3));
    }

    #[test]
    fn membership_scale_up_skips_a_pending_restart() {
        let mut m = Membership::new(3, 3);
        assert_eq!(m.crash(0, 2.0, Some(10.0)), Some(Some(12.0)));
        assert_eq!(m.crash(1, 2.0, None), Some(None));
        assert_eq!(m.autoscale(3.0, &scaler(0.0), |_| 8.0), Some(Scale::Up(1)));
        assert!(!m.is_alive(0), "replica 0 waits for its own restart");
        assert!(m.restart(0));
        assert_eq!((m.live(), m.min_live, m.max_live), (3, 1, 3));
    }

    #[test]
    fn membership_crash_of_a_down_replica_schedules_nothing() {
        let mut m = Membership::new(2, 2);
        assert_eq!(m.crash(0, 1.0, None), Some(None));
        assert_eq!(m.crash(0, 2.0, Some(3.0)), None);
        assert_eq!(m.spare(), Some(0), "no restart was recorded");
        assert_eq!((m.live(), m.epoch()), (1, 1), "the no-op keeps the epoch");
    }

    #[test]
    fn membership_restart_of_a_live_replica_is_a_no_op() {
        let mut m = Membership::new(2, 1);
        assert!(!m.restart(0));
        assert_eq!((m.live(), m.max_live, m.epoch()), (1, 1, 0));
        assert!(m.restart(1));
        assert_eq!((m.live(), m.max_live, m.epoch()), (2, 2, 1));
    }

    #[test]
    fn membership_cooldown_blocks_a_second_action() {
        let mut m = Membership::new(4, 2);
        let busy = |_| 10.0;
        assert_eq!(m.autoscale(0.0, &scaler(5.0), busy), Some(Scale::Up(2)));
        assert_eq!(m.autoscale(4.0, &scaler(5.0), busy), None);
        assert_eq!(m.epoch(), 1, "a blocked sample keeps the epoch");
        assert_eq!(m.autoscale(5.0, &scaler(5.0), busy), Some(Scale::Up(3)));
    }
}
