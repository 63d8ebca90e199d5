//! Cluster-scale serving: placement-aware multi-replica scheduling.
//!
//! The paper's serving story (§6) is ultimately about a *fleet*: many
//! base-model replicas, each holding a subset of deltas warm, with
//! requests routed to where their delta already lives. This module is
//! that layer:
//!
//! * [`ClusterSim`] owns `R` replicas — each an independent
//!   [`DeltaZipEngine`](crate::DeltaZipEngine) with its own cost model
//!   and its own warm set — and replays a trace through a front-end
//!   router,
//! * [`Router`] is the pluggable routing policy, shared with
//!   [`FleetSim`](crate::fleet::FleetSim): [`RoundRobinRouter`]
//!   (baseline), [`LeastLoadedRouter`] (queue-depth only),
//!   [`PlacementAwareRouter`] (scores replicas by delta warmth — a
//!   host-cache hit beats a disk miss — combined with backlog), and the
//!   fleet-scale [`PowerOfTwoRouter`], [`ConsistentHashRouter`] and
//!   [`LeastCostRouter`],
//! * [`PlacementPlan`] turns popularity skew
//!   ([`dz_workload::PopularityDist`]) into delta replication decisions:
//!   hot deltas get homes on several replicas, cold deltas get exactly
//!   one; the placement-aware router can re-derive the plan online from
//!   observed traffic (delta migration),
//! * [`AdmissionConfig`] adds SLO-aware admission control: when every
//!   replica is saturated, `Batch`-class requests (per [`SloPolicy`]) are
//!   deferred and ultimately shed instead of poisoning the tail,
//! * [`ClusterReport`] aggregates per-replica [`Metrics`] into
//!   cluster-level percentile latency, goodput, and cache-hit accounting.
//!
//! The router sees the fleet the way a real front-end does: through an
//! *estimated* queue depth and a *predicted* warm set per replica (updated
//! at every routing decision), not through the replicas' exact state. The
//! replicas themselves then replay their assigned sub-traces with the full
//! engine, so reported latencies include the true cold/warm load charges
//! their routed request mix produced.

use crate::chaos::{ChaosConfig, ChaosStats, MemberEvent, Membership, Scale};
use crate::cost::CostModel;
use crate::deltazip::DeltaZipConfig;
use crate::metrics::{Metrics, RequestRecord, SwapStats};
use crate::slo::{SloClass, SloPolicy};
use crate::Engine;
use dz_gpusim::{EventClass, EventQueue};
use dz_tensor::Rng;
use dz_trace::{GaugeSample, TraceConfig, TraceEvent, TraceTrack, Tracer};
use dz_workload::{PopularityDist, Request, Trace, TraceSpec};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Router-visible replica state.
// ---------------------------------------------------------------------------

/// What the front-end router knows about one replica when it routes a
/// request: estimates maintained by [`ClusterSim`], not ground truth.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaView {
    /// Replica id (`0..n_replicas`).
    pub id: usize,
    /// Estimated requests queued or running on the replica right now.
    pub queue_depth: usize,
    /// Estimated seconds of work outstanding on the replica.
    pub backlog_s: f64,
    /// Whether the routed request's delta is predicted warm (host-cache
    /// resident) on this replica.
    pub warm: bool,
    /// Whether the delta's **decoded** copy is predicted resident on this
    /// replica — a decode-free hit, cheaper than a plain warm hit
    /// (implies `warm`).
    pub decoded: bool,
    /// Estimated extra seconds a cold (disk-tier) delta load would cost on
    /// this replica — what routing to a non-warm replica risks paying.
    pub cold_load_s: f64,
    /// Estimated extra seconds a warm-but-not-decoded load would cost
    /// (the decode pipeline a decode-free hit skips).
    pub warm_load_s: f64,
    /// Whether the replica is live and routable. Replicas killed by a
    /// [`chaos`](crate::chaos) fault or drained by the autoscaler stay
    /// in the views slice (ids are positional) with `alive = false`;
    /// routers must never select a dead replica.
    pub alive: bool,
}

/// The fleet as a router sees it for one request: a [`ReplicaView`] per
/// replica id, built on demand, plus a membership epoch.
///
/// Views are lazy so an O(1) router stays O(1) on a thousand-replica
/// [`FleetSim`](crate::fleet::FleetSim): only the replicas it asks about
/// are looked at. The epoch changes exactly when the live set does (a
/// crash, restart or scale event), so a router may cache what it derives
/// from membership until the epoch moves.
pub trait ReplicaViews {
    /// Number of replicas, live or not (ids `0..len()`).
    fn len(&self) -> usize;
    /// Whether there are no replicas at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The view of replica `r < len()`.
    fn view(&self, r: usize) -> ReplicaView;
    /// Membership epoch these views were taken in.
    fn epoch(&self) -> u64;
}

impl dyn ReplicaViews + '_ {
    /// Every replica's view, in id order.
    pub fn iter(&self) -> impl Iterator<Item = ReplicaView> + '_ {
        (0..self.len()).map(|r| self.view(r))
    }
}

/// [`ReplicaViews`] over views already built, stamped with the epoch they
/// were built in: what [`ClusterSim`] hands its router.
#[derive(Debug, Clone, Copy)]
pub struct ViewSlice<'a> {
    /// One view per replica, indexed by id.
    pub views: &'a [ReplicaView],
    /// Membership epoch the views were built in.
    pub epoch: u64,
}

impl ReplicaViews for ViewSlice<'_> {
    fn len(&self) -> usize {
        self.views.len()
    }

    fn view(&self, r: usize) -> ReplicaView {
        self.views[r]
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A pluggable routing policy: given a request and a view of every
/// replica, pick the replica to serve it. [`ClusterSim`] and
/// [`FleetSim`](crate::fleet::FleetSim) both route through it.
///
/// The view for a request `r` has `warm` evaluated for `r.model` on each
/// replica. Implementations may keep internal state (round-robin cursors,
/// observed popularity counts, a sampling seed, a hash ring); both
/// simulators call `route` exactly once per routed request, in arrival
/// order, and only while at least one replica is live.
///
/// # Examples
///
/// A custom router that always picks the replica with the shortest
/// backlog, ignoring warmth:
///
/// ```
/// use dz_serve::cluster::{ReplicaViews, Router};
/// use dz_workload::Request;
///
/// struct ShortestBacklog;
/// impl Router for ShortestBacklog {
///     fn name(&self) -> String {
///         "shortest-backlog".into()
///     }
///     fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
///         views
///             .iter()
///             .filter(|v| v.alive) // never route to a dead replica
///             .min_by(|a, b| a.backlog_s.total_cmp(&b.backlog_s))
///             .expect("at least one live replica")
///             .id
///     }
/// }
/// ```
pub trait Router {
    /// Human-readable policy name for reports.
    fn name(&self) -> String;
    /// Chooses a live replica id (`< views.len()`) for the request.
    fn route(&mut self, req: &Request, views: &dyn ReplicaViews) -> usize;
    /// Prefetch hints to emit alongside this routing decision: replicas
    /// that should prewarm a delta disk→host because the policy expects
    /// traffic for it there soon. Called by [`ClusterSim`] right after
    /// [`route`](Self::route) (with the chosen replica) when cluster
    /// prefetch is enabled; the default emits none.
    fn prefetch_hints(
        &mut self,
        _req: &Request,
        _views: &dyn ReplicaViews,
        _routed: usize,
    ) -> Vec<PrefetchHint> {
        Vec::new()
    }
    /// Cumulative delta migrations the policy has triggered (placement
    /// rebalances). Stateless routers report none.
    fn migrations(&self) -> usize {
        0
    }
}

/// One routing-time prefetch hint: "replica `replica` should prewarm
/// model `model`'s delta".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchHint {
    /// Target replica id.
    pub replica: usize,
    /// Model whose delta should be prewarmed.
    pub model: usize,
}

/// The baseline: requests cycle over replicas regardless of load or
/// placement.
#[derive(Debug, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl RoundRobinRouter {
    /// Creates a cursor starting at replica 0.
    pub fn new() -> Self {
        RoundRobinRouter::default()
    }
}

impl Router for RoundRobinRouter {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
        // Cycle, skipping dead replicas: the cursor still advances one
        // step per probe so the rotation stays fair among the live set.
        for _ in 0..views.len() {
            let r = self.next % views.len();
            self.next = self.next.wrapping_add(1);
            if views.view(r).alive {
                return r;
            }
        }
        panic!("no live replica to route to");
    }
}

/// Pure load balancing: route to the replica with the fewest estimated
/// outstanding requests (ties broken by backlog seconds, then id).
#[derive(Debug, Default)]
pub struct LeastLoadedRouter;

impl LeastLoadedRouter {
    /// Creates the (stateless) policy.
    pub fn new() -> Self {
        LeastLoadedRouter
    }
}

impl Router for LeastLoadedRouter {
    fn name(&self) -> String {
        "least-loaded".into()
    }

    fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
        views
            .iter()
            .filter(|v| v.alive)
            .min_by(|a, b| {
                a.queue_depth
                    .cmp(&b.queue_depth)
                    .then(a.backlog_s.total_cmp(&b.backlog_s))
                    .then(a.id.cmp(&b.id))
            })
            .expect("at least one live replica")
            .id
    }
}

// ---------------------------------------------------------------------------
// Popularity-driven placement.
// ---------------------------------------------------------------------------

/// Which replicas hold (a copy of) each model's delta: the cluster's
/// replication decisions, derived from popularity skew.
///
/// Every model gets at least one *home* replica; models whose traffic
/// share exceeds `1/R` get proportionally more copies, so the head of a
/// Zipf distribution can be load-balanced while the tail stays pinned to
/// a single host cache (maximizing aggregate warm capacity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// `homes[model]` = sorted replica ids holding the model's delta.
    homes: Vec<Vec<usize>>,
    n_replicas: usize,
}

impl PlacementPlan {
    /// Builds a plan from per-model popularity weights (any non-negative
    /// scale). Models are placed hottest-first onto the least-loaded
    /// replicas; a model with traffic share `s` gets `ceil(s * R)` copies.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas == 0`.
    pub fn from_weights(weights: &[f64], n_replicas: usize) -> Self {
        Self::from_weights_live(weights, n_replicas, &vec![true; n_replicas])
    }

    /// Like [`from_weights`](Self::from_weights), but placing copies
    /// only onto *live* replicas (`live[r] == false` replicas get no
    /// homes). This is how placement **re-replicates around a crash**:
    /// re-deriving the plan with the dead replica masked out moves its
    /// deltas' homes onto the survivors. With no live replica at all,
    /// every replica is treated as a candidate (a plan must always
    /// exist).
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas == 0`.
    pub fn from_weights_live(weights: &[f64], n_replicas: usize, live: &[bool]) -> Self {
        assert!(n_replicas > 0, "need at least one replica");
        let mut candidates: Vec<usize> = (0..n_replicas)
            .filter(|&r| live.get(r).copied().unwrap_or(true))
            .collect();
        if candidates.is_empty() {
            candidates = (0..n_replicas).collect();
        }
        let n_live = candidates.len();
        let total: f64 = weights.iter().filter(|w| w.is_finite()).sum();
        let share = |w: f64| {
            if total > 0.0 && w.is_finite() {
                (w / total).max(0.0)
            } else if weights.is_empty() {
                0.0
            } else {
                1.0 / weights.len() as f64
            }
        };
        // Hottest first; ties broken by model id for determinism.
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            share(weights[b])
                .total_cmp(&share(weights[a]))
                .then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; n_replicas];
        let mut homes = vec![Vec::new(); weights.len()];
        for m in order {
            let s = share(weights[m]);
            let copies = ((s * n_live as f64).ceil() as usize).clamp(1, n_live);
            for _ in 0..copies {
                let r = candidates
                    .iter()
                    .copied()
                    .filter(|r| !homes[m].contains(r))
                    .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                    .expect("copies <= live replicas");
                load[r] += s / copies as f64;
                homes[m].push(r);
            }
            homes[m].sort_unstable();
        }
        PlacementPlan { homes, n_replicas }
    }

    /// Builds a plan from a popularity distribution's static weights (the
    /// skew the operator provisioned for).
    pub fn from_popularity(dist: PopularityDist, n_models: usize, n_replicas: usize) -> Self {
        Self::from_weights(&dist.weights(n_models), n_replicas)
    }

    /// Home replicas of a model. Models beyond the plan (unknown at
    /// planning time) report no homes; routers treat them as
    /// place-anywhere.
    pub fn homes(&self, model: usize) -> &[usize] {
        self.homes.get(model).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of replicas the plan was built for.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// How many models' home sets differ between `self` and `other` — the
    /// number of delta migrations a rebalance would trigger.
    pub fn migrations_from(&self, other: &PlacementPlan) -> usize {
        let n = self.homes.len().max(other.homes.len());
        (0..n).filter(|&m| self.homes(m) != other.homes(m)).count()
    }
}

/// Placement-aware routing: prefer a replica where the delta is warm,
/// fall back to the plan's home replicas, and spill to the globally best
/// replica only when the homes are badly backlogged.
///
/// Score of a replica = estimated backlog seconds + the cold-load penalty
/// if the delta is not warm there, so "host-cache hit beats disk miss"
/// and queue depth both count. The plan is re-derived from observed
/// traffic every 512 routed requests, so popularity drift migrates deltas
/// to new homes; [`pinned`](Self::pinned) keeps the initial plan.
#[derive(Debug)]
pub struct PlacementAwareRouter {
    plan: PlacementPlan,
    /// Extra backlog (s) a home replica may carry before the router
    /// spills the request to the globally cheapest replica.
    spill_margin_s: f64,
    /// Re-derive the plan from observed counts every this many requests;
    /// `None` keeps the initial plan for the whole run.
    rebalance_every: Option<usize>,
    /// Delta migrations (home-set changes) rebalancing has triggered,
    /// read through [`Router::migrations`].
    migrations: usize,
    counts: Vec<u64>,
    routed: usize,
    /// Live mask observed at the last routing decision; a change (crash,
    /// restart, scale event) forces an immediate re-replication.
    last_live: Vec<bool>,
    /// Per-replica scores of the current decision (see
    /// [`cheapest_live`](Self::cheapest_live)), rewritten every request.
    score_buf: Vec<f64>,
}

impl PlacementAwareRouter {
    /// Creates the router from an initial placement plan.
    pub fn new(plan: PlacementPlan) -> Self {
        let counts = vec![0; plan.homes.len()];
        PlacementAwareRouter {
            plan,
            spill_margin_s: 1.0,
            rebalance_every: Some(512),
            migrations: 0,
            counts,
            routed: 0,
            last_live: Vec::new(),
            score_buf: Vec::new(),
        }
    }

    /// Disables online rebalancing (the plan stays fixed).
    // dz-lint: allow(dead-pub, "fixed-plan placement router the routing unit tests and chaos liveness test drive")
    pub fn pinned(mut self) -> Self {
        self.rebalance_every = None;
        self
    }

    /// The current placement plan (after any rebalances).
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    fn score(v: &ReplicaView) -> f64 {
        // Decode-free hit beats a plain warm hit beats a disk miss.
        v.backlog_s
            + if !v.warm {
                v.cold_load_s
            } else if !v.decoded {
                v.warm_load_s
            } else {
                0.0
            }
    }

    /// The globally cheapest live replica and its score. One pass
    /// memoizes every replica's score into `scores` (dead replicas score
    /// infinity so they can never win); strict `<` keeps the first —
    /// lowest-id — replica on score ties, exactly like a
    /// `total_cmp(..).then(id.cmp(..))` comparator.
    fn cheapest_live(views: &dyn ReplicaViews, scores: &mut Vec<f64>) -> (usize, f64) {
        scores.clear();
        scores.reserve(views.len());
        let mut best: Option<(usize, f64)> = None;
        for v in views.iter() {
            debug_assert_eq!(v.id, scores.len(), "views must be positional");
            let s = if v.alive {
                Self::score(&v)
            } else {
                f64::INFINITY
            };
            scores.push(s);
            if v.alive && best.is_none_or(|(_, b)| s < b) {
                best = Some((v.id, s));
            }
        }
        best.expect("at least one live replica")
    }
}

impl Router for PlacementAwareRouter {
    fn name(&self) -> String {
        "placement-aware".into()
    }

    fn route(&mut self, req: &Request, views: &dyn ReplicaViews) -> usize {
        if req.model >= self.counts.len() {
            self.counts.resize(req.model + 1, 0);
        }
        self.counts[req.model] += 1;
        self.routed += 1;
        let live: Vec<bool> = views.iter().map(|v| v.alive).collect();
        // A live-set change (crash, restart, scale event) re-replicates
        // immediately: dead replicas' deltas need new homes *now*, not
        // at the next periodic window. The very first call just records
        // the mask so the caller's initial plan is honored.
        let live_changed = !self.last_live.is_empty() && self.last_live != live;
        let periodic = self
            .rebalance_every
            .is_some_and(|every| every > 0 && self.routed.is_multiple_of(every));
        if self.rebalance_every.is_some() && (live_changed || periodic) {
            let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
            let next = PlacementPlan::from_weights_live(&weights, views.len(), &live);
            self.migrations += next.migrations_from(&self.plan);
            self.plan = next;
        }
        self.last_live = live;
        let overall = Self::cheapest_live(views, &mut self.score_buf);
        // Home lookup is O(homes) against the memoized scores instead of
        // re-scanning (and re-scoring) every view with a membership test.
        let homes = self.plan.homes(req.model);
        let mut home: Option<(usize, f64)> = None;
        for &h in homes {
            if h >= views.len() || !views.view(h).alive {
                continue;
            }
            let s = self.score_buf[h];
            if home.is_none_or(|(_, best)| s < best) {
                home = Some((h, s));
            }
        }
        match home {
            // Stay home unless the homes are badly backlogged vs the rest.
            Some((id, score)) if score <= overall.1 + self.spill_margin_s => id,
            _ => overall.0,
        }
    }

    fn prefetch_hints(
        &mut self,
        req: &Request,
        views: &dyn ReplicaViews,
        routed: usize,
    ) -> Vec<PrefetchHint> {
        // The model just saw traffic: prewarm its *other* home replicas
        // that are still cold, so the next request for it (hot models see
        // many) finds a warm copy wherever the plan may route it. Dead
        // replicas get no hints — prewarming a corpse leaks the hint.
        self.plan
            .homes(req.model)
            .iter()
            .copied()
            .filter(|&h| h != routed && h < views.len())
            .filter(|&h| matches!(views.view(h), v if v.alive && !v.warm))
            .take(2)
            .map(|replica| PrefetchHint {
                replica,
                model: req.model,
            })
            .collect()
    }

    fn migrations(&self) -> usize {
        self.migrations
    }
}

/// Power-of-two-choices: sample two live replicas and keep the cheaper by
/// [`PlacementAwareRouter`]'s score (backlog plus the predicted load
/// penalty). O(1) per request with near-least-loaded tails.
#[derive(Debug)]
pub struct PowerOfTwoRouter {
    rng: Rng,
}

impl PowerOfTwoRouter {
    /// Creates the policy; `seed` drives the sampling and is independent
    /// of the workload seed.
    pub fn new(seed: u64) -> Self {
        PowerOfTwoRouter {
            rng: Rng::seeded(seed ^ 0xF1EE_7517),
        }
    }

    /// A live replica by bounded rejection sampling, else the lowest
    /// live id.
    fn pick(&mut self, views: &dyn ReplicaViews) -> ReplicaView {
        for _ in 0..64 {
            let v = views.view((self.rng.next_u64() % views.len() as u64) as usize);
            if v.alive {
                return v;
            }
        }
        views
            .iter()
            .find(|v| v.alive)
            .expect("at least one live replica")
    }
}

impl Router for PowerOfTwoRouter {
    fn name(&self) -> String {
        "p2c".into()
    }

    fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
        let a = self.pick(views);
        let b = self.pick(views);
        if PlacementAwareRouter::score(&b) < PlacementAwareRouter::score(&a) {
            b.id
        } else {
            a.id
        }
    }
}

/// Consistent hashing: each model hashes onto a ring of virtual nodes of
/// the live replicas — affinity without per-model state. O(log R) per
/// request; the ring is rebuilt only when the membership epoch moves.
#[derive(Debug)]
pub struct ConsistentHashRouter {
    vnodes: usize,
    /// `(hash, replica)`, sorted by hash.
    ring: Vec<(u64, u32)>,
    /// Epoch the ring was built in; `None` before the first request.
    ring_epoch: Option<u64>,
}

impl ConsistentHashRouter {
    /// Creates the policy with `vnodes` virtual nodes per replica (more
    /// smooths the balance).
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "hash ring needs a vnode per replica");
        ConsistentHashRouter {
            vnodes,
            ring: Vec::new(),
            ring_epoch: None,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Router for ConsistentHashRouter {
    fn name(&self) -> String {
        "consistent-hash".into()
    }

    fn route(&mut self, req: &Request, views: &dyn ReplicaViews) -> usize {
        if self.ring_epoch != Some(views.epoch()) {
            self.ring.clear();
            for v in views.iter().filter(|v| v.alive) {
                for i in 0..self.vnodes {
                    let key = (v.id as u64) << 20 | i as u64;
                    self.ring.push((splitmix64(key), v.id as u32));
                }
            }
            self.ring.sort_unstable();
            self.ring_epoch = Some(views.epoch());
        }
        let h = splitmix64(0xC0FF_EE00 ^ req.model as u64);
        let i = self.ring.partition_point(|&(rh, _)| rh < h);
        self.ring[i % self.ring.len()].1 as usize
    }
}

/// The global scan: score every live replica like
/// [`PlacementAwareRouter`] and take the cheapest (lowest id on ties),
/// ignoring placement. O(R) per request — the baseline that stops
/// scaling.
#[derive(Debug, Default)]
pub struct LeastCostRouter {
    /// Per-replica score scratch, reused across requests.
    scores: Vec<f64>,
}

impl Router for LeastCostRouter {
    fn name(&self) -> String {
        "global-least-cost".into()
    }

    fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
        PlacementAwareRouter::cheapest_live(views, &mut self.scores).0
    }
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

/// SLO-aware admission control: defer or shed `Batch`-class load when the
/// whole fleet is saturated, instead of letting it poison the tail.
///
/// Interactive and Standard requests are always admitted. A Batch
/// request (re)arriving when every replica's estimated queue depth is at
/// least `defer_depth` is pushed back by `defer_s` seconds while it has
/// defer budget (`max_defers` attempts). Once the budget is spent, it is
/// shed — reported in [`ClusterReport::shed`] — if every depth is still
/// at least `shed_depth`, and admitted otherwise. (With `shed_depth`
/// below `defer_depth` an over-`shed_depth` arrival is shed without
/// consuming defer budget first.)
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-model SLO classes (also enables SLO-priority queue scanning in
    /// every replica engine).
    pub slo: SloPolicy,
    /// Minimum per-replica queue depth (across all replicas) at which
    /// Batch requests start deferring.
    pub defer_depth: usize,
    /// Seconds a deferred request is pushed back per attempt.
    pub defer_s: f64,
    /// Defer attempts before a Batch request must be admitted or shed.
    pub max_defers: usize,
    /// Minimum per-replica queue depth at which a Batch request out of
    /// defer budget is shed.
    pub shed_depth: usize,
}

impl AdmissionConfig {
    /// Defaults tuned for the bench traces: defer at depth 32, shed at 96.
    pub fn new(slo: SloPolicy) -> Self {
        AdmissionConfig {
            slo,
            defer_depth: 32,
            defer_s: 5.0,
            max_defers: 8,
            shed_depth: 96,
        }
    }
}

/// A request the admission controller refused to serve.
#[derive(Debug, Clone)]
pub struct ShedRecord {
    /// Global request id.
    pub id: usize,
    /// Model variant the request targeted.
    pub model: usize,
    /// Original arrival time (s).
    pub arrival: f64,
    /// SLO class the request was shed under. Admission control only
    /// sheds `Batch`; a chaos run with zero live capacity and no
    /// recovery ever coming may shed any class as its last resort.
    pub class: SloClass,
}

// ---------------------------------------------------------------------------
// The cluster simulator.
// ---------------------------------------------------------------------------

/// Most router [`PrefetchHint`]s [`ClusterSim`] applies per routing
/// decision.
const MAX_PREFETCH_HINTS: usize = 2;

/// Cluster-wide configuration shared by every replica.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of base-model replicas.
    pub n_replicas: usize,
    /// Per-replica engine configuration.
    pub engine: DeltaZipConfig,
    /// Optional SLO-aware admission control (also gives every replica
    /// engine the SLO-priority queue scan).
    pub admission: Option<AdmissionConfig>,
    /// Routing-time prefetch: when set, up to two of the router's
    /// [`PrefetchHint`]s per decision are applied to the target
    /// replicas' predicted host caches.
    pub prefetch: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_replicas: 1,
            engine: DeltaZipConfig::default(),
            admission: None,
            prefetch: false,
        }
    }
}

impl ClusterConfig {
    /// A config with `n_replicas` replicas and default engine settings.
    pub fn replicas(n_replicas: usize) -> Self {
        ClusterConfig {
            n_replicas,
            ..ClusterConfig::default()
        }
    }
}

/// Routing-side accounting of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct RoutingStats {
    /// Requests routed to each replica.
    pub per_replica_requests: Vec<usize>,
    /// Requests routed to a replica predicted warm for their delta.
    pub warm_routed: usize,
    /// Requests routed to a replica predicted cold for their delta.
    pub cold_routed: usize,
    /// Cold routings while some *other* replica was predicted warm — the
    /// placement opportunities the policy left on the table.
    pub placement_misses: usize,
    /// Defer events (one request deferred twice counts twice).
    pub defer_events: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Prefetch hints emitted by the router (pre-application).
    pub prefetch_hints: usize,
    /// Hints that actually prewarmed a cold predicted entry.
    pub prefetch_issued: usize,
    /// Requests routed warm onto an entry a prefetch hint prewarmed
    /// (each prewarmed entry counts at most once).
    pub prefetch_hits: usize,
}

impl RoutingStats {
    /// Fraction of admitted requests routed onto a warm replica.
    pub fn warm_fraction(&self) -> f64 {
        dz_trace::stats::ratio_or(
            self.warm_routed as f64,
            (self.warm_routed + self.cold_routed) as f64,
            0.0,
        )
    }

    /// Fraction of applied prefetch hints later rewarded by a warm-routed
    /// request (`0.0` when no hints were applied).
    pub fn prefetch_hit_rate(&self) -> f64 {
        dz_trace::stats::ratio_or(self.prefetch_hits as f64, self.prefetch_issued as f64, 0.0)
    }
}

/// Aggregated outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// All served requests with global ids (deferral waits included in
    /// their latency), mergeable with any single-engine [`Metrics`].
    pub merged: Metrics,
    /// Per-replica metrics (replica-local view, deferral waits excluded).
    pub per_replica: Vec<Metrics>,
    /// Requests shed by admission control.
    pub shed: Vec<ShedRecord>,
    /// Router-side accounting.
    pub routing: RoutingStats,
    /// What the chaos machinery did, when the run was configured with
    /// [`ClusterSim::with_chaos`] (`None` on healthy runs).
    pub chaos: Option<ChaosStats>,
}

impl ClusterReport {
    /// Served requests / offered requests (1.0 when nothing was shed).
    pub fn goodput(&self) -> f64 {
        let offered = self.merged.len() + self.shed.len();
        dz_trace::stats::ratio_or(self.merged.len() as f64, offered as f64, 1.0)
    }
}

/// A replica's warm set: the deltas it holds in host memory, evicting
/// the least recently touched one past its capacity. Both simulators'
/// compact replica states keep one.
#[derive(Debug, Clone)]
pub(crate) struct WarmSet {
    /// Model -> stamp of its last touch. Stamps are unique, so the
    /// eviction scan has exactly one answer.
    stamps: BTreeMap<usize, u64>,
    clock: u64,
    capacity: usize,
}

impl WarmSet {
    /// An empty set holding at most `capacity` (at least one) deltas.
    pub(crate) fn new(capacity: usize) -> Self {
        WarmSet {
            stamps: BTreeMap::new(),
            clock: 0,
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn contains(&self, model: usize) -> bool {
        self.stamps.contains_key(&model)
    }

    pub(crate) fn clear(&mut self) {
        self.stamps.clear();
    }

    /// Marks `model` most recently used, inserting it if absent, and
    /// returns the model evicted to stay within capacity.
    pub(crate) fn touch(&mut self, model: usize) -> Option<usize> {
        self.clock += 1;
        self.stamps.insert(model, self.clock);
        if self.stamps.len() <= self.capacity {
            return None;
        }
        let (&victim, _) = self.stamps.iter().min_by_key(|&(_, &stamp)| stamp)?;
        self.stamps.remove(&victim);
        Some(victim)
    }
}

/// Estimated-state bookkeeping for one replica, maintained by the
/// front-end as it routes.
struct ReplicaFrontendState {
    /// Predicted host-cache contents.
    warm: WarmSet,
    /// Models whose *decoded* copy is predicted resident (subset of
    /// `warm`): a demand use decodes and caches, a prefetch does not.
    decoded: BTreeSet<usize>,
    /// Warm entries established by a prefetch hint and not yet rewarded
    /// by a warm-routed request.
    prefetched: BTreeSet<usize>,
    /// Estimated time the replica drains everything routed to it.
    busy_until: f64,
    /// Estimated finish times of outstanding requests (monotone).
    finishes: std::collections::VecDeque<f64>,
    /// Requests assigned to this replica in the *current* epoch:
    /// (request-at-admission, global id, defer delay, estimated finish).
    assigned: Vec<(Request, usize, f64, f64)>,
    /// Earlier epochs, sealed by a crash or a scale cycle. Each epoch
    /// replays on its own fresh (cold) engine: a restarted replica has
    /// no host cache.
    sealed: Vec<Vec<(Request, usize, f64, f64)>>,
    /// Cost-model-derived estimates.
    per_token_s: f64,
    cold_load_s: f64,
    warm_load_s: f64,
}

impl ReplicaFrontendState {
    fn prune(&mut self, now: f64) {
        while self.finishes.front().is_some_and(|&f| f <= now) {
            self.finishes.pop_front();
        }
    }

    fn view(&self, id: usize, now: f64, model: usize, alive: bool) -> ReplicaView {
        let warm = self.warm.contains(model);
        ReplicaView {
            id,
            queue_depth: self.finishes.len(),
            backlog_s: (self.busy_until - now).max(0.0),
            warm,
            decoded: warm && self.decoded.contains(&model),
            cold_load_s: self.cold_load_s,
            warm_load_s: self.warm_load_s,
            alive,
        }
    }

    /// Crash at `t`: requests whose estimated finish lies beyond `t`
    /// are lost — returned to the caller for re-queueing — and the rest
    /// seal into the epoch [`start_epoch`](Self::start_epoch) closes.
    fn crash(&mut self, t: f64) -> Vec<(Request, usize, f64, f64)> {
        let epoch = std::mem::take(&mut self.assigned);
        let (done, lost): (Vec<_>, Vec<_>) = epoch.into_iter().partition(|a| a.3 <= t);
        self.assigned = done;
        self.start_epoch(t);
        lost
    }

    /// Seals the current epoch (it replays on its own engine) and starts
    /// a cold one at `t`: every estimate empties. A restart or scale-up
    /// brings the replica back this way.
    fn start_epoch(&mut self, t: f64) {
        if !self.assigned.is_empty() {
            let epoch = std::mem::take(&mut self.assigned);
            self.sealed.push(epoch);
        }
        self.warm.clear();
        self.decoded.clear();
        self.prefetched.clear();
        self.busy_until = t;
        self.finishes.clear();
    }

    fn touch_warm(&mut self, model: usize) {
        if let Some(victim) = self.warm.touch(model) {
            self.decoded.remove(&victim);
            self.prefetched.remove(&victim);
        }
    }

    /// A demand use: warm *and* decoded (the engine caches the decoded
    /// copy beside the bytes after first use).
    fn touch_used(&mut self, model: usize) {
        self.touch_warm(model);
        self.decoded.insert(model);
    }

    /// A prefetch hint landed: warm (compressed bytes only) — returns
    /// whether the entry was newly prewarmed.
    fn prefetch_warm(&mut self, model: usize) -> bool {
        if self.warm.contains(model) {
            return false;
        }
        self.touch_warm(model);
        self.prefetched.insert(model);
        true
    }

    fn charge(&mut self, now: f64, est_service_s: f64) {
        self.busy_until = self.busy_until.max(now) + est_service_s;
        self.finishes.push_back(self.busy_until);
    }
}

/// One pending request in the front-end's time-ordered queue.
struct Pending {
    req: Request,
    delay: f64,
    defers: usize,
}

impl Pending {
    fn arrival(&self) -> f64 {
        self.req.arrival + self.delay
    }
}

/// The cluster: `R` replica engines behind a pluggable router.
///
/// # Examples
///
/// ```
/// use dz_gpusim::shapes::ModelShape;
/// use dz_gpusim::spec::NodeSpec;
/// use dz_serve::cluster::{ClusterConfig, ClusterSim, PlacementAwareRouter, PlacementPlan};
/// use dz_serve::CostModel;
/// use dz_workload::{PopularityDist, Trace, TraceSpec};
///
/// let popularity = PopularityDist::Zipf { alpha: 1.5 };
/// let trace = Trace::generate(TraceSpec {
///     n_models: 8,
///     arrival_rate: 1.0,
///     duration_s: 20.0,
///     popularity,
///     seed: 1,
/// });
/// let costs = vec![CostModel::new(NodeSpec::a800_node(2), ModelShape::llama13b()); 2];
/// let plan = PlacementPlan::from_popularity(popularity, 8, 2);
/// let mut sim = ClusterSim::new(
///     costs,
///     ClusterConfig::replicas(2),
///     Box::new(PlacementAwareRouter::new(plan)),
/// );
/// let report = sim.run(&trace);
/// assert_eq!(report.merged.len(), trace.len());
/// assert!(report.goodput() == 1.0); // no admission control configured
/// ```
pub struct ClusterSim {
    costs: Vec<CostModel>,
    config: ClusterConfig,
    router: Box<dyn Router>,
    /// When set, the front-end and every replica engine record trace
    /// events during [`run`](Self::run).
    trace_config: Option<TraceConfig>,
    /// Tracks captured by the last traced run (front-end lane first,
    /// then one per replica), until [`take_trace`](Self::take_trace).
    trace_tracks: Vec<TraceTrack>,
    /// Fault/elasticity schedule for [`run`](Self::run), when chaotic.
    chaos: Option<ChaosConfig>,
}

impl ClusterSim {
    /// Creates a cluster of `costs.len()` replicas (which must match
    /// `config.n_replicas`) behind `router`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_replicas == 0` or the cost-model count differs.
    pub fn new(costs: Vec<CostModel>, config: ClusterConfig, router: Box<dyn Router>) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        assert_eq!(costs.len(), config.n_replicas, "one cost model per replica");
        ClusterSim {
            costs,
            config,
            router,
            trace_config: None,
            trace_tracks: Vec::new(),
            chaos: None,
        }
    }

    /// Arms a chaos/elasticity schedule: subsequent [`run`](Self::run)
    /// calls inject the configured faults, drive the autoscaler, and
    /// apply rolling rollouts; the report carries
    /// [`ClusterReport::chaos`]. All chaos randomness flows from
    /// [`ChaosConfig::seed`], so a run is exactly reproducible.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a replica `>= n_replicas`, if
    /// [`ChaosConfig::initial_replicas`] is outside `1..=n_replicas`, or
    /// if the autoscaler's `interval_s` is not finite and positive.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        let n = self.config.n_replicas;
        chaos.plan.assert_replicas_below(n);
        if let Some(scaler) = &chaos.autoscaler {
            scaler.assert_interval();
        }
        assert!(
            chaos.initial_replicas.is_none_or(|k| (1..=n).contains(&k)),
            "initial_replicas must be in 1..={n}"
        );
        self.chaos = Some(chaos);
        self
    }

    /// Enables simulation-clock tracing: subsequent [`run`](Self::run)
    /// calls record front-end events (defer/shed/migrations) plus every
    /// replica engine's event log, retrievable via
    /// [`take_trace`](Self::take_trace).
    pub fn with_tracing(mut self, config: TraceConfig) -> Self {
        self.trace_config = Some(config);
        self
    }

    /// Takes the trace tracks captured by the last traced run: the
    /// front-end lane followed by one lane per replica, with replica
    /// request ids remapped to global trace ids.
    pub fn take_trace(&mut self) -> Vec<TraceTrack> {
        std::mem::take(&mut self.trace_tracks)
    }

    /// The router (e.g. to read a [`PlacementAwareRouter`]'s migration
    /// count after a run).
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    /// Builds the per-replica front-end states (predicted warm sets,
    /// amortized service rates) for [`run`](Self::run).
    fn build_states(&self) -> Vec<ReplicaFrontendState> {
        // The predicted warm set holds what the engine's host cache does.
        let warm_capacity = self.config.engine.host_capacity_deltas;
        (0..self.config.n_replicas)
            .map(|r| {
                let cost = &self.costs[r];
                ReplicaFrontendState {
                    warm: WarmSet::new(warm_capacity.unwrap_or(usize::MAX)),
                    decoded: BTreeSet::new(),
                    prefetched: BTreeSet::new(),
                    busy_until: 0.0,
                    finishes: std::collections::VecDeque::new(),
                    assigned: Vec::new(),
                    sealed: Vec::new(),
                    // Amortized over a representative batch: the replica
                    // engine batches concurrent requests, so charging the
                    // batch-1 iteration per request would inflate backlog
                    // estimates until they drown the warmth signal.
                    per_token_s: {
                        let batch = (self.config.engine.max_batch / 4).max(1);
                        let deltas = self.config.engine.max_concurrent_deltas.clamp(1, batch);
                        let reqs = vec![batch.div_ceil(deltas); deltas];
                        let total: usize = reqs.iter().sum();
                        cost.deltazip_decode_iter(&reqs, self.config.engine.strategy) / total as f64
                    },
                    cold_load_s: cost.delta_cold_load_time(),
                    warm_load_s: cost.delta_load_time(),
                }
            })
            .collect()
    }

    /// Replays the trace through the router and the replica engines.
    ///
    /// The front end is event-driven: membership events (crashes,
    /// restarts, autoscaler ticks) and request arrivals merge on one
    /// global [`EventQueue`] keyed by `(time, class, seq)`, where the
    /// chaos class orders before the arrival class at an equal timestamp
    /// (a restart at `t` is visible to a request arriving at `t`). Cost
    /// is O(events) heap operations.
    ///
    /// `crates/serve/tests/determinism_pins.rs` holds golden checksums of
    /// the full [`ClusterReport`] on four small fleets (plain, admission +
    /// prefetch, chaos with and without tracing), taken from the lockstep
    /// front end this loop replaced; any change to event ordering shows
    /// up there.
    pub fn run(&mut self, trace: &Trace) -> ClusterReport {
        const CLASS_CHAOS: EventClass = 0;
        const CLASS_ARRIVAL: EventClass = 1;
        enum FrontEvent {
            /// A crash, restart or autoscaler tick.
            Member(MemberEvent),
            /// A request (re-)entering the front end.
            Arrival(Pending),
        }
        let n = self.config.n_replicas;
        let chaos = self.chaos.clone();
        let autoscaler = chaos.as_ref().and_then(|c| c.autoscaler);
        let initial_live = chaos.as_ref().and_then(|c| c.initial_replicas).unwrap_or(n);
        let mut members = Membership::new(n, initial_live);
        let mut states = self.build_states();

        let mut events: EventQueue<FrontEvent> = EventQueue::new();
        // Arrivals still pending (deferred/parked re-entries included):
        // the autoscaler keeps ticking only while work remains.
        let mut arrivals_pending = 0usize;
        for req in &trace.requests {
            let p = Pending {
                req: req.clone(),
                delay: 0.0,
                defers: 0,
            };
            events.push_class(p.arrival(), CLASS_ARRIVAL, FrontEvent::Arrival(p));
            arrivals_pending += 1;
        }
        let mut routing = RoutingStats {
            per_replica_requests: vec![0; n],
            ..RoutingStats::default()
        };
        let mut shed: Vec<ShedRecord> = Vec::new();
        let mut frontend_tracer = match self.trace_config {
            Some(cfg) => Tracer::enabled(cfg),
            None => Tracer::disabled(),
        };
        let mut migrations_seen = self.router.migrations();

        // Reported only for chaos runs.
        let mut stats = ChaosStats::default();
        if let Some(c) = &chaos {
            for (at, ev) in c.plan.crashes() {
                events.push_class(at, CLASS_CHAOS, FrontEvent::Member(ev));
            }
            if let Some(scaler) = autoscaler {
                events.push_class(
                    scaler.interval_s,
                    CLASS_CHAOS,
                    FrontEvent::Member(MemberEvent::Tick),
                );
            }
            frontend_tracer.gauge(|| GaugeSample {
                at: 0.0,
                live_replicas: initial_live,
                ..GaugeSample::default()
            });
        }
        let n_rollouts = chaos.as_ref().map_or(0, |c| c.rollouts.len());
        let mut rollout_started = vec![false; n_rollouts];
        let mut rollout_done = vec![false; n_rollouts];
        let mut chaos_rng =
            dz_tensor::Rng::seeded(chaos.as_ref().map_or(0, |c| c.seed) ^ 0xD17E_C4A0);

        while let Some((t, _class, event)) = events.pop_classed() {
            let mut p = match event {
                FrontEvent::Member(ev) => {
                    let epoch = members.epoch();
                    match ev {
                        MemberEvent::Crash {
                            replica,
                            restart_after_s,
                        } => {
                            let Some(restart_at) = members.crash(replica, t, restart_after_s)
                            else {
                                continue;
                            };
                            let lost = states[replica].crash(t);
                            stats.crashes += 1;
                            stats.lost_in_flight += lost.len();
                            let lost_n = lost.len();
                            frontend_tracer.emit(|| TraceEvent::ReplicaDown {
                                replica,
                                lost: lost_n,
                                at: t,
                            });
                            // Lost in-flight requests re-enter the front
                            // end at the crash instant; the wasted wait
                            // becomes queue time from their viewpoint.
                            for (req, global_id, delay, _) in lost {
                                let orig_arrival = req.arrival - delay;
                                let p = Pending {
                                    req: Request {
                                        arrival: orig_arrival,
                                        id: global_id,
                                        ..req
                                    },
                                    delay: t - orig_arrival,
                                    defers: 0,
                                };
                                events.push_class(
                                    p.arrival(),
                                    CLASS_ARRIVAL,
                                    FrontEvent::Arrival(p),
                                );
                                arrivals_pending += 1;
                            }
                            if let Some(at) = restart_at {
                                events.push_class(
                                    at,
                                    CLASS_CHAOS,
                                    FrontEvent::Member(MemberEvent::Restart { replica }),
                                );
                            }
                        }
                        MemberEvent::Restart { replica } => {
                            if members.restart(replica) {
                                states[replica].start_epoch(t);
                                stats.restarts += 1;
                                frontend_tracer.emit(|| TraceEvent::ReplicaUp { replica, at: t });
                            }
                        }
                        MemberEvent::Tick => {
                            let Some(scaler) = autoscaler else {
                                continue;
                            };
                            let scale = members.autoscale(t, &scaler, |r| states[r].busy_until);
                            match scale {
                                Some(Scale::Up(r)) => {
                                    states[r].start_epoch(t);
                                    stats.scale_ups += 1;
                                    frontend_tracer
                                        .emit(|| TraceEvent::ScaleUp { replica: r, at: t });
                                }
                                // A drained replica stops receiving
                                // traffic but keeps (and finishes) its
                                // in-flight work.
                                Some(Scale::Down(r)) => {
                                    stats.scale_downs += 1;
                                    frontend_tracer
                                        .emit(|| TraceEvent::ScaleDown { replica: r, at: t });
                                }
                                None => {}
                            }
                            // Keep ticking while there is work left to
                            // serve.
                            if arrivals_pending > 0 {
                                events.push_class(
                                    t + scaler.interval_s,
                                    CLASS_CHAOS,
                                    FrontEvent::Member(MemberEvent::Tick),
                                );
                            }
                        }
                    }
                    if members.epoch() != epoch {
                        frontend_tracer.gauge(|| GaugeSample {
                            at: t,
                            live_replicas: members.live(),
                            ..GaugeSample::default()
                        });
                    }
                    continue;
                }
                FrontEvent::Arrival(p) => {
                    arrivals_pending -= 1;
                    p
                }
            };
            let now = p.arrival();

            // Rolling rollouts: a seeded, growing fraction of the v1
            // model's traffic is remapped to its v2 delta.
            if let Some(c) = &chaos {
                for (i, ro) in c.rollouts.iter().enumerate() {
                    let frac = ro.fraction_at(now);
                    if frac > 0.0 && !rollout_started[i] {
                        rollout_started[i] = true;
                        frontend_tracer.emit(|| TraceEvent::Rollout {
                            model: ro.model,
                            v2: ro.v2,
                            frac,
                            at: now,
                        });
                    }
                    if p.req.model == ro.model && frac > 0.0 && chaos_rng.bernoulli(frac) {
                        p.req.model = ro.v2;
                        stats.rollout_remapped += 1;
                    }
                    if frac >= 1.0 && !rollout_done[i] {
                        rollout_done[i] = true;
                        frontend_tracer.emit(|| TraceEvent::Rollout {
                            model: ro.model,
                            v2: ro.v2,
                            frac: 1.0,
                            at: now,
                        });
                    }
                }
            }

            for state in &mut states {
                state.prune(now);
            }
            let views: Vec<ReplicaView> = states
                .iter()
                .enumerate()
                .map(|(r, s)| s.view(r, now, p.req.model, members.is_alive(r)))
                .collect();

            // SLO-aware admission: Batch requests defer, then shed, when
            // even the least-loaded *live* replica is saturated (a fleet
            // with zero live capacity counts as infinitely deep).
            if let Some(adm) = &self.config.admission {
                if adm.slo.class_of(p.req.model) == SloClass::Batch {
                    let min_depth = views
                        .iter()
                        .filter(|v| v.alive)
                        .map(|v| v.queue_depth)
                        .min()
                        .unwrap_or(usize::MAX);
                    if min_depth >= adm.defer_depth && p.defers < adm.max_defers {
                        routing.defer_events += 1;
                        frontend_tracer.emit(|| TraceEvent::Defer {
                            id: p.req.id,
                            model: p.req.model,
                            at: now,
                        });
                        let deferred = Pending {
                            delay: p.delay + adm.defer_s,
                            defers: p.defers + 1,
                            req: p.req,
                        };
                        events.push_class(
                            deferred.arrival(),
                            CLASS_ARRIVAL,
                            FrontEvent::Arrival(deferred),
                        );
                        arrivals_pending += 1;
                        continue;
                    }
                    if min_depth >= adm.shed_depth {
                        routing.shed += 1;
                        frontend_tracer.emit(|| TraceEvent::Shed {
                            id: p.req.id,
                            model: p.req.model,
                            at: now,
                        });
                        shed.push(ShedRecord {
                            id: p.req.id,
                            model: p.req.model,
                            arrival: p.req.arrival,
                            class: SloClass::Batch,
                        });
                        continue;
                    }
                }
            }

            // Zero effective capacity (every replica down or draining):
            // park the request until the next capacity event — a
            // scheduled restart or an autoscaler tick that could
            // activate a spare. If nothing will ever bring capacity
            // back, shed instead of looping: graceful degradation, not
            // a hang.
            if members.live() == 0 {
                let can_scale_up =
                    autoscaler.is_some_and(|s| s.max_replicas > 0) && members.spare().is_some();
                let next_up = events
                    .iter()
                    .filter_map(|(at, _, ev)| match ev {
                        FrontEvent::Member(MemberEvent::Restart { .. }) => Some(at),
                        FrontEvent::Member(MemberEvent::Tick) if can_scale_up => Some(at),
                        _ => None,
                    })
                    .fold(None, |acc: Option<f64>, t| {
                        Some(acc.map_or(t, |a| a.min(t)))
                    });
                match next_up {
                    Some(t_up) if t_up > now => {
                        let parked = Pending {
                            delay: t_up - p.req.arrival,
                            ..p
                        };
                        events.push_class(
                            parked.arrival(),
                            CLASS_ARRIVAL,
                            FrontEvent::Arrival(parked),
                        );
                        arrivals_pending += 1;
                    }
                    _ => {
                        routing.shed += 1;
                        stats.shed_no_capacity += 1;
                        frontend_tracer.emit(|| TraceEvent::Shed {
                            id: p.req.id,
                            model: p.req.model,
                            at: now,
                        });
                        let class = self
                            .config
                            .admission
                            .as_ref()
                            .map(|a| a.slo.class_of(p.req.model))
                            .unwrap_or(SloClass::Batch);
                        shed.push(ShedRecord {
                            id: p.req.id,
                            model: p.req.model,
                            arrival: p.req.arrival,
                            class,
                        });
                    }
                }
                continue;
            }

            let stamped = ViewSlice {
                views: &views,
                epoch: members.epoch(),
            };
            let r = self.router.route(&p.req, &stamped);
            assert!(r < n, "router returned replica {r} of {n}");
            assert!(views[r].alive, "router selected dead replica {r}");
            let migrations_now = self.router.migrations();
            if migrations_now > migrations_seen {
                let count = migrations_now - migrations_seen;
                frontend_tracer.emit(|| TraceEvent::Migrate { count, at: now });
                migrations_seen = migrations_now;
            }
            let warm = views[r].warm;
            if warm {
                routing.warm_routed += 1;
                // A warm hit on a prewarmed entry rewards the hint that
                // placed it (counted once per prewarm).
                if states[r].prefetched.remove(&p.req.model) {
                    routing.prefetch_hits += 1;
                }
            } else {
                routing.cold_routed += 1;
                if views.iter().any(|v| v.warm) {
                    routing.placement_misses += 1;
                }
            }
            routing.per_replica_requests[r] += 1;
            // Apply the router's prefetch hints: prewarm the predicted
            // caches.
            if self.config.prefetch {
                for hint in self
                    .router
                    .prefetch_hints(&p.req, &stamped, r)
                    .into_iter()
                    .take(MAX_PREFETCH_HINTS)
                {
                    if hint.replica >= n {
                        continue;
                    }
                    // A hint aimed at a dead replica is dropped, not
                    // leaked into its predicted cache.
                    if !views[hint.replica].alive {
                        stats.dropped_hints += 1;
                        continue;
                    }
                    routing.prefetch_hints += 1;
                    if states[hint.replica].prefetch_warm(hint.model) {
                        routing.prefetch_issued += 1;
                    }
                }
            }
            let state = &mut states[r];
            let est = self.costs[r].prefill_time(p.req.prompt_tokens)
                + p.req.output_tokens as f64 * state.per_token_s
                + if warm { 0.0 } else { views[r].cold_load_s };
            state.touch_used(p.req.model);
            state.charge(now, est);
            let est_finish = state.busy_until;
            let mut admitted = p.req.clone();
            admitted.arrival = now;
            state
                .assigned
                .push((admitted, p.req.id, p.delay, est_finish));
        }

        let chaos_stats = chaos.is_some().then_some(ChaosStats {
            min_live: members.min_live,
            max_live: members.max_live,
            ..stats
        });
        self.replay_and_report(trace, states, routing, shed, chaos_stats, frontend_tracer)
    }

    /// Replays each replica's assignments on its own engine(s) and
    /// assembles the [`ClusterReport`] — the deterministic back half of
    /// [`run`](Self::run).
    fn replay_and_report(
        &mut self,
        trace: &Trace,
        mut states: Vec<ReplicaFrontendState>,
        routing: RoutingStats,
        shed: Vec<ShedRecord>,
        chaos_stats: Option<ChaosStats>,
        mut frontend_tracer: Tracer,
    ) -> ClusterReport {
        let n = self.config.n_replicas;
        let mut trace_tracks: Vec<TraceTrack> = Vec::new();
        if let Some(log) = frontend_tracer.take_log() {
            trace_tracks.push(TraceTrack {
                name: "frontend".into(),
                log,
            });
        }
        let mut per_replica: Vec<Metrics> = Vec::with_capacity(n);
        let mut records: Vec<RequestRecord> = Vec::new();
        let mut makespan = 0.0f64;
        for (r, state) in states.iter_mut().enumerate() {
            // Epochs sealed by crashes/scale cycles, then the live tail.
            // Each epoch replays on a *fresh* engine: a restarted
            // replica's GPU and host caches start empty.
            let mut epochs: Vec<Vec<(Request, usize, f64, f64)>> =
                std::mem::take(&mut state.sealed);
            epochs.push(std::mem::take(&mut state.assigned));
            epochs.retain(|e| !e.is_empty());
            if epochs.is_empty() {
                epochs.push(Vec::new());
            }
            let mut replica_metrics: Option<Metrics> = None;
            let mut replica_log: Option<dz_trace::TraceLog> = None;
            for epoch in epochs {
                let mut ids = Vec::with_capacity(epoch.len());
                let mut delays = Vec::with_capacity(epoch.len());
                let mut requests = Vec::with_capacity(epoch.len());
                for (dense, (req, global_id, delay, _est)) in epoch.into_iter().enumerate() {
                    ids.push(global_id);
                    delays.push(delay);
                    requests.push(Request { id: dense, ..req });
                }
                let sub = Trace {
                    spec: TraceSpec {
                        n_models: trace.spec.n_models.max(1),
                        ..trace.spec
                    },
                    requests,
                };
                let mut builder =
                    crate::builder::EngineBuilder::new(self.costs[r]).scheduler(self.config.engine);
                if let Some(cfg) = self.trace_config {
                    builder = builder.tracing(cfg);
                }
                if let Some(adm) = &self.config.admission {
                    builder = builder.slo(adm.slo.clone());
                }
                let mut engine = builder.build();
                let mut m = engine.run(&sub);
                makespan = makespan.max(m.makespan_s);
                for rec in &m.records {
                    let global = ids[rec.id];
                    let delay = delays[rec.id];
                    // The deferral wait is queue time from the request's
                    // point of view: fold it into the attributed queue
                    // cause too, so the ledger still telescopes to the
                    // cluster-level e2e.
                    let mut causes = rec.causes;
                    causes.queue_s += delay;
                    records.push(RequestRecord {
                        id: global,
                        arrival: rec.arrival - delay,
                        e2e_s: rec.e2e_s + delay,
                        ttft_s: rec.ttft_s + delay,
                        queue_s: rec.queue_s + delay,
                        causes,
                        ..rec.clone()
                    });
                }
                if let Some(mut log) = engine.tracer.take_log() {
                    log.remap_request_ids(&ids);
                    match replica_log.as_mut() {
                        Some(dst) => dst.absorb(log),
                        None => replica_log = Some(log),
                    }
                }
                // Per-replica metrics keep the replica-local view but use
                // global record ids so epochs can't collide.
                for rec in &mut m.records {
                    rec.id = ids[rec.id];
                }
                match replica_metrics.as_mut() {
                    Some(dst) => {
                        dst.makespan_s = dst.makespan_s.max(m.makespan_s);
                        dst.swap.merge(&m.swap);
                        dst.records.extend(m.records);
                    }
                    None => replica_metrics = Some(m),
                }
            }
            if let Some(log) = replica_log {
                trace_tracks.push(TraceTrack {
                    name: format!("replica{r}"),
                    log,
                });
            }
            let mut rm = replica_metrics.expect("at least one epoch per replica");
            rm.records.sort_by_key(|rec| rec.id);
            per_replica.push(rm);
        }
        records.sort_by_key(|r| r.id);
        let mut cluster_swap = SwapStats::default();
        for m in &per_replica {
            cluster_swap.merge(&m.swap);
        }
        self.trace_tracks = trace_tracks;
        let mut cluster_toppings = crate::metrics::ToppingsStats::default();
        for m in &per_replica {
            cluster_toppings.merge(&m.toppings);
        }
        let merged = Metrics {
            engine: format!("Cluster[{}x {}]", n, self.router.name()),
            records,
            makespan_s: makespan,
            swap: cluster_swap,
            toppings: cluster_toppings,
        };
        ClusterReport {
            merged,
            per_replica,
            shed,
            routing,
            chaos: chaos_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;
    use dz_workload::PopularityDist;

    fn trace() -> Trace {
        Trace::generate(TraceSpec {
            n_models: 12,
            arrival_rate: 1.0,
            duration_s: 40.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed: 3,
        })
    }

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::a800_node(2), ModelShape::llama13b())
    }

    fn view(id: usize, depth: usize, backlog: f64, warm: bool) -> ReplicaView {
        ReplicaView {
            id,
            queue_depth: depth,
            backlog_s: backlog,
            warm,
            decoded: warm,
            cold_load_s: 2.0,
            warm_load_s: 0.5,
            alive: true,
        }
    }

    /// `views` at membership epoch 0.
    fn at(views: &[ReplicaView]) -> ViewSlice<'_> {
        ViewSlice { views, epoch: 0 }
    }

    fn req(model: usize) -> Request {
        Request {
            id: 0,
            model,
            arrival: 0.0,
            prompt_tokens: 16,
            output_tokens: 16,
        }
    }

    // -- routers ----------------------------------------------------------

    #[test]
    fn round_robin_cycles() {
        let mut r = RoundRobinRouter::new();
        let views = vec![view(0, 0, 0.0, false), view(1, 0, 0.0, false)];
        let picks: Vec<usize> = (0..4).map(|_| r.route(&req(0), &at(&views))).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn least_loaded_prefers_shallow_queue() {
        let mut r = LeastLoadedRouter::new();
        let views = vec![view(0, 5, 10.0, true), view(1, 2, 4.0, false)];
        assert_eq!(r.route(&req(0), &at(&views)), 1);
    }

    #[test]
    fn warm_placement_routes_to_the_caching_replica() {
        // Replica 1 holds the delta warm; replica 0 is slightly less
        // loaded but cold. The cold-load penalty must dominate a small
        // backlog difference.
        let plan = PlacementPlan::from_weights(&[1.0; 4], 2);
        let mut r = PlacementAwareRouter::new(plan).pinned();
        let views = vec![view(0, 1, 0.5, false), view(1, 2, 1.0, true)];
        assert_eq!(r.route(&req(2), &at(&views)), 1);
        // With no warm copy anywhere, lower backlog wins.
        let views = vec![view(0, 1, 0.5, false), view(1, 2, 1.0, false)];
        assert_eq!(r.route(&req(2), &at(&views)), 0);
    }

    #[test]
    fn placement_router_prefers_decode_free_replicas() {
        // Both replicas hold the delta warm, but only replica 1 holds the
        // decoded copy: at equal backlog the decode-free hit must win.
        // Model 2 is beyond the plan (place-anywhere), so the pure score
        // decides: decode-free beats warm-but-undecoded.
        let plan = PlacementPlan::from_weights(&[1.0; 2], 2);
        let mut r = PlacementAwareRouter::new(plan).pinned();
        let mut views = vec![view(0, 1, 1.0, true), view(1, 1, 1.0, true)];
        views[0].decoded = false;
        views[1].decoded = true;
        assert_eq!(r.route(&req(2), &at(&views)), 1);
        // ...and a large-enough backlog gap still outweighs the decode.
        views[1].backlog_s = views[0].backlog_s + views[0].warm_load_s + 1.0;
        assert_eq!(r.route(&req(2), &at(&views)), 0);
    }

    #[test]
    fn prefetch_hints_prewarm_home_replicas_and_score_hits() {
        // Skewed traffic through the placement-aware router with
        // routing-time prefetch: hints must prewarm cold home replicas
        // and later warm-routed requests must reward them.
        let tr = Trace::generate(TraceSpec {
            n_models: 24,
            arrival_rate: 4.0,
            duration_s: 60.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed: 19,
        });
        let config = ClusterConfig {
            n_replicas: 4,
            engine: DeltaZipConfig {
                host_capacity_deltas: Some(6),
                ..DeltaZipConfig::default()
            },
            prefetch: true,
            ..ClusterConfig::default()
        };
        let plan = PlacementPlan::from_popularity(tr.spec.popularity, 24, 4);
        let mut sim = ClusterSim::new(
            vec![cost(); 4],
            config.clone(),
            Box::new(PlacementAwareRouter::new(plan.clone())),
        );
        let report = sim.run(&tr);
        assert_eq!(report.merged.len(), tr.len());
        assert!(report.routing.prefetch_hints > 0, "hints must be emitted");
        assert!(report.routing.prefetch_issued > 0, "hints must prewarm");
        assert!(report.routing.prefetch_hits > 0, "prewarms must pay off");
        let rate = report.routing.prefetch_hit_rate();
        assert!((0.0..=1.0).contains(&rate) && rate > 0.0, "rate {rate}");
        // Hints must not make warm routing worse than no-prefetch.
        let mut plain = ClusterSim::new(
            vec![cost(); 4],
            ClusterConfig {
                prefetch: false,
                ..config
            },
            Box::new(PlacementAwareRouter::new(plan)),
        );
        let base = plain.run(&tr);
        assert!(
            report.routing.warm_fraction() >= base.routing.warm_fraction(),
            "prefetch hints must not lower warm routing: {} vs {}",
            report.routing.warm_fraction(),
            base.routing.warm_fraction()
        );
    }

    #[test]
    fn placement_spills_when_homes_are_saturated() {
        // Two equal-share models get one home each. Model 0's only home
        // is hours behind while the other replica idles: the router must
        // spill off the home.
        let plan = PlacementPlan::from_weights(&[1.0, 1.0], 2);
        let homes = plan.homes(0).to_vec();
        assert_eq!(homes.len(), 1, "equal shares pin one copy each");
        let spare = (0..2).find(|r| !homes.contains(r)).expect("one non-home");
        let mut r = PlacementAwareRouter::new(plan).pinned();
        let mut views = vec![view(0, 64, 3600.0, false), view(1, 64, 3600.0, false)];
        views[homes[0]].warm = true;
        views[spare].backlog_s = 0.0;
        views[spare].queue_depth = 0;
        assert_eq!(r.route(&req(0), &at(&views)), spare);
    }

    /// Frozen copy of the pre-memoization routing decision: two
    /// `min_by` scans re-evaluating the score inside each comparator,
    /// plus an O(R·H) membership filter. The memoized hot path must
    /// reproduce its decision on every input, including score ties and
    /// dead replicas.
    fn reference_placement_route(
        plan: &PlacementPlan,
        spill_margin_s: f64,
        model: usize,
        views: &[ReplicaView],
    ) -> usize {
        let score = |v: &ReplicaView| {
            v.backlog_s
                + if !v.warm {
                    v.cold_load_s
                } else if !v.decoded {
                    v.warm_load_s
                } else {
                    0.0
                }
        };
        let best = |ids: &mut dyn Iterator<Item = &ReplicaView>| {
            ids.filter(|v| v.alive)
                .min_by(|a, b| score(a).total_cmp(&score(b)).then(a.id.cmp(&b.id)))
                .map(|v| (v.id, score(v)))
        };
        let overall = best(&mut views.iter()).expect("at least one live replica");
        let homes = plan.homes(model);
        let home = best(&mut views.iter().filter(|v| homes.contains(&v.id)));
        match home {
            Some((id, s)) if s <= overall.1 + spill_margin_s => id,
            _ => overall.0,
        }
    }

    #[test]
    fn memoized_placement_routing_matches_reference_decisions() {
        // Randomized fleets (xorshift, deterministic): backlogs with
        // deliberate exact ties, mixed warm/decoded states, dead
        // replicas, and models beyond the plan. The memoized router is
        // pinned so its plan stays equal to the reference's.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let weights = PopularityDist::Zipf { alpha: 1.2 }.weights(16);
        for n in 2..=6usize {
            let plan = PlacementPlan::from_weights(&weights, n);
            let mut router = PlacementAwareRouter::new(plan.clone()).pinned();
            for trial in 0..400 {
                let mut views: Vec<ReplicaView> = (0..n)
                    .map(|id| {
                        // Quantized backlogs make exact score ties common.
                        let mut v = view(id, (rng() % 8) as usize, (rng() % 4) as f64, false);
                        v.warm = rng() % 2 == 0;
                        v.decoded = v.warm && rng() % 2 == 0;
                        v.cold_load_s = 2.0;
                        v.warm_load_s = 0.5;
                        v.alive = rng() % 5 != 0;
                        v
                    })
                    .collect();
                if !views.iter().any(|v| v.alive) {
                    views[0].alive = true;
                }
                let model = (rng() % 20) as usize; // sometimes beyond the plan
                let expect = reference_placement_route(&plan, router.spill_margin_s, model, &views);
                assert_eq!(
                    router.route(&req(model), &at(&views)),
                    expect,
                    "n={n} trial={trial} model={model} views={views:?}"
                );
            }
        }
    }

    // -- placement plan ---------------------------------------------------

    #[test]
    fn plan_replicates_hot_models_and_pins_cold_ones() {
        let weights = PopularityDist::Zipf { alpha: 1.5 }.weights(12);
        let plan = PlacementPlan::from_weights(&weights, 4);
        // The Zipf-1.5 head holds >60% of traffic: it must be replicated.
        assert!(plan.homes(0).len() >= 2, "{:?}", plan.homes(0));
        // Everyone has at least one home, tail models exactly one.
        for m in 0..12 {
            assert!(!plan.homes(m).is_empty());
            assert!(plan.homes(m).iter().all(|&r| r < 4));
        }
        assert_eq!(plan.homes(11).len(), 1);
        // Uniform popularity spreads single copies evenly.
        let uniform = PlacementPlan::from_weights(&[1.0; 8], 4);
        let mut per_replica = vec![0usize; 4];
        for m in 0..8 {
            assert_eq!(uniform.homes(m).len(), 1);
            per_replica[uniform.homes(m)[0]] += 1;
        }
        assert_eq!(per_replica, vec![2, 2, 2, 2]);
    }

    #[test]
    fn plan_handles_degenerate_weights() {
        let zeros = PlacementPlan::from_weights(&[0.0; 6], 3);
        for m in 0..6 {
            assert_eq!(zeros.homes(m).len(), 1);
        }
        let empty = PlacementPlan::from_weights(&[], 2);
        assert_eq!(empty.homes(5), &[] as &[usize]);
        assert_eq!(empty.migrations_from(&zeros), 6);
    }

    #[test]
    fn rebalancing_migrates_deltas_on_popularity_drift() {
        // Plan for a head-heavy skew, then route uniform traffic: after a
        // rebalance window the plan must change (migrations counted).
        let plan = PlacementPlan::from_popularity(PopularityDist::Zipf { alpha: 3.0 }, 8, 4);
        let mut r = PlacementAwareRouter::new(plan);
        r.rebalance_every = Some(64);
        let views: Vec<ReplicaView> = (0..4).map(|i| view(i, 0, 0.0, false)).collect();
        for i in 0..256 {
            let _ = r.route(&req(i % 8), &at(&views));
        }
        assert!(r.migrations > 0, "uniform drift must migrate deltas");
    }

    // -- cluster sim ------------------------------------------------------

    #[test]
    fn cluster_serves_every_request_exactly_once() {
        let tr = trace();
        for router in [
            Box::new(RoundRobinRouter::new()) as Box<dyn Router>,
            Box::new(LeastLoadedRouter::new()),
            Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
                tr.spec.popularity,
                12,
                3,
            ))),
        ] {
            let mut sim = ClusterSim::new(vec![cost(); 3], ClusterConfig::replicas(3), router);
            let report = sim.run(&tr);
            let mut ids: Vec<usize> = report.merged.records.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..tr.len()).collect::<Vec<_>>());
            assert_eq!(report.shed.len(), 0);
            assert_eq!(report.goodput(), 1.0);
            assert_eq!(
                report.routing.per_replica_requests.iter().sum::<usize>(),
                tr.len()
            );
            assert_eq!(report.per_replica.len(), 3);
        }
    }

    #[test]
    fn placement_beats_round_robin_on_skewed_traces() {
        // The satellite acceptance test: under Zipf popularity with a
        // bounded per-replica host cache, keeping each delta's traffic on
        // its home replicas must not lose to spraying it everywhere.
        let tr = Trace::generate(TraceSpec {
            n_models: 24,
            arrival_rate: 4.0,
            duration_s: 60.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed: 17,
        });
        let engine = DeltaZipConfig {
            host_capacity_deltas: Some(6),
            ..DeltaZipConfig::default()
        };
        let config = ClusterConfig {
            n_replicas: 4,
            engine,
            ..ClusterConfig::default()
        };
        let run = |router: Box<dyn Router>| {
            ClusterSim::new(vec![cost(); 4], config.clone(), router).run(&tr)
        };
        let rr = run(Box::new(RoundRobinRouter::new()));
        let pa = run(Box::new(PlacementAwareRouter::new(
            PlacementPlan::from_popularity(tr.spec.popularity, 24, 4),
        )));
        assert_eq!(pa.merged.len(), tr.len());
        assert!(
            pa.merged.mean_e2e() <= rr.merged.mean_e2e(),
            "placement-aware {} must not lose to round-robin {}",
            pa.merged.mean_e2e(),
            rr.merged.mean_e2e()
        );
        assert!(
            pa.routing.warm_fraction() > rr.routing.warm_fraction(),
            "placement-aware must route more warm hits: {} vs {}",
            pa.routing.warm_fraction(),
            rr.routing.warm_fraction()
        );
    }

    #[test]
    fn admission_sheds_only_batch_class_under_overload() {
        // Overdrive a small cluster so depth explodes; Interactive
        // requests must all be served, Batch overflow shed or deferred.
        let tr = Trace::generate(TraceSpec {
            n_models: 8,
            arrival_rate: 12.0,
            duration_s: 40.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed: 23,
        });
        let slo = SloPolicy::tiered(8, 2);
        let admission = AdmissionConfig {
            defer_depth: 8,
            defer_s: 5.0,
            max_defers: 2,
            shed_depth: 12,
            slo: slo.clone(),
        };
        let config = ClusterConfig {
            n_replicas: 2,
            admission: Some(admission),
            ..ClusterConfig::replicas(2)
        };
        let mut sim = ClusterSim::new(vec![cost(); 2], config, Box::new(LeastLoadedRouter::new()));
        let report = sim.run(&tr);
        assert!(!report.shed.is_empty(), "overload must shed something");
        assert!(report.shed.iter().all(|s| s.class == SloClass::Batch));
        assert!(
            report
                .shed
                .iter()
                .all(|s| slo.class_of(s.model) == SloClass::Batch),
            "only Batch-class models may be shed"
        );
        assert_eq!(report.merged.len() + report.shed.len(), tr.len());
        assert!(report.goodput() < 1.0);
        // Every Interactive request was served.
        let interactive_offered = tr
            .requests
            .iter()
            .filter(|r| slo.class_of(r.model) == SloClass::Interactive)
            .count();
        let interactive_served = report
            .merged
            .records
            .iter()
            .filter(|r| slo.class_of(r.model) == SloClass::Interactive)
            .count();
        assert_eq!(interactive_served, interactive_offered);
    }

    #[test]
    fn deferral_waits_count_toward_merged_latency() {
        // A deferred-then-served request's e2e must include the deferral.
        let tr = Trace::generate(TraceSpec {
            n_models: 8,
            arrival_rate: 10.0,
            duration_s: 30.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed: 29,
        });
        let admission = AdmissionConfig {
            defer_depth: 4,
            defer_s: 7.0,
            max_defers: 4,
            shed_depth: usize::MAX, // defer but never shed
            slo: SloPolicy::tiered(8, 2),
        };
        let config = ClusterConfig {
            n_replicas: 2,
            admission: Some(admission),
            ..ClusterConfig::replicas(2)
        };
        let mut sim = ClusterSim::new(vec![cost(); 2], config, Box::new(LeastLoadedRouter::new()));
        let report = sim.run(&tr);
        assert_eq!(report.merged.len(), tr.len(), "nothing may be shed");
        assert!(report.routing.defer_events > 0, "overload must defer");
        // Deferred requests waited at least one defer_s in queue.
        let max_queue = report
            .merged
            .records
            .iter()
            .map(|r| r.queue_s)
            .fold(0.0f64, f64::max);
        assert!(max_queue >= 7.0, "deferral must show up in queue_s");
        for r in &report.merged.records {
            assert!(r.ttft_s <= r.e2e_s + 1e-9);
            assert!(r.queue_s <= r.e2e_s + 1e-9);
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let tr = Trace {
            spec: TraceSpec {
                n_models: 4,
                arrival_rate: 1.0,
                duration_s: 0.0,
                popularity: PopularityDist::Uniform,
                seed: 0,
            },
            requests: vec![],
        };
        let mut sim = ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig::replicas(2),
            Box::new(RoundRobinRouter::new()),
        );
        let report = sim.run(&tr);
        assert!(report.merged.is_empty());
        assert_eq!(report.goodput(), 1.0);
    }

    #[test]
    #[should_panic(expected = "one cost model per replica")]
    fn replica_count_must_match_costs() {
        let _ = ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig::replicas(3),
            Box::new(RoundRobinRouter::new()),
        );
    }
}
