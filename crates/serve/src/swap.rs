//! Asynchronous delta swapping: in-flight loads progress on a
//! bandwidth-shared transfer timeline while decode continues, and
//! predictive prefetchers prewarm the host cache (§5 / §5.4's "overlap
//! swap-in with ongoing computation").
//!
//! The pieces:
//!
//! * [`LoadProfile`] — one load decomposed into the stages the cost model
//!   already prices (latency head, disk-channel work, PCIe-channel work,
//!   a serial tail, and a pipelined decode floor). An uncontended load
//!   completes in exactly [`LoadProfile::solo_s`], which the
//!   [`CostModel`] profile constructors calibrate to equal the legacy
//!   scalar charges.
//! * [`TransferTimeline`] — the shared-channel simulator: concurrent
//!   loads split each channel's bandwidth evenly (processor sharing), so
//!   `k` cold loads share the disk link instead of being summed serially.
//!   Rates come from the same `dz_gpusim::xfer` bandwidth model the
//!   scalar charges use.
//! * [`Prefetcher`] — predictive disk→host prewarming policies:
//!   [`QueueLookahead`] scans the FCFS queue beyond the selected `N`,
//!   [`PopularityPrefetch`] prewarms the head of a [`PopularityDist`].
//! * `Residency` (crate-private) — the engine's delta residency and swap
//!   pipeline around the timeline: GPU and host residency (one LRU each;
//!   the host tier is bounded by `host_capacity_deltas` and prices the
//!   cost model's delta bytes, so no file is read), in-flight loads, the
//!   requests stalled on them, the prefetch budget and the [`SwapStats`].
//!   It holds the one function that picks a load profile and the one
//!   method that advances the timeline.
//!
//! [`DeltaZipEngine`](crate::deltazip::DeltaZipEngine)'s planner hands
//! `Residency` each batch's selected deltas: step 3 starts loads instead
//! of blocking, decode iterations advance the timeline, and each queued
//! request stalls only until *its own* delta lands.

use crate::cost::CostModel;
use crate::deltazip::DeltaZipConfig;
use crate::metrics::SwapStats;
use crate::request::ReqState;
use dz_trace::{EvictTier, GaugeSample, TraceEvent, Tracer};
use dz_workload::PopularityDist;
use std::collections::{BTreeMap, BTreeSet};

/// Absolute-time comparison slack for the timeline's event stepping.
const EPS: f64 = 1e-12;

/// One load decomposed into stages. All stage fields are *solo seconds*:
/// the time the stage takes when the load has a channel to itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadProfile {
    /// Serial latency head (storage first-byte + PCIe setup): progresses
    /// unconditionally, before any channel work.
    pub head_s: f64,
    /// Work on the shared disk channel (zero for host hits).
    pub disk_s: f64,
    /// Work on the shared PCIe channel.
    pub pcie_s: f64,
    /// Serial tail after the channel work (a cold load's deserialization
    /// stage, which does **not** pipeline with the read).
    pub tail_s: f64,
    /// Pipelined floor: the load cannot finish earlier than this many
    /// seconds after it started, however fast the channels drain (a host
    /// hit's deserialization stage, which overlaps the PCIe hop).
    pub floor_s: f64,
}

impl LoadProfile {
    /// Completion time of this load on an otherwise idle timeline — by
    /// construction equal to the legacy serialized scalar charge.
    pub fn solo_s(&self) -> f64 {
        (self.head_s + self.disk_s.max(self.pcie_s) + self.tail_s).max(self.floor_s)
    }
}

/// Opaque handle to an in-flight load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadToken(u64);

/// What an in-flight load is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// A demand swap-in: some request is (or will be) stalled on it.
    Demand {
        /// Delta (trace model id) being loaded.
        delta: usize,
    },
    /// A predictive disk→host prewarm: nobody stalls on it.
    Prefetch {
        /// Delta (trace model id) being prewarmed.
        delta: usize,
    },
}

impl LoadKind {
    /// The delta this load moves.
    pub fn delta(&self) -> usize {
        match *self {
            LoadKind::Demand { delta } | LoadKind::Prefetch { delta } => delta,
        }
    }

    /// Whether this is a prefetch (vs a demand load).
    pub fn is_prefetch(&self) -> bool {
        matches!(self, LoadKind::Prefetch { .. })
    }
}

/// A load that finished during an [`TransferTimeline::advance_to`] call.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The finished load's token.
    pub token: LoadToken,
    /// What the load was.
    pub kind: LoadKind,
    /// Absolute completion time.
    pub at: f64,
    /// When the load (or its promotion to demand) started — the base of
    /// the contention-attribution window.
    pub started_at: f64,
    /// Uncontended duration of the (post-promotion) load: what the wall
    /// time `at - started_at` would have been on an idle timeline.
    pub solo_s: f64,
}

/// The result of advancing the timeline.
#[derive(Debug, Default)]
pub struct Advance {
    /// Loads that completed, in completion order.
    pub completions: Vec<Completion>,
    /// Wall-clock seconds of the advanced window during which at least
    /// one load was in flight (the overlap-accounting numerator).
    pub busy_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Active {
    token: LoadToken,
    kind: LoadKind,
    head_left: f64,
    disk_left: f64,
    pcie_left: f64,
    tail_left: f64,
    /// Absolute floor on the completion time (pipelined decode).
    min_finish_at: f64,
    /// Start (or promotion) time, surfaced on the [`Completion`].
    started_at: f64,
    /// Uncontended duration from `started_at`, surfaced on the
    /// [`Completion`].
    solo_s: f64,
}

impl Active {
    fn channel_done(&self) -> bool {
        self.head_left <= EPS && self.disk_left <= EPS && self.pcie_left <= EPS
    }

    fn work_done(&self) -> bool {
        self.channel_done() && self.tail_left <= EPS
    }
}

/// A deterministic shared-channel transfer simulator.
///
/// Loads started here progress whenever the owner advances the clock
/// ([`advance_to`](Self::advance_to)); within an advance, each of the two
/// channels (disk, PCIe) divides its bandwidth evenly among the loads
/// with remaining work on it. A load moves through: serial head → channel
/// work (disk and PCIe pipelined in parallel) → serial tail, and never
/// completes before its pipelined floor.
#[derive(Debug, Default)]
pub struct TransferTimeline {
    now: f64,
    seq: u64,
    active: Vec<Active>,
}

impl TransferTimeline {
    /// An empty timeline at time zero.
    pub fn new() -> Self {
        TransferTimeline::default()
    }

    /// Current timeline clock (the last `advance_to` target).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of loads currently in flight.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Number of in-flight prefetch loads.
    pub fn in_flight_prefetches(&self) -> usize {
        self.active.iter().filter(|a| a.kind.is_prefetch()).count()
    }

    /// Starts a load at the current clock.
    pub fn start(&mut self, profile: LoadProfile, kind: LoadKind) -> LoadToken {
        let token = LoadToken(self.seq);
        self.seq += 1;
        self.active.push(Active {
            token,
            kind,
            head_left: profile.head_s.max(0.0),
            disk_left: profile.disk_s.max(0.0),
            pcie_left: profile.pcie_s.max(0.0),
            tail_left: profile.tail_s.max(0.0),
            min_finish_at: self.now + profile.floor_s.max(0.0),
            started_at: self.now,
            solo_s: profile.solo_s(),
        });
        token
    }

    /// Promotes an in-flight prefetch into a demand load by grafting the
    /// remaining demand stages onto it (e.g. the host→device hop and the
    /// decode floor of a warm load): the already-transferred disk bytes
    /// are not paid twice. Returns false if the token is not in flight.
    pub fn promote(&mut self, token: LoadToken, extra: LoadProfile) -> bool {
        match self.active.iter_mut().find(|a| a.token == token) {
            Some(a) => {
                a.kind = LoadKind::Demand {
                    delta: a.kind.delta(),
                };
                a.head_left += extra.head_s.max(0.0);
                a.disk_left += extra.disk_s.max(0.0);
                a.pcie_left += extra.pcie_s.max(0.0);
                a.tail_left += extra.tail_s.max(0.0);
                a.min_finish_at = a.min_finish_at.max(self.now + extra.floor_s.max(0.0));
                // Re-base attribution at the promotion: the demanding
                // request only starts waiting now, and an idle timeline
                // would finish the grafted stages in `extra.solo_s()`
                // (any prefetch head start can only make the wall time
                // shorter, which the contention split clamps to zero).
                a.started_at = self.now;
                a.solo_s = extra.solo_s();
                true
            }
            None => false,
        }
    }

    /// The absolute time the earliest in-flight load will complete if no
    /// further loads start; `None` when nothing is in flight.
    pub fn next_completion_at(&self) -> Option<f64> {
        if self.active.is_empty() {
            return None;
        }
        let mut probe = TransferTimeline {
            now: self.now,
            seq: self.seq,
            active: self.active.clone(),
        };
        let adv = probe.advance_to(f64::INFINITY);
        adv.completions.first().map(|c| c.at)
    }

    /// Advances the clock to absolute time `t`, progressing all in-flight
    /// loads with even channel sharing, and returns the loads that
    /// completed (plus the busy-time accounting). `t` may be
    /// `f64::INFINITY` to drain everything.
    pub fn advance_to(&mut self, t: f64) -> Advance {
        let mut adv = Advance::default();
        loop {
            // Collect loads that are already done at the current clock.
            let mut i = 0;
            while i < self.active.len() {
                let a = self.active[i];
                if a.work_done() && a.min_finish_at <= self.now + EPS {
                    adv.completions.push(Completion {
                        token: a.token,
                        kind: a.kind,
                        at: self.now.max(a.min_finish_at),
                        started_at: a.started_at,
                        solo_s: a.solo_s,
                    });
                    self.active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if self.now >= t - EPS {
                if t.is_finite() {
                    self.now = self.now.max(t);
                }
                break;
            }
            if self.active.is_empty() {
                if t.is_finite() {
                    self.now = t;
                }
                break;
            }
            // Channel user counts are constant until the next stage event.
            let disk_users = self
                .active
                .iter()
                .filter(|a| a.head_left <= EPS && a.disk_left > EPS)
                .count()
                .max(1);
            let pcie_users = self
                .active
                .iter()
                .filter(|a| a.head_left <= EPS && a.pcie_left > EPS)
                .count()
                .max(1);
            // Earliest event: a stage draining, a floor passing, or `t`.
            let mut dt = if t.is_finite() {
                t - self.now
            } else {
                f64::MAX
            };
            for a in &self.active {
                if a.head_left > EPS {
                    dt = dt.min(a.head_left);
                } else if a.disk_left > EPS || a.pcie_left > EPS {
                    if a.disk_left > EPS {
                        dt = dt.min(a.disk_left * disk_users as f64);
                    }
                    if a.pcie_left > EPS {
                        dt = dt.min(a.pcie_left * pcie_users as f64);
                    }
                } else if a.tail_left > EPS {
                    dt = dt.min(a.tail_left);
                } else {
                    dt = dt.min((a.min_finish_at - self.now).max(0.0));
                }
            }
            let dt = dt.max(0.0);
            if dt <= EPS {
                // A zero-length event (floor exactly now): loop to collect.
                continue;
            }
            for a in &mut self.active {
                if a.head_left > EPS {
                    a.head_left = (a.head_left - dt).max(0.0);
                } else if a.disk_left > EPS || a.pcie_left > EPS {
                    if a.disk_left > EPS {
                        a.disk_left = (a.disk_left - dt / disk_users as f64).max(0.0);
                    }
                    if a.pcie_left > EPS {
                        a.pcie_left = (a.pcie_left - dt / pcie_users as f64).max(0.0);
                    }
                } else if a.tail_left > EPS {
                    a.tail_left = (a.tail_left - dt).max(0.0);
                }
            }
            self.now += dt;
            adv.busy_s += dt;
        }
        adv
    }
}

/// What a [`Prefetcher`] sees when proposing candidates: the scheduler's
/// leftover queue and the deltas already claimed this iteration.
#[derive(Debug)]
pub struct PrefetchContext<'a> {
    /// Models of still-queued requests in scheduler scan order (the part
    /// of the queue *beyond* the selected `N` — what queue-lookahead
    /// mines).
    pub queued_models: &'a [usize],
    /// Deltas selected (running or claimed) this iteration; prefetching
    /// these would race the demand path.
    pub selected: &'a BTreeSet<usize>,
}

/// A predictive prefetch policy: proposes deltas to prewarm disk→host,
/// highest priority first. The engine filters out deltas that are
/// already warm, resident, or in flight, and applies a fixed bandwidth
/// budget: at most half the disk link on average.
pub trait Prefetcher {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Prewarm candidates in priority order (may contain duplicates or
    /// already-warm deltas; the engine deduplicates and filters).
    fn candidates(&mut self, ctx: &PrefetchContext<'_>) -> Vec<usize>;
}

/// Queue-lookahead prefetch: scan the FCFS queue beyond the selected `N`
/// and prewarm the next distinct deltas that will be wanted — the §5.4
/// "we know who is next" signal.
#[derive(Debug, Clone, Copy)]
pub struct QueueLookahead {
    /// Maximum distinct deltas proposed per iteration.
    pub depth: usize,
}

impl QueueLookahead {
    /// Lookahead over the next `depth` distinct queued deltas.
    pub fn new(depth: usize) -> Self {
        QueueLookahead { depth }
    }
}

impl Prefetcher for QueueLookahead {
    fn name(&self) -> &'static str {
        "queue-lookahead"
    }

    fn candidates(&mut self, ctx: &PrefetchContext<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        for &m in ctx.queued_models {
            if out.len() >= self.depth {
                break;
            }
            if !ctx.selected.contains(&m) && !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }
}

/// Popularity-driven prefetch: keep the head of the popularity
/// distribution warm regardless of the instantaneous queue — the
/// provisioning-time signal a placement layer also uses.
#[derive(Debug, Clone)]
pub struct PopularityPrefetch {
    /// Per-model weights, hottest-first order derived at construction.
    ranked: Vec<usize>,
    /// Maximum distinct deltas proposed per iteration.
    pub top_k: usize,
}

impl PopularityPrefetch {
    /// Ranks `n_models` by `dist`'s static weights and proposes the
    /// hottest `top_k` each iteration.
    pub fn new(dist: PopularityDist, n_models: usize, top_k: usize) -> Self {
        let weights = dist.weights(n_models);
        let mut ranked: Vec<usize> = (0..n_models).collect();
        ranked.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        PopularityPrefetch { ranked, top_k }
    }
}

impl Prefetcher for PopularityPrefetch {
    fn name(&self) -> &'static str {
        "popularity"
    }

    fn candidates(&mut self, ctx: &PrefetchContext<'_>) -> Vec<usize> {
        self.ranked
            .iter()
            .copied()
            .filter(|m| !ctx.selected.contains(m))
            .take(self.top_k)
            .collect()
    }
}

/// Prefetch bandwidth budget: a token bucket of disk-channel seconds, so
/// prewarming uses at most half the disk link on average (demand loads
/// always outrank it), with at most [`PREFETCH_BURST_S`] banked and at
/// most [`PREFETCH_MAX_INFLIGHT`] prewarms in flight.
const PREFETCH_RATE: f64 = 0.5;
/// Token-bucket burst cap, in disk-seconds.
const PREFETCH_BURST_S: f64 = 30.0;
/// Maximum concurrent prefetch transfers.
const PREFETCH_MAX_INFLIGHT: usize = 2;

/// Which swap counter an advance window's busy time also counts toward.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window {
    /// Nothing admitted: only prefetches can be in flight.
    Idle,
    /// Every admitted request is stalled on its own delta's load.
    Blocked,
    /// A decode iteration ran while the loads progressed underneath it
    /// (the overlap).
    Decode,
}

/// The DeltaZip engine's delta residency and swap pipeline: GPU and host
/// residency, the shared [`TransferTimeline`] with its in-flight loads, the
/// requests stalled on them, the prefetch budget and the [`SwapStats`].
///
/// The engine's planner decides what to admit and which deltas a batch
/// needs; this type brings them in (steps 3 and 3b of the engine loop),
/// advances the timeline, and wakes each stalled request when its own
/// delta lands.
pub(crate) struct Residency {
    cost: CostModel,
    overlap: bool,
    host_cap: Option<usize>,
    /// GPU slots for deltas: `N` caps batch concurrency, not residency.
    gpu_capacity: usize,
    /// GPU-resident deltas with LRU stamps.
    on_gpu: BTreeMap<usize, f64>,
    /// Host-DRAM-warm deltas with LRU stamps, bounded by
    /// `host_capacity_deltas`.
    host: BTreeMap<usize, f64>,
    timeline: TransferTimeline,
    /// In-flight loads by delta, and which of them are still prefetches.
    loading: BTreeMap<usize, LoadToken>,
    load_is_prefetch: BTreeSet<usize>,
    /// Deltas whose host warmth came from a completed prefetch (the
    /// prefetch-hit accounting).
    prefetched_warm: BTreeSet<usize>,
    /// Admitted requests stalled on their own delta's load, with the time
    /// each stall began (overlapped mode only).
    waiting: Vec<(usize, f64)>,
    /// Deltas the current batch claims: never evicted, kept hot.
    claimed: BTreeSet<usize>,
    /// Prefetch token bucket (disk-seconds) and when it was last refilled.
    bucket: f64,
    refilled_at: f64,
    stats: SwapStats,
}

impl Residency {
    /// Empty GPU and host tiers under a validated config.
    pub(crate) fn new(cost: CostModel, cfg: &DeltaZipConfig) -> Self {
        Residency {
            cost,
            overlap: cfg.overlap_swaps,
            host_cap: cfg.host_capacity_deltas,
            gpu_capacity: cost
                .delta_resident_capacity()
                .max(cfg.max_concurrent_deltas),
            on_gpu: BTreeMap::new(),
            host: BTreeMap::new(),
            timeline: TransferTimeline::new(),
            loading: BTreeMap::new(),
            load_is_prefetch: BTreeSet::new(),
            prefetched_warm: BTreeSet::new(),
            waiting: Vec::new(),
            claimed: BTreeSet::new(),
            bucket: PREFETCH_BURST_S,
            refilled_at: 0.0,
            stats: SwapStats::default(),
        }
    }

    /// Hands back the run's swap counters.
    pub(crate) fn finish(self) -> SwapStats {
        self.stats
    }

    /// Whether delta `d` is GPU-resident.
    pub(crate) fn on_gpu(&self, d: usize) -> bool {
        self.on_gpu.contains_key(&d)
    }

    /// Requests admitted but stalled on their own delta's load.
    pub(crate) fn waiting(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.waiting.iter().map(|&(qid, _)| qid)
    }

    /// When the earliest in-flight load lands if nothing else starts.
    pub(crate) fn next_completion_at(&self) -> Option<f64> {
        self.timeline.next_completion_at()
    }

    /// Parks an admitted request until its delta lands: it holds a batch
    /// slot while the resident sub-batch decodes on.
    pub(crate) fn block(&mut self, qid: usize, t: f64) {
        self.waiting.push((qid, t));
    }

    /// Step 3: claims the batch's `selected` deltas and brings those not on
    /// GPU, evicting LRU unclaimed deltas under memory pressure, then
    /// stamps every claimed delta as used.
    ///
    /// Overlapped, each load starts on the timeline (or is grafted onto
    /// its in-flight prefetch) and only its own requests stall. Serialized,
    /// every load is charged up front and the whole `running` batch stalls
    /// on the sum, which is returned (0 when overlapped).
    pub(crate) fn swap_in(
        &mut self,
        selected: &BTreeSet<usize>,
        t: f64,
        running: &[usize],
        states: &mut [ReqState],
        tracer: &mut Tracer,
    ) -> f64 {
        self.claimed.clone_from(selected);
        let needed: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|d| !self.on_gpu.contains_key(d))
            .collect();
        if self.overlap {
            for d in needed {
                let demand_inflight = self.loading.len() - self.load_is_prefetch.len();
                if let Some(&tok) = self.loading.get(&d) {
                    if self.load_is_prefetch.remove(&d) {
                        // A prewarm for this delta is in flight: graft the
                        // host->device stages onto it instead of paying
                        // the disk bytes twice. It needs a GPU slot like
                        // any demand load (counted before the prefetch
                        // marker is cleared, so room is reserved for it).
                        self.evict_gpu(demand_inflight, t, tracer);
                        // The prewarm's bytes finish into the host tier
                        // and the demand fetch hits there.
                        self.warm_host(d, t, tracer);
                        let (extra, _) = self.load_profile(d, t, tracer);
                        self.stats.prefetch_hits += 1;
                        tracer.emit(|| TraceEvent::PrefetchHit { delta: d, at: t });
                        tracer.emit(|| TraceEvent::PrefetchPromoted { delta: d, at: t });
                        trace_swap_start(tracer, d, t, &extra);
                        self.timeline.promote(tok, extra);
                        self.stats.demand_loads += 1;
                        self.stats.serialized_stall_s += extra.solo_s();
                    }
                    continue;
                }
                self.evict_gpu(demand_inflight, t, tracer);
                let was_prefetched = self.prefetched_warm.remove(&d);
                let (profile, host_hit) = self.load_profile(d, t, tracer);
                if was_prefetched && host_hit {
                    self.stats.prefetch_hits += 1;
                    tracer.emit(|| TraceEvent::PrefetchHit { delta: d, at: t });
                }
                trace_swap_start(tracer, d, t, &profile);
                let tok = self.timeline.start(profile, LoadKind::Demand { delta: d });
                self.loading.insert(d, tok);
                self.stats.demand_loads += 1;
                self.stats.serialized_stall_s += profile.solo_s();
            }
            self.touch(t);
            return 0.0;
        }
        // Serialized (the `bench-swap` baseline): loads run back to back,
        // so each delta's span is reconstructed inside the one charge.
        let mut load_s = 0.0;
        for d in needed {
            self.evict_gpu(0, t, tracer);
            let offset = load_s;
            let charge = self.load_profile(d, t, tracer).0.solo_s();
            tracer.emit(|| TraceEvent::SwapStart {
                delta: d,
                at: t + offset,
                disk_s: 0.0,
                pcie_s: 0.0,
                solo_s: charge,
            });
            tracer.emit(|| TraceEvent::SwapLand {
                delta: d,
                at: t + offset + charge,
                waiters: 0,
            });
            load_s += charge;
            self.stats.demand_loads += 1;
            self.stats.serialized_stall_s += charge;
            self.on_gpu.insert(d, t);
        }
        if load_s > 0.0 {
            let end = t + load_s;
            self.stats.load_busy_s += load_s;
            self.stats.blocked_s += load_s;
            for &rid in running {
                states[rid].load_wait_s += load_s;
                self.stats.stall_s += load_s;
                // The whole batch stalls on the serialized sum: all of it
                // is own-delta exposure (no channel contention here).
                states[rid].accrue(end, |c, dt| c.stall_own_s += dt);
            }
        }
        self.touch(t + load_s);
        load_s
    }

    /// Step 3b: prewarms `candidates` (in priority order) disk->host under
    /// the bandwidth budget, skipping deltas that are claimed, resident,
    /// in flight or already warm.
    pub(crate) fn prefetch(&mut self, candidates: Vec<usize>, t: f64, tracer: &mut Tracer) {
        for d in candidates {
            if self.timeline.in_flight_prefetches() >= PREFETCH_MAX_INFLIGHT {
                break;
            }
            if self.claimed.contains(&d)
                || self.on_gpu.contains_key(&d)
                || self.loading.contains_key(&d)
                || self.host.contains_key(&d)
            {
                continue;
            }
            let profile = self.cost.prefetch_profile_bytes(self.cost.delta_bytes());
            if profile.disk_s > self.bucket {
                continue;
            }
            self.bucket -= profile.disk_s;
            tracer.emit(|| TraceEvent::PrefetchIssued {
                delta: d,
                at: t,
                disk_s: profile.disk_s,
            });
            let tok = self
                .timeline
                .start(profile, LoadKind::Prefetch { delta: d });
            self.loading.insert(d, tok);
            self.load_is_prefetch.insert(d);
            self.stats.prefetch_issued += 1;
        }
    }

    /// Stamps the claimed deltas in both LRUs (a GPU-resident delta must
    /// not rot into the host LRU's victim while it is still hot).
    fn touch(&mut self, t: f64) {
        for d in &self.claimed {
            if let Some(stamp) = self.on_gpu.get_mut(d) {
                *stamp = t;
            }
            if let Some(stamp) = self.host.get_mut(d) {
                *stamp = t;
            }
        }
    }

    /// Advances the timeline to `to` and refills the prefetch budget. A
    /// landed demand load makes its delta GPU-resident and moves every
    /// request stalled on it to `running`, charging each only its own
    /// wait; a landed prefetch makes its delta host-warm, evicting only
    /// unclaimed deltas (an idle engine claims none).
    pub(crate) fn advance_to(
        &mut self,
        to: f64,
        window: Window,
        states: &mut [ReqState],
        running: &mut Vec<usize>,
        tracer: &mut Tracer,
    ) {
        let adv = self.timeline.advance_to(to);
        self.stats.load_busy_s += adv.busy_s;
        match window {
            Window::Idle => self.claimed.clear(),
            Window::Blocked => self.stats.blocked_s += adv.busy_s,
            Window::Decode => self.stats.overlapped_s += adv.busy_s,
        }
        self.bucket = (self.bucket + (to - self.refilled_at) * PREFETCH_RATE).min(PREFETCH_BURST_S);
        self.refilled_at = to;
        for c in adv.completions {
            let d = c.kind.delta();
            self.loading.remove(&d);
            self.load_is_prefetch.remove(&d);
            if c.kind.is_prefetch() {
                self.stats.prefetch_completed += 1;
                self.prefetched_warm.insert(d);
                tracer.emit(|| TraceEvent::PrefetchLand { delta: d, at: c.at });
                self.warm_host(d, c.at, tracer);
                continue;
            }
            self.on_gpu.insert(d, c.at);
            // Contention attribution: how much of the load's wall time was
            // inflation over its uncontended duration. The clamp absorbs
            // promoted loads that beat their solo estimate thanks to a
            // prefetch head start.
            let wall = (c.at - c.started_at).max(0.0);
            let contention_frac = if wall > 0.0 {
                ((wall - c.solo_s) / wall).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let mut woken = 0usize;
            let mut i = 0;
            while i < self.waiting.len() {
                let (qid, since) = self.waiting[i];
                if states[qid].req.model != d {
                    i += 1;
                    continue;
                }
                let stall = (c.at - since).max(0.0);
                states[qid].load_wait_s += stall;
                self.stats.stall_s += stall;
                // Split the stall (computed as `dt` so the ledger
                // telescopes exactly) into own-delta exposure vs
                // contention-induced inflation.
                states[qid].accrue(c.at, |cs, dt| {
                    let cont = dt * contention_frac;
                    cs.stall_contention_s += cont;
                    cs.stall_own_s += dt - cont;
                });
                running.push(qid);
                self.waiting.swap_remove(i);
                woken += 1;
            }
            tracer.emit(|| TraceEvent::SwapLand {
                delta: d,
                at: c.at,
                waiters: woken,
            });
        }
    }

    /// Gauge sample at an iteration boundary: residency and warmth
    /// composition and channel in-flight counts, next to the planner's
    /// queue and batch occupancy.
    pub(crate) fn gauge(
        &self,
        at: f64,
        n_models: usize,
        queue_depth: usize,
        batch: usize,
    ) -> GaugeSample {
        let host = self.host.len();
        GaugeSample {
            at,
            queue_depth,
            batch,
            blocked: self.waiting.len(),
            gpu_resident: self.on_gpu.len(),
            warmth_disk: n_models.saturating_sub(host),
            warmth_host: host,
            gpu_bytes: self.on_gpu.len() as f64 * self.cost.delta_bytes(),
            host_bytes: host as f64 * self.cost.delta_bytes(),
            inflight_demand: self.timeline.in_flight() - self.timeline.in_flight_prefetches(),
            inflight_prefetch: self.timeline.in_flight_prefetches(),
            live_replicas: 0,
        }
    }

    /// Fetches delta `d` through the host tier and prices its swap-in: the
    /// one place a load profile is chosen. Returns the profile and whether
    /// the fetch hit host DRAM. Both profiles price the cost model's delta
    /// bytes, warm or cold by the host LRU.
    fn load_profile(&mut self, d: usize, t: f64, tracer: &mut Tracer) -> (LoadProfile, bool) {
        let cost = self.cost;
        let host_hit = self.host.contains_key(&d);
        let profile = if host_hit {
            cost.delta_load_profile_bytes(cost.delta_bytes())
        } else {
            cost.delta_cold_load_profile_bytes(cost.delta_bytes())
        };
        self.warm_host(d, t, tracer);
        (profile, host_hit)
    }

    /// Lands delta `d` in the host LRU at `at` under its cap, evicting
    /// unclaimed LRU entries (the cap is clamped to `N`, which bounds the
    /// claimed set, so the cap is restored).
    fn warm_host(&mut self, d: usize, at: f64, tracer: &mut Tracer) {
        self.host.insert(d, at);
        let Some(cap) = self.host_cap else {
            return;
        };
        while self.host.len() > cap.max(1) {
            match lru_outside(&self.host, &self.claimed) {
                Some(v) => {
                    self.host.remove(&v);
                    tracer.emit(|| TraceEvent::Evict {
                        delta: v,
                        tier: EvictTier::Host,
                        at,
                    });
                }
                None => break, // Everything cached is claimed right now.
            }
        }
    }

    /// Evicts LRU unclaimed deltas from GPU memory until one more landing
    /// delta fits (in-flight demand loads also reserve slots). A capacity
    /// of at least `N` guarantees progress; if every resident delta is
    /// claimed the loop stops.
    fn evict_gpu(&mut self, reserved_inflight: usize, at: f64, tracer: &mut Tracer) {
        while self.on_gpu.len() + reserved_inflight >= self.gpu_capacity {
            match lru_outside(&self.on_gpu, &self.claimed) {
                Some(v) => {
                    self.on_gpu.remove(&v);
                    tracer.emit(|| TraceEvent::Evict {
                        delta: v,
                        tier: EvictTier::Gpu,
                        at,
                    });
                }
                None => break,
            }
        }
    }
}

/// The least-recently-stamped entry of an LRU map outside `claimed`.
fn lru_outside(stamps: &BTreeMap<usize, f64>, claimed: &BTreeSet<usize>) -> Option<usize> {
    stamps
        .iter()
        .filter(|(d, _)| !claimed.contains(*d))
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite time"))
        .map(|(&d, _)| d)
}

fn trace_swap_start(tracer: &mut Tracer, d: usize, at: f64, profile: &LoadProfile) {
    tracer.emit(|| TraceEvent::SwapStart {
        delta: d,
        at,
        disk_s: profile.disk_s,
        pcie_s: profile.pcie_s,
        solo_s: profile.solo_s(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(head: f64, disk: f64, pcie: f64, tail: f64, floor: f64) -> LoadProfile {
        LoadProfile {
            head_s: head,
            disk_s: disk,
            pcie_s: pcie,
            tail_s: tail,
            floor_s: floor,
        }
    }

    #[test]
    fn solo_load_finishes_in_solo_time() {
        let mut tl = TransferTimeline::new();
        let p = profile(0.1, 2.0, 0.5, 0.3, 0.0);
        tl.start(p, LoadKind::Demand { delta: 0 });
        let adv = tl.advance_to(f64::INFINITY);
        assert_eq!(adv.completions.len(), 1);
        assert!((adv.completions[0].at - p.solo_s()).abs() < 1e-9);
        assert!((p.solo_s() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn floor_binds_when_channels_are_fast() {
        let mut tl = TransferTimeline::new();
        let p = profile(0.0, 0.1, 0.1, 0.0, 5.0);
        tl.start(p, LoadKind::Demand { delta: 0 });
        let adv = tl.advance_to(f64::INFINITY);
        assert!((adv.completions[0].at - 5.0).abs() < 1e-9);
    }

    #[test]
    fn two_loads_share_a_channel_evenly() {
        // Two identical disk-only loads started together: each sees half
        // the bandwidth, so both finish at 2x the solo time — and not
        // later (work conservation).
        let mut tl = TransferTimeline::new();
        let p = profile(0.0, 1.0, 0.0, 0.0, 0.0);
        tl.start(p, LoadKind::Demand { delta: 0 });
        tl.start(p, LoadKind::Demand { delta: 1 });
        let adv = tl.advance_to(f64::INFINITY);
        assert_eq!(adv.completions.len(), 2);
        for c in &adv.completions {
            assert!((c.at - 2.0).abs() < 1e-9, "completion at {}", c.at);
        }
    }

    #[test]
    fn disjoint_channels_do_not_contend() {
        // A disk-only and a PCIe-only load run fully in parallel.
        let mut tl = TransferTimeline::new();
        tl.start(
            profile(0.0, 1.0, 0.0, 0.0, 0.0),
            LoadKind::Demand { delta: 0 },
        );
        tl.start(
            profile(0.0, 0.0, 1.0, 0.0, 0.0),
            LoadKind::Demand { delta: 1 },
        );
        let adv = tl.advance_to(f64::INFINITY);
        for c in &adv.completions {
            assert!((c.at - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn staggered_start_departs_in_order_and_pays_contention() {
        let mut tl = TransferTimeline::new();
        tl.start(
            profile(0.0, 2.0, 0.0, 0.0, 0.0),
            LoadKind::Demand { delta: 0 },
        );
        let adv = tl.advance_to(1.0);
        assert!(adv.completions.is_empty());
        assert!((adv.busy_s - 1.0).abs() < 1e-12);
        // Second load joins with 1.0s of the first remaining: they share
        // the channel (first needs 1 more solo-second -> 2 wall seconds).
        tl.start(
            profile(0.0, 3.0, 0.0, 0.0, 0.0),
            LoadKind::Demand { delta: 1 },
        );
        let adv = tl.advance_to(f64::INFINITY);
        assert_eq!(adv.completions.len(), 2);
        assert_eq!(adv.completions[0].kind.delta(), 0);
        assert!((adv.completions[0].at - 3.0).abs() < 1e-9);
        // Total disk work = 5 solo-seconds, channel never idle from t=0.
        assert!((adv.completions[1].at - 5.0).abs() < 1e-9);
    }

    #[test]
    fn partial_advance_accumulates_progress() {
        let mut tl = TransferTimeline::new();
        let p = profile(0.0, 1.0, 0.0, 0.0, 0.0);
        tl.start(p, LoadKind::Demand { delta: 0 });
        for i in 1..=10 {
            let adv = tl.advance_to(i as f64 * 0.1);
            if i < 10 {
                assert!(adv.completions.is_empty(), "early completion at step {i}");
            } else {
                assert_eq!(adv.completions.len(), 1);
            }
        }
    }

    #[test]
    fn next_completion_probe_matches_reality_and_does_not_mutate() {
        let mut tl = TransferTimeline::new();
        tl.start(
            profile(0.1, 1.0, 0.5, 0.2, 0.0),
            LoadKind::Demand { delta: 0 },
        );
        tl.start(
            profile(0.0, 2.0, 0.0, 0.0, 0.0),
            LoadKind::Prefetch { delta: 1 },
        );
        let predicted = tl.next_completion_at().expect("loads in flight");
        assert_eq!(tl.in_flight(), 2);
        assert_eq!(tl.in_flight_prefetches(), 1);
        let adv = tl.advance_to(f64::INFINITY);
        assert!((adv.completions[0].at - predicted).abs() < 1e-9);
    }

    #[test]
    fn promote_grafts_demand_stages_onto_a_prefetch() {
        let mut tl = TransferTimeline::new();
        let tok = tl.start(
            profile(0.0, 2.0, 0.0, 0.0, 0.0),
            LoadKind::Prefetch { delta: 7 },
        );
        // Half the disk work done, then the delta is demanded.
        tl.advance_to(1.0);
        assert!(tl.promote(tok, profile(0.0, 0.0, 0.5, 0.0, 0.0)));
        let adv = tl.advance_to(f64::INFINITY);
        assert_eq!(adv.completions.len(), 1);
        assert!(!adv.completions[0].kind.is_prefetch());
        assert_eq!(adv.completions[0].kind.delta(), 7);
        // 1.0s disk remaining + 0.5s PCIe (pipelined in parallel): 1.0s.
        assert!((adv.completions[0].at - 2.0).abs() < 1e-9);
        assert!(!tl.promote(tok, LoadProfile::default()), "token consumed");
    }

    #[test]
    fn completions_carry_contention_base() {
        let mut tl = TransferTimeline::new();
        let p = profile(0.0, 1.0, 0.0, 0.0, 0.0);
        tl.start(p, LoadKind::Demand { delta: 0 });
        tl.start(p, LoadKind::Demand { delta: 1 });
        let adv = tl.advance_to(f64::INFINITY);
        for c in &adv.completions {
            assert_eq!(c.started_at, 0.0);
            assert!((c.solo_s - 1.0).abs() < 1e-12);
            // Wall time (2.0) exceeds solo (1.0): the contention split
            // attributes the other half to channel sharing.
            assert!((c.at - c.started_at - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn promote_rebases_contention_attribution() {
        let mut tl = TransferTimeline::new();
        let tok = tl.start(
            profile(0.0, 2.0, 0.0, 0.0, 0.0),
            LoadKind::Prefetch { delta: 7 },
        );
        tl.advance_to(1.0);
        assert!(tl.promote(tok, profile(0.0, 0.0, 0.5, 0.0, 0.0)));
        let adv = tl.advance_to(f64::INFINITY);
        let c = &adv.completions[0];
        assert_eq!(c.started_at, 1.0);
        assert!((c.solo_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queue_lookahead_scans_beyond_selected() {
        let selected: BTreeSet<usize> = [1, 2].into_iter().collect();
        let mut p = QueueLookahead::new(2);
        let queued = vec![1, 3, 3, 4, 5];
        let ctx = PrefetchContext {
            queued_models: &queued,
            selected: &selected,
        };
        assert_eq!(p.candidates(&ctx), vec![3, 4]);
    }

    #[test]
    fn popularity_prefetch_proposes_the_head() {
        let selected: BTreeSet<usize> = [0].into_iter().collect();
        let mut p = PopularityPrefetch::new(PopularityDist::Zipf { alpha: 1.5 }, 8, 3);
        let ctx = PrefetchContext {
            queued_models: &[],
            selected: &selected,
        };
        // Model 0 is selected; the next-hottest models follow in rank order.
        assert_eq!(p.candidates(&ctx), vec![1, 2, 3]);
    }
}
