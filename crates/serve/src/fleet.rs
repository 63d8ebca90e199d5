//! Fleet-scale event-driven serving: one global heap, O(events) not
//! O(replicas × ticks).
//!
//! [`ClusterSim`](crate::cluster::ClusterSim) replays every replica with a
//! full [`DeltaZipEngine`](crate::deltazip::DeltaZipEngine) — faithful, but
//! the per-replica engines make thousand-replica sweeps infeasible.
//! [`FleetSim`] is the scale-out counterpart: replicas are compact event
//! handlers (arrival, departure, swap-land, prefetch-land) on a single
//! monotone [`EventQueue`], so a million-request trace over 1000 replicas
//! runs in seconds of wall clock.
//!
//! What it keeps from the paper's serving story:
//!
//! * **Multi-tier topology**: replicas live in fixed region → rack → node
//!   positions with distinct inter-tier bandwidths (private constants). A
//!   delta miss fetches from the *nearest* holder — local disk beats a
//!   rack peer beats a region peer beats cross-region — and falls back to
//!   the shared **object store** below every disk ([`FetchTier`]). Pulled
//!   deltas replicate onto the edge disk, so popular deltas spread.
//! * **O(1)-per-request routing** through the [`Router`] trait
//!   [`ClusterSim`](crate::cluster::ClusterSim) also takes, over lazy
//!   [`ReplicaViews`]: p2c and consistent hashing route without touching
//!   all `R` replicas; the O(R) global least-cost scan is the baseline
//!   that stops scaling.
//! * **A healthy fleet**: every replica is live for the whole run.
//!   Crashes, restarts and autoscaling are scripted against
//!   [`ClusterSim`](crate::cluster::ClusterSim) (see [`crate::chaos`]).
//! * **Determinism**: same seed → identical event sequence. The optional
//!   event log ([`FleetReport::event_log`]) exists so tests can replay a
//!   run and compare logs bit-for-bit.
//!
//! Event ordering at equal timestamps is by event *class* (lands before
//! departures before arrivals), then by insertion sequence — see
//! [`EventQueue`] for the `(at, class, seq)` key.

use crate::cluster::{PlacementPlan, ReplicaView, ReplicaViews, Router, WarmSet};
use dz_gpusim::{EventClass, EventQueue};
use dz_trace::{StreamingQuantiles, TraceConfig, TraceEvent, TraceTrack, Tracer};
use dz_workload::Trace;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Topology.
// ---------------------------------------------------------------------------

/// Where a delta's bytes came from, cheapest tier first.
///
/// The ladder mirrors a real fleet: a warm (host-cache) hit pays nothing
/// extra, a local NVMe read beats pulling from a rack peer over the
/// top-of-rack switch, which beats crossing the regional fabric, which
/// beats the WAN, which beats the shared object store's request latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FetchTier {
    /// The replica's own disk held a copy.
    LocalDisk,
    /// Pulled from a node in the same rack.
    PeerRack,
    /// Pulled from another rack in the same region.
    PeerRegion,
    /// Pulled from a different region.
    CrossRegion,
    /// No replica held a copy: fetched from the shared object store.
    ObjectStore,
}

// The fleet's region → rack → node topology: a mid-size deployment with
// 16-node racks, 8 racks per region, NVMe local disk, 40 GbE effective
// in-rack, an oversubscribed regional fabric, and an S3-like object store
// (80 ms first-byte, shared single-stream throughput). Replica ids are
// positional: rack `id / NODES_PER_RACK`, region `rack / RACKS_PER_REGION`.
// Bandwidths (GB/s) descend down the ladder so each `FetchTier` is
// strictly costlier for delta-sized payloads; latencies are per-fetch
// setup floors (RTT, request dispatch).

/// Nodes (replicas) per rack.
const NODES_PER_RACK: usize = 16;
/// Racks per region.
const RACKS_PER_REGION: usize = 8;
/// Local NVMe read bandwidth (GB/s).
const LOCAL_DISK_GBPS: f64 = 7.0;
/// Bandwidth between nodes in one rack (GB/s).
const INTRA_RACK_GBPS: f64 = 5.0;
/// Bandwidth between racks in one region (GB/s).
const INTER_RACK_GBPS: f64 = 2.5;
/// Bandwidth between regions (GB/s).
const INTER_REGION_GBPS: f64 = 1.25;
/// Shared object-store streaming bandwidth (GB/s).
const OBJECT_STORE_GBPS: f64 = 0.8;
/// Per-fetch latency floor for any peer pull (s).
const PEER_LATENCY_S: f64 = 0.002;
/// Per-fetch latency floor for an object-store pull (s).
const OBJECT_STORE_LATENCY_S: f64 = 0.08;

/// `(region, rack)` of a replica id.
fn location(replica: usize) -> (usize, usize) {
    let rack = replica / NODES_PER_RACK;
    (rack / RACKS_PER_REGION, rack)
}

/// The cheapest tier at which `from` can pull from `holder`.
fn tier_between(from: usize, holder: usize) -> FetchTier {
    if from == holder {
        return FetchTier::LocalDisk;
    }
    let (fr, frack) = location(from);
    let (hr, hrack) = location(holder);
    if frack == hrack {
        FetchTier::PeerRack
    } else if fr == hr {
        FetchTier::PeerRegion
    } else {
        FetchTier::CrossRegion
    }
}

/// Seconds to move `bytes` over `tier` (latency floor + streaming).
fn fetch_time_s(tier: FetchTier, bytes: u64) -> f64 {
    let (gbps, latency) = match tier {
        FetchTier::LocalDisk => (LOCAL_DISK_GBPS, 0.0),
        FetchTier::PeerRack => (INTRA_RACK_GBPS, PEER_LATENCY_S),
        FetchTier::PeerRegion => (INTER_RACK_GBPS, PEER_LATENCY_S),
        FetchTier::CrossRegion => (INTER_REGION_GBPS, PEER_LATENCY_S),
        FetchTier::ObjectStore => (OBJECT_STORE_GBPS, OBJECT_STORE_LATENCY_S),
    };
    latency + bytes as f64 / (gbps * 1e9)
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Compressed delta size (bytes); uniform across models.
const DELTA_BYTES: u64 = 850 << 20;
/// Decode seconds per token (prompt + output) of service time.
const PER_TOKEN_S: f64 = 0.0003;
/// Fixed per-request service floor (s).
const STARTUP_S: f64 = 0.02;

/// Configuration for a [`FleetSim`] run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size (replica ids `0..n_replicas`).
    pub n_replicas: usize,
    /// Deltas each replica keeps warm (host cache) before LRU eviction.
    pub warm_capacity: usize,
    /// Record the `(time, class, key)` event log for replay tests.
    pub record_events: bool,
    /// Emit simulation-clock trace events (Chrome-trace exportable).
    pub trace: Option<TraceConfig>,
}

impl FleetConfig {
    /// Defaults sized for the bench sweeps: ~3300 tok/s decode, 850 MB
    /// compressed deltas, 12-delta warm cache.
    pub fn new(n_replicas: usize) -> Self {
        FleetConfig {
            n_replicas,
            warm_capacity: 12,
            record_events: false,
            trace: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// Per-tier fetch counts of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchCounts {
    /// Misses satisfied from the replica's own disk.
    pub local_disk: u64,
    /// Misses pulled from a rack peer.
    pub peer_rack: u64,
    /// Misses pulled from another rack in-region.
    pub peer_region: u64,
    /// Misses pulled cross-region.
    pub cross_region: u64,
    /// Misses that fell through to the object store.
    pub object_store: u64,
}

impl FetchCounts {
    /// Total misses (any tier).
    pub fn total(&self) -> u64 {
        self.local_disk + self.peer_rack + self.peer_region + self.cross_region + self.object_store
    }
}

/// One entry of the deterministic event log (enabled by
/// [`FleetConfig::record_events`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetLogEntry {
    /// Event timestamp (s).
    pub at: f64,
    /// Event class popped with it (see module docs for the ordering).
    pub class: EventClass,
    /// Stable payload key (request id, replica id, or packed
    /// replica/model for swap events).
    pub key: u64,
}

/// Aggregate results of a [`FleetSim`] run.
#[derive(Debug)]
pub struct FleetReport {
    /// Routing policy name.
    pub router: String,
    /// Fleet size the run was configured with.
    pub n_replicas: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Warm (host-cache) routing hits.
    pub warm_hits: u64,
    /// Per-tier miss fetch counts.
    pub fetches: FetchCounts,
    /// Mean end-to-end latency (s).
    pub mean_e2e_s: f64,
    /// Median end-to-end latency (s).
    pub p50_e2e_s: f64,
    /// 99th-percentile end-to-end latency (s).
    pub p99_e2e_s: f64,
    /// Worst end-to-end latency (s).
    pub max_e2e_s: f64,
    /// Time the last request finished (s).
    pub makespan_s: f64,
    /// Total events popped from the global heap.
    pub events: usize,
    /// Deterministic event log, when recording was enabled.
    pub event_log: Option<Vec<FleetLogEntry>>,
    /// Chrome-trace tracks, when tracing was enabled.
    pub tracks: Vec<TraceTrack>,
}

// ---------------------------------------------------------------------------
// The simulator.
// ---------------------------------------------------------------------------

/// Equal-time pops drain landed transfers first, then departures (freed
/// capacity is visible), then arrivals. The values are part of every
/// recorded [`FleetLogEntry`], so they stay fixed.
const CLASS_LAND: EventClass = 1;
const CLASS_DEPART: EventClass = 2;
const CLASS_ARRIVAL: EventClass = 3;

enum FleetEvent {
    /// Next trace request (index into `trace.requests`); arrivals are
    /// streamed — popping index `i` pushes index `i + 1`.
    Arrival(usize),
    /// A replica finished a request.
    Depart { replica: usize, id: usize },
    /// A demand delta fetch landed on a replica.
    SwapLand { replica: usize, model: usize },
    /// An edge-replication prefetch landed on a replica's disk.
    PrefetchLand { replica: usize, model: usize },
}

#[derive(Debug, Clone)]
struct FleetReplica {
    /// Simulation time the replica drains its queue (s).
    busy_until: f64,
    queue_depth: usize,
    /// Host-cache warm set, bounded by `warm_capacity`.
    warm: WarmSet,
}

/// The router's view of the fleet for one request: built per replica on
/// demand, so p2c and the hash ring never touch all `R` replicas.
struct FleetViews<'a> {
    replicas: &'a [FleetReplica],
    on_disk: &'a [Vec<bool>],
    model: usize,
    now: f64,
    /// Miss penalties: the delta on local disk, else a flat object-store
    /// pull (cheap to compute, pessimistic enough to prefer any holder).
    local_disk_s: f64,
    object_store_s: f64,
}

impl ReplicaViews for FleetViews<'_> {
    fn len(&self) -> usize {
        self.replicas.len()
    }

    fn view(&self, r: usize) -> ReplicaView {
        let rep = &self.replicas[r];
        let warm = rep.warm.contains(self.model);
        ReplicaView {
            id: r,
            queue_depth: rep.queue_depth,
            backlog_s: (rep.busy_until - self.now).max(0.0),
            warm,
            decoded: warm,
            cold_load_s: if self.on_disk[r][self.model] {
                self.local_disk_s
            } else {
                self.object_store_s
            },
            warm_load_s: 0.0,
            alive: true,
        }
    }

    /// The live set never changes.
    fn epoch(&self) -> u64 {
        0
    }
}

/// The fleet-scale event-driven simulator. See the module docs.
pub struct FleetSim {
    config: FleetConfig,
    plan: PlacementPlan,
    router: Box<dyn Router>,
}

impl FleetSim {
    /// Creates a fleet; the placement plan seeds which replicas hold each
    /// delta on disk at t = 0 (everything else starts object-store-only).
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(config: FleetConfig, plan: PlacementPlan, router: Box<dyn Router>) -> Self {
        assert!(config.n_replicas > 0, "fleet needs at least one replica");
        FleetSim {
            config,
            plan,
            router,
        }
    }

    /// Runs the trace to completion and reports fleet-level metrics.
    pub fn run(&mut self, trace: &Trace) -> FleetReport {
        let cfg = self.config.clone();
        let n = cfg.n_replicas;
        let n_models = trace.spec.n_models.max(1);

        // Replica state. Everyone starts idle.
        let mut replicas = vec![
            FleetReplica {
                busy_until: 0.0,
                queue_depth: 0,
                warm: WarmSet::new(cfg.warm_capacity),
            };
            n
        ];
        // Disk residency index: disk_holders[m] = replicas whose disk has
        // delta m, kept sorted for deterministic nearest-holder scans.
        // Seeded from the placement plan; grows as pulls edge-replicate.
        let mut disk_holders: Vec<Vec<u32>> = vec![Vec::new(); n_models];
        let mut on_disk: Vec<Vec<bool>> = Vec::with_capacity(n);
        on_disk.resize_with(n, || vec![false; n_models]);
        for m in 0..n_models {
            for &h in self.plan.homes(m) {
                if h < n && !on_disk[h][m] {
                    on_disk[h][m] = true;
                    disk_holders[m].push(h as u32);
                }
            }
        }
        // In-flight demand fetches: a request routed to a replica whose
        // fetch for the same delta is still in the air waits for the land
        // instead of paying a second pull.
        let mut inflight: HashMap<(usize, usize), f64> = HashMap::new();

        let mut events: EventQueue<FleetEvent> = EventQueue::new();
        if !trace.requests.is_empty() {
            events.push_class(trace.requests[0].arrival.max(0.0), CLASS_ARRIVAL, {
                FleetEvent::Arrival(0)
            });
        }

        let local_disk_s = fetch_time_s(FetchTier::LocalDisk, DELTA_BYTES);
        let object_store_s = fetch_time_s(FetchTier::ObjectStore, DELTA_BYTES);
        let mut e2e = StreamingQuantiles::new();
        let mut warm_hits = 0u64;
        let mut fetches = FetchCounts::default();
        let mut served = 0usize;
        let mut makespan = 0.0f64;
        let mut popped = 0usize;
        let mut log: Option<Vec<FleetLogEntry>> = cfg.record_events.then(Vec::new);
        let mut tracer = match &cfg.trace {
            Some(tc) => Tracer::enabled(*tc),
            None => Tracer::disabled(),
        };

        while let Some((t, class, event)) = events.pop_classed() {
            popped += 1;
            if let Some(log) = log.as_mut() {
                let key = match &event {
                    FleetEvent::Arrival(i) => *i as u64,
                    FleetEvent::Depart { id, .. } => *id as u64,
                    FleetEvent::SwapLand { replica, model }
                    | FleetEvent::PrefetchLand { replica, model } => {
                        ((*replica as u64) << 32) | *model as u64
                    }
                };
                log.push(FleetLogEntry { at: t, class, key });
            }
            match event {
                FleetEvent::SwapLand { replica, model } => {
                    inflight.remove(&(replica, model));
                    tracer.emit(|| TraceEvent::SwapLand {
                        delta: model,
                        at: t,
                        waiters: 0,
                    });
                }
                FleetEvent::PrefetchLand { replica, model } => {
                    if !on_disk[replica][model] {
                        on_disk[replica][model] = true;
                        let r32 = replica as u32;
                        let pos = disk_holders[model].partition_point(|&h| h < r32);
                        disk_holders[model].insert(pos, r32);
                    }
                    tracer.emit(|| TraceEvent::PrefetchLand {
                        delta: model,
                        at: t,
                    });
                }
                FleetEvent::Depart { replica, id: _ } => {
                    let r = &mut replicas[replica];
                    r.queue_depth = r.queue_depth.saturating_sub(1);
                    makespan = makespan.max(t);
                }
                FleetEvent::Arrival(idx) => {
                    // Stream the next arrival before handling this one so
                    // the heap holds O(replicas + in-flight) entries, not
                    // the whole trace.
                    if idx + 1 < trace.requests.len() {
                        events.push_class(
                            trace.requests[idx + 1].arrival.max(t),
                            CLASS_ARRIVAL,
                            FleetEvent::Arrival(idx + 1),
                        );
                    }
                    let req = &trace.requests[idx];
                    let views = FleetViews {
                        replicas: &replicas,
                        on_disk: &on_disk,
                        model: req.model,
                        now: t,
                        local_disk_s,
                        object_store_s,
                    };
                    let target = self.router.route(req, &views);
                    let r = &mut replicas[target];
                    let start = r.busy_until.max(t);
                    // Miss cost: nearest holder wins; an in-flight fetch
                    // for the same delta is awaited, not re-pulled.
                    let mut fetch_s = 0.0;
                    if r.warm.contains(req.model) {
                        warm_hits += 1;
                    } else if let Some(&land) = inflight.get(&(target, req.model)) {
                        fetch_s = (land - start).max(0.0);
                    } else {
                        let tier = Self::nearest_tier(target, &disk_holders[req.model]);
                        fetch_s = fetch_time_s(tier, DELTA_BYTES);
                        match tier {
                            FetchTier::LocalDisk => fetches.local_disk += 1,
                            FetchTier::PeerRack => fetches.peer_rack += 1,
                            FetchTier::PeerRegion => fetches.peer_region += 1,
                            FetchTier::CrossRegion => fetches.cross_region += 1,
                            FetchTier::ObjectStore => fetches.object_store += 1,
                        }
                        let land = start + fetch_s;
                        inflight.insert((target, req.model), land);
                        events.push_class(
                            land,
                            CLASS_LAND,
                            FleetEvent::SwapLand {
                                replica: target,
                                model: req.model,
                            },
                        );
                        tracer.emit(|| TraceEvent::SwapStart {
                            delta: req.model,
                            at: start,
                            disk_s: fetch_s,
                            pcie_s: 0.0,
                            solo_s: fetch_s,
                        });
                        // The pull lands on the edge disk too.
                        if !on_disk[target][req.model] {
                            on_disk[target][req.model] = true;
                            let r32 = target as u32;
                            let pos = disk_holders[req.model].partition_point(|&h| h < r32);
                            disk_holders[req.model].insert(pos, r32);
                        }
                        // Object-store pulls also replicate the delta to
                        // one more plan home off the critical path (the
                        // popular-delta edge-spread story).
                        if tier == FetchTier::ObjectStore {
                            if let Some(&home) = self
                                .plan
                                .homes(req.model)
                                .iter()
                                .find(|&&h| h < n && h != target && !on_disk[h][req.model])
                            {
                                events.push_class(
                                    land + object_store_s,
                                    CLASS_LAND,
                                    FleetEvent::PrefetchLand {
                                        replica: home,
                                        model: req.model,
                                    },
                                );
                            }
                        }
                    }
                    let service =
                        STARTUP_S + (req.prompt_tokens + req.output_tokens) as f64 * PER_TOKEN_S;
                    let finish = start + fetch_s + service;
                    let r = &mut replicas[target];
                    r.warm.touch(req.model);
                    r.busy_until = finish;
                    r.queue_depth += 1;
                    served += 1;
                    e2e.add(finish - req.arrival);
                    events.push_class(
                        finish,
                        CLASS_DEPART,
                        FleetEvent::Depart {
                            replica: target,
                            id: req.id,
                        },
                    );
                    tracer.emit(|| TraceEvent::RequestQueued {
                        id: req.id,
                        model: req.model,
                        kind: dz_trace::ToppingKind::Delta,
                        at: t,
                    });
                    tracer.emit(|| TraceEvent::RequestFinished {
                        id: req.id,
                        at: finish,
                    });
                }
            }
        }

        let tracks = match tracer.take_log() {
            Some(log) => vec![TraceTrack {
                name: format!("fleet[{}x {}]", n, self.router.name()),
                log,
            }],
            None => Vec::new(),
        };
        FleetReport {
            router: self.router.name().to_string(),
            n_replicas: n,
            served,
            warm_hits,
            fetches,
            mean_e2e_s: e2e.mean().unwrap_or(0.0),
            p50_e2e_s: e2e.quantile(0.5).unwrap_or(0.0),
            p99_e2e_s: e2e.quantile(0.99).unwrap_or(0.0),
            max_e2e_s: e2e.quantile(1.0).unwrap_or(0.0),
            makespan_s: makespan,
            events: popped,
            event_log: log,
            tracks,
        }
    }

    /// Cheapest tier from which `replica` can pull a delta, given the
    /// sorted holder list. O(holders); holders are few exactly for the
    /// cold deltas that reach this scan.
    fn nearest_tier(replica: usize, holders: &[u32]) -> FetchTier {
        let mut best = FetchTier::ObjectStore;
        for &h in holders {
            let tier = tier_between(replica, h as usize);
            if tier < best {
                best = tier;
                if best == FetchTier::LocalDisk {
                    break;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{
        ConsistentHashRouter, LeastCostRouter, PowerOfTwoRouter, RoundRobinRouter,
    };
    use dz_workload::{PopularityDist, TraceSpec};

    fn small_trace(seed: u64) -> Trace {
        Trace::generate_fast(TraceSpec {
            n_models: 32,
            arrival_rate: 12.0,
            duration_s: 60.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed,
        })
    }

    fn plan_for(trace: &Trace, n: usize) -> PlacementPlan {
        PlacementPlan::from_weights(
            &PopularityDist::Zipf { alpha: 1.2 }.weights(trace.spec.n_models),
            n,
        )
    }

    #[test]
    fn topology_tiers_order_and_price_correctly() {
        // Replicas 0 and 1 share a rack; 0 and 16 share a region only;
        // 0 and 16*8 are cross-region.
        assert_eq!(tier_between(0, 0), FetchTier::LocalDisk);
        assert_eq!(tier_between(0, 1), FetchTier::PeerRack);
        assert_eq!(tier_between(0, 16), FetchTier::PeerRegion);
        assert_eq!(tier_between(0, 16 * 8), FetchTier::CrossRegion);
        let bytes = 1 << 30;
        let mut last = 0.0;
        for tier in [
            FetchTier::LocalDisk,
            FetchTier::PeerRack,
            FetchTier::PeerRegion,
            FetchTier::CrossRegion,
            FetchTier::ObjectStore,
        ] {
            let t = fetch_time_s(tier, bytes);
            assert!(t > last, "{tier:?} must cost more than the tier below");
            last = t;
        }
    }

    #[test]
    fn fleet_serves_every_request_and_is_deterministic() {
        let tr = small_trace(7);
        let routers: [fn() -> Box<dyn Router>; 4] = [
            || Box::new(RoundRobinRouter::new()),
            || Box::new(PowerOfTwoRouter::new(1)),
            || Box::new(ConsistentHashRouter::new(16)),
            || Box::new(LeastCostRouter::default()),
        ];
        for router in routers {
            let run = || {
                let mut cfg = FleetConfig::new(8);
                cfg.record_events = true;
                let plan = plan_for(&tr, 8);
                FleetSim::new(cfg, plan, router()).run(&tr)
            };
            let a = run();
            let b = run();
            assert_eq!(a.served, tr.len(), "{}", a.router);
            assert!(a.p99_e2e_s >= a.p50_e2e_s && a.p50_e2e_s > 0.0);
            assert_eq!(
                a.event_log.as_deref(),
                b.event_log.as_deref(),
                "same seed must replay identically ({})",
                a.router
            );
        }
    }

    #[test]
    fn object_store_miss_then_edge_hits() {
        // One replica, tiny plan covering no models: every first touch is
        // an object-store pull, repeats are warm or local-disk.
        let tr = small_trace(11);
        let cfg = FleetConfig::new(1);
        let plan = PlacementPlan::from_weights(&[], 1);
        let rep = FleetSim::new(cfg, plan, Box::new(RoundRobinRouter::new())).run(&tr);
        assert!(rep.fetches.object_store > 0);
        assert_eq!(
            rep.fetches.peer_rack + rep.fetches.peer_region + rep.fetches.cross_region,
            0
        );
        // Each model pays the object store at most once: the pull
        // edge-replicates to the local disk.
        assert!(rep.fetches.object_store as usize <= tr.spec.n_models);
        assert!(rep.warm_hits + rep.fetches.local_disk > 0);
    }

    #[test]
    fn consistent_hash_gives_affinity() {
        let tr = small_trace(23);
        let cfg = FleetConfig::new(16);
        let plan = PlacementPlan::from_weights(&[], 16);
        let rep = FleetSim::new(cfg, plan, Box::new(ConsistentHashRouter::new(32))).run(&tr);
        // Affinity: each model lands on exactly one replica, so total
        // misses are bounded by models + warm evictions, far below the
        // round-robin scatter.
        let cfg2 = FleetConfig::new(16);
        let plan2 = PlacementPlan::from_weights(&[], 16);
        let rr = FleetSim::new(cfg2, plan2, Box::new(RoundRobinRouter::new())).run(&tr);
        assert!(
            rep.fetches.total() < rr.fetches.total(),
            "hash affinity {} must out-hit round-robin {}",
            rep.fetches.total(),
            rr.fetches.total()
        );
    }
}
