//! Typed simulation-clock trace events and the bounded event log.

use std::collections::VecDeque;

/// Which residency tier an eviction removed a delta from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictTier {
    /// Evicted from GPU HBM (delta remains host-warm).
    Gpu,
    /// Evicted from the host cache (delta falls back to disk).
    Host,
}

/// The variant kind ("topping") a request carries, as seen by trace
/// consumers.
///
/// Mirrors the serving layer's variant taxonomy without depending on it
/// (dz-serve depends on dz-trace, not the reverse), so mixed toppings
/// batches stay debuggable from the trace alone. Legacy delta-only
/// engines emit [`ToppingKind::Delta`], the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ToppingKind {
    /// The shared base model — no topping applied.
    Base,
    /// A low-rank adapter served through the SGMV path.
    Lora,
    /// A compressed full-model delta served through SBMM.
    #[default]
    Delta,
    /// A delta with an adapter stacked on top (both kernel paths).
    Stacked,
}

impl ToppingKind {
    /// Stable lowercase label used in exported trace args.
    pub fn label(self) -> &'static str {
        match self {
            ToppingKind::Base => "base",
            ToppingKind::Lora => "lora",
            ToppingKind::Delta => "delta",
            ToppingKind::Stacked => "stacked",
        }
    }
}

/// One structured event on the simulation clock.
///
/// Every variant carries `at`, the simulation timestamp in seconds.
/// Request-scoped variants carry the request `id` as seen by the emitting
/// engine; [`TraceLog::remap_request_ids`] rewrites dense per-replica ids
/// back to global trace ids after a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the engine queue.
    RequestQueued {
        /// Request id.
        id: usize,
        /// Model (variant) id the request targets.
        model: usize,
        /// Variant kind the request carries.
        kind: ToppingKind,
        /// Simulation time (s).
        at: f64,
    },
    /// A request was admitted into the running batch.
    RequestAdmitted {
        /// Request id.
        id: usize,
        /// Model (variant) id the request targets.
        model: usize,
        /// Variant kind the request carries.
        kind: ToppingKind,
        /// Simulation time (s).
        at: f64,
    },
    /// The request produced its first output token.
    FirstToken {
        /// Request id.
        id: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The request produced its last output token.
    RequestFinished {
        /// Request id.
        id: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The request was preempted back into the queue.
    RequestPreempted {
        /// Request id.
        id: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// A demand (blocking) delta load started.
    SwapStart {
        /// Delta id being loaded.
        delta: usize,
        /// Simulation time (s).
        at: f64,
        /// Disk-stage service demand of the load (s).
        disk_s: f64,
        /// PCIe-stage service demand of the load (s).
        pcie_s: f64,
        /// Uncontended duration of the load (s).
        solo_s: f64,
    },
    /// A demand delta load completed ("landed").
    SwapLand {
        /// Delta id that landed.
        delta: usize,
        /// Simulation time (s).
        at: f64,
        /// Requests that were blocked waiting on this delta.
        waiters: usize,
    },
    /// A speculative prefetch load was issued.
    PrefetchIssued {
        /// Delta id being prefetched.
        delta: usize,
        /// Simulation time (s).
        at: f64,
        /// Disk-stage service demand of the prefetch (s).
        disk_s: f64,
    },
    /// A prefetch load completed without ever being promoted.
    PrefetchLand {
        /// Delta id that landed.
        delta: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// An in-flight prefetch was promoted to a demand load.
    PrefetchPromoted {
        /// Delta id promoted.
        delta: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// A demand lookup hit prefetched (or in-flight prefetch) state.
    PrefetchHit {
        /// Delta id hit.
        delta: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// A delta was evicted from a residency tier.
    Evict {
        /// Delta id evicted.
        delta: usize,
        /// Tier it was evicted from.
        tier: EvictTier,
        /// Simulation time (s).
        at: f64,
    },
    /// The cluster router migrated placement entries.
    Migrate {
        /// Number of placement entries that moved.
        count: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The cluster front end deferred a request (admission backoff).
    Defer {
        /// Request id.
        id: usize,
        /// Model (delta) id the request targets.
        model: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The cluster front end shed a request (SLO-hopeless admission drop).
    Shed {
        /// Request id.
        id: usize,
        /// Model (delta) id the request targets.
        model: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// A replica crashed: its warm sets and in-flight requests are lost.
    ReplicaDown {
        /// Replica id that went down.
        replica: usize,
        /// In-flight requests lost (re-queued at the front end).
        lost: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// A crashed replica came back (cold) and is routable again.
    ReplicaUp {
        /// Replica id that restarted.
        replica: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The autoscaler activated an additional (cold) replica.
    ScaleUp {
        /// Replica id that was activated.
        replica: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// The autoscaler drained a replica out of the routable set.
    ScaleDown {
        /// Replica id that was drained.
        replica: usize,
        /// Simulation time (s).
        at: f64,
    },
    /// Rolling delta-version rollout progress: traffic for `model` is
    /// shifting to its successor delta `v2`.
    Rollout {
        /// Model id being replaced.
        model: usize,
        /// Successor model id receiving the shifted traffic.
        v2: usize,
        /// Fraction of traffic currently going to `v2` (0..=1).
        frac: f64,
        /// Simulation time (s).
        at: f64,
    },
    /// One batched decode step (prefill + restore + decode iteration).
    BatchStep {
        /// Iteration start time (s).
        at: f64,
        /// Iteration duration (s).
        dur_s: f64,
        /// Requests in the running batch.
        batch: usize,
        /// Distinct deltas co-batched this step.
        deltas: usize,
        /// Distinct LoRA adapters co-batched this step (stacked variants
        /// count in both `deltas` and `loras`).
        loras: usize,
    },
}

impl TraceEvent {
    /// Simulation timestamp of the event (seconds).
    pub fn at(&self) -> f64 {
        match *self {
            TraceEvent::RequestQueued { at, .. }
            | TraceEvent::RequestAdmitted { at, .. }
            | TraceEvent::FirstToken { at, .. }
            | TraceEvent::RequestFinished { at, .. }
            | TraceEvent::RequestPreempted { at, .. }
            | TraceEvent::SwapStart { at, .. }
            | TraceEvent::SwapLand { at, .. }
            | TraceEvent::PrefetchIssued { at, .. }
            | TraceEvent::PrefetchLand { at, .. }
            | TraceEvent::PrefetchPromoted { at, .. }
            | TraceEvent::PrefetchHit { at, .. }
            | TraceEvent::Evict { at, .. }
            | TraceEvent::Migrate { at, .. }
            | TraceEvent::Defer { at, .. }
            | TraceEvent::Shed { at, .. }
            | TraceEvent::ReplicaDown { at, .. }
            | TraceEvent::ReplicaUp { at, .. }
            | TraceEvent::ScaleUp { at, .. }
            | TraceEvent::ScaleDown { at, .. }
            | TraceEvent::Rollout { at, .. }
            | TraceEvent::BatchStep { at, .. } => at,
        }
    }

    /// Mutable access to the request id, for variants that carry one.
    fn request_id_mut(&mut self) -> Option<&mut usize> {
        match self {
            TraceEvent::RequestQueued { id, .. }
            | TraceEvent::RequestAdmitted { id, .. }
            | TraceEvent::FirstToken { id, .. }
            | TraceEvent::RequestFinished { id, .. }
            | TraceEvent::RequestPreempted { id, .. }
            | TraceEvent::Defer { id, .. }
            | TraceEvent::Shed { id, .. } => Some(id),
            _ => None,
        }
    }
}

/// Point-in-time gauge sample captured at an event boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GaugeSample {
    /// Simulation time (s).
    pub at: f64,
    /// Requests waiting in the queue (not yet admitted).
    pub queue_depth: usize,
    /// Requests in the running batch.
    pub batch: usize,
    /// Admitted requests blocked on a delta load.
    pub blocked: usize,
    /// Deltas resident in GPU HBM.
    pub gpu_resident: usize,
    /// Deltas that are cold: a swap-in would read disk.
    pub warmth_disk: usize,
    /// Deltas whose compressed bytes sit in the host cache: a swap-in
    /// skips the disk read.
    pub warmth_host: usize,
    /// Bytes resident on the GPU for deltas.
    pub gpu_bytes: f64,
    /// Bytes resident in the host cache.
    pub host_bytes: f64,
    /// In-flight demand loads on the transfer timeline.
    pub inflight_demand: usize,
    /// In-flight prefetch loads on the transfer timeline.
    pub inflight_prefetch: usize,
    /// Routable (live, active) replicas in the fleet. Zero for
    /// single-engine lanes; the cluster front end samples it so chaos
    /// runs show crash/scale churn as a counter lane.
    pub live_replicas: usize,
}

/// Bounded ring-buffer log of [`TraceEvent`]s plus [`GaugeSample`]s.
///
/// When the ring is full the *oldest* events are dropped and counted in
/// [`TraceLog::dropped`], so a long run degrades to "most recent window"
/// rather than growing without bound.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    gauges: VecDeque<GaugeSample>,
    capacity: usize,
    dropped: usize,
}

impl TraceLog {
    /// Creates an empty log bounded to `capacity` events (and as many
    /// gauge samples).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            events: VecDeque::new(),
            gauges: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Appends a gauge sample, evicting the oldest if the ring is full.
    pub fn push_gauge(&mut self, g: GaugeSample) {
        if self.gauges.len() >= self.capacity {
            self.gauges.pop_front();
        }
        self.gauges.push_back(g);
    }

    /// Events in emission order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Gauge samples in emission order.
    pub fn gauges(&self) -> impl Iterator<Item = &GaugeSample> {
        self.gauges.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Rewrites request ids through `map` (dense id -> global id).
    ///
    /// Cluster replicas replay sub-traces with dense local ids; this
    /// restores the global trace ids so lanes from different replicas
    /// agree on request identity. Ids outside `map` are left unchanged.
    pub fn remap_request_ids(&mut self, map: &[usize]) {
        for ev in self.events.iter_mut() {
            if let Some(id) = ev.request_id_mut() {
                if let Some(&global) = map.get(*id) {
                    *id = global;
                }
            }
        }
    }

    /// Merges `other`'s events and gauges into this log (used by tests
    /// and multi-phase experiments; ordering is preserved per source).
    pub fn absorb(&mut self, other: TraceLog) {
        for ev in other.events {
            self.push(ev);
        }
        for g in other.gauges {
            self.push_gauge(g);
        }
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut log = TraceLog::with_capacity(2);
        for i in 0..4 {
            log.push(TraceEvent::FirstToken {
                id: i,
                at: i as f64,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        let ids: Vec<_> = log
            .events()
            .map(|e| match e {
                TraceEvent::FirstToken { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn remap_rewrites_only_request_ids() {
        let mut log = TraceLog::with_capacity(8);
        log.push(TraceEvent::RequestQueued {
            id: 0,
            model: 3,
            kind: ToppingKind::Delta,
            at: 0.0,
        });
        log.push(TraceEvent::SwapStart {
            delta: 0,
            at: 1.0,
            disk_s: 0.1,
            pcie_s: 0.1,
            solo_s: 0.2,
        });
        log.remap_request_ids(&[42]);
        let evs: Vec<_> = log.events().cloned().collect();
        assert_eq!(
            evs[0],
            TraceEvent::RequestQueued {
                id: 42,
                model: 3,
                kind: ToppingKind::Delta,
                at: 0.0
            }
        );
        // Delta ids are not request ids and must not be rewritten.
        assert!(matches!(evs[1], TraceEvent::SwapStart { delta: 0, .. }));
    }
}
