//! Fleet-scale routing bench: where global scoring stops scaling.
//!
//! `bench-fleet` sweeps the event-driven [`FleetSim`] from 10 to 1000
//! replicas on Zipf traces with constant per-replica load (so the
//! 1000-replica cell replays ≥1M requests at full scale) and emits
//! `BENCH_fleet.json`. The comparison the tentpole makes:
//!
//! * **global-least-cost** scores every replica per request — O(R) in the
//!   front end — so its *wall clock* blows up linearly with fleet size
//!   even though its simulated tail is the best achievable,
//! * **p2c** (power-of-two-choices) samples two replicas per request —
//!   O(1) — and holds the p99 line within a small factor of the global
//!   scan at a flat routing cost,
//! * **consistent-hash** is the affinity extreme (every model pinned to
//!   one replica: maximal warm hits, no load awareness),
//! * **round-robin** is the placement-blind floor.
//!
//! Simulated latencies are bit-deterministic (seeded p2c sampling, no
//! wall-clock input); only the `wall_s` column varies across machines.
//! `bench-smoke` re-measures the 1000-replica p2c cell at quick scale as
//! `fleet_1000_replica_wall_s` / `fleet_p2c_p99_s` for the CI perf gate.

use super::Fmt::{Fix, Pct, Plain};
use super::{push_lanes, BenchJson, Report, Scale, Table};
use dz_serve::cluster::PlacementPlan;
use dz_serve::{
    ConsistentHashRouter, FleetConfig, FleetReport, FleetSim, LeastCostRouter, PowerOfTwoRouter,
    RoundRobinRouter, Router, TraceConfig, TraceTrack,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use std::io;
use std::path::Path;
use std::time::Instant;

const N_MODELS: usize = 512;
const ZIPF_ALPHA: f64 = 1.1;
/// Arrivals per second per replica: load scales with the fleet, so every
/// cell runs at the same utilization and tails are comparable.
const RATE_PER_REPLICA: f64 = 2.0;
/// Master seed for the fleet bench (workload + p2c sampling; stamped
/// into `BENCH_fleet.json` provenance).
pub const FLEET_SEED: u64 = 0x000F_1EE7;

fn durations(scale: Scale) -> f64 {
    match scale {
        // 1000 replicas × 2 req/s × 500 s = 1M requests in the big cell.
        Scale::Full => 500.0,
        Scale::Quick => 50.0,
    }
}

fn fleet_sizes() -> [usize; 3] {
    [10, 100, 1000]
}

fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobinRouter::new()),
        Box::new(ConsistentHashRouter::new(32)),
        p2c(),
        Box::new(LeastCostRouter::default()),
    ]
}

fn p2c() -> Box<dyn Router> {
    Box::new(PowerOfTwoRouter::new(FLEET_SEED))
}

fn sweep_trace(n_replicas: usize, scale: Scale) -> Trace {
    Trace::generate_fast(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: RATE_PER_REPLICA * n_replicas as f64,
        duration_s: durations(scale),
        popularity: PopularityDist::Zipf { alpha: ZIPF_ALPHA },
        seed: FLEET_SEED ^ n_replicas as u64,
    })
}

fn sim_for(n_replicas: usize, router: Box<dyn Router>, trace_cfg: Option<TraceConfig>) -> FleetSim {
    let mut cfg = FleetConfig::new(n_replicas);
    cfg.trace = trace_cfg;
    // The operator provisioned edge disks for the Zipf head only: the
    // long tail starts object-store-only and must pull (then
    // edge-replicate) on first touch — the shared-tier story.
    let weights = PopularityDist::Zipf { alpha: ZIPF_ALPHA }.weights(N_MODELS);
    let plan = PlacementPlan::from_weights(&weights[..N_MODELS / 4], n_replicas);
    FleetSim::new(cfg, plan, router)
}

/// Runs one sweep cell: its report and the wall seconds the run took.
fn run_cell(
    n_replicas: usize,
    router: Box<dyn Router>,
    trace: &Trace,
    trace_cfg: Option<TraceConfig>,
) -> (FleetReport, f64) {
    let mut sim = sim_for(n_replicas, router, trace_cfg);
    let t0 = Instant::now();
    let rep = sim.run(trace);
    (rep, t0.elapsed().as_secs_f64())
}

/// The `bench-fleet` experiment. When `trace` is given, the 10-replica
/// p2c cell runs traced and its lane lands there as `fleet/*`.
pub fn bench_fleet(
    scale: Scale,
    out_dir: &Path,
    mut trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<Report> {
    let mut cells = Vec::new();
    for n in fleet_sizes() {
        let tr = sweep_trace(n, scale);
        for router in routers() {
            // Trace only the smallest p2c cell: a bounded lane that shows
            // the event taxonomy without dilating the big cells' wall.
            let want_trace = n == fleet_sizes()[0] && router.name() == "p2c" && trace.is_some();
            let (mut rep, wall_s) = run_cell(n, router, &tr, want_trace.then(TraceConfig::default));
            push_lanes(
                trace.as_deref_mut(),
                "fleet",
                std::mem::take(&mut rep.tracks),
            );
            cells.push((rep, wall_s));
        }
    }

    let table = Table::new(&cells)
        .col("router", Plain, "router", Plain, |(r, _)| r.router.clone())
        .col("replicas", Plain, "n_replicas", Plain, |(r, _)| {
            r.n_replicas
        })
        .col("requests", Plain, "requests", Plain, |(r, _)| r.served)
        .col("wall (s)", Fix(2), "wall_s", Fix(4), |(_, wall_s)| *wall_s)
        .col("p50 E2E (s)", Fix(3), "p50_e2e_s", Fix(4), |(r, _)| {
            r.p50_e2e_s
        })
        .col("p99 E2E (s)", Fix(3), "p99_e2e_s", Fix(4), |(r, _)| {
            r.p99_e2e_s
        })
        .col("warm hits", Pct(0), "warm_hit_frac", Fix(4), |(r, _)| {
            r.warm_hits as f64 / r.served.max(1) as f64
        })
        .col(
            "object fetches",
            Plain,
            "object_fetches",
            Plain,
            |(r, _)| r.fetches.object_store,
        )
        .col("events", Plain, "events", Plain, |(r, _)| r.events);
    let mut body = format!(
        "Zipf-{ZIPF_ALPHA} sweep, {N_MODELS} models, {RATE_PER_REPLICA} req/s/replica, \
         {:.0} s traces (load scales with the fleet):\n\n",
        durations(scale)
    );
    body.push_str(&table.markdown());
    // The headline comparisons at the largest fleet.
    let big = fleet_sizes()[2];
    let at = |name: &str| {
        cells
            .iter()
            .find(|(r, _)| r.router == name && r.n_replicas == big)
            .expect("sweep ran every router at every size")
    };
    let ((global, global_wall), (p2c, p2c_wall)) = (at("global-least-cost"), at("p2c"));
    body.push_str(&format!(
        "\nAt {big} replicas: global scoring walks every replica per request \
         and burns {global_wall:.2} s of wall vs p2c's {p2c_wall:.2} s ({:.1}x); p2c holds the \
         p99 line at {:.3} s vs the global scan's {:.3} s ({:.2}x).\n",
        global_wall / p2c_wall.max(1e-9),
        p2c.p99_e2e_s,
        global.p99_e2e_s,
        p2c.p99_e2e_s / global.p99_e2e_s.max(1e-9),
    ));
    let json = BenchJson::new(
        "fleet",
        &[
            ("fleet_seed", FLEET_SEED.to_string()),
            ("n_models", N_MODELS.to_string()),
            ("zipf_alpha", format!("{ZIPF_ALPHA}")),
            ("rate_per_replica", format!("{RATE_PER_REPLICA}")),
            ("duration_s", format!("{:.1}", durations(scale))),
        ],
    )
    .rows("sweep", &table)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-fleet",
        title: "Fleet-scale routing: p2c vs global scoring, 10→1000 replicas",
        body,
    })
}

/// The deterministic fleet cell the `bench-smoke` perf gate measures:
/// `(wall_s, p99_e2e_s)` of the 1000-replica p2c cell at quick scale.
/// The p99 is simulated time (bit-for-bit reproducible; bounded tightly
/// in `ci/perf-baseline.json`); the wall is real and bounded generously.
pub fn smoke_fleet_metrics() -> (f64, f64) {
    let n = fleet_sizes()[2];
    let tr = sweep_trace(n, Scale::Quick);
    let (rep, wall_s) = run_cell(n, p2c(), &tr, None);
    (wall_s, rep.p99_e2e_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cells_are_deterministic_in_simulated_time() {
        let tr = sweep_trace(10, Scale::Quick);
        let (a, _) = run_cell(10, p2c(), &tr, None);
        let (b, _) = run_cell(10, p2c(), &tr, None);
        assert_eq!(a.p50_e2e_s.to_bits(), b.p50_e2e_s.to_bits());
        assert_eq!(a.p99_e2e_s.to_bits(), b.p99_e2e_s.to_bits());
        assert_eq!(a.events, b.events);
        assert_eq!(a.served, tr.len());
    }

    #[test]
    fn p2c_tail_tracks_global_scoring() {
        // The whole point of the bench: on a quick 100-replica cell the
        // O(1) router's p99 stays within a small factor of the O(R)
        // global scan's.
        let tr = sweep_trace(100, Scale::Quick);
        let (p2c, _) = run_cell(100, p2c(), &tr, None);
        let (global, _) = run_cell(100, Box::new(LeastCostRouter::default()), &tr, None);
        assert!(
            p2c.p99_e2e_s <= global.p99_e2e_s * 3.0 + 0.5,
            "p2c p99 {:.3} vs global {:.3}",
            p2c.p99_e2e_s,
            global.p99_e2e_s
        );
    }
}
