//! Well-formedness of the emitted Chrome trace-event JSON: what Perfetto
//! (and the CI artifact consumers) rely on. Drives a real engine run plus
//! a cluster run through the exporter and checks the output parses as
//! JSON, timestamps are monotone, async `b`/`e` spans balance per
//! `(pid, cat, id)`, and complete (`X`) events carry non-negative
//! durations.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{ClusterConfig, ClusterSim, RoundRobinRouter};
use dz_serve::{
    chrome_trace_json, Autoscaler, ChaosConfig, CostModel, DeltaZipConfig, Engine, EngineBuilder,
    FaultEvent, FaultKind, FaultPlan, TraceConfig, TraceTrack,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use serde::value::Value;
use std::collections::HashMap;

fn churn_trace(seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 1.5,
        duration_s: 30.0,
        popularity: PopularityDist::Zipf { alpha: 1.2 },
        seed,
    })
}

fn engine_config() -> DeltaZipConfig {
    DeltaZipConfig {
        max_concurrent_deltas: 2,
        max_batch: 16,
        host_capacity_deltas: Some(4),
        ..DeltaZipConfig::default()
    }
}

/// One engine lane and a cluster's lanes, traced.
fn traced_tracks() -> Vec<TraceTrack> {
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let mut engine = EngineBuilder::new(cost)
        .scheduler(engine_config())
        .tracing(TraceConfig::default())
        .build();
    engine.run(&churn_trace(0x7E57));
    let mut tracks = vec![TraceTrack {
        name: "engine".into(),
        log: engine.tracer.take_log().expect("tracing was enabled"),
    }];

    let config = ClusterConfig {
        n_replicas: 2,
        engine: engine_config(),
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(vec![cost; 2], config, Box::new(RoundRobinRouter::new()))
        .with_tracing(TraceConfig::default());
    sim.run(&churn_trace(0xC1));
    tracks.extend(sim.take_trace());

    // A chaos run: crash + cold restart + autoscaler, so the exporter
    // sees ReplicaDown/ReplicaUp/Scale* instants and the fleet counter
    // lane alongside the ordinary request spans.
    let chaos = ChaosConfig {
        plan: FaultPlan::scripted(vec![FaultEvent {
            at: 8.0,
            kind: FaultKind::Crash {
                replica: 0,
                restart_after_s: Some(6.0),
            },
        }]),
        autoscaler: Some(Autoscaler::new(1, 2)),
        seed: 0xC405,
        ..ChaosConfig::default()
    };
    let config = ClusterConfig {
        n_replicas: 2,
        engine: engine_config(),
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(vec![cost; 2], config, Box::new(RoundRobinRouter::new()))
        .with_chaos(chaos)
        .with_tracing(TraceConfig::default());
    sim.run(&churn_trace(0xC2));
    for mut track in sim.take_trace() {
        track.name = format!("chaos/{}", track.name);
        tracks.push(track);
    }
    tracks
}

fn events(doc: &Value) -> Vec<&Value> {
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    events.iter().collect()
}

fn str_field<'a>(e: &'a Value, key: &str) -> &'a str {
    match e.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("event missing string `{key}`: {other:?}"),
    }
}

fn num_field(e: &Value, key: &str) -> f64 {
    e.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("event missing number `{key}`"))
}

#[test]
fn chrome_trace_is_wellformed() {
    let tracks = traced_tracks();
    assert!(
        tracks.len() >= 7,
        "engine + frontend + 2 replicas + chaos lanes, got {}",
        tracks.len()
    );
    let json = chrome_trace_json(&tracks);
    let doc = Value::parse_json(&json).expect("exporter must emit valid JSON");
    let events = events(&doc);
    assert!(events.len() > 100, "a churn run must emit real volume");

    // Timestamps are monotone non-decreasing in emission order
    // (metadata events sort first with a sentinel ts).
    let mut last_ts = f64::NEG_INFINITY;
    let mut n_spans = 0usize;
    let mut open: HashMap<(u64, String, u64), usize> = HashMap::new();
    for e in &events {
        let ph = str_field(e, "ph");
        if ph == "M" {
            continue;
        }
        let ts = num_field(e, "ts");
        assert!(ts >= last_ts, "timestamps regress: {ts} after {last_ts}");
        last_ts = ts;
        match ph {
            "b" | "e" => {
                n_spans += 1;
                let key = (
                    num_field(e, "pid") as u64,
                    str_field(e, "cat").to_string(),
                    num_field(e, "id") as u64,
                );
                let depth = open.entry(key.clone()).or_insert(0);
                if ph == "b" {
                    *depth += 1;
                } else {
                    assert!(*depth > 0, "unbalanced `e` for {key:?}");
                    *depth -= 1;
                }
            }
            "X" => {
                assert!(num_field(e, "dur") >= 0.0, "negative X duration");
            }
            "C" | "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(n_spans > 0, "trace must contain async spans");
    for (key, depth) in &open {
        assert_eq!(*depth, 0, "span {key:?} left open");
    }

    // The chaos lanes must surface their lifecycle instants and the
    // fleet-size counter.
    let named = |name: &str| {
        events
            .iter()
            .any(|e| matches!(e.get("name"), Some(Value::Str(s)) if s == name))
    };
    assert!(named("replica_down"), "chaos crash instant missing");
    assert!(named("replica_up"), "chaos restart instant missing");
    assert!(named("fleet"), "fleet-size counter lane missing");
}

#[test]
fn chrome_trace_of_empty_tracks_is_valid() {
    let json = chrome_trace_json(&[]);
    let doc = Value::parse_json(&json).expect("empty trace must still parse");
    assert!(events(&doc).is_empty());
}
