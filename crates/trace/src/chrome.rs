//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout: one *process* per track (replica or front end), with four
//! threads per process — `requests` (async spans queued->finished plus
//! admit/first-token/preempt instants), `transfers` (async spans for
//! demand swaps and prefetches plus evict/hit instants), `decode`
//! (complete `X` events, one per batched iteration), and `gauges`
//! (counter events sampled at event boundaries).
//!
//! Async spans use lowercase `"b"`/`"e"` phases with per-process ids so
//! overlapping spans (many requests in flight at once) render correctly;
//! uppercase `B`/`E` are stack-scoped per thread and would interleave.
//! Spans still open when the log ends (e.g. an in-flight prefetch at
//! drain) are dropped so every emitted `"b"` has a matching `"e"`.

use crate::event::{EvictTier, GaugeSample, TraceEvent, TraceLog};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One lane group in the exported trace: a named log (a replica, a
/// stand-alone engine, or the cluster front end).
#[derive(Debug, Clone, Default)]
pub struct TraceTrack {
    /// Process name shown in the trace viewer.
    pub name: String,
    /// The event log for this track.
    pub log: TraceLog,
}

const TID_REQUESTS: u32 = 1;
const TID_TRANSFERS: u32 = 2;
const TID_DECODE: u32 = 3;
const TID_GAUGES: u32 = 4;

/// Serializes `tracks` as a Chrome trace-event JSON document.
///
/// Events are sorted by timestamp (metadata first), so the emitted
/// `traceEvents` array is monotone in `ts`.
pub fn chrome_trace_json(tracks: &[TraceTrack]) -> String {
    // (ts_us, tie-break sequence, rendered JSON object)
    let mut lines: Vec<(f64, usize, String)> = Vec::new();
    let mut seq = 0usize;

    for (i, track) in tracks.iter().enumerate() {
        let pid = i + 1;
        raw(
            &mut lines,
            &mut seq,
            -1.0,
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{}"}}}}"#,
                escape(&track.name)
            ),
        );
        for (tid, name) in [
            (TID_REQUESTS, "requests"),
            (TID_TRANSFERS, "transfers"),
            (TID_DECODE, "decode"),
            (TID_GAUGES, "gauges"),
        ] {
            raw(
                &mut lines,
                &mut seq,
                -1.0,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{name}"}}}}"#
                ),
            );
        }

        // Open async spans by (category, id) -> (start ts_us, name, args).
        let mut open: HashMap<(&'static str, usize), (f64, String, String)> = HashMap::new();
        for ev in track.log.events() {
            let ts = ev.at() * 1e6;
            match *ev {
                TraceEvent::RequestQueued {
                    id,
                    model,
                    kind,
                    at: _,
                } => {
                    open.insert(
                        ("request", id),
                        (
                            ts,
                            format!("req {id}"),
                            format!(r#"{{"model":{model},"kind":"{}"}}"#, kind.label()),
                        ),
                    );
                }
                TraceEvent::RequestFinished { id, at: _ } => {
                    if let Some((t0, name, args)) = open.remove(&("request", id)) {
                        span(
                            &mut lines,
                            &mut seq,
                            pid,
                            TID_REQUESTS,
                            "request",
                            id,
                            t0,
                            ts,
                            &name,
                            &args,
                            "",
                        );
                    }
                }
                TraceEvent::RequestAdmitted {
                    id,
                    model,
                    kind,
                    at: _,
                } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "admit",
                        ts,
                        &format!(r#"{{"id":{id},"model":{model},"kind":"{}"}}"#, kind.label()),
                    );
                }
                TraceEvent::FirstToken { id, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "first_token",
                        ts,
                        &format!(r#"{{"id":{id}}}"#),
                    );
                }
                TraceEvent::RequestPreempted { id, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "preempt",
                        ts,
                        &format!(r#"{{"id":{id}}}"#),
                    );
                }
                TraceEvent::SwapStart {
                    delta,
                    at: _,
                    disk_s,
                    pcie_s,
                    solo_s,
                } => {
                    open.insert(
                        ("swap", delta),
                        (
                            ts,
                            format!("swap {delta}"),
                            format!(r#"{{"disk_s":{disk_s},"pcie_s":{pcie_s},"solo_s":{solo_s}}}"#),
                        ),
                    );
                }
                TraceEvent::SwapLand {
                    delta,
                    at: _,
                    waiters,
                } => {
                    if let Some((t0, name, args)) = open.remove(&("swap", delta)) {
                        span(
                            &mut lines,
                            &mut seq,
                            pid,
                            TID_TRANSFERS,
                            "swap",
                            delta,
                            t0,
                            ts,
                            &name,
                            &args,
                            &format!(r#"{{"waiters":{waiters}}}"#),
                        );
                    }
                }
                TraceEvent::PrefetchIssued {
                    delta,
                    at: _,
                    disk_s,
                } => {
                    open.insert(
                        ("prefetch", delta),
                        (
                            ts,
                            format!("prefetch {delta}"),
                            format!(r#"{{"disk_s":{disk_s}}}"#),
                        ),
                    );
                }
                TraceEvent::PrefetchLand { delta, at: _ }
                | TraceEvent::PrefetchPromoted { delta, at: _ } => {
                    let promoted = matches!(ev, TraceEvent::PrefetchPromoted { .. });
                    if let Some((t0, name, args)) = open.remove(&("prefetch", delta)) {
                        span(
                            &mut lines,
                            &mut seq,
                            pid,
                            TID_TRANSFERS,
                            "prefetch",
                            delta,
                            t0,
                            ts,
                            &name,
                            &args,
                            &format!(r#"{{"promoted":{promoted}}}"#),
                        );
                    }
                }
                TraceEvent::PrefetchHit { delta, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_TRANSFERS,
                        "prefetch_hit",
                        ts,
                        &format!(r#"{{"delta":{delta}}}"#),
                    );
                }
                TraceEvent::Evict { delta, tier, at: _ } => {
                    let name = match tier {
                        EvictTier::Gpu => "evict_gpu",
                        EvictTier::Host => "evict_host",
                    };
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_TRANSFERS,
                        name,
                        ts,
                        &format!(r#"{{"delta":{delta}}}"#),
                    );
                }
                TraceEvent::Migrate { count, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "migrate",
                        ts,
                        &format!(r#"{{"count":{count}}}"#),
                    );
                }
                TraceEvent::Defer { id, model, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "defer",
                        ts,
                        &format!(r#"{{"id":{id},"model":{model}}}"#),
                    );
                }
                TraceEvent::Shed { id, model, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "shed",
                        ts,
                        &format!(r#"{{"id":{id},"model":{model}}}"#),
                    );
                }
                TraceEvent::ReplicaDown {
                    replica,
                    lost,
                    at: _,
                } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "replica_down",
                        ts,
                        &format!(r#"{{"replica":{replica},"lost":{lost}}}"#),
                    );
                }
                TraceEvent::ReplicaUp { replica, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "replica_up",
                        ts,
                        &format!(r#"{{"replica":{replica}}}"#),
                    );
                }
                TraceEvent::ScaleUp { replica, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "scale_up",
                        ts,
                        &format!(r#"{{"replica":{replica}}}"#),
                    );
                }
                TraceEvent::ScaleDown { replica, at: _ } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "scale_down",
                        ts,
                        &format!(r#"{{"replica":{replica}}}"#),
                    );
                }
                TraceEvent::Rollout {
                    model,
                    v2,
                    frac,
                    at: _,
                } => {
                    instant(
                        &mut lines,
                        &mut seq,
                        pid,
                        TID_REQUESTS,
                        "rollout",
                        ts,
                        &format!(r#"{{"model":{model},"v2":{v2},"frac":{frac}}}"#),
                    );
                }
                TraceEvent::BatchStep {
                    at: _,
                    dur_s,
                    batch,
                    deltas,
                    loras,
                } => {
                    raw(
                        &mut lines,
                        &mut seq,
                        ts,
                        format!(
                            r#"{{"name":"batch_step","cat":"decode","ph":"X","ts":{ts:.3},"dur":{:.3},"pid":{pid},"tid":{TID_DECODE},"args":{{"batch":{batch},"deltas":{deltas},"loras":{loras}}}}}"#,
                            (dur_s * 1e6).max(0.0)
                        ),
                    );
                }
            }
        }
        // Unclosed spans (in-flight at drain) are dropped: every "b"
        // in the output has a matching "e".

        for g in track.log.gauges() {
            counters(&mut lines, &mut seq, pid, g);
        }
    }

    lines.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (_, _, line)) in lines.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders `tracks` and writes the JSON document to `path`.
pub fn write_chrome_trace(path: &std::path::Path, tracks: &[TraceTrack]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, chrome_trace_json(tracks))
}

fn raw(lines: &mut Vec<(f64, usize, String)>, seq: &mut usize, ts: f64, line: String) {
    lines.push((ts, *seq, line));
    *seq += 1;
}

#[allow(clippy::too_many_arguments)]
fn span(
    lines: &mut Vec<(f64, usize, String)>,
    seq: &mut usize,
    pid: usize,
    tid: u32,
    cat: &str,
    id: usize,
    t0: f64,
    t1: f64,
    name: &str,
    begin_args: &str,
    end_args: &str,
) {
    // Per-process async id so concurrent replicas swapping the same
    // delta never alias.
    let gid = pid * 1_000_000 + id;
    lines.push((
        t0,
        *seq,
        format!(
            r#"{{"name":"{name}","cat":"{cat}","ph":"b","id":{gid},"ts":{t0:.3},"pid":{pid},"tid":{tid},"args":{begin_args}}}"#
        ),
    ));
    *seq += 1;
    let end_args = if end_args.is_empty() { "{}" } else { end_args };
    lines.push((
        t1.max(t0),
        *seq,
        format!(
            r#"{{"name":"{name}","cat":"{cat}","ph":"e","id":{gid},"ts":{:.3},"pid":{pid},"tid":{tid},"args":{end_args}}}"#,
            t1.max(t0)
        ),
    ));
    *seq += 1;
}

fn instant(
    lines: &mut Vec<(f64, usize, String)>,
    seq: &mut usize,
    pid: usize,
    tid: u32,
    name: &str,
    ts: f64,
    args: &str,
) {
    lines.push((
        ts,
        *seq,
        format!(
            r#"{{"name":"{name}","cat":"event","ph":"i","s":"t","ts":{ts:.3},"pid":{pid},"tid":{tid},"args":{args}}}"#
        ),
    ));
    *seq += 1;
}

fn counters(lines: &mut Vec<(f64, usize, String)>, seq: &mut usize, pid: usize, g: &GaugeSample) {
    let ts = g.at * 1e6;
    for (name, args) in [
        (
            "load",
            format!(
                r#"{{"queued":{},"batch":{},"blocked":{}}}"#,
                g.queue_depth, g.batch, g.blocked
            ),
        ),
        (
            "residency",
            format!(
                r#"{{"gpu":{},"host":{},"disk":{}}}"#,
                g.gpu_resident, g.warmth_host, g.warmth_disk
            ),
        ),
        (
            "bytes",
            format!(r#"{{"gpu":{},"host":{}}}"#, g.gpu_bytes, g.host_bytes),
        ),
        (
            "inflight",
            format!(
                r#"{{"demand":{},"prefetch":{}}}"#,
                g.inflight_demand, g.inflight_prefetch
            ),
        ),
    ] {
        lines.push((
            ts,
            *seq,
            format!(
                r#"{{"name":"{name}","ph":"C","ts":{ts:.3},"pid":{pid},"tid":{TID_GAUGES},"args":{args}}}"#
            ),
        ));
        *seq += 1;
    }
    // Fleet-size lane, only for tracks that actually sample it (the
    // cluster front end); single-engine lanes never set it and skip
    // the extra counter entirely.
    if g.live_replicas > 0 {
        lines.push((
            ts,
            *seq,
            format!(
                r#"{{"name":"fleet","ph":"C","ts":{ts:.3},"pid":{pid},"tid":{TID_GAUGES},"args":{{"live":{}}}}}"#,
                g.live_replicas
            ),
        ));
        *seq += 1;
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ToppingKind;

    fn sample_track() -> TraceTrack {
        let mut log = TraceLog::with_capacity(64);
        log.push(TraceEvent::RequestQueued {
            id: 0,
            model: 2,
            kind: ToppingKind::Lora,
            at: 0.0,
        });
        log.push(TraceEvent::RequestAdmitted {
            id: 0,
            model: 2,
            kind: ToppingKind::Lora,
            at: 0.5,
        });
        log.push(TraceEvent::SwapStart {
            delta: 2,
            at: 0.5,
            disk_s: 0.3,
            pcie_s: 0.1,
            solo_s: 0.4,
        });
        log.push(TraceEvent::SwapLand {
            delta: 2,
            at: 0.9,
            waiters: 1,
        });
        log.push(TraceEvent::BatchStep {
            at: 0.9,
            dur_s: 0.1,
            batch: 1,
            deltas: 1,
            loras: 1,
        });
        log.push(TraceEvent::FirstToken { id: 0, at: 1.0 });
        log.push(TraceEvent::RequestFinished { id: 0, at: 1.2 });
        // In-flight prefetch with no land: must be dropped from output.
        log.push(TraceEvent::PrefetchIssued {
            delta: 5,
            at: 1.1,
            disk_s: 0.3,
        });
        log.push_gauge(GaugeSample {
            at: 1.0,
            queue_depth: 0,
            batch: 1,
            gpu_resident: 1,
            ..GaugeSample::default()
        });
        TraceTrack {
            name: "engine".into(),
            log,
        }
    }

    #[test]
    fn spans_are_balanced_and_sorted() {
        let json = chrome_trace_json(&[sample_track()]);
        let b = json.matches(r#""ph":"b""#).count();
        let e = json.matches(r#""ph":"e""#).count();
        assert_eq!(b, e, "unbalanced spans:\n{json}");
        // request + swap span; prefetch was dropped (no land).
        assert_eq!(b, 2);
        assert!(!json.contains("prefetch 5"));
        // Monotone ts.
        let mut last = f64::NEG_INFINITY;
        for part in json.split(r#""ts":"#).skip(1) {
            let num: f64 = part.split([',', '}']).next().unwrap().parse().unwrap();
            assert!(num >= last, "ts went backwards: {num} < {last}");
            last = num;
        }
    }

    #[test]
    fn process_names_are_escaped() {
        let track = TraceTrack {
            name: "weird\"name".into(),
            log: TraceLog::with_capacity(1),
        };
        let json = chrome_trace_json(&[track]);
        assert!(json.contains(r#"weird\"name"#));
    }
}
