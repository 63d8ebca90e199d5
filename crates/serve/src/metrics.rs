//! Serving metrics: E2E latency, TTFT, throughput, SLO attainment,
//! per-request latency breakdown.

use crate::request::ReqState;
use crate::variant::VariantKind;
use dz_trace::stats::{fraction_within, mean, percentile, ratio_or};
use dz_trace::{AttributedRequest, CauseBreakdown, Causes, PromSnapshot};
use serde::Serialize;

/// Frozen per-request measurements.
#[derive(Debug, Clone, Serialize)]
pub struct RequestRecord {
    /// Request id.
    pub id: usize,
    /// Target model variant.
    pub model: usize,
    /// Variant kind the request was served as (the legacy delta-only
    /// engines report [`VariantKind::Delta`]).
    pub kind: VariantKind,
    /// Arrival time (s).
    pub arrival: f64,
    /// End-to-end latency (s).
    pub e2e_s: f64,
    /// Time to first token (s).
    pub ttft_s: f64,
    /// Time from arrival to first admission (queuing).
    pub queue_s: f64,
    /// Time spent waiting on model/delta loads.
    pub load_s: f64,
    /// Output tokens produced.
    pub output_tokens: usize,
    /// Preemption count.
    pub preemptions: usize,
    /// Critical-path cause ledger (sums to `e2e_s` for the DeltaZip
    /// engine; all-zero for baselines that do not attribute).
    pub causes: Causes,
}

/// Engine-level swap accounting: how much delta loading happened, how
/// much of it was hidden behind decode, and what predictive prefetch
/// contributed. Zero for engines that do no swapping.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SwapStats {
    /// Demand loads started (deltas actually swapped in).
    pub demand_loads: usize,
    /// Wall-clock seconds during which at least one load was in flight.
    pub load_busy_s: f64,
    /// Of `load_busy_s`, seconds during which decode was running
    /// concurrently (hidden load time).
    pub overlapped_s: f64,
    /// Of `load_busy_s`, seconds during which the engine had nothing to
    /// decode and sat exposed on loads.
    pub blocked_s: f64,
    /// Total per-request stall seconds charged (each request waits only
    /// for its *own* delta).
    pub stall_s: f64,
    /// What the legacy serialized accounting would have charged per load
    /// episode: the sum of every demand load's uncontended duration.
    pub serialized_stall_s: f64,
    /// Predictive prefetch transfers started.
    pub prefetch_issued: usize,
    /// Predictive prefetch transfers that completed.
    pub prefetch_completed: usize,
    /// Demand loads served by a prefetch: the delta was host-warm because
    /// a completed prefetch put it there, or its prewarm was still in
    /// flight and was promoted into the demand load.
    pub prefetch_hits: usize,
}

impl SwapStats {
    /// Fraction of in-flight load time hidden behind decode
    /// (`0.0` when nothing was loaded).
    pub fn overlap_fraction(&self) -> f64 {
        ratio_or(self.overlapped_s, self.load_busy_s, 0.0)
    }

    /// Fraction of issued prefetches whose delta was later demanded while
    /// still warm (`0.0` when nothing was prefetched).
    pub fn prefetch_hit_rate(&self) -> f64 {
        ratio_or(self.prefetch_hits as f64, self.prefetch_issued as f64, 0.0)
    }

    /// Field-wise accumulation (for cluster-level aggregation).
    pub fn merge(&mut self, other: &SwapStats) {
        self.demand_loads += other.demand_loads;
        self.load_busy_s += other.load_busy_s;
        self.overlapped_s += other.overlapped_s;
        self.blocked_s += other.blocked_s;
        self.stall_s += other.stall_s;
        self.serialized_stall_s += other.serialized_stall_s;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_completed += other.prefetch_completed;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// Engine-level accounting of heterogeneous "toppings" batches: how the
/// running batch decomposed by variant kind and where the kernel seconds
/// went. Zero everywhere for engines without a variant catalog.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ToppingsStats {
    /// Finished requests served as `Base`.
    pub base_reqs: usize,
    /// Finished requests served as `Lora`.
    pub lora_reqs: usize,
    /// Finished requests served as `Delta`.
    pub delta_reqs: usize,
    /// Finished requests served as `Stacked`.
    pub stacked_reqs: usize,
    /// Decode iterations executed.
    pub batches: usize,
    /// Iterations that co-scheduled the two serving pools: a delta-backed
    /// request (`Delta`/`Stacked`) alongside a pure-`Lora` one. A lone
    /// stacked variant drives both SBMM and SGMV but is a single pool, so
    /// it does not count; `segregate_kinds` forces this to zero.
    pub mixed_batches: usize,
    /// High-water mark of distinct toppings (non-base variants) holding a
    /// batch slot at any iteration — never exceeds the engine's
    /// `max_toppings_per_batch` cap.
    pub max_toppings_in_batch: usize,
    /// Kernel seconds in shared base work (GEMMs, head/KV, all-reduce).
    pub base_gemm_s: f64,
    /// Kernel seconds in delta SBMM products.
    pub sbmm_s: f64,
    /// Kernel seconds in adapter SGMV products and RoSA sparse terms.
    pub sgmv_s: f64,
}

impl ToppingsStats {
    /// Total requests counted across all kinds.
    pub fn total_reqs(&self) -> usize {
        self.base_reqs + self.lora_reqs + self.delta_reqs + self.stacked_reqs
    }

    /// Field-wise accumulation (for cluster-level aggregation; the
    /// high-water mark takes the max).
    pub fn merge(&mut self, other: &ToppingsStats) {
        self.base_reqs += other.base_reqs;
        self.lora_reqs += other.lora_reqs;
        self.delta_reqs += other.delta_reqs;
        self.stacked_reqs += other.stacked_reqs;
        self.batches += other.batches;
        self.mixed_batches += other.mixed_batches;
        self.max_toppings_in_batch = self.max_toppings_in_batch.max(other.max_toppings_in_batch);
        self.base_gemm_s += other.base_gemm_s;
        self.sbmm_s += other.sbmm_s;
        self.sgmv_s += other.sgmv_s;
    }
}

/// One fixed-width window of SLO accounting (see
/// [`Metrics::windowed_attainment`]).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SloWindow {
    /// Window start (s, inclusive).
    pub start_s: f64,
    /// Window end (s, exclusive).
    pub end_s: f64,
    /// Requests that arrived in this window.
    pub n: usize,
    /// Fraction of those requests that met the SLO; `None` when no
    /// requests arrived (routine during outages and traffic troughs).
    pub attainment: Option<f64>,
}

/// Aggregated results of one trace replay.
#[derive(Debug, Clone, Serialize)]
pub struct Metrics {
    /// Engine label.
    pub engine: String,
    /// Per-request records (every request in the trace, finished).
    pub records: Vec<RequestRecord>,
    /// Wall-clock span of the replay (s).
    pub makespan_s: f64,
    /// Engine-level swap/overlap/prefetch accounting.
    pub swap: SwapStats,
    /// Engine-level per-kind toppings batch accounting.
    pub toppings: ToppingsStats,
}

impl Metrics {
    /// Builds metrics from finished request states.
    ///
    /// # Panics
    ///
    /// Panics if any request is unfinished — engines must drain.
    pub fn from_states(engine: String, states: &[ReqState], makespan_s: f64) -> Metrics {
        let records = states
            .iter()
            .map(|s| {
                let finished = s
                    .finished_at
                    .unwrap_or_else(|| panic!("request {} never finished", s.req.id));
                let first_tok = s
                    .first_token_at
                    .unwrap_or_else(|| panic!("request {} produced no token", s.req.id));
                RequestRecord {
                    id: s.req.id,
                    model: s.req.model,
                    kind: s.kind,
                    arrival: s.req.arrival,
                    e2e_s: finished - s.req.arrival,
                    ttft_s: first_tok - s.req.arrival,
                    queue_s: s.first_admitted_at.unwrap_or(finished) - s.req.arrival,
                    load_s: s.load_wait_s,
                    output_tokens: s.req.output_tokens,
                    preemptions: s.preemptions,
                    causes: s.causes,
                }
            })
            .collect();
        Metrics {
            engine,
            records,
            makespan_s,
            swap: SwapStats::default(),
            toppings: ToppingsStats::default(),
        }
    }

    /// Attaches engine-level swap accounting.
    pub fn with_swap(mut self, swap: SwapStats) -> Metrics {
        self.swap = swap;
        self
    }

    /// Attaches engine-level toppings batch accounting.
    pub fn with_toppings(mut self, toppings: ToppingsStats) -> Metrics {
        self.toppings = toppings;
        self
    }

    /// Number of requests served.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no requests were served.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean end-to-end latency (s); `0.0` when no requests were served.
    pub fn mean_e2e(&self) -> f64 {
        mean(self.records.iter().map(|r| r.e2e_s)).unwrap_or(0.0)
    }

    /// Mean time to first token (s); `0.0` when no requests were served.
    pub fn mean_ttft(&self) -> f64 {
        mean(self.records.iter().map(|r| r.ttft_s)).unwrap_or(0.0)
    }

    /// Mean time per output token (s/token), the Figure 10 metric;
    /// `0.0` when no requests were served.
    pub fn mean_time_per_token(&self) -> f64 {
        mean(
            self.records
                .iter()
                .map(|r| r.e2e_s / r.output_tokens.max(1) as f64),
        )
        .unwrap_or(0.0)
    }

    /// Requests per second over the makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.records.len() as f64 / self.makespan_s
        }
    }

    /// Fraction of requests with E2E latency within `slo_s`.
    pub fn slo_attainment_e2e(&self, slo_s: f64) -> f64 {
        fraction_within(self.records.iter().map(|r| r.e2e_s), slo_s)
    }

    /// Fraction of requests with TTFT within `slo_s`.
    pub fn slo_attainment_ttft(&self, slo_s: f64) -> f64 {
        fraction_within(self.records.iter().map(|r| r.ttft_s), slo_s)
    }

    /// Percentile of E2E latency (q in 0..=1); `0.0` when no requests
    /// were served.
    pub fn e2e_percentile(&self, q: f64) -> f64 {
        percentile(self.records.iter().map(|r| r.e2e_s).collect(), q).unwrap_or(0.0)
    }

    /// Percentile of TTFT; `0.0` when no requests were served.
    pub fn ttft_percentile(&self, q: f64) -> f64 {
        percentile(self.records.iter().map(|r| r.ttft_s).collect(), q).unwrap_or(0.0)
    }

    /// Percentile of per-request model/delta load waits (what swap-in
    /// cost looks like from a request's point of view; the tail is the
    /// cold-load figure `exp bench-compress` sweeps per codec).
    /// `0.0` when no requests were served.
    pub fn load_percentile(&self, q: f64) -> f64 {
        percentile(self.records.iter().map(|r| r.load_s).collect(), q).unwrap_or(0.0)
    }

    /// A filtered view of the records (e.g. one SLO class, one model),
    /// keeping the makespan of the full replay.
    pub fn subset(&self, engine: String, keep: impl Fn(&RequestRecord) -> bool) -> Metrics {
        Metrics {
            engine,
            records: self.records.iter().filter(|r| keep(r)).cloned().collect(),
            makespan_s: self.makespan_s,
            swap: self.swap,
            toppings: self.toppings,
        }
    }

    /// Mean queuing / loading / inference split (sums to mean E2E).
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let queue = mean(self.records.iter().map(|r| r.queue_s)).unwrap_or(0.0);
        let load = mean(self.records.iter().map(|r| r.load_s)).unwrap_or(0.0);
        let e2e = self.mean_e2e();
        (queue, load, (e2e - queue - load).max(0.0))
    }

    /// Per-window SLO attainment over fixed `window_s` buckets of
    /// *arrival* time: window `i` covers arrivals in
    /// `[i*window_s, (i+1)*window_s)` and reports what fraction of them
    /// met the SLO, however late they eventually finished. Keying by
    /// arrival (not completion) means an outage shows up in the windows
    /// whose arrivals it punished, which is what recovery time measures.
    /// Empty windows report `None` — no data, not a perfect window.
    ///
    /// Windows span `[0, max(makespan, last arrival))`; `ttft` selects
    /// the TTFT SLO instead of E2E.
    pub fn windowed_attainment(&self, window_s: f64, slo_s: f64, ttft: bool) -> Vec<SloWindow> {
        assert!(window_s > 0.0, "window must be positive");
        let span = self
            .records
            .iter()
            .map(|r| r.arrival)
            .fold(self.makespan_s, f64::max);
        let n_windows = (span / window_s).floor() as usize + 1;
        let mut ok = vec![0usize; n_windows];
        let mut n = vec![0usize; n_windows];
        for r in &self.records {
            let w = ((r.arrival / window_s).floor() as usize).min(n_windows - 1);
            let v = if ttft { r.ttft_s } else { r.e2e_s };
            n[w] += 1;
            if v <= slo_s {
                ok[w] += 1;
            }
        }
        (0..n_windows)
            .map(|w| SloWindow {
                start_s: w as f64 * window_s,
                end_s: (w + 1) as f64 * window_s,
                n: n[w],
                attainment: if n[w] == 0 {
                    None
                } else {
                    Some(ok[w] as f64 / n[w] as f64)
                },
            })
            .collect()
    }

    /// Contiguous spans of windows whose attainment fell below
    /// `threshold`, as `(start_s, end_s)` intervals. Empty windows are
    /// neutral: they neither violate nor attain, and they end a run.
    pub fn violation_intervals(windows: &[SloWindow], threshold: f64) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut open: Option<(f64, f64)> = None;
        for w in windows {
            if w.attainment.is_some_and(|a| a < threshold) {
                open = Some(match open {
                    Some((s, _)) => (s, w.end_s),
                    None => (w.start_s, w.end_s),
                });
            } else if let Some(iv) = open.take() {
                out.push(iv);
            }
        }
        if let Some(iv) = open {
            out.push(iv);
        }
        out
    }

    /// Recovery time after a fault at `fault_at_s`: seconds from the
    /// fault until windowed attainment first re-crosses `threshold`
    /// (measured at the end of the first post-fault window that attains;
    /// empty windows do not count as recovered). `None` when attainment
    /// never comes back within the run.
    pub fn recovery_time_s(windows: &[SloWindow], fault_at_s: f64, threshold: f64) -> Option<f64> {
        windows
            .iter()
            .filter(|w| w.end_s > fault_at_s)
            .find(|w| w.attainment.is_some_and(|a| a >= threshold))
            .map(|w| (w.end_s - fault_at_s).max(0.0))
    }

    /// Critical-path attribution over the per-request cause ledgers:
    /// mean causes over all requests plus over the e2e tail at the
    /// `tail_q` percentile (`0.99` answers "where did the p99 go").
    pub fn attribution(&self, tail_q: f64) -> CauseBreakdown {
        let reqs: Vec<AttributedRequest> = self
            .records
            .iter()
            .map(|r| AttributedRequest {
                e2e_s: r.e2e_s,
                causes: r.causes,
            })
            .collect();
        dz_trace::attrib::breakdown(&reqs, tail_q)
    }

    /// Renders the run as a Prometheus text-exposition snapshot
    /// (counter/summary families labelled by engine), mirroring what the
    /// real deployment scrapes.
    // dz-lint: allow(dead-pub, "the ROADMAP metric-name schema item builds on this snapshot")
    pub fn prometheus_snapshot(&self) -> String {
        let labels: &[(&str, &str)] = &[("engine", &self.engine)];
        let mut p = PromSnapshot::new();
        p.header("dz_requests_total", "counter", "Requests served.");
        p.sample("dz_requests_total", labels, self.len() as f64);
        p.header("dz_tokens_total", "counter", "Output tokens produced.");
        p.sample(
            "dz_tokens_total",
            labels,
            self.records.iter().map(|r| r.output_tokens).sum::<usize>() as f64,
        );
        p.header("dz_e2e_seconds", "summary", "End-to-end request latency.");
        let e2e: Vec<f64> = self.records.iter().map(|r| r.e2e_s).collect();
        p.summary("dz_e2e_seconds", labels, &e2e);
        p.header("dz_ttft_seconds", "summary", "Time to first token.");
        let ttft: Vec<f64> = self.records.iter().map(|r| r.ttft_s).collect();
        p.summary("dz_ttft_seconds", labels, &ttft);
        p.header("dz_demand_loads_total", "counter", "Demand delta loads.");
        p.sample(
            "dz_demand_loads_total",
            labels,
            self.swap.demand_loads as f64,
        );
        p.header(
            "dz_prefetch_issued_total",
            "counter",
            "Prefetch transfers issued.",
        );
        p.sample(
            "dz_prefetch_issued_total",
            labels,
            self.swap.prefetch_issued as f64,
        );
        p.header(
            "dz_prefetch_hits_total",
            "counter",
            "Demand loads served by prefetch.",
        );
        p.sample(
            "dz_prefetch_hits_total",
            labels,
            self.swap.prefetch_hits as f64,
        );
        p.header(
            "dz_swap_overlap_fraction",
            "gauge",
            "Fraction of load time hidden behind decode.",
        );
        p.sample(
            "dz_swap_overlap_fraction",
            labels,
            self.swap.overlap_fraction(),
        );
        p.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_workload::Request;

    fn record(e2e: f64, ttft: f64, toks: usize) -> RequestRecord {
        RequestRecord {
            id: 0,
            model: 0,
            kind: VariantKind::Delta,
            arrival: 0.0,
            e2e_s: e2e,
            ttft_s: ttft,
            queue_s: ttft / 2.0,
            load_s: 0.1,
            output_tokens: toks,
            preemptions: 0,
            causes: Causes::default(),
        }
    }

    fn metrics(records: Vec<RequestRecord>) -> Metrics {
        Metrics {
            engine: "test".into(),
            records,
            makespan_s: 10.0,
            swap: SwapStats::default(),
            toppings: ToppingsStats::default(),
        }
    }

    #[test]
    fn toppings_stats_merge_and_totals() {
        let mut a = ToppingsStats {
            lora_reqs: 2,
            delta_reqs: 3,
            batches: 5,
            mixed_batches: 1,
            max_toppings_in_batch: 4,
            base_gemm_s: 1.0,
            sbmm_s: 0.5,
            sgmv_s: 0.25,
            ..ToppingsStats::default()
        };
        let b = ToppingsStats {
            base_reqs: 1,
            stacked_reqs: 2,
            batches: 3,
            max_toppings_in_batch: 7,
            sgmv_s: 0.25,
            ..ToppingsStats::default()
        };
        a.merge(&b);
        assert_eq!(a.total_reqs(), 8);
        assert_eq!(a.batches, 8);
        assert_eq!(a.max_toppings_in_batch, 7, "high-water takes the max");
    }

    #[test]
    fn means_and_throughput() {
        let m = metrics(vec![record(2.0, 0.5, 10), record(4.0, 1.5, 30)]);
        assert!((m.mean_e2e() - 3.0).abs() < 1e-9);
        assert!((m.mean_ttft() - 1.0).abs() < 1e-9);
        assert!((m.throughput_rps() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn slo_attainment() {
        let m = metrics(vec![
            record(1.0, 0.1, 1),
            record(5.0, 2.0, 1),
            record(9.0, 4.0, 1),
        ]);
        assert!((m.slo_attainment_e2e(5.0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.slo_attainment_ttft(0.5) - 1.0 / 3.0).abs() < 1e-9);
        assert!(m.slo_attainment_e2e(10.0) >= m.slo_attainment_e2e(1.0));
    }

    #[test]
    fn percentiles() {
        let m = metrics(
            (1..=100)
                .map(|i| record(i as f64, i as f64 / 10.0, 1))
                .collect(),
        );
        assert!((m.e2e_percentile(0.5) - 50.0).abs() <= 1.0);
        assert!(m.e2e_percentile(0.9) > m.e2e_percentile(0.5));
    }

    #[test]
    fn percentile_interpolates_single_sample() {
        let m = metrics(vec![record(3.0, 1.0, 1)]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(m.e2e_percentile(q), 3.0);
        }
    }

    #[test]
    fn percentile_interpolates_two_samples() {
        // Nearest-rank-with-round reported p50 of {1, 3} as 3 (biased
        // high); linear interpolation gives the midpoint.
        let m = metrics(vec![record(1.0, 1.0, 1), record(3.0, 1.0, 1)]);
        assert!((m.e2e_percentile(0.5) - 2.0).abs() < 1e-12);
        assert_eq!(m.e2e_percentile(0.0), 1.0);
        assert_eq!(m.e2e_percentile(1.0), 3.0);
        // p99 is near — but strictly below — the max.
        let p99 = m.e2e_percentile(0.99);
        assert!(p99 < 3.0 && p99 > 2.9, "{p99}");
    }

    #[test]
    fn percentile_interpolates_four_samples() {
        let m = metrics(
            [10.0, 20.0, 30.0, 40.0]
                .into_iter()
                .map(|v| record(v, 1.0, 1))
                .collect(),
        );
        // pos = 0.5 * 3 = 1.5 -> midpoint of 20 and 30.
        assert!((m.e2e_percentile(0.5) - 25.0).abs() < 1e-12);
        // pos = 0.99 * 3 = 2.97 -> 30 + 0.97 * 10; the old nearest-rank
        // collapsed this to the max.
        assert!((m.e2e_percentile(0.99) - 39.7).abs() < 1e-9);
        assert!(m.e2e_percentile(0.99) < 40.0);
        // pos = 0.25 * 3 = 0.75 -> 10 + 0.75 * 10.
        assert!((m.e2e_percentile(0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn swap_stats_ratios_and_merge() {
        let mut a = SwapStats {
            demand_loads: 2,
            load_busy_s: 4.0,
            overlapped_s: 3.0,
            blocked_s: 1.0,
            stall_s: 1.5,
            serialized_stall_s: 5.0,
            prefetch_issued: 4,
            prefetch_completed: 3,
            prefetch_hits: 2,
        };
        assert!((a.overlap_fraction() - 0.75).abs() < 1e-12);
        assert!((a.prefetch_hit_rate() - 0.5).abs() < 1e-12);
        a.merge(&a.clone());
        assert_eq!(a.demand_loads, 4);
        assert!((a.load_busy_s - 8.0).abs() < 1e-12);
        assert!((a.overlap_fraction() - 0.75).abs() < 1e-12);
        // Degenerate: nothing loaded, nothing prefetched.
        let zero = SwapStats::default();
        assert_eq!(zero.overlap_fraction(), 0.0);
        assert_eq!(zero.prefetch_hit_rate(), 0.0);
    }

    fn swap_a() -> SwapStats {
        SwapStats {
            demand_loads: 2,
            load_busy_s: 4.0,
            overlapped_s: 3.0,
            blocked_s: 1.0,
            stall_s: 1.5,
            serialized_stall_s: 5.0,
            prefetch_issued: 4,
            prefetch_completed: 3,
            prefetch_hits: 2,
        }
    }

    fn swap_b() -> SwapStats {
        SwapStats {
            demand_loads: 10,
            load_busy_s: 1.0,
            overlapped_s: 0.0,
            blocked_s: 1.0,
            stall_s: 7.0,
            serialized_stall_s: 8.0,
            prefetch_issued: 1,
            prefetch_completed: 1,
            prefetch_hits: 1,
        }
    }

    fn swap_fields(s: &SwapStats) -> [f64; 9] {
        [
            s.demand_loads as f64,
            s.load_busy_s,
            s.overlapped_s,
            s.blocked_s,
            s.stall_s,
            s.serialized_stall_s,
            s.prefetch_issued as f64,
            s.prefetch_completed as f64,
            s.prefetch_hits as f64,
        ]
    }

    #[test]
    fn swap_merge_empty_is_identity() {
        let mut zero = SwapStats::default();
        zero.merge(&swap_a());
        assert_eq!(swap_fields(&zero), swap_fields(&swap_a()));
        let mut a = swap_a();
        a.merge(&SwapStats::default());
        assert_eq!(swap_fields(&a), swap_fields(&swap_a()));
    }

    #[test]
    fn swap_merge_commutes() {
        let mut ab = swap_a();
        ab.merge(&swap_b());
        let mut ba = swap_b();
        ba.merge(&swap_a());
        assert_eq!(swap_fields(&ab), swap_fields(&ba));
    }

    #[test]
    fn swap_merge_recomputes_rates_not_averages() {
        // a: overlap 3/4 = 0.75, hit rate 2/4 = 0.5.
        // b: overlap 0/1 = 0.0,  hit rate 1/1 = 1.0.
        let mut m = swap_a();
        m.merge(&swap_b());
        // Pooled overlap is 3/5, NOT the 0.375 a naive mean of the two
        // per-replica fractions would give.
        assert!((m.overlap_fraction() - 0.6).abs() < 1e-12);
        assert!((m.overlap_fraction() - (0.75 + 0.0) / 2.0).abs() > 0.1);
        // Pooled hit rate is 3/5, not (0.5 + 1.0) / 2.
        assert!((m.prefetch_hit_rate() - 0.6).abs() < 1e-12);
    }

    fn record_at(arrival: f64, e2e: f64) -> RequestRecord {
        RequestRecord {
            arrival,
            e2e_s: e2e,
            ..record(e2e, e2e / 2.0, 1)
        }
    }

    #[test]
    fn windowed_attainment_keys_by_arrival_and_reports_empty_as_none() {
        // Arrivals at 1s and 2s meet a 5s SLO; the arrival at 11s does
        // not; nothing arrives in [20, 30); the arrival at 31s recovers.
        let m = Metrics {
            makespan_s: 40.0,
            ..metrics(vec![
                record_at(1.0, 1.0),
                record_at(2.0, 2.0),
                record_at(11.0, 30.0),
                record_at(31.0, 1.0),
            ])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].n, 2);
        assert_eq!(w[0].attainment, Some(1.0));
        assert_eq!(w[1].attainment, Some(0.0));
        assert_eq!(w[2].attainment, None, "empty window is no-data");
        assert_eq!(w[3].attainment, Some(1.0));
        assert_eq!(w[4].attainment, None);
        assert!((w[1].start_s - 10.0).abs() < 1e-12 && (w[1].end_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn violation_intervals_merge_contiguous_windows() {
        let m = Metrics {
            makespan_s: 50.0,
            ..metrics(vec![
                record_at(1.0, 1.0),
                record_at(11.0, 99.0),
                record_at(21.0, 99.0),
                record_at(31.0, 1.0),
                record_at(41.0, 99.0),
            ])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        let iv = Metrics::violation_intervals(&w, 0.9);
        assert_eq!(iv, vec![(10.0, 30.0), (40.0, 50.0)]);
    }

    #[test]
    fn windowed_attainment_with_no_records_is_all_empty_windows() {
        // A dead replica's metrics: no arrivals at all. Windows span the
        // makespan, every one reports no-data, and no interval opens.
        let m = Metrics {
            makespan_s: 25.0,
            ..metrics(vec![])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        assert_eq!(w.len(), 3);
        for win in &w {
            assert_eq!(win.n, 0);
            assert_eq!(win.attainment, None);
        }
        assert!(Metrics::violation_intervals(&w, 0.9).is_empty());
        assert_eq!(Metrics::recovery_time_s(&w, 0.0, 0.9), None);
    }

    #[test]
    fn windowed_attainment_single_request_and_exact_slo_boundary() {
        // One request, e2e exactly equal to the SLO: `v <= slo` means the
        // boundary counts as attained, and every other window is no-data.
        let m = Metrics {
            makespan_s: 30.0,
            ..metrics(vec![record_at(15.0, 5.0)])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].attainment, None);
        assert_eq!((w[1].n, w[1].attainment), (1, Some(1.0)));
        assert_eq!(w[2].attainment, None);
        // Nudge past the SLO and the same window flips to violation.
        let late = Metrics {
            makespan_s: 30.0,
            ..metrics(vec![record_at(15.0, 5.0 + 1e-9)])
        };
        assert_eq!(
            late.windowed_attainment(10.0, 5.0, false)[1].attainment,
            Some(0.0)
        );
    }

    #[test]
    fn arrival_exactly_on_window_boundary_lands_in_the_later_window() {
        // Windows are half-open [start, end): an arrival at exactly 10.0
        // belongs to [10, 20), not [0, 10). An arrival exactly at the
        // span end clamps into the last window instead of indexing past
        // the vector.
        let m = Metrics {
            makespan_s: 20.0,
            ..metrics(vec![record_at(10.0, 1.0), record_at(20.0, 99.0)])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].n, 0, "nothing in [0, 10)");
        assert_eq!((w[1].n, w[1].attainment), (1, Some(1.0)));
        assert_eq!(
            (w[2].n, w[2].attainment),
            (1, Some(0.0)),
            "clamped into last"
        );
    }

    #[test]
    fn violation_threshold_is_strict_and_trailing_violation_closes() {
        // Attainment exactly equal to the threshold does NOT violate
        // (`a < threshold` is strict), and a violation still open at the
        // end of the run is emitted.
        let m = Metrics {
            makespan_s: 20.0,
            ..metrics(vec![
                record_at(1.0, 1.0),
                record_at(2.0, 99.0),
                record_at(11.0, 99.0),
            ])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        assert_eq!(w[0].attainment, Some(0.5));
        assert_eq!(
            Metrics::violation_intervals(&w, 0.5),
            vec![(10.0, 20.0)],
            "attainment == threshold is not a violation"
        );
        let iv = Metrics::violation_intervals(&w, 0.9);
        assert_eq!(
            iv,
            vec![(0.0, 20.0)],
            "trailing open interval closes at run end"
        );
    }

    #[test]
    fn recovery_time_crosses_threshold_after_fault() {
        let m = Metrics {
            makespan_s: 50.0,
            ..metrics(vec![
                record_at(1.0, 1.0),
                record_at(11.0, 99.0),
                record_at(21.0, 99.0),
                record_at(31.0, 1.0),
            ])
        };
        let w = m.windowed_attainment(10.0, 5.0, false);
        // Fault at 10s: windows [10,20) and [20,30) violate, [30,40)
        // attains -> recovery measured at its end.
        let rec = Metrics::recovery_time_s(&w, 10.0, 0.9).unwrap();
        assert!((rec - 30.0).abs() < 1e-12, "{rec}");
        // A run that never recovers reports None.
        let never = Metrics {
            makespan_s: 20.0,
            ..metrics(vec![record_at(1.0, 1.0), record_at(11.0, 99.0)])
        };
        let wn = never.windowed_attainment(10.0, 5.0, false);
        assert_eq!(Metrics::recovery_time_s(&wn, 10.0, 0.9), None);
    }

    #[test]
    fn breakdown_sums_to_e2e() {
        let m = metrics(vec![record(2.0, 1.0, 5)]);
        let (q, l, i) = m.breakdown();
        assert!((q + l + i - m.mean_e2e()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "never finished")]
    fn unfinished_requests_are_a_bug() {
        let st = crate::request::ReqState::new(Request {
            id: 7,
            model: 0,
            arrival: 0.0,
            prompt_tokens: 1,
            output_tokens: 1,
        });
        let _ = Metrics::from_states("x".into(), &[st], 1.0);
    }
}
