//! Critical-path attribution: decompose each request's end-to-end
//! latency into named causes and aggregate a "where did the p99 go"
//! breakdown.
//!
//! Engines accrue wall-clock intervals into a [`Causes`] ledger as the
//! simulation runs (timestamp-telescoping, so the five causes sum to the
//! request's e2e to within floating-point noise — pinned at `1e-9` by a
//! property test in `dz-serve`). [`breakdown`] then averages the ledgers
//! over all requests and over the tail (requests at or beyond a chosen
//! e2e percentile), which is what turns "policy X wins 1.8x at p99" into
//! "because contention share fell".

use crate::stats;
use serde::Serialize;

/// Stable cause names, in [`Causes::as_array`] order.
pub const CAUSE_NAMES: [&str; 5] = [
    "queue",
    "stall_own",
    "stall_contention",
    "decode",
    "preempt",
];

/// Per-request ledger of attributed seconds. The five fields partition
/// the request's end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Causes {
    /// Waiting in the queue before first admission.
    pub queue_s: f64,
    /// Blocked on the request's *own* delta load, at the load's
    /// uncontended (solo) rate.
    pub stall_own_s: f64,
    /// Extra stall inflicted by transfer-channel contention: the load
    /// took longer than `solo_s()` because other transfers shared the
    /// disk/PCIe channels.
    pub stall_contention_s: f64,
    /// Compute: prefill, activation restore, and decode iterations
    /// (including batch-alignment slack inside an iteration).
    pub decode_s: f64,
    /// Re-queued time after a preemption.
    pub preempt_s: f64,
}

impl Causes {
    /// Sum of all causes (equals e2e for a finished request).
    pub fn total(&self) -> f64 {
        self.queue_s + self.stall_own_s + self.stall_contention_s + self.decode_s + self.preempt_s
    }

    /// The causes as an array in [`CAUSE_NAMES`] order.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.queue_s,
            self.stall_own_s,
            self.stall_contention_s,
            self.decode_s,
            self.preempt_s,
        ]
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &Causes) {
        self.queue_s += other.queue_s;
        self.stall_own_s += other.stall_own_s;
        self.stall_contention_s += other.stall_contention_s;
        self.decode_s += other.decode_s;
        self.preempt_s += other.preempt_s;
    }

    /// Field-wise scaling (used to turn sums into means).
    pub fn scaled(&self, k: f64) -> Causes {
        Causes {
            queue_s: self.queue_s * k,
            stall_own_s: self.stall_own_s * k,
            stall_contention_s: self.stall_contention_s * k,
            decode_s: self.decode_s * k,
            preempt_s: self.preempt_s * k,
        }
    }
}

/// One request's e2e latency and its cause ledger.
#[derive(Debug, Clone, Copy)]
pub struct AttributedRequest {
    /// End-to-end latency (s).
    pub e2e_s: f64,
    /// Attributed causes (should sum to `e2e_s`).
    pub causes: Causes,
}

/// Aggregated attribution over a set of requests: mean causes over all
/// requests, and mean causes over the e2e tail.
#[derive(Debug, Clone, Serialize)]
pub struct CauseBreakdown {
    /// Requests aggregated.
    pub n: usize,
    /// Mean attributed seconds per request, all requests.
    pub mean: Causes,
    /// E2E threshold defining the tail (the `tail_q` percentile).
    pub tail_threshold_s: f64,
    /// Requests in the tail.
    pub n_tail: usize,
    /// Mean attributed seconds per request, tail requests only.
    pub tail_mean: Causes,
}

impl CauseBreakdown {
    /// Each cause's share of mean tail e2e, in [`CAUSE_NAMES`] order.
    pub fn tail_share(&self) -> [f64; 5] {
        share(&self.tail_mean)
    }
}

fn share(c: &Causes) -> [f64; 5] {
    let total = c.total();
    c.as_array().map(|v| stats::ratio_or(v, total, 0.0))
}

/// Aggregates per-request attributions.
///
/// The tail is every request whose e2e is `>=` the `tail_q` percentile
/// of e2e (so `tail_q = 0.99` answers "where did the p99 go"). Empty
/// input yields a zeroed breakdown.
pub fn breakdown(requests: &[AttributedRequest], tail_q: f64) -> CauseBreakdown {
    if requests.is_empty() {
        return CauseBreakdown {
            n: 0,
            mean: Causes::default(),
            tail_threshold_s: 0.0,
            n_tail: 0,
            tail_mean: Causes::default(),
        };
    }
    let threshold = stats::percentile(requests.iter().map(|r| r.e2e_s).collect(), tail_q)
        .expect("non-empty by the guard above");
    let mut sum = Causes::default();
    let mut tail_sum = Causes::default();
    let mut n_tail = 0usize;
    for r in requests {
        sum.accumulate(&r.causes);
        if r.e2e_s >= threshold {
            tail_sum.accumulate(&r.causes);
            n_tail += 1;
        }
    }
    CauseBreakdown {
        n: requests.len(),
        mean: sum.scaled(1.0 / requests.len() as f64),
        tail_threshold_s: threshold,
        n_tail,
        tail_mean: if n_tail == 0 {
            Causes::default()
        } else {
            tail_sum.scaled(1.0 / n_tail as f64)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(e2e: f64, queue: f64, own: f64, cont: f64, decode: f64) -> AttributedRequest {
        AttributedRequest {
            e2e_s: e2e,
            causes: Causes {
                queue_s: queue,
                stall_own_s: own,
                stall_contention_s: cont,
                decode_s: decode,
                preempt_s: e2e - queue - own - cont - decode,
            },
        }
    }

    #[test]
    fn causes_total_and_array_agree() {
        let c = Causes {
            queue_s: 1.0,
            stall_own_s: 2.0,
            stall_contention_s: 3.0,
            decode_s: 4.0,
            preempt_s: 5.0,
        };
        assert_eq!(c.total(), 15.0);
        assert_eq!(c.as_array().iter().sum::<f64>(), 15.0);
        assert_eq!(CAUSE_NAMES.len(), c.as_array().len());
    }

    #[test]
    fn breakdown_separates_tail_from_mean() {
        // 9 fast decode-bound requests and one slow contention-bound one.
        let mut reqs: Vec<_> = (0..9).map(|_| req(1.0, 0.1, 0.0, 0.0, 0.9)).collect();
        reqs.push(req(10.0, 0.5, 0.5, 8.0, 1.0));
        let b = breakdown(&reqs, 0.9);
        assert_eq!(b.n, 10);
        assert!(b.n_tail >= 1 && b.n_tail < 10);
        // The tail is dominated by contention, the mean by decode.
        let tail = b.tail_share();
        let mean = share(&b.mean);
        assert!(tail[2] > 0.5, "tail contention share {}", tail[2]);
        assert!(mean[3] > tail[3], "decode share must shrink in the tail");
        // Shares sum to 1 when any time was attributed.
        assert!((tail.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((mean.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zeroed() {
        let b = breakdown(&[], 0.99);
        assert_eq!(b.n, 0);
        assert_eq!(b.tail_mean.total(), 0.0);
        assert_eq!(share(&b.mean), [0.0; 5]);
    }
}
