//! Seeded rule violations for the dz-lint self-test. Every construct
//! below must produce a finding, and `dz-lint --check --root <here>`
//! must exit nonzero — CI asserts exactly that, mirroring the
//! perf-gate's perturbed-baseline self-test. Nothing in this tree calls
//! the `pub fn`s, so `dead-pub` flags them too.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// wall-clock: reads the real clock inside "simulation" code.
pub fn stamp() -> Instant {
    Instant::now()
}

/// hash-iter (method form): iterates replica state in nondeterministic
/// order.
pub fn sum_warm(warm: &HashMap<usize, u64>) -> u64 {
    warm.values().copied().sum()
}

/// hash-iter (for-loop form).
pub fn count_ready(ready: HashSet<usize>) -> usize {
    let mut n = 0;
    for _m in &ready {
        n += 1;
    }
    n
}

/// float-eq: lossy comparison against a float literal.
pub fn is_idle(load_s: f64) -> bool {
    load_s == 0.0
}

/// thread-spawn: a thread spawned in library code.
pub fn fan_out() {
    std::thread::spawn(|| {});
}

/// unwrap-budget: serve's budget is pinned to zero in the seeded
/// budget file, so this site is over budget.
pub fn first(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}

/// bench-provenance: mentions a BENCH artifact without ever calling
/// json_provenance.
pub fn artifact_path() -> &'static str {
    "BENCH_seeded.json"
}
