//! The clean twin of the seeded fixture: every rule hit carries a
//! justified suppression, so `dz-lint --check --root <here>` must
//! report zero findings (trailing and standalone comment forms both
//! exercised). Nothing in this tree calls its `pub fn`s, so each one
//! that `dead-pub` flags carries a suppression too.

use std::collections::HashMap;
use std::time::Instant;

/// Annotated wall-clock read (standalone suppression form).
// dz-lint: allow(dead-pub, "fixture: a public entry point with no in-tree caller")
pub fn stamp() -> Instant {
    // dz-lint: allow(wall-clock, "fixture: annotated measurement site")
    Instant::now()
}

/// Annotated hash iteration (trailing suppression form).
// dz-lint: allow(dead-pub, "fixture: a public entry point with no in-tree caller")
pub fn sum_warm(warm: &HashMap<usize, u64>) -> u64 {
    warm.values().copied().sum() // dz-lint: allow(hash-iter, "fixture: sum is order-independent")
}

/// Annotated float comparison.
// dz-lint: allow(dead-pub, "fixture: a public entry point with no in-tree caller")
pub fn is_idle(load_s: f64) -> bool {
    load_s == 0.0 // dz-lint: allow(float-eq, "fixture: exact sentinel, never computed")
}

/// Annotated thread spawn.
// dz-lint: allow(dead-pub, "fixture: a public entry point with no in-tree caller")
pub fn fan_out() {
    // dz-lint: allow(thread-spawn, "fixture: joins immediately, touches no shared state")
    std::thread::spawn(|| {}).join().ok();
}

/// Annotated unwrap (excluded from the budget tally, so the count
/// matches serve's zero budget).
pub fn first(xs: &[u64]) -> u64 {
    *xs.first().unwrap() // dz-lint: allow(unwrap-budget, "fixture: slice is non-empty by construction")
}

/// Annotated bench artifact mention (suppression resolves to the
/// string literal's line even though it is blank in the code view).
// dz-lint: allow(dead-pub, "fixture: a public entry point with no in-tree caller")
pub fn artifact_path() -> &'static str {
    // dz-lint: allow(bench-provenance, "fixture: path constant only; the writer adds provenance")
    "BENCH_clean.json"
}
