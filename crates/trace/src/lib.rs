//! dz-trace: simulation-clock structured tracing, telemetry export, and
//! critical-path attribution for the DeltaZip simulators.
//!
//! Three pillars:
//!
//! 1. **Typed event log** — engines emit [`TraceEvent`]s into a bounded
//!    ring-buffer [`TraceLog`] through a [`Tracer`] handle that is free
//!    when disabled (a single `Option` check; the event constructor is a
//!    closure that never runs). Export with [`chrome::chrome_trace_json`]
//!    (Perfetto-loadable) or a [`prom::PromSnapshot`].
//! 2. **Gauge recorder** — [`GaugeSample`]s capture queue depth, batch
//!    occupancy, residency/warmth composition, and transfer-channel
//!    in-flight counts at event boundaries.
//! 3. **Critical-path attribution** — [`attrib`] decomposes each
//!    request's e2e into named causes and aggregates "where did the p99
//!    go" breakdowns; [`stats`] is the shared percentile/ratio math.
//!
//! Tracing-off runs are bit-identical to untraced builds: emission sites
//! only read simulation state, never mutate it.

#![warn(missing_docs)]

pub mod attrib;
pub mod chrome;
mod event;
pub mod prom;
pub mod stats;

pub use attrib::{AttributedRequest, CauseBreakdown, Causes, CAUSE_NAMES};
pub use chrome::{chrome_trace_json, write_chrome_trace, TraceTrack};
pub use event::{EvictTier, GaugeSample, ToppingKind, TraceEvent, TraceLog};
pub use prom::PromSnapshot;
pub use stats::StreamingQuantiles;

/// Tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum retained events (oldest dropped beyond this); gauge
    /// samples get the same bound.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

/// Cheap tracing handle held by engines. Disabled by default; when
/// disabled, [`Tracer::emit`] is a branch on a `None` and the event
/// closure never runs, so instrumented hot loops pay (essentially)
/// nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    log: Option<Box<TraceLog>>,
}

impl Tracer {
    /// A disabled tracer (the default for every engine).
    pub fn disabled() -> Self {
        Tracer { log: None }
    }

    /// An enabled tracer with a fresh bounded log.
    pub fn enabled(config: TraceConfig) -> Self {
        Tracer {
            log: Some(Box::new(TraceLog::with_capacity(config.capacity))),
        }
    }

    /// Records the event built by `f`, which is only invoked when the
    /// tracer is enabled.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(log) = self.log.as_mut() {
            log.push(f());
        }
    }

    /// Records the gauge sample built by `f`, only invoked when enabled.
    #[inline]
    pub fn gauge(&mut self, f: impl FnOnce() -> GaugeSample) {
        if let Some(log) = self.log.as_mut() {
            log.push_gauge(f());
        }
    }

    /// Borrows the log, if enabled.
    pub fn log(&self) -> Option<&TraceLog> {
        self.log.as_deref()
    }

    /// Takes the accumulated log, leaving the tracer disabled.
    pub fn take_log(&mut self) -> Option<TraceLog> {
        self.log.take().map(|b| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let mut t = Tracer::disabled();
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::FirstToken { id: 0, at: 0.0 }
        });
        assert!(!ran);
        assert!(t.take_log().is_none());
    }

    #[test]
    fn enabled_tracer_records_and_yields_log() {
        let mut t = Tracer::enabled(TraceConfig { capacity: 4 });
        t.emit(|| TraceEvent::FirstToken { id: 1, at: 2.0 });
        t.gauge(|| GaugeSample {
            at: 2.0,
            ..GaugeSample::default()
        });
        let log = t.take_log().expect("log");
        assert_eq!(log.len(), 1);
        assert_eq!(log.gauges().count(), 1);
        assert!(t.take_log().is_none(), "taking the log disables the tracer");
    }
}
