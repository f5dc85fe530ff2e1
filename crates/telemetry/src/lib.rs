//! `parp-telemetry`: the observability substrate for the PARP
//! workspace.
//!
//! Before it, the instrumentation had grown ad-hoc: the runtime's trie
//! cache kept private hit/miss counters, `AdmissionController` had its own
//! stats struct, and both `ProviderAggregate` and the gateway's
//! `Reputation` retained *every* latency sample in an unbounded
//! `Vec<u64>` that was fully re-sorted on each quantile query — a
//! memory and CPU wall for population-scale simulation. This crate
//! replaces all of that with one zero-dependency substrate:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic metrics behind
//!   cheap-clone `Arc` handles, so a hot loop increments without
//!   synchronisation beyond a relaxed atomic add.
//! * [`Histogram`] — a fixed-memory log-linear (HdrHistogram-style)
//!   latency histogram: ~2 significant digits, documented one-sided
//!   relative error ≤ 2⁻⁶ (1.5625%), O(buckets) quantiles, and a
//!   footprint that never grows with sample count.
//! * [`Registry`] — a labeled metric registry with a point-in-time
//!   [`MetricsSnapshot`] exportable
//!   as JSON or Prometheus text exposition.
//! * [`Tracer`] — request-lifecycle spans and instants stamped with
//!   the *simulated* clock, exportable as Chrome trace-event JSON that
//!   loads directly in Perfetto (`ui.perfetto.dev`).
//!
//! [`Telemetry`] bundles a registry and tracer into one cheap-clone
//! hub that `Network`, `Runtime` and `Gateway` all share, and
//! [`StageRecorder`] is the Arc-of-atomics scratch a `FullNode` uses
//! to report per-stage serve timings (crypto verify / multiproof /
//! response sign) without widening any protocol API.
//!
//! Metric naming convention: `parp_<subsystem>_<name>_<unit>`, e.g.
//! `parp_runtime_snapshot_cache_hits_total` or
//! `parp_net_exchange_latency_us`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
mod json;
pub mod metrics;
pub mod registry;
pub mod time;
pub mod trace;

pub use histogram::{Histogram, BUCKETS, RELATIVE_ERROR};
pub use metrics::{Counter, Gauge};
pub use registry::{HistogramSnapshot, MetricValue, MetricsSnapshot, Registry};
pub use time::{TimeSource, TimeStamp};
pub use trace::{ArgValue, TraceEvent, TracePhase, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One observability hub: a metric [`Registry`] plus a sim-clock
/// [`Tracer`]. Cheap to clone — all clones share the same underlying
/// state, so the network, runtime and gateway can each hold a handle.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Labeled metric registry (counters, gauges, histograms).
    pub registry: Registry,
    /// Request-lifecycle tracer (disabled until
    /// [`Tracer::set_enabled`] is called — recording a span on a
    /// disabled tracer is a no-op, which is what the overhead bench
    /// measures against).
    pub tracer: Tracer,
}

impl Telemetry {
    /// New hub with tracing disabled (metrics are always live).
    pub fn new() -> Self {
        Self::default()
    }

    /// New hub with tracing already enabled.
    pub fn with_tracing() -> Self {
        let t = Self::default();
        t.tracer.set_enabled(true);
        t
    }
}

/// Per-stage serve timings, shared as an `Arc` of atomics.
///
/// A `FullNode` (in `parp-core`) carries an optional recorder and
/// stamps wall-clock microseconds for the three expensive serve
/// stages — signature verification, multiproof construction, and
/// response signing — as it handles a request. The simulator reads
/// them back with [`StageRecorder::take`] after each exchange to emit
/// trace sub-spans, without `parp-core` ever learning about spans.
#[derive(Clone, Debug, Default)]
pub struct StageRecorder {
    inner: Arc<StageCells>,
}

#[derive(Debug, Default)]
struct StageCells {
    verify_us: AtomicU64,
    proof_us: AtomicU64,
    sign_us: AtomicU64,
}

/// One drained set of stage timings (wall-clock microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Time spent recovering/checking request signatures.
    pub verify_us: u64,
    /// Time spent building account multiproofs (and inclusion proofs).
    pub proof_us: u64,
    /// Time spent signing the response envelope.
    pub sign_us: u64,
}

impl StageRecorder {
    /// Fresh recorder with all stages at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to the verify stage (accumulates across calls in a batch).
    pub fn add_verify_us(&self, us: u64) {
        self.inner.verify_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Add to the proof-construction stage.
    pub fn add_proof_us(&self, us: u64) {
        self.inner.proof_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Add to the response-signing stage.
    pub fn add_sign_us(&self, us: u64) {
        self.inner.sign_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Drain the recorder: return the accumulated sample and reset all
    /// stages to zero, ready for the next exchange.
    pub fn take(&self) -> StageSample {
        StageSample {
            verify_us: self.inner.verify_us.swap(0, Ordering::Relaxed),
            proof_us: self.inner.proof_us.swap(0, Ordering::Relaxed),
            sign_us: self.inner.sign_us.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_recorder_accumulates_and_drains() {
        let r = StageRecorder::new();
        r.add_verify_us(10);
        r.add_verify_us(5);
        r.add_proof_us(7);
        r.add_sign_us(3);
        let s = r.take();
        assert_eq!(
            s,
            StageSample {
                verify_us: 15,
                proof_us: 7,
                sign_us: 3
            }
        );
        assert_eq!(r.take(), StageSample::default());
    }

    #[test]
    fn telemetry_clones_share_state() {
        let t = Telemetry::new();
        let c = t.registry.counter("parp_test_total", &[]);
        let t2 = t.clone();
        c.inc();
        assert_eq!(t2.registry.counter("parp_test_total", &[]).get(), 1);
        assert!(!t.tracer.enabled());
        t2.tracer.set_enabled(true);
        assert!(t.tracer.enabled());
    }
}
