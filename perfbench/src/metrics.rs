//! The metric catalogue: every metric the benchmark reports, its unit,
//! which way is better, which workloads report it, and which end-to-end
//! metric it should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the tests hold the two in step.

use crate::Workload::{self, Simulate, StoreServe, SweepExact, SweepScale};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Workloads that load the layer and report a measured value. Every
    /// other workload reports 0 for a per-layer metric (the layer did no
    /// work there).
    pub workloads: &'static [Workload],
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const ALL: &[Workload] = &[SweepExact, SweepScale, StoreServe, Simulate];
const SWEEPS: &[Workload] = &[SweepExact, SweepScale];

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        workloads,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from the untraced run.
/// The times and rates are scaled to the reference host (see
/// [`crate::host`]).
///
/// * `setup_s`: median time of one set-up (fixture plus warm-up pass).
/// * `batch_s`: median wall time of one pass of the workload's batch
///   work. sweep-exact and sweep-scale: every sweep of the pass.
///   store-serve: the fresh build under both traffic models, plus `fsck`,
///   plus the resumed build. simulate: the eleven `intensity_sweep_par`
///   calls.
/// * `rate_per_s`: what the workload delivers per second. Sweeps: trace
///   addresses turned into checked curves. store-serve: queries answered
///   in a closed loop by one client. simulate: verified intensity points.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, ALL, "itself"),
    def("batch_s", "s", Lower, ALL, "itself"),
    def("rate_per_s", "1/s", Higher, ALL, "itself"),
    def("peak_rss_mb", "MiB", Lower, ALL, "itself"),
];

/// Per-layer metrics, reported by the traced run, grouped by module.
pub const PER_LAYER: &[MetricDef] = &[
    // kernels.trace: the generator drained alone.
    def(
        "kernels.trace.addr",
        "count",
        Lower,
        SWEEPS,
        "rate_per_s@sweep-scale, rate_per_s@sweep-exact",
    ),
    def(
        "kernels.trace.ns_per_addr",
        "ns",
        Lower,
        SWEEPS,
        "rate_per_s@sweep-scale, rate_per_s@sweep-exact",
    ),
    // machine.stackdist: the Mattson engine on pre-generated chunks.
    def(
        "machine.stackdist.ns_per_addr",
        "ns",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact; none on store-serve",
    ),
    def(
        "machine.stackdist.finalize_s",
        "s",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    def(
        "machine.stackdist.distinct",
        "count",
        Lower,
        &[SweepExact],
        "none (input property of sweep-exact)",
    ),
    def(
        "machine.stackdist.vs_lru_ratio",
        "ratio",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    // machine.cache: a plain direct-indexed LRU at one capacity.
    def(
        "machine.cache.lru_ns_per_addr",
        "ns",
        Lower,
        &[SweepExact],
        "none (base of machine.stackdist.vs_lru_ratio)",
    ),
    // machine.sampling: SHARDS sampling at rate 1/16.
    def(
        "machine.sampling.ns_per_addr",
        "ns",
        Lower,
        &[SweepScale],
        "rate_per_s@sweep-scale",
    ),
    def(
        "machine.sampling.kept_frac",
        "fraction",
        Lower,
        &[SweepScale],
        "rate_per_s@sweep-scale",
    ),
    def(
        "machine.sampling.err_ppm",
        "ppm",
        Lower,
        &[SweepScale],
        "sampled accuracy on sweep-scale",
    ),
    // machine.segmented: the exact parallel Mattson tier.
    def(
        "machine.segmented.wall_s",
        "s",
        Lower,
        &[SweepScale],
        "rate_per_s@sweep-scale",
    ),
    def(
        "machine.segmented.speedup_vs_serial",
        "ratio",
        Higher,
        &[SweepScale],
        "rate_per_s@sweep-scale",
    ),
    // machine.checkpoint: the default policy against none.
    def(
        "machine.checkpoint.overhead_frac",
        "fraction",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    def(
        "machine.checkpoint.writes",
        "count",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    def(
        "machine.checkpoint.write_s",
        "s",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    // kernels.sweep: the capacity-sweep executor around the engines.
    def(
        "kernels.sweep.points",
        "count",
        Higher,
        &[SweepExact, SweepScale, Simulate],
        "none (input property)",
    ),
    def(
        "kernels.sweep.self_s",
        "s",
        Lower,
        &[SweepExact],
        "rate_per_s@sweep-exact",
    ),
    def(
        "kernels.sweep.analytic_speedup",
        "ratio",
        Higher,
        &[SweepExact],
        "none (standing bar >= 100)",
    ),
    // machine.profstore: the crash-safe image store.
    def(
        "machine.profstore.put_us",
        "us",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "machine.profstore.get_us",
        "us",
        Lower,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    def(
        "machine.profstore.encode_us",
        "us",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "machine.profstore.decode_us",
        "us",
        Lower,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    def(
        "machine.profstore.image_bytes",
        "count",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "machine.profstore.fsck_s",
        "s",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "machine.profstore.quarantined",
        "count",
        Lower,
        &[StoreServe],
        "none (must be 0)",
    ),
    // kernels.profservice: the self-healing fetch path.
    def(
        "kernels.profservice.fetch_hit_us",
        "us",
        Lower,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    def(
        "kernels.profservice.repair_us",
        "us",
        Lower,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    def(
        "kernels.profservice.recompute_analytic_us",
        "us",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "kernels.profservice.recompute_replay_s",
        "s",
        Lower,
        &[StoreServe],
        "batch_s@store-serve",
    ),
    def(
        "kernels.profservice.hit_ratio",
        "fraction",
        Higher,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    // bench.storecli: ServeSession::answer, warm p50 per query kind.
    def(
        "bench.storecli.io_us",
        "us",
        Lower,
        &[StoreServe],
        "rate_per_s@store-serve, serve_p50_us@store-serve",
    ),
    def(
        "bench.storecli.intensity_us",
        "us",
        Lower,
        &[StoreServe],
        "rate_per_s@store-serve, serve_p50_us@store-serve",
    ),
    def(
        "bench.storecli.balance_us",
        "us",
        Lower,
        &[StoreServe],
        "rate_per_s@store-serve, serve_p50_us@store-serve",
    ),
    def(
        "bench.storecli.binding_us",
        "us",
        Lower,
        &[StoreServe],
        "rate_per_s@store-serve, serve_p50_us@store-serve",
    ),
    def(
        "bench.storecli.cold_us",
        "us",
        Lower,
        &[StoreServe],
        "serve_p99_us@store-serve",
    ),
    // Serve latency of one ServeSession::answer call (untraced passes).
    def(
        "serve_p50_us",
        "us",
        Lower,
        &[StoreServe],
        "rate_per_s@store-serve",
    ),
    def("serve_p99_us", "us", Lower, &[StoreServe], "itself"),
    // machine.pe and the kernels' decomposition schemes.
    def(
        "kernels.run.point_ms",
        "ms",
        Lower,
        &[Simulate],
        "rate_per_s@simulate",
    ),
    def(
        "kernels.verify.share",
        "fraction",
        Lower,
        &[Simulate],
        "rate_per_s@simulate",
    ),
    def(
        "machine.pe.words_moved",
        "count",
        Lower,
        &[Simulate],
        "none (must repeat exactly)",
    ),
    def(
        "kernels.sweep.par_speedup",
        "ratio",
        Higher,
        &[Simulate],
        "rate_per_s@simulate",
    ),
    // core.fit: law fitting per curve.
    def(
        "core.fit.us",
        "us",
        Lower,
        &[Simulate],
        "rate_per_s@simulate",
    ),
    // Tracing itself: traced wall / untraced wall - 1.
    def(
        "trace_overhead_frac",
        "fraction",
        Lower,
        ALL,
        "none (cost of the traced run)",
    ),
];

/// Looks a metric up in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
