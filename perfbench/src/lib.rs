//! The repository benchmark.
//!
//! One process runs one workload: it sets up (seeded inputs and fixtures
//! plus one untimed warm-up pass, repeated and reported as the median
//! `setup_s`), then runs timed passes until `--seconds` is used up,
//! then checks every output against an independent reference outside
//! the timed region. Each set-up and each timed pass is scaled by a
//! calibration of the host's speed run right before it (see [`host`]).
//! With `--trace 1` the passes alternate untraced and traced, and
//! per-layer probes run after them; the per-layer metrics come from
//! those spans.
//!
//! The benchmark only calls the libraries' public APIs from outside.

pub mod host;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use host::Host;
use trace::Tracer;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact one-pass capacity curves (word model, device model,
    /// checkpointed).
    SweepExact,
    /// The sampled and segmented tiers on large traces.
    SweepScale,
    /// Profile-store build, fsck, resumed build, then closed-loop serve.
    StoreServe,
    /// The paper's explicit decomposition schemes on the counting PE.
    Simulate,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepExact,
        Workload::SweepScale,
        Workload::StoreServe,
        Workload::Simulate,
    ];

    /// The command-line spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepExact => "sweep-exact",
            Workload::SweepScale => "sweep-scale",
            Workload::StoreServe => "store-serve",
            Workload::Simulate => "simulate",
        }
    }

    /// Parses the command-line spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the benchmark's own (`Full`) or tiny ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny sizes with the same structure, for the benchmark's tests.
    Small,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Budget of the timed passes, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Offsets one reference value so its check must fail (the
    /// self-test of the reference checks).
    pub perturb_reference: bool,
    /// Directory for stores, checkpoints and reports.
    pub out_dir: PathBuf,
}

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Median of the samples (or the single measured value).
    pub value: f64,
    /// Number of samples behind `value`.
    pub samples: usize,
    /// First and third quartile of the samples.
    pub quartiles: (f64, f64),
}

/// Reference-check bookkeeping: operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (timed operations plus reference checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `what` describes it when it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.record(false, || what.to_string());
    }
}

/// Metrics collected by a run, with units from the catalogue.
#[derive(Debug, Default)]
pub struct Results {
    /// In the order they were reported.
    pub metrics: Vec<Metric>,
}

impl Results {
    /// Reports the median of `samples` under `name`.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        self.summary(
            name,
            stats::median(samples),
            samples.len(),
            stats::quartiles(samples),
        );
    }

    /// Reports a figure summarised elsewhere: its value, sample count and
    /// quartiles.
    ///
    /// # Panics
    ///
    /// When `name` is not in the catalogue (a bug in the benchmark).
    pub fn summary(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        quartiles: (f64, f64),
    ) {
        let def = metrics::find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit: def.unit,
            value,
            samples,
            quartiles,
        });
    }

    /// Reports one measured value (a count or a derived figure).
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.samples(name, &[value]);
    }

    /// The reported metric named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Reference-check totals.
    pub checks: Checks,
    /// Every metric measured.
    pub results: Results,
    /// Spans of the traced passes and probes.
    pub tracer: Tracer,
    /// Timed passes run (untraced, traced).
    pub passes: (usize, usize),
    /// The calibrations that scaled the timed end-to-end metrics.
    pub host: Host,
}

/// Wall time of `f`, in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Set-up repetitions behind `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Passes a timed loop runs at least, budget permitting or not.
pub const MIN_PASSES: usize = 3;

/// The contract every workload implements.
pub trait Bench {
    /// Per-pass record of what the pass produced.
    type Pass;

    /// One full pass of the workload's operations. `tracer` records spans
    /// around each call when it is on.
    fn pass(&mut self, tracer: &Tracer) -> Self::Pass;

    /// Wall time of the pass's batch part, and the rate (items per
    /// second) the pass delivered.
    fn pass_times(&self, pass: &Self::Pass) -> (f64, f64);

    /// Compares outputs against independent references (outside the
    /// timed region).
    fn check(&mut self, passes: &[Self::Pass], perturb: bool, checks: &mut Checks);

    /// Reports the workload's own end-to-end detail (printed, not part of
    /// the result line) and, in the traced run, its per-layer
    /// metrics from the spans of the traced passes plus its probes.
    fn layers(&mut self, passes: &[(bool, Self::Pass)], tracer: &Tracer, results: &mut Results);
}

/// Runs one workload end to end.
///
/// # Errors
///
/// A one-line reason when the workload cannot be set up at all (for
/// example the output directory cannot be created).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    match opts.workload {
        Workload::SweepExact => drive(opts, workloads::sweep_exact::SweepExact::setup),
        Workload::SweepScale => drive(opts, workloads::sweep_scale::SweepScale::setup),
        Workload::StoreServe => drive(opts, workloads::store_serve::StoreServe::setup),
        Workload::Simulate => drive(opts, workloads::simulate::Simulate::setup),
    }
}

fn drive<B: Bench>(
    opts: &Options,
    setup: impl Fn(&Options) -> Result<B, String>,
) -> Result<Outcome, String> {
    let mut results = Results::default();
    let tracer = Tracer::new(opts.trace);
    let quiet = Tracer::new(false);
    // Set-up is everything before the first timed operation: the seeded
    // fixture and one untimed warm-up pass, which finishes lazy
    // initialisation and fills caches. Work moved out of the timed passes
    // into either shows here.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut host = Host::default();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let scale = host.calibrate();
        let (t, b) = timed(|| {
            setup(opts).map(|mut b| {
                let _ = b.pass(&quiet);
                b
            })
        });
        setups.push(t * scale);
        bench = Some(b?);
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    results.samples("setup_s", &setups);

    let mut passes: Vec<(bool, B::Pass)> = Vec::new();
    let mut walls = Vec::new();
    let mut scales = Vec::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    loop {
        let traced = opts.trace && passes.len() % 2 == 1;
        let scale = host.calibrate();
        let (t, p) = timed(|| bench.pass(if traced { &tracer } else { &quiet }));
        passes.push((traced, p));
        walls.push((traced, t));
        scales.push(scale);
        let untraced = walls.iter().filter(|(tr, _)| !tr).count();
        if untraced == MIN_PASSES && peak_rss == 0.0 {
            // After a fixed amount of work, so the figure does not depend
            // on how many passes the time budget allows.
            peak_rss = report::peak_rss_mib();
        }
        let enough = untraced >= MIN_PASSES && (!opts.trace || untraced < passes.len());
        let longest = walls.iter().map(|w| w.1).fold(0.0, f64::max);
        if enough && start.elapsed().as_secs_f64() + longest > opts.seconds {
            break;
        }
    }

    let (batch, rate): (Vec<f64>, Vec<f64>) = passes
        .iter()
        .zip(&scales)
        .filter(|((t, _), _)| !t)
        .map(|((_, p), scale)| {
            let (batch, rate) = bench.pass_times(p);
            (batch * scale, rate / scale)
        })
        .unzip();
    results.samples("batch_s", &batch);
    results.samples("rate_per_s", &rate);
    results.value("peak_rss_mb", peak_rss);

    if opts.trace {
        let median_wall = |traced: bool| {
            let w: Vec<f64> = walls
                .iter()
                .zip(&scales)
                .filter(|(w, _)| w.0 == traced)
                .map(|(w, scale)| w.1 * scale)
                .collect();
            stats::median(&w)
        };
        results.value(
            "trace_overhead_frac",
            median_wall(true) / median_wall(false) - 1.0,
        );
    }
    bench.layers(&passes, &tracer, &mut results);

    let mut checks = Checks::default();
    let traced = passes.iter().filter(|(t, _)| *t).count();
    let counts = (passes.len() - traced, traced);
    let all: Vec<B::Pass> = passes.into_iter().map(|(_, p)| p).collect();
    bench.check(&all, opts.perturb_reference, &mut checks);
    Ok(Outcome {
        checks,
        results,
        tracer,
        passes: counts,
        host,
    })
}
