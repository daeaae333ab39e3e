//! `simulate`: the paper's own measurement. `intensity_sweep_par` with
//! `Verify::auto` runs the 8 paper kernels and the 3 extensions over 11
//! capacities each: the explicit decomposition schemes on the counting
//! PE. It is the only workload that runs `machine::{pe, memory, store}`,
//! the blocking schemes, `verify` and `core::fit`; it runs no trace and
//! no engine.

use balance_core::fit::fit_best;
use balance_kernels::prelude::*;

use super::{log_grid, Rng};
use crate::trace::Tracer;
use crate::{timed, Bench, Checks, Options, Results, Scale};

/// Problem size per kernel (registry order). Every point's arrays stay
/// under about 1 MiB, so `peak_rss_mb` does not depend on which points
/// the two workers happen to overlap or on how the allocator reuses the
/// memory they free.
const FULL_N: [(&str, usize); 11] = [
    ("matmul", 200),
    ("triangularization", 224),
    ("grid2d", 32),
    ("grid3d", 16),
    ("fft", 1 << 15),
    ("sort", 1 << 15),
    ("matvec", 256),
    ("trisolve", 320),
    ("convolution", 50_000),
    ("transpose", 256),
    ("multi_matvec", 256),
];

struct Op {
    kernel: Box<dyn Kernel>,
    cfg: SweepConfig,
}

type Sweep = (f64, Result<SweepResult, KernelError>);

/// One pass: per kernel, the sweep and whether its curve could be fitted.
#[derive(Debug)]
pub struct Pass {
    sweeps: Vec<Sweep>,
    fits: Vec<bool>,
}

/// The workload's fixture.
pub struct Simulate {
    ops: Vec<Op>,
    /// The kernel whose parallel sweep is checked against the serial one.
    serial_pick: usize,
}

fn words_moved(pass: &Pass) -> u64 {
    pass.sweeps
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .flat_map(|r| r.runs.iter().map(|run| run.execution.cost.io_words()))
        .sum()
}

fn points(pass: &Pass) -> usize {
    pass.sweeps
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|r| r.points.len())
        .sum()
}

fn same_points(a: &SweepResult, b: &SweepResult) -> bool {
    a.runs == b.runs
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(p, q)| p.ratio.to_bits() == q.ratio.to_bits())
}

impl Simulate {
    /// Seeded inputs and fixtures.
    ///
    /// # Errors
    ///
    /// When a kernel is missing from the registry or its probe fails.
    pub fn setup(opts: &Options) -> Result<Simulate, String> {
        let mut rng = Rng::new(opts.seed, 5);
        let full = opts.scale == Scale::Full;
        let (lo, hi) = if full { (6.0, 16.0) } else { (6.0, 9.0) };
        let grid = log_grid(&mut rng, lo, hi, 11);
        let mut ops = Vec::new();
        for (name, n) in FULL_N {
            let kernel = registry_kernel(name).ok_or(format!("no kernel {name}"))?;
            let n = if full { n } else { small_n(name) };
            let cfg = SweepConfig {
                n,
                memories: grid.clone(),
                seed: opts.seed,
                verify: Verify::auto(n),
                ..SweepConfig::default()
            };
            ops.push(Op { kernel, cfg });
        }
        let serial_pick = rng.below(ops.len());
        Ok(Simulate { ops, serial_pick })
    }

    /// The per-layer probes: the serial executor on every kernel, and
    /// every point again under `Verify::None`.
    fn probes(&self, tracer: &Tracer, results: &mut Results, par_s: f64) {
        let mut serial_s = 0.0;
        let (mut verified_s, mut bare_s) = (0.0, 0.0);
        let mut point_ms = Vec::new();
        for o in &self.ops {
            tracer.next_group();
            let (t, r) = timed(|| {
                tracer.span("kernels.sweep.serial", || {
                    intensity_sweep(o.kernel.as_ref(), &o.cfg)
                })
            });
            serial_s += t;
            let Ok(r) = r else { continue };
            verified_s += t;
            for run in &r.runs {
                let (t, _) = timed(|| {
                    tracer.span("kernels.run", || {
                        o.kernel.run_with(o.cfg.n, run.m, o.cfg.seed, Verify::None)
                    })
                });
                bare_s += t;
                point_ms.push(t * 1e3);
            }
        }
        results.samples("kernels.run.point_ms", &point_ms);
        results.value("kernels.verify.share", 1.0 - bare_s / verified_s);
        results.value("kernels.sweep.par_speedup", serial_s / par_s);
        let fit_us: Vec<f64> = tracer
            .durations("core.fit")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        results.samples("core.fit.us", &fit_us);
    }
}

fn small_n(name: &str) -> usize {
    match name {
        "fft" | "sort" | "matvec" | "trisolve" | "multi_matvec" => 64,
        "convolution" => 128,
        "grid3d" => 4,
        _ => 8,
    }
}

impl Bench for Simulate {
    type Pass = Pass;

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let mut sweeps = Vec::with_capacity(self.ops.len());
        let mut fits = Vec::with_capacity(self.ops.len());
        for o in &self.ops {
            tracer.next_group();
            let (t, r) = timed(|| {
                tracer.span("kernels.sweep.par", || {
                    intensity_sweep_par(o.kernel.as_ref(), &o.cfg)
                })
            });
            let fit = r
                .as_ref()
                .is_ok_and(|r| tracer.span("core.fit", || fit_best(&r.points)).is_ok());
            sweeps.push((t, r));
            fits.push(fit);
        }
        Pass { sweeps, fits }
    }

    fn pass_times(&self, pass: &Pass) -> (f64, f64) {
        let wall: f64 = pass.sweeps.iter().map(|(t, _)| t).sum();
        (wall, points(pass) as f64 / wall)
    }

    fn check(&mut self, passes: &[Pass], perturb: bool, checks: &mut Checks) {
        let Some(first) = passes.first() else { return };
        for pass in passes {
            for (o, (((_, r), fit), (_, r0))) in self
                .ops
                .iter()
                .zip(pass.sweeps.iter().zip(&pass.fits).zip(&first.sweeps))
            {
                let name = o.kernel.name();
                match (r, r0) {
                    // A point that fails kernel verification fails the sweep.
                    (Ok(r), Ok(r0)) => {
                        checks.record(r.points.len() == o.cfg.memories.len(), || {
                            format!(
                                "{name}: {} of {} points",
                                r.points.len(),
                                o.cfg.memories.len()
                            )
                        });
                        checks.record(same_points(r, r0), || {
                            format!("{name} differs between passes")
                        });
                    }
                    (Err(e), _) | (_, Err(e)) => checks.error(format!("{name}: {e}")),
                }
                checks.record(*fit, || format!("{name}: fit failed"));
            }
        }
        let o = &self.ops[self.serial_pick];
        match (
            intensity_sweep(o.kernel.as_ref(), &o.cfg),
            &first.sweeps[self.serial_pick].1,
        ) {
            (Ok(mut serial), Ok(par)) => {
                if perturb {
                    if let Some(p) = serial.points.first_mut() {
                        p.ratio += 1.0;
                    }
                }
                checks.record(same_points(&serial, par), || {
                    format!(
                        "{}: intensity_sweep_par differs from intensity_sweep",
                        o.kernel.name()
                    )
                });
            }
            (Err(e), _) => checks.error(format!("{} serial: {e}", o.kernel.name())),
            (_, Err(_)) => {}
        }
    }

    fn layers(&mut self, passes: &[(bool, Pass)], tracer: &Tracer, results: &mut Results) {
        let Some((_, first)) = passes.first() else {
            return;
        };
        results.value("kernels.sweep.points", points(first) as f64);
        results.value("machine.pe.words_moved", words_moved(first) as f64);
        if tracer.is_on() {
            let par: Vec<f64> = passes
                .iter()
                .filter(|(t, _)| !t)
                .map(|(_, p)| self.pass_times(p).0)
                .collect();
            self.probes(tracer, results, crate::stats::median(&par));
        }
    }
}
