//! `sweep-scale`: the tiers users pick for traces too big for the serial
//! engine. `Engine::Sampled { shift: 4 }` (SHARDS sampling at rate 1/16)
//! and `Engine::StackDistPar { threads: 2 }` on naive matmul at n = 192
//! (2.1×10⁷ addresses over 1.1×10⁵ words) and matvec at n = 2048
//! (8.4×10⁶ addresses over a 4.2×10⁶-word address space). Both kernels
//! have a closed-form curve, which is the reference. In the sampled tier
//! the trace generator is a large share of the wall time, and matvec's
//! large address space makes engine memory visible in `peak_rss_mb`.

use balance_kernels::prelude::*;
use balance_machine::{segmented_profile_of, CapacityProfile, SampledStackDistance, StackDistance};

use super::{in_chunks, log_grid, Rng};
use crate::trace::Tracer;
use crate::{timed, Bench, Checks, Options, Results, Scale};

/// Sampling-rate exponent of the sampled tier (rate 1/16).
const SHIFT: u32 = 4;
/// Worker threads of the segmented tier.
const THREADS: usize = 2;

struct Op {
    kernel: Box<dyn Kernel>,
    cfg: SweepConfig,
    addrs: u64,
}

/// One pass: per operation, its wall time and result.
#[derive(Debug)]
pub struct Pass {
    ops: Vec<(f64, Result<SweepResult, KernelError>)>,
}

/// The workload's fixture.
pub struct SweepScale {
    ops: Vec<Op>,
    /// Closed-form curve per operation, computed once on demand.
    references: Option<Vec<Result<SweepResult, KernelError>>>,
}

impl SweepScale {
    /// Seeded inputs and fixtures.
    ///
    /// # Errors
    ///
    /// When a kernel is missing from the registry.
    pub fn setup(opts: &Options) -> Result<SweepScale, String> {
        let mut rng = Rng::new(opts.seed, 2);
        let full = opts.scale == Scale::Full;
        let (lo, hi) = if full { (10.0, 21.0) } else { (6.0, 10.0) };
        let grid = log_grid(&mut rng, lo, hi, 16);
        let (mm_n, mv_n) = if full { (192, 2048) } else { (24, 64) };
        let mut ops = Vec::new();
        for (name, n) in [("matmul", mm_n), ("matvec", mv_n)] {
            for engine in [
                Engine::Sampled { shift: SHIFT },
                Engine::StackDistPar { threads: THREADS },
            ] {
                let kernel = registry_kernel(name).ok_or(format!("no kernel {name}"))?;
                let cfg = SweepConfig {
                    n,
                    memories: grid.clone(),
                    engine,
                    ..SweepConfig::default()
                };
                let addrs = kernel.access_trace(n).map_or(0, |t| t.len());
                ops.push(Op { kernel, cfg, addrs });
            }
        }
        Ok(SweepScale {
            ops,
            references: None,
        })
    }

    fn references(&mut self) -> &[Result<SweepResult, KernelError>] {
        let ops = &self.ops;
        self.references.get_or_insert_with(|| {
            ops.iter()
                .map(|o| {
                    capacity_sweep(
                        o.kernel.as_ref(),
                        &o.cfg.clone().with_engine(Engine::Analytic),
                    )
                })
                .collect()
        })
    }

    /// Largest relative I/O error of each sampled operation's curve
    /// against the closed form over the grid.
    fn sampled_errors(&mut self, pass: &Pass) -> Vec<(usize, f64)> {
        let sampled: Vec<usize> = (0..self.ops.len())
            .filter(|&i| matches!(self.ops[i].cfg.engine, Engine::Sampled { .. }))
            .collect();
        let refs = self.references();
        sampled
            .into_iter()
            .filter_map(|i| match (&pass.ops[i].1, &refs[i]) {
                (Ok(got), Ok(want)) => Some((i, max_rel_err(got, want))),
                _ => None,
            })
            .collect()
    }

    /// The per-layer probes: the generator drained alone, the sampled
    /// engine on pre-generated chunks, and the segmented tier against the
    /// serial engine on the same trace.
    fn probes(&self, tracer: &Tracer, results: &mut Results) {
        let (mut trace_s, mut trace_addrs) = (0.0, 0u64);
        let (mut sampled_s, mut kept, mut distinct) = (0.0, 0u64, 0u64);
        let (mut seg_s, mut serial_s) = (0.0, 0.0);
        for o in self
            .ops
            .iter()
            .filter(|o| matches!(o.cfg.engine, Engine::Sampled { .. }))
        {
            let (k, n) = (o.kernel.as_ref(), o.cfg.n);
            let Some(t) = k.access_trace(n) else { continue };
            let bound = t.addr_bound();
            tracer.next_group();
            let (secs, _) = timed(|| {
                tracer.span("kernels.trace", || {
                    std::hint::black_box(t.into_addrs().fold(0u64, |a, x| a ^ x))
                })
            });
            trace_s += secs;
            trace_addrs += o.addrs;

            let mut sampled = SampledStackDistance::with_address_bound(SHIFT, bound);
            let addrs = k.access_trace(n).map(AccessTrace::into_addrs);
            in_chunks(addrs.into_iter().flatten(), |chunk| {
                let (t, ()) = timed(|| {
                    tracer.span("machine.sampling.observe", || {
                        sampled.observe_trace(chunk.iter().copied())
                    });
                });
                sampled_s += t;
            });
            kept += sampled.sampled_distinct();
            std::hint::black_box(sampled.into_profile());

            tracer.next_group();
            let len = o.addrs;
            let (t, seg) = timed(|| {
                tracer.span("machine.segmented", || {
                    segmented_profile_of(len, Some(bound), THREADS, |s, e| {
                        let start = usize::try_from(s).unwrap_or(usize::MAX);
                        let take = usize::try_from(e - s).unwrap_or(usize::MAX);
                        k.access_trace(n)
                            .map(AccessTrace::into_addrs)
                            .into_iter()
                            .flatten()
                            .skip(start)
                            .take(take)
                    })
                })
            });
            seg_s += t;
            let (t, serial): (f64, CapacityProfile) = timed(|| {
                tracer.span("machine.stackdist.serial", || {
                    StackDistance::profile_of_bounded(
                        k.access_trace(n)
                            .map(AccessTrace::into_addrs)
                            .into_iter()
                            .flatten(),
                        bound,
                    )
                })
            });
            serial_s += t;
            distinct += serial.distinct_addresses();
            std::hint::black_box((seg, serial));
        }
        results.value(
            "kernels.trace.ns_per_addr",
            trace_s * 1e9 / trace_addrs as f64,
        );
        results.value(
            "machine.sampling.ns_per_addr",
            sampled_s * 1e9 / trace_addrs as f64,
        );
        results.value("machine.sampling.kept_frac", kept as f64 / distinct as f64);
        results.value("machine.segmented.wall_s", seg_s);
        results.value("machine.segmented.speedup_vs_serial", serial_s / seg_s);
    }
}

fn max_rel_err(got: &SweepResult, want: &SweepResult) -> f64 {
    got.runs
        .iter()
        .zip(&want.runs)
        .map(|(g, w)| {
            let (g, w) = (g.execution.cost.io_words(), w.execution.cost.io_words());
            g.abs_diff(w) as f64 / w.max(1) as f64
        })
        .fold(0.0, f64::max)
}

fn same_curve(a: &SweepResult, b: &SweepResult) -> bool {
    a.runs == b.runs
}

impl Bench for SweepScale {
    type Pass = Pass;

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let ops = self
            .ops
            .iter()
            .map(|o| {
                tracer.next_group();
                timed(|| {
                    tracer.span("kernels.sweep", || {
                        capacity_sweep(o.kernel.as_ref(), &o.cfg)
                    })
                })
            })
            .collect();
        Pass { ops }
    }

    fn pass_times(&self, pass: &Pass) -> (f64, f64) {
        let wall: f64 = pass.ops.iter().map(|(t, _)| t).sum();
        let addrs: u64 = self.ops.iter().map(|o| o.addrs).sum();
        (wall, addrs as f64 / wall)
    }

    fn check(&mut self, passes: &[Pass], perturb: bool, checks: &mut Checks) {
        let Some(first) = passes.first() else { return };
        for pass in passes {
            for (i, ((_, r), (_, r0))) in pass.ops.iter().zip(&first.ops).enumerate() {
                let label = engine_spec(self.ops[i].cfg.engine);
                match (r, r0) {
                    (Ok(r), Ok(r0)) => checks.record(same_curve(r, r0), || {
                        format!("{label} differs between passes")
                    }),
                    (Err(e), _) | (_, Err(e)) => checks.error(format!("{label}: {e}")),
                }
            }
        }
        let labels: Vec<String> = self
            .ops
            .iter()
            .map(|o| {
                format!(
                    "{} n={} {}",
                    o.kernel.name(),
                    o.cfg.n,
                    engine_spec(o.cfg.engine)
                )
            })
            .collect();
        let sampled: Vec<bool> = self
            .ops
            .iter()
            .map(|o| matches!(o.cfg.engine, Engine::Sampled { .. }))
            .collect();
        let mut perturb = perturb;
        for (i, label) in labels.iter().enumerate() {
            let mut want = match &self.references()[i] {
                Ok(w) => w.clone(),
                Err(e) => {
                    checks.error(format!("{label} closed form: {e}"));
                    continue;
                }
            };
            let Ok(got) = &first.ops[i].1 else { continue };
            if sampled[i] {
                // The sampled tier is approximate; its error against the
                // closed form is reported as machine.sampling.err_ppm.
                // Checked here: one point per capacity, and I/O
                // non-increasing in M, as on any LRU curve.
                let io: Vec<u64> = got
                    .runs
                    .iter()
                    .map(|r| r.execution.cost.io_words())
                    .collect();
                let ok = got.runs.len() == want.runs.len() && io.windows(2).all(|w| w[1] <= w[0]);
                checks.record(ok, || format!("{label}: malformed sampled curve {io:?}"));
            } else {
                if std::mem::take(&mut perturb) {
                    want.runs.pop();
                }
                checks.record(same_curve(got, &want), || {
                    format!("{label} differs from the closed form")
                });
            }
        }
    }

    fn layers(&mut self, passes: &[(bool, Pass)], tracer: &Tracer, results: &mut Results) {
        let addrs: u64 = self.ops.iter().map(|o| o.addrs).sum();
        results.value("kernels.trace.addr", addrs as f64);
        if let Some((_, first)) = passes.first() {
            let points: usize = first
                .ops
                .iter()
                .map(|(_, r)| r.as_ref().map_or(0, |r| r.points.len()))
                .sum();
            results.value("kernels.sweep.points", points as f64);
            let errs: Vec<f64> = self
                .sampled_errors(first)
                .into_iter()
                .map(|(_, e)| e)
                .collect();
            results.value(
                "machine.sampling.err_ppm",
                errs.iter().copied().fold(0.0, f64::max) * 1e6,
            );
        }
        if tracer.is_on() {
            self.probes(tracer, results);
        }
    }
}
