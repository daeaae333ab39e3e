//! `sweep-exact`: exact one-pass capacity curves over 16 log-spaced
//! capacities.
//!
//! Word-model `Engine::StackDist` sweeps of fft, triangularization and
//! matmul (forced off the analytic tier), `TrafficModel::device(8)`
//! sweeps of matmul and triangularization, and one triangularization
//! sweep long enough (n = 264, 1.8×10⁷ addresses) to write a checkpoint
//! under the default policy, the way long CLI sweeps run. The Mattson
//! engine does most of the work and the trace generator the rest; the
//! store and serve layers sit idle.
//!
//! The other sizes are small enough that the engine's state stays close
//! to the per-core L2 cache: DRAM-bound passes drift with the memory
//! traffic of whatever else shares the host, far more than cache-resident
//! ones do, and the benchmark must read the same on every run.

use balance_kernels::prelude::*;
use balance_machine::checkpoint::write_atomic;
use balance_machine::{CheckpointPolicy, LruCache, StackDistance, DEFAULT_CHECKPOINT_EVERY};

use super::{in_chunks, log_grid, Rng, WorkDir};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{timed, Bench, Checks, Options, Results, Scale};

/// Line size of the device-real sweeps, in words.
const LINE: u64 = 8;

/// How an operation's output is checked.
#[derive(Debug, Clone, Copy)]
enum Reference {
    /// Bit for bit against `Engine::Analytic`.
    Analytic,
    /// Against a direct word-granular `LruCache` replay at the checked
    /// capacities.
    Lru,
    /// Against a direct line-granular dirty-bit `LruCache` replay (with
    /// the end-of-run flush) at the checked capacities.
    LruDevice,
}

struct Op {
    label: &'static str,
    kernel: Box<dyn Kernel>,
    cfg: SweepConfig,
    addrs: u64,
    reference: Reference,
}

/// One pass: per operation, its wall time and result.
#[derive(Debug)]
pub struct Pass {
    ops: Vec<(f64, Result<SweepResult, KernelError>)>,
}

/// The workload's fixture.
pub struct SweepExact {
    ops: Vec<Op>,
    grid: Vec<usize>,
    checked: Vec<usize>,
    analytic_n: usize,
    ckpt: WorkDir,
}

fn word_cfg(n: usize, grid: &[usize]) -> SweepConfig {
    SweepConfig {
        n,
        memories: grid.to_vec(),
        engine: Engine::StackDist,
        ..SweepConfig::default()
    }
}

fn op(kernel: Box<dyn Kernel>, label: &'static str, cfg: SweepConfig, reference: Reference) -> Op {
    let addrs = kernel.access_trace(cfg.n).map_or(0, |t| t.len());
    Op {
        label,
        kernel,
        cfg,
        addrs,
        reference,
    }
}

fn same_curve(a: &SweepResult, b: &SweepResult) -> bool {
    a.runs == b.runs
        && a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            p.memory.to_bits() == q.memory.to_bits() && p.ratio.to_bits() == q.ratio.to_bits()
        })
}

impl SweepExact {
    /// Seeded inputs and fixtures.
    ///
    /// # Errors
    ///
    /// When the checkpoint directory cannot be created.
    pub fn setup(opts: &Options) -> Result<SweepExact, String> {
        let mut rng = Rng::new(opts.seed, 1);
        let full = opts.scale == Scale::Full;
        let (lo, hi) = if full { (4.0, 20.0) } else { (4.0, 11.0) };
        let grid = log_grid(&mut rng, lo, hi, 16);
        let checked = rng.pick(grid.len(), 2);
        let [fft_n, tri_n, mm_n, dev_n, ckpt_n, analytic_n] = if full {
            [1 << 14, 128, 96, 64, 264, 96]
        } else {
            [1 << 8, 16, 16, 12, 16, 12]
        };
        let ckpt = WorkDir::fresh(&opts.out_dir, "ckpt")?;
        let every = if full {
            DEFAULT_CHECKPOINT_EVERY
        } else {
            1 << 10
        };
        let device = |n: usize| SweepConfig {
            traffic: TrafficModel::device(LINE),
            ..word_cfg(n, &grid)
        };
        let checkpointed = SweepConfig {
            checkpoint: Some(CheckpointPolicy::every(ckpt.path(), every)),
            ..word_cfg(ckpt_n, &grid)
        };
        let ops = vec![
            op(Box::new(Fft), "fft", word_cfg(fft_n, &grid), Reference::Lru),
            op(
                Box::new(Triangularization),
                "triangularization",
                word_cfg(tri_n, &grid),
                Reference::Lru,
            ),
            op(
                Box::new(MatMul),
                "matmul",
                word_cfg(mm_n, &grid),
                Reference::Analytic,
            ),
            op(
                Box::new(MatMul),
                "matmul-device8",
                device(dev_n),
                Reference::LruDevice,
            ),
            op(
                Box::new(Triangularization),
                "triangularization-device8",
                device(dev_n),
                Reference::LruDevice,
            ),
            op(
                Box::new(Triangularization),
                "triangularization-checkpointed",
                checkpointed,
                Reference::Lru,
            ),
        ];
        Ok(SweepExact {
            ops,
            grid,
            checked,
            analytic_n,
            ckpt,
        })
    }

    /// The per-layer probes: each operation decomposed into its trace,
    /// engine and finalize steps on the same inputs, plus the LRU base,
    /// a checkpoint write, the checkpoint pairs and the analytic speedup.
    fn probes(&self, tracer: &Tracer, results: &mut Results, sweep_wall: &[Vec<f64>]) {
        let (mut trace_s, mut trace_addrs) = (0.0, 0u64);
        let (mut observe_s, mut lru_s, mut word_addrs) = (0.0, 0.0, 0u64);
        let (mut finalize_s, mut distinct) = (0.0, 0u64);
        let mut write_s = Vec::new();
        let mut self_s = 0.0;
        for (i, o) in self.ops.iter().enumerate() {
            tracer.next_group();
            let Some(t) = o.kernel.access_trace(o.cfg.n) else {
                continue;
            };
            let bound = t.addr_bound();
            let (secs, _) = timed(|| {
                tracer.span("kernels.trace", || {
                    std::hint::black_box(t.into_accesses().fold(0u64, |a, x| a ^ x.addr))
                })
            });
            trace_s += secs;
            trace_addrs += o.addrs;
            let accesses = o
                .kernel
                .access_trace(o.cfg.n)
                .map(AccessTrace::into_accesses);
            let mut parts = secs;
            if o.cfg.traffic.is_word_granular_read_priced() {
                let mut sd = StackDistance::with_address_bound(bound);
                let mut lru = LruCache::with_address_bound(self.grid[self.checked[0]], 1, bound);
                in_chunks(accesses.into_iter().flatten().map(|a| a.addr), |chunk| {
                    let (t, ()) = timed(|| {
                        tracer.span("machine.stackdist.observe", || {
                            sd.observe_trace(chunk.iter().copied());
                        });
                    });
                    observe_s += t;
                    parts += t;
                    let (t, _) = timed(|| {
                        tracer.span("machine.cache.lru", || lru.run_trace(chunk.iter().copied()))
                    });
                    lru_s += t;
                });
                word_addrs += o.addrs;
                distinct += sd.distinct();
                if o.cfg.checkpoint.is_some() {
                    let path = self.ckpt.path().join("probe.ckpt");
                    let (t, written) = timed(|| {
                        tracer.span("machine.checkpoint.write", || {
                            write_atomic(&path, &sd.snapshot())
                        })
                    });
                    if written.is_ok() {
                        write_s.push(t);
                    }
                    let _ = std::fs::remove_file(&path);
                }
                let (t, profile) =
                    timed(|| tracer.span("machine.stackdist.finalize", || sd.into_profile()));
                std::hint::black_box(profile);
                finalize_s += t;
                parts += t;
            } else {
                let mut sd = StackDistance::with_address_bound(bound.div_ceil(LINE).max(1));
                in_chunks(accesses.into_iter().flatten(), |chunk| {
                    let (t, ()) = timed(|| {
                        tracer.span("machine.stackdist.observe_tagged", || {
                            sd.observe_tagged_trace(chunk.iter().copied(), LINE);
                        });
                    });
                    parts += t;
                });
                let (t, profile) = timed(|| {
                    tracer.span("machine.stackdist.finalize", || {
                        sd.into_traffic_profile(LINE)
                    })
                });
                std::hint::black_box(profile);
                finalize_s += t;
                parts += t;
            }
            self_s += median(&sweep_wall[i]) - parts;
        }
        results.value(
            "kernels.trace.ns_per_addr",
            trace_s * 1e9 / trace_addrs as f64,
        );
        let sd_ns = observe_s * 1e9 / word_addrs as f64;
        let lru_ns = lru_s * 1e9 / word_addrs as f64;
        results.value("machine.stackdist.ns_per_addr", sd_ns);
        results.value("machine.cache.lru_ns_per_addr", lru_ns);
        results.value("machine.stackdist.vs_lru_ratio", sd_ns / lru_ns);
        results.value("machine.stackdist.finalize_s", finalize_s);
        results.value("machine.stackdist.distinct", distinct as f64);
        results.samples("machine.checkpoint.write_s", &write_s);
        results.value("kernels.sweep.self_s", self_s);

        // Checkpoint overhead: the default policy against none on the same
        // sweep, in pairs whose order alternates.
        let ckpt = &self.ops[self.ops.len() - 1];
        let plain = SweepConfig {
            checkpoint: None,
            ..ckpt.cfg.clone()
        };
        let mut overhead = Vec::new();
        let mut writes = 0;
        for pair in 0..4 {
            tracer.next_group();
            let sweep = |cfg: &SweepConfig| {
                timed(|| {
                    tracer.span("kernels.sweep", || {
                        capacity_sweep(ckpt.kernel.as_ref(), cfg)
                    })
                })
            };
            let ((a, _), (b, r)) = if pair % 2 == 0 {
                (sweep(&plain), sweep(&ckpt.cfg))
            } else {
                let b = sweep(&ckpt.cfg);
                (sweep(&plain), b)
            };
            overhead.push(b / a - 1.0);
            if let Some(p) = r.ok().and_then(|r| r.provenance) {
                writes = p.checkpoints_written;
            }
        }
        results.samples("machine.checkpoint.overhead_frac", &overhead);
        results.value("machine.checkpoint.writes", writes as f64);

        // Analytic tier against the one-pass engine on matmul.
        let cfg = word_cfg(self.analytic_n, &self.grid);
        let analytic = cfg.clone().with_engine(Engine::Analytic);
        tracer.next_group();
        let mut fast = Vec::new();
        for _ in 0..200 {
            let (t, _) = timed(|| {
                tracer.span("kernels.sweep.analytic", || {
                    capacity_sweep(&MatMul, &analytic)
                })
            });
            fast.push(t);
        }
        let fast = median(&fast);
        let mut speedup = Vec::new();
        for _ in 0..3 {
            let (t, _) = timed(|| tracer.span("kernels.sweep", || capacity_sweep(&MatMul, &cfg)));
            speedup.push(t / fast);
        }
        results.samples("kernels.sweep.analytic_speedup", &speedup);
    }
}

impl Bench for SweepExact {
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
        let Some(first) = passes.first() else {
            return;
        };
        // Every operation of every pass: it ran, and it repeats the first
        // pass bit for bit.
        for pass in passes {
            for (o, ((_, r), (_, r0))) in self.ops.iter().zip(pass.ops.iter().zip(&first.ops)) {
                match (r, r0) {
                    (Ok(r), Ok(r0)) => checks.record(same_curve(r, r0), || {
                        format!("{} differs between passes", o.label)
                    }),
                    (Err(e), _) | (_, Err(e)) => checks.error(format!("{}: {e}", o.label)),
                }
            }
        }
        let mut perturb = perturb;
        for (o, (_, r)) in self.ops.iter().zip(&first.ops) {
            let Ok(r) = r else { continue };
            let n = o.cfg.n;
            if o.cfg.checkpoint.is_some() {
                let wrote = r.provenance.as_ref().map_or(0, |p| p.checkpoints_written);
                checks.record(wrote >= 1, || format!("{} wrote no checkpoint", o.label));
            }
            match o.reference {
                Reference::Analytic => {
                    let reference = capacity_sweep(
                        o.kernel.as_ref(),
                        &o.cfg.clone().with_engine(Engine::Analytic),
                    );
                    match reference {
                        Ok(a) => checks.record(same_curve(r, &a), || {
                            format!("{} n={n} differs from Engine::Analytic", o.label)
                        }),
                        Err(e) => checks.error(format!("{} analytic reference: {e}", o.label)),
                    }
                }
                Reference::Lru | Reference::LruDevice => {
                    for &i in &self.checked {
                        let m = self.grid[i];
                        let Some(trace) = o.kernel.access_trace(n) else {
                            checks.error(format!("{} has no trace at n={n}", o.label));
                            continue;
                        };
                        let bound = trace.addr_bound();
                        let (mut want_read, want_wb) = if matches!(o.reference, Reference::Lru) {
                            let mut lru = LruCache::with_address_bound(m, 1, bound);
                            (lru.run_trace(trace.into_addrs()), 0)
                        } else {
                            let lines = m / LINE as usize;
                            let mut lru = LruCache::with_address_bound(lines, LINE, bound);
                            for a in trace.into_accesses() {
                                lru.access_tagged(a);
                            }
                            lru.flush_dirty();
                            (lru.miss_words(), lru.writeback_words())
                        };
                        if perturb {
                            want_read += 1;
                            perturb = false;
                        }
                        let got = r.runs.iter().find(|run| run.m == m).map(|run| {
                            let c = &run.execution.cost;
                            (c.read_at(0).unwrap_or(0), c.writeback_at(0).unwrap_or(0))
                        });
                        checks.record(got == Some((want_read, want_wb)), || {
                            format!("{} n={n} M={m}: sweep {got:?}, LRU replay ({want_read}, {want_wb})", o.label)
                        });
                    }
                }
            }
        }
    }

    fn layers(&mut self, passes: &[(bool, Pass)], tracer: &Tracer, results: &mut Results) {
        let addrs: u64 = self.ops.iter().map(|o| o.addrs).sum();
        let points: usize = passes.first().map_or(0, |(_, p)| {
            p.ops
                .iter()
                .map(|(_, r)| r.as_ref().map_or(0, |r| r.points.len()))
                .sum()
        });
        results.value("kernels.trace.addr", addrs as f64);
        results.value("kernels.sweep.points", points as f64);
        if !tracer.is_on() {
            return;
        }
        let mut wall = vec![Vec::new(); self.ops.len()];
        for (_, p) in passes {
            for (i, (t, _)) in p.ops.iter().enumerate() {
                wall[i].push(*t);
            }
        }
        self.probes(tracer, results, &wall);
    }
}
