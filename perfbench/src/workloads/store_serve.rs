//! `store-serve`: writes, then reads, on the profile store.
//!
//! Build half (timed as `batch_s`): a fresh store of the 11-kernel
//! registry × {16, 32, 64, 128} under both the word model and
//! `TrafficModel::device(8)`, then `fsck`, then the same build again,
//! which must skip every entry.
//!
//! Serve half (`rate_per_s`): a closed loop of one client. Each session
//! opens a fresh `ServeSession`, as one `balance serve --batch` process
//! does, and answers 2,000 queries. Every session touches all 44 grid
//! keys, so the share of first-touch queries is fixed at 2.2% and p99
//! always measures the same population. A fixed set of four keys outside
//! the built grid is spread over seeded sessions; each must be repaired
//! (miss → recompute → put), two with a closed form and two by replay.
//!
//! The traffic is synthetic, a design choice and not observed traffic:
//! the four query kinds (`io`, `intensity`, `balance`, `binding`) in
//! equal shares, key popularity Zipf with exponent 1 over a seeded
//! ranking of the session's keys, capacities log-uniform over 2^4..2^16,
//! balance ratios uniform over 0.5..8.0, and two-level `binding` ladders
//! of 64..256 and 4096..16384 words. The seed picks only the rankings,
//! the query order, the arguments and which sessions hold the repairs;
//! every seed touches the same keys.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

use balance_bench::storecli::ServeSession;
use balance_core::{HierarchySpec, LevelSpec, OpsPerSec, Words, WordsPerSec};
use balance_kernels::prelude::*;
use balance_machine::{
    decode_profile, encode_profile, CapacityProfile, FaultPlan, ProfilePayload, ProfileStore,
};
use balance_roofline::HierarchicalRoofline;

use super::{Rng, WorkDir};
use crate::stats::LogHistogram;
use crate::trace::Tracer;
use crate::{timed, Bench, Checks, Options, Results, Scale};

/// Compute roof of `binding` queries, op/s.
const PEAK: f64 = 1.0e9;
/// Line size of the device-real half of the store, in words.
const LINE: u64 = 8;
/// Kernels with a closed form, whose repairs the per-layer probes time.
const ANALYTIC_REPAIR: [&str; 4] = ["matmul", "matvec", "transpose", "sort"];
/// Keys outside the built grid, repaired once per pass each: two with a
/// closed form, two that need a replay.
const OFF_GRID: [(&str, usize); 4] = [
    ("matmul", 40),
    ("transpose", 41),
    ("triangularization", 20),
    ("triangularization", 23),
];
/// Every `SAMPLE_EVERY`-th answer (seeded offset) is checked against a
/// recomputed reference.
const SAMPLE_EVERY: usize = 50;

/// What a query asks, with its argument.
#[derive(Debug, Clone, Copy)]
enum Ask {
    /// Words moved at capacity `m`.
    Io(u64),
    /// Operations per word at capacity `m`.
    Intensity(u64),
    /// Smallest capacity reaching the ratio.
    Balance(f64),
    /// Binding level of a two-level hierarchy (level capacities).
    Binding(u64, u64),
}

#[derive(Debug, Clone, Copy)]
struct Query {
    ask: Ask,
    kernel: &'static str,
    n: usize,
    first_touch: bool,
    off_grid: bool,
}

impl Query {
    /// The query as a `balance serve` line.
    fn line(&self) -> String {
        let (k, n) = (self.kernel, self.n);
        match self.ask {
            Ask::Io(m) => format!("io {k} {n} {m}"),
            Ask::Intensity(m) => format!("intensity {k} {n} {m}"),
            Ask::Balance(ratio) => format!("balance {k} {n} {ratio}"),
            Ask::Binding(l1, l2) => format!("binding {k} {n} {l1}:1e8,{l2}:1e7"),
        }
    }

    fn span_name(&self) -> &'static str {
        if self.first_touch {
            return "bench.storecli.cold";
        }
        match self.ask {
            Ask::Io(_) => "bench.storecli.io",
            Ask::Intensity(_) => "bench.storecli.intensity",
            Ask::Balance(_) => "bench.storecli.balance",
            Ask::Binding(..) => "bench.storecli.binding",
        }
    }
}

#[derive(Debug, Default)]
struct Build {
    built: usize,
    skipped: usize,
    failed: Vec<String>,
}

#[derive(Debug)]
struct Session {
    wall: f64,
    /// (query index, answer) for the sampled queries.
    sampled: Vec<(usize, String)>,
    /// Answers that were `! ` diagnostics, with the query index.
    refused: Vec<(usize, String)>,
    /// First-touch answers whose provenance was not the expected one
    /// (hit on the grid, repaired miss off it).
    wrong_source: Vec<(usize, String)>,
    /// First touches served as store hits.
    first_hits: usize,
}

/// One pass: the build half and the serve sessions.
#[derive(Debug)]
pub struct Pass {
    build_s: f64,
    builds: Vec<(&'static str, Build)>,
    fsck: Result<(bool, usize, usize), String>,
    sessions: Vec<Session>,
    /// Sampled answers compared with the first pass's, and the ones that
    /// differed.
    repeats: (u64, Vec<String>),
}

/// The workload's fixture.
pub struct StoreServe {
    root: WorkDir,
    kernels: Vec<Box<dyn Kernel>>,
    grid: Vec<usize>,
    sessions: Vec<Vec<Query>>,
    sample_offset: usize,
    passes_run: usize,
    /// Latency (ns) of every answer of the timed untraced passes.
    latency: LogHistogram,
    /// The first pass's sampled answers, per session; later passes must
    /// repeat them.
    first_answers: Option<Vec<Vec<(usize, String)>>>,
}

fn zipf_pick(rng: &mut Rng, cumulative: &[f64]) -> usize {
    let total = cumulative.last().copied().unwrap_or(1.0);
    let x = rng.unit() * total;
    cumulative
        .partition_point(|&c| c <= x)
        .min(cumulative.len() - 1)
}

/// One query on `(kernel, n)`: one of the four kinds in equal shares,
/// with seeded arguments.
fn query(rng: &mut Rng, kernel: &'static str, n: usize) -> Query {
    let ask = match rng.below(4) {
        0 => Ask::Io(log_uniform_capacity(rng)),
        1 => Ask::Intensity(log_uniform_capacity(rng)),
        2 => Ask::Balance((5.0 + 75.0 * rng.unit()).round() / 10.0),
        _ => Ask::Binding(64 << rng.below(3), 4096 << rng.below(3)),
    };
    Query {
        ask,
        kernel,
        n,
        first_touch: false,
        off_grid: false,
    }
}

fn log_uniform_capacity(rng: &mut Rng) -> u64 {
    2f64.powf(4.0 + 12.0 * rng.unit()).round() as u64
}

/// The query streams of one pass: `sessions` sessions of `per_session`
/// queries each. Every session covers every grid key; each
/// [`OFF_GRID`] key goes to one seeded session.
fn streams(
    seed: u64,
    grid: &[usize],
    names: &[&'static str],
    sessions: usize,
    per_session: usize,
) -> Vec<Vec<Query>> {
    let mut rng = Rng::new(seed, 3);
    let grid_keys: Vec<(&'static str, usize)> = names
        .iter()
        .flat_map(|&k| grid.iter().map(move |&n| (k, n)))
        .collect();
    let holder: Vec<usize> = OFF_GRID.iter().map(|_| rng.below(sessions)).collect();
    (0..sessions)
        .map(|s| {
            let off: Vec<(&'static str, usize)> = OFF_GRID
                .iter()
                .zip(&holder)
                .filter(|(_, &h)| h == s)
                .map(|(&key, _)| key)
                .collect();
            let keys: Vec<(&'static str, usize)> = grid_keys.iter().chain(&off).copied().collect();
            // Zipf(1) popularity over the session's keys in seeded order.
            let order = rng.pick(keys.len(), keys.len());
            let mut cumulative = Vec::with_capacity(keys.len());
            let mut acc = 0.0;
            for r in 0..keys.len() {
                acc += 1.0 / (r + 1) as f64;
                cumulative.push(acc);
            }
            let mut stream: Vec<Query> = (0..per_session - keys.len())
                .map(|_| {
                    let (k, n) = keys[order[zipf_pick(&mut rng, &cumulative)]];
                    query(&mut rng, k, n)
                })
                .collect();
            // Every key appears at least once, at a seeded position.
            for &(k, n) in &keys {
                let at = rng.below(stream.len() + 1);
                stream.insert(at, query(&mut rng, k, n));
            }
            let mut seen = HashSet::new();
            for q in &mut stream {
                q.first_touch = seen.insert((q.kernel, q.n));
                q.off_grid = off.contains(&(q.kernel, q.n));
            }
            stream
        })
        .collect()
}

fn build(
    store: &ProfileStore,
    kernels: &[Box<dyn Kernel>],
    grid: &[usize],
    model: TrafficModel,
) -> Build {
    match build_store(store, kernels, grid, model, None, &FaultPlan::none()) {
        Ok(o) => Build {
            built: o.built,
            skipped: o.skipped,
            failed: o
                .failed
                .iter()
                .map(|(k, why)| format!("{k}: {why}"))
                .collect(),
        },
        Err(e) => Build {
            failed: vec![e.to_string()],
            ..Build::default()
        },
    }
}

impl StoreServe {
    /// Seeded inputs and fixtures.
    ///
    /// # Errors
    ///
    /// When the work directory cannot be created.
    pub fn setup(opts: &Options) -> Result<StoreServe, String> {
        let full = opts.scale == Scale::Full;
        let kernels = registry();
        let names: Vec<&'static str> = kernels.iter().map(|k| k.name()).collect();
        let grid = if full {
            vec![16, 32, 64, 128]
        } else {
            vec![16, 32]
        };
        let (sessions, per_session) = if full { (40, 2000) } else { (2, 200) };
        let sessions = streams(opts.seed, &grid, &names, sessions, per_session);
        let root = WorkDir::fresh(&opts.out_dir, "store")?;
        let mut rng = Rng::new(opts.seed, 4);
        Ok(StoreServe {
            root,
            kernels,
            grid,
            sessions,
            sample_offset: rng.below(SAMPLE_EVERY),
            passes_run: 0,
            latency: LogHistogram::default(),
            first_answers: None,
        })
    }

    fn serve(&mut self, store: &ProfileStore, index: usize, tracer: &Tracer) -> Session {
        let stream = &self.sessions[index];
        let latency = &mut self.latency;
        // The first pass of a fixture is the untimed warm-up.
        let record = !tracer.is_on() && self.passes_run > 1;
        let mut out = Session {
            wall: 0.0,
            sampled: Vec::new(),
            refused: Vec::new(),
            wrong_source: Vec::new(),
            first_hits: 0,
        };
        // The session's lines in one buffer, formatted before the clock
        // starts, as a batch file is written before `balance serve` reads it.
        let mut text = String::new();
        let mut ends = Vec::with_capacity(stream.len());
        for q in stream {
            text.push_str(&q.line());
            ends.push(text.len());
        }
        let mut answers = Vec::with_capacity(stream.len());
        let start = Instant::now();
        let mut session = ServeSession::new(store, TrafficModel::WORD, None, PEAK);
        let mut begin = 0;
        for (q, &end) in stream.iter().zip(&ends) {
            let line = &text[begin..end];
            begin = end;
            tracer.next_group();
            let t = Instant::now();
            let a = tracer.span(q.span_name(), || session.answer(line));
            let ns = t.elapsed().as_secs_f64() * 1e9;
            if record {
                latency.record(ns);
            }
            answers.push(a);
        }
        out.wall = start.elapsed().as_secs_f64();
        drop(session);
        for (i, (q, a)) in stream.iter().zip(answers).enumerate() {
            let a = a.unwrap_or_default();
            if a.starts_with("! ") {
                out.refused.push((i, a));
                continue;
            }
            if q.first_touch {
                let hit = a.contains("[hit [");
                out.first_hits += usize::from(hit);
                let expected = if q.off_grid {
                    a.contains("[repaired(miss) [")
                } else {
                    hit
                };
                if !expected {
                    out.wrong_source.push((i, a.clone()));
                }
            }
            if i % SAMPLE_EVERY == self.sample_offset {
                out.sampled.push((i, a));
            }
        }
        out
    }

    /// The per-layer probes on a scratch store: recompute, encode,
    /// decode, put, get and fetch for every grid key under both models,
    /// plus repairs of off-grid keys.
    fn probes(&self, tracer: &Tracer, results: &mut Results) {
        let Ok(dir) = WorkDir::fresh(self.root.path(), "probe") else {
            return;
        };
        let Ok(store) = ProfileStore::open(dir.path()) else {
            return;
        };
        let service = ProfileService::new(&store);
        let mut image_bytes = 0u64;
        let (mut analytic_us, mut replay_s) = (Vec::new(), Vec::new());
        for model in [TrafficModel::WORD, TrafficModel::device(LINE)] {
            for k in &self.kernels {
                for &n in &self.grid {
                    tracer.next_group();
                    let analytic = model == TrafficModel::WORD && k.analytic_profile(n).is_some();
                    let name = if analytic {
                        "kernels.profservice.recompute_analytic"
                    } else {
                        "kernels.profservice.recompute_replay"
                    };
                    let (t, r) =
                        timed(|| tracer.span(name, || service.recompute(k.as_ref(), n, model)));
                    let Ok((meta, payload, _)) = r else { continue };
                    if analytic {
                        analytic_us.push(t * 1e6);
                    } else {
                        replay_s.push(t);
                    }
                    let bytes = tracer.span("machine.profstore.encode", || {
                        encode_profile(&meta, &payload)
                    });
                    image_bytes += bytes.len() as u64;
                    let _ = tracer.span("machine.profstore.decode", || decode_profile(&bytes));
                    let _ = tracer.span("machine.profstore.put", || store.put(&meta, &payload));
                    let key = key_for(k.name(), n, model);
                    let _ = tracer.span("machine.profstore.get", || store.get(&key));
                    let _ = tracer.span("kernels.profservice.fetch_hit", || {
                        service.fetch(k.as_ref(), n, model)
                    });
                }
            }
        }
        for (i, k) in self
            .kernels
            .iter()
            .filter(|k| ANALYTIC_REPAIR.contains(&k.name()))
            .enumerate()
        {
            for n in [33 + i, 47 + i, 65 + i] {
                tracer.next_group();
                let _ = tracer.span("kernels.profservice.repair", || {
                    service.fetch(k.as_ref(), n, TrafficModel::WORD)
                });
            }
        }
        let us =
            |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e6).collect() };
        results.samples("machine.profstore.put_us", &us("machine.profstore.put"));
        results.samples("machine.profstore.get_us", &us("machine.profstore.get"));
        results.samples(
            "machine.profstore.encode_us",
            &us("machine.profstore.encode"),
        );
        results.samples(
            "machine.profstore.decode_us",
            &us("machine.profstore.decode"),
        );
        results.value("machine.profstore.image_bytes", image_bytes as f64);
        results.samples(
            "kernels.profservice.fetch_hit_us",
            &us("kernels.profservice.fetch_hit"),
        );
        results.samples(
            "kernels.profservice.repair_us",
            &us("kernels.profservice.repair"),
        );
        results.samples("kernels.profservice.recompute_analytic_us", &analytic_us);
        results.samples("kernels.profservice.recompute_replay_s", &replay_s);
        for (metric, span) in [
            ("bench.storecli.io_us", "bench.storecli.io"),
            ("bench.storecli.intensity_us", "bench.storecli.intensity"),
            ("bench.storecli.balance_us", "bench.storecli.balance"),
            ("bench.storecli.binding_us", "bench.storecli.binding"),
            ("bench.storecli.cold_us", "bench.storecli.cold"),
        ] {
            results.samples(metric, &us(span));
        }
        results.samples(
            "machine.profstore.fsck_s",
            &tracer.durations("machine.profstore.fsck"),
        );
    }
}

/// The answer prefix (before the provenance tag) recomputed from
/// `ProfileService::recompute`'s profile, independently of the serve
/// path's store image, session cache and readout.
fn expected_answer(q: &Query, profile: &CapacityProfile, ops: u64) -> String {
    let (k, n) = (q.kernel, q.n);
    match q.ask {
        Ask::Io(m) => format!("io {k} {n} {m} = {} words", profile.io_at(m)),
        Ask::Intensity(m) => {
            let words = profile.io_at(m);
            let r = if words == 0 {
                f64::INFINITY
            } else {
                ops as f64 / words as f64
            };
            format!("intensity {k} {n} {m} = {r:.4} op/word")
        }
        Ask::Balance(ratio) => {
            let reaches = |m: u64| {
                let w = profile.io_at(m);
                w == 0 || ops as f64 / w as f64 >= ratio
            };
            // io_at only changes at the reuse distances, so the smallest
            // balancing capacity is 1 or one of them.
            let found = std::iter::once(1)
                .chain(profile.reuse_classes().map(|(d, _)| d))
                .find(|&m| reaches(m));
            match found {
                Some(m) => format!("balance {k} {n} {ratio} = M {m} words"),
                None => format!("balance {k} {n} {ratio} = impossible"),
            }
        }
        Ask::Binding(l1, l2) => {
            let levels: Vec<LevelSpec> = [(l1, 1e8), (l2, 1e7)]
                .iter()
                .filter_map(|&(cap, bw)| LevelSpec::new(Words::new(cap), WordsPerSec::new(bw)).ok())
                .collect();
            let Ok(spec) = HierarchySpec::new(levels) else {
                return "binding: bad levels".to_string();
            };
            let traffic = profile.traffic_for(&spec);
            let ai: Vec<f64> = (0..spec.depth())
                .map(|i| match traffic.get(i) {
                    Some(0) | None => f64::INFINITY,
                    Some(w) => ops as f64 / w as f64,
                })
                .collect();
            match HierarchicalRoofline::new(OpsPerSec::new(PEAK), &spec) {
                Ok(roof) => {
                    let binds = roof
                        .binding_level(&ai)
                        .map_or("compute".to_string(), |l| format!("L{}", l + 1));
                    format!(
                        "binding {k} {n} = {binds} (attainable {:.3e} op/s)",
                        roof.attainable(&ai)
                    )
                }
                Err(e) => format!("binding: {e}"),
            }
        }
    }
}

impl Bench for StoreServe {
    type Pass = Pass;

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        self.passes_run += 1;
        let dir: PathBuf = self.root.path().join(format!("pass-{}", self.passes_run));
        let _ = std::fs::remove_dir_all(&dir);
        let store = match ProfileStore::open(&dir) {
            Ok(s) => s,
            Err(e) => {
                return Pass {
                    build_s: 0.0,
                    builds: Vec::new(),
                    fsck: Err(e.to_string()),
                    sessions: Vec::new(),
                    repeats: (0, Vec::new()),
                }
            }
        };
        let models = [
            ("word", TrafficModel::WORD),
            ("device8", TrafficModel::device(LINE)),
        ];
        let mut builds = Vec::new();
        let (build_s, fsck) = timed(|| {
            tracer.next_group();
            for (label, model) in models {
                builds.push((
                    label,
                    tracer.span("kernels.profservice.build_store", || {
                        build(&store, &self.kernels, &self.grid, model)
                    }),
                ));
            }
            let fsck = tracer
                .span("machine.profstore.fsck", || store.fsck())
                .map(|r| (r.healthy(), r.valid, r.quarantined.len()))
                .map_err(|e| e.to_string());
            for (label, model) in models {
                let resumed = if label == "word" {
                    "word-resumed"
                } else {
                    "device8-resumed"
                };
                builds.push((
                    resumed,
                    tracer.span("kernels.profservice.build_store", || {
                        build(&store, &self.kernels, &self.grid, model)
                    }),
                ));
            }
            fsck
        });
        let mut sessions: Vec<Session> = (0..self.sessions.len())
            .map(|i| self.serve(&store, i, tracer))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        let mut repeats = (0, Vec::new());
        match &self.first_answers {
            None => {
                self.first_answers = Some(
                    sessions
                        .iter_mut()
                        .map(|s| std::mem::take(&mut s.sampled))
                        .collect(),
                )
            }
            Some(first) => {
                for (s, (session, want)) in sessions.iter_mut().zip(first).enumerate() {
                    let got = std::mem::take(&mut session.sampled);
                    repeats.0 += want.len() as u64;
                    for ((i, a), (_, b)) in got.iter().zip(want) {
                        if a != b {
                            repeats.1.push(format!(
                                "session {s} query {i} differs between passes: '{a}' vs '{b}'"
                            ));
                        }
                    }
                }
            }
        }
        Pass {
            build_s,
            builds,
            fsck,
            sessions,
            repeats,
        }
    }

    fn pass_times(&self, pass: &Pass) -> (f64, f64) {
        let queries: usize = self.sessions.iter().map(Vec::len).sum();
        let wall: f64 = pass.sessions.iter().map(|s| s.wall).sum();
        (pass.build_s, queries as f64 / wall)
    }

    fn check(&mut self, passes: &[Pass], perturb: bool, checks: &mut Checks) {
        let entries = self.kernels.len() * self.grid.len();
        for pass in passes {
            for (label, b) in &pass.builds {
                let ok = b.failed.is_empty()
                    && if label.ends_with("resumed") {
                        b.built == 0 && b.skipped == entries
                    } else {
                        b.built == entries
                    };
                checks.record(ok, || {
                    format!(
                        "{label} build: built {}, skipped {}, failed {:?}",
                        b.built, b.skipped, b.failed
                    )
                });
            }
            let fsck_ok = matches!(pass.fsck, Ok((true, valid, 0)) if valid == 2 * entries);
            checks.record(fsck_ok, || format!("fsck: {:?}", pass.fsck));
            for (s, (session, stream)) in pass.sessions.iter().zip(&self.sessions).enumerate() {
                checks.attempted += stream.len() as u64 - session.refused.len() as u64;
                for (i, a) in &session.refused {
                    checks.record(false, || format!("session {s} query {i}: {a}"));
                }
                for (i, a) in &session.wrong_source {
                    checks.record(false, || {
                        format!("session {s} first touch {i} ({}): {a}", stream[*i].line())
                    });
                }
            }
            checks.attempted += pass.repeats.0 - pass.repeats.1.len() as u64;
            for note in &pass.repeats.1 {
                checks.record(false, || note.clone());
            }
        }
        // The sampled answers of the first pass against the recompute.
        let probe = WorkDir::fresh(self.root.path(), "reference");
        let Ok(probe) = probe else { return };
        let Ok(store) = ProfileStore::open(probe.path()) else {
            return;
        };
        let service = ProfileService::new(&store);
        let mut profiles: HashMap<(&'static str, usize), Option<(CapacityProfile, u64)>> =
            HashMap::new();
        let mut perturb = perturb;
        let first = self.first_answers.as_deref().unwrap_or_default();
        let sampled = first
            .iter()
            .enumerate()
            .flat_map(|(s, answers)| answers.iter().map(move |(i, a)| (s, *i, a)));
        for (s, i, answer) in sampled {
            let q = self.sessions[s][i];
            let reference = profiles.entry((q.kernel, q.n)).or_insert_with(|| {
                let k = registry_kernel(q.kernel)?;
                let ops = k.access_trace(q.n)?.comp_ops();
                match service.recompute(k.as_ref(), q.n, TrafficModel::WORD) {
                    Ok((_, ProfilePayload::Capacity(p), _)) => Some((p, ops)),
                    _ => None,
                }
            });
            let Some((profile, ops)) = reference else {
                checks.error(format!("no reference for {}", q.line()));
                continue;
            };
            let mut want = expected_answer(&q, profile, *ops);
            if std::mem::take(&mut perturb) {
                want.push('!');
            }
            checks.record(answer.starts_with(&want), || {
                format!("'{}' answered '{answer}', reference '{want}'", q.line())
            });
        }
    }

    fn layers(&mut self, passes: &[(bool, Pass)], tracer: &Tracer, results: &mut Results) {
        let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
        let us = |q: f64| self.latency.percentile(q) / 1e3;
        let n = self.latency.len() as usize;
        results.summary("serve_p50_us", us(0.5), n, (us(0.25), us(0.75)));
        results.summary("serve_p99_us", us(0.99), n, (us(0.99), us(0.99)));
        let (hits, touches): (usize, usize) = untraced
            .iter()
            .flat_map(|p| p.sessions.iter().zip(&self.sessions))
            .map(|(s, q)| (s.first_hits, q.iter().filter(|q| q.first_touch).count()))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        results.value(
            "kernels.profservice.hit_ratio",
            hits as f64 / touches.max(1) as f64,
        );
        let quarantined = untraced
            .iter()
            .filter_map(|p| p.fsck.as_ref().ok())
            .map(|f| f.2)
            .sum::<usize>();
        results.value("machine.profstore.quarantined", quarantined as f64);
        if tracer.is_on() {
            self.probes(tracer, results);
        }
    }
}
