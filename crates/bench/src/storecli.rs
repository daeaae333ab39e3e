//! `balance store …` and `balance serve`: the crash-safe profile store's
//! front ends.
//!
//! * `balance store build` precomputes a kernel registry × size grid into
//!   a content-addressed [`ProfileStore`] — resumably: grid points whose
//!   entry already validates are skipped, so a killed build completes
//!   only the remainder on re-run.
//! * `balance store fsck` scrubs a store: quarantines corrupt, truncated,
//!   or stale-version images, adopts valid orphans, and rewrites the
//!   manifest.
//! * `balance serve` answers batch/REPL what-if queries (`io`,
//!   `intensity`, `balance`, `binding`) from the store through the
//!   self-healing [`ProfileService`]: hits are served as-is, misses and
//!   quarantined entries are recomputed down the repair ladder and
//!   re-persisted, and every answer carries its provenance
//!   (`hit` / `repaired(miss)` / `repaired(quarantined)`, engine,
//!   exactness). Exact-only queries (`balance`, `binding`) refuse
//!   sampled artifacts instead of silently degrading.

use std::collections::HashMap;
use std::io::Read as _;

use balance_core::OpsPerSec;
use balance_kernels::prelude::*;
use balance_machine::{FaultPlan, ProfilePayload, ProfileStore};
use balance_roofline::HierarchicalRoofline;

use crate::cli::{parse_budget, parse_levels, parse_line_words, Flags};

/// Default size grid for `store build` when `--grid` is absent: powers
/// of two, valid for every registry kernel (the FFT in particular).
pub const DEFAULT_GRID: [usize; 3] = [16, 32, 64];

/// Parses `--grid N1,N2,...` into problem sizes; absent means
/// [`DEFAULT_GRID`].
///
/// # Errors
///
/// One-line diagnostics for unparsable, zero, or empty grids.
pub fn parse_grid(flags: &Flags) -> Result<Vec<usize>, String> {
    let Some(s) = flags.str_opt("grid") else {
        return Ok(DEFAULT_GRID.to_vec());
    };
    let mut grid = Vec::new();
    for item in s.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let n: usize = item
            .parse()
            .map_err(|e| format!("--grid '{item}': {e}"))?;
        if n == 0 {
            return Err(
                "--grid 0: grid entries are problem sizes and must be positive".to_string(),
            );
        }
        grid.push(n);
    }
    if grid.is_empty() {
        return Err("--grid: expected a comma-separated list of problem sizes".to_string());
    }
    Ok(grid)
}

/// Parses `--kernels a,b,...` against the profile-store registry; absent
/// means every registry kernel.
///
/// # Errors
///
/// Unknown names, with the list of valid ones.
pub fn parse_kernels(flags: &Flags) -> Result<Vec<Box<dyn Kernel>>, String> {
    let Some(s) = flags.str_opt("kernels") else {
        return Ok(registry());
    };
    let mut kernels = Vec::new();
    for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        kernels.push(registry_kernel(name).ok_or_else(|| {
            let known: Vec<String> = registry().iter().map(|k| k.name().to_string()).collect();
            format!("--kernels: unknown kernel '{name}' (try: {})", known.join(", "))
        })?);
    }
    if kernels.is_empty() {
        return Err("--kernels: expected a comma-separated list of kernel names".to_string());
    }
    Ok(kernels)
}

fn store_at(flags: &Flags, flag: &str) -> Result<ProfileStore, String> {
    let dir = flags
        .str_opt(flag)
        .ok_or(format!("missing required flag --{flag} (the store directory)"))?;
    ProfileStore::open(dir).map_err(|e| e.to_string())
}

fn traffic_model(flags: &Flags) -> Result<TrafficModel, String> {
    Ok(match parse_line_words(flags)? {
        Some(lw) => TrafficModel::device(lw),
        None => TrafficModel::WORD,
    })
}

/// `balance store build|fsck …`: dispatch on the store subcommand.
///
/// # Errors
///
/// User-facing messages for unknown subcommands or bad flags.
pub fn cmd_store(args: &[String]) -> Result<String, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: balance store <build|fsck> --dir <path> …".to_string());
    };
    let flags = Flags::parse(rest)?;
    match sub.as_str() {
        "build" => cmd_store_build(&flags),
        "fsck" => cmd_store_fsck(&flags),
        other => Err(format!(
            "unknown store subcommand '{other}' (try: build, fsck)"
        )),
    }
}

/// `balance store build --dir <path> [--kernels a,b] [--grid N1,N2]
/// [--line-words L] [budget flags]`: precompute the registry × grid,
/// resumably.
///
/// # Errors
///
/// Flag or store-open errors, as one-line diagnostics.
pub fn cmd_store_build(flags: &Flags) -> Result<String, String> {
    let store = store_at(flags, "dir")?;
    let kernels = parse_kernels(flags)?;
    let grid = parse_grid(flags)?;
    let model = traffic_model(flags)?;
    let budget = parse_budget(flags)?;
    let outcome = build_store(&store, &kernels, &grid, model, budget, &FaultPlan::none())
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "store {}: built {}, skipped {} (already valid), failed {}\n",
        store.dir().display(),
        outcome.built,
        outcome.skipped,
        outcome.failed.len()
    );
    for (key, why) in &outcome.failed {
        out.push_str(&format!("  failed {key}: {why}\n"));
    }
    Ok(out)
}

/// `balance store fsck --dir <path>`: scrub the store and report.
///
/// # Errors
///
/// Flag or store errors, as one-line diagnostics.
pub fn cmd_store_fsck(flags: &Flags) -> Result<String, String> {
    let store = store_at(flags, "dir")?;
    let report = store.fsck().map_err(|e| e.to_string())?;
    Ok(format!("store {}: {report}\n", store.dir().display()))
}

/// One serve session: the self-healing service plus in-memory caches so
/// repeated queries against the same `(kernel, n)` artifact are answered
/// at memory speed (the ≥10⁵ queries/s target is measured through this
/// exact path by `benches/profstore.rs`).
#[derive(Debug)]
pub struct ServeSession<'a> {
    service: ProfileService<'a>,
    model: TrafficModel,
    peak: f64,
    profiles: HashMap<(String, usize), Served>,
    ops: HashMap<(String, usize), u64>,
}

impl<'a> ServeSession<'a> {
    /// A session over `store`. `peak` is the compute roof in op/s used
    /// by `binding` queries; `budget` bounds repair recomputes.
    #[must_use]
    pub fn new(
        store: &'a ProfileStore,
        model: TrafficModel,
        budget: Option<balance_core::Budget>,
        peak: f64,
    ) -> ServeSession<'a> {
        let mut service = ProfileService::new(store);
        if let Some(b) = budget {
            service = service.with_budget(b);
        }
        ServeSession {
            service,
            model,
            peak,
            profiles: HashMap::new(),
            ops: HashMap::new(),
        }
    }

    /// Answers one query line; `None` for blanks and `#` comments.
    /// Malformed or failing queries answer a `! `-prefixed diagnostic —
    /// the session keeps serving.
    pub fn answer(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        Some(match self.answer_query(line) {
            Ok(a) => a,
            Err(e) => format!("! {line}: {e}"),
        })
    }

    fn answer_query(&mut self, line: &str) -> Result<String, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["io", kernel, n, m] => {
                let (n, m) = (parse_n(n)?, parse_m(m)?);
                let served = self.serve(kernel, n)?;
                let words = io_words(&served.payload, m);
                Ok(format!(
                    "io {kernel} {n} {m} = {words} words  [{}]",
                    served.describe()
                ))
            }
            ["intensity", kernel, n, m] => {
                let (n, m) = (parse_n(n)?, parse_m(m)?);
                let ops = self.comp_ops(kernel, n)?;
                let served = self.serve(kernel, n)?;
                let words = io_words(&served.payload, m);
                let r = if words == 0 {
                    f64::INFINITY
                } else {
                    ops as f64 / words as f64
                };
                Ok(format!(
                    "intensity {kernel} {n} {m} = {r:.4} op/word  [{}]",
                    served.describe()
                ))
            }
            ["balance", kernel, n, ratio] => {
                let n = parse_n(n)?;
                let ratio: f64 = ratio
                    .parse()
                    .map_err(|e| format!("ops/word ratio '{ratio}': {e}"))?;
                let ops = self.comp_ops(kernel, n)?;
                let served = self.serve(kernel, n)?;
                require_exact(served, "balance")?;
                match balance_point(&served.payload, ops, ratio) {
                    Some(m) => Ok(format!(
                        "balance {kernel} {n} {ratio} = M {m} words  [{}]",
                        served.describe()
                    )),
                    None => Ok(format!(
                        "balance {kernel} {n} {ratio} = impossible (io-bounded: no \
                         capacity reaches {ratio} op/word)  [{}]",
                        served.describe()
                    )),
                }
            }
            ["binding", kernel, n, levels] => {
                let n = parse_n(n)?;
                let spec = parse_levels(levels)?;
                let ops = self.comp_ops(kernel, n)?;
                let peak = self.peak;
                let served = self.serve(kernel, n)?;
                require_exact(served, "binding")?;
                let traffic = served.payload.traffic_for(&spec);
                let ai: Vec<f64> = (0..spec.depth())
                    .map(|i| match traffic.get(i) {
                        Some(0) | None => f64::INFINITY,
                        Some(w) => ops as f64 / w as f64,
                    })
                    .collect();
                let roofline = HierarchicalRoofline::new(OpsPerSec::new(peak), &spec)
                    .map_err(|e| e.to_string())?;
                let binds = match roofline.binding_level(&ai) {
                    Some(level) => format!("L{}", level + 1),
                    None => "compute".to_string(),
                };
                Ok(format!(
                    "binding {kernel} {n} = {binds} (attainable {:.3e} op/s)  [{}]",
                    roofline.attainable(&ai),
                    served.describe()
                ))
            }
            _ => Err("expected 'io K N M', 'intensity K N M', 'balance K N R', \
                      or 'binding K N CAP:BW[,...]'"
                .to_string()),
        }
    }

    fn serve(&mut self, kernel: &str, n: usize) -> Result<&Served, String> {
        let key = (kernel.to_string(), n);
        if !self.profiles.contains_key(&key) {
            let k = registry_kernel(kernel).ok_or_else(|| {
                let known: Vec<String> =
                    registry().iter().map(|k| k.name().to_string()).collect();
                format!("unknown kernel '{kernel}' (try: {})", known.join(", "))
            })?;
            let served = self
                .service
                .fetch(k.as_ref(), n, self.model)
                .map_err(|e| e.to_string())?;
            self.profiles.insert(key.clone(), served);
        }
        Ok(&self.profiles[&key])
    }

    fn comp_ops(&mut self, kernel: &str, n: usize) -> Result<u64, String> {
        let key = (kernel.to_string(), n);
        if let Some(&ops) = self.ops.get(&key) {
            return Ok(ops);
        }
        let k = registry_kernel(kernel).ok_or_else(|| format!("unknown kernel '{kernel}'"))?;
        let trace = k
            .access_trace(n)
            .ok_or_else(|| format!("{kernel} has no canonical trace at n = {n}"))?;
        let ops = trace.comp_ops();
        self.ops.insert(key, ops);
        Ok(ops)
    }
}

fn parse_n(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("problem size '{s}': {e}"))
}

fn parse_m(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("capacity '{s}': {e}"))
}

/// Total boundary words below a memory of `m` words: reads plus
/// write-backs (none on a word curve).
fn io_words(payload: &ProfilePayload, m: u64) -> u64 {
    payload.read_words_at(m) + payload.writeback_words_at(m)
}

/// Exact-only consumers (`balance`, `binding`) refuse sampled artifacts:
/// an approximate curve would silently shift the answer.
fn require_exact(served: &Served, query: &str) -> Result<(), String> {
    if served.is_exact() {
        Ok(())
    } else {
        Err(format!(
            "refusing a non-exact artifact (sampling rate 1/{}) for the exact-only \
             '{query}' query; rebuild the entry without a budget cap",
            1u64 << served.profile().sample_shift()
        ))
    }
}

/// Smallest capacity in words whose intensity `ops / io(M)` reaches
/// `ratio`, or `None` when even the saturating capacity stays io-bounded
/// below it. Binary search over the monotone (non-increasing) io curve.
fn balance_point(payload: &ProfilePayload, ops: u64, ratio: f64) -> Option<u64> {
    let reaches = |m: u64| {
        let words = io_words(payload, m);
        words == 0 || ops as f64 / words as f64 >= ratio
    };
    let mut hi = payload.saturating_words().max(1);
    if !reaches(hi) {
        return None;
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// `balance serve --store <path> [--batch FILE|-] [--line-words L]
/// [--peak <op/s>] [budget flags]`: answer a batch of what-if queries
/// through the self-healing store. `--batch -` (or no `--batch`) reads
/// stdin to EOF, so `balance serve --store s` doubles as a pipe REPL.
///
/// # Errors
///
/// Flag, store-open, or batch-file errors, as one-line diagnostics
/// (individual query failures answer inline `! ` lines instead).
pub fn cmd_serve(flags: &Flags) -> Result<String, String> {
    let store = store_at(flags, "store")?;
    let model = traffic_model(flags)?;
    let budget = parse_budget(flags)?;
    let peak = match flags.str_opt("peak") {
        Some(_) => flags.f64("peak")?,
        None => 1.0e9,
    };
    let input = match flags.str_opt("batch") {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("--batch {path}: {e}"))?,
    };
    let mut session = ServeSession::new(&store, model, budget, peak);
    let mut out = String::new();
    for line in input.lines() {
        if let Some(answer) = session.answer(line) {
            out.push_str(&answer);
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kb-storecli-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_rejects_zero_and_garbage() {
        let f = Flags::parse(&args(&["--grid", "0"])).unwrap();
        let err = parse_grid(&f).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let f = Flags::parse(&args(&["--grid", "16,abc"])).unwrap();
        assert!(parse_grid(&f).is_err());
        let f = Flags::parse(&args(&["--grid", ","])).unwrap();
        assert!(parse_grid(&f).is_err());
        let f = Flags::parse(&args(&["--grid", "8, 16"])).unwrap();
        assert_eq!(parse_grid(&f).unwrap(), vec![8, 16]);
    }

    #[test]
    fn kernels_flag_rejects_unknown_names() {
        let f = Flags::parse(&args(&["--kernels", "matmul,nonsense"])).unwrap();
        let err = match parse_kernels(&f) {
            Err(e) => e,
            Ok(_) => panic!("unknown kernel accepted"),
        };
        assert!(err.contains("nonsense") && err.contains("matmul"), "{err}");
        let f = Flags::parse(&args(&["--kernels", "fft,sort"])).unwrap();
        assert_eq!(parse_kernels(&f).unwrap().len(), 2);
    }

    #[test]
    fn store_build_requires_dir_and_rejects_unwritable() {
        let f = Flags::parse(&args(&[])).unwrap();
        assert!(cmd_store_build(&f).unwrap_err().contains("--dir"));
        let f = Flags::parse(&args(&["--dir", "/proc/kb-no-such-store"])).unwrap();
        assert!(cmd_store_build(&f).is_err());
    }

    #[test]
    fn store_build_then_fsck_then_serve_round_trip() {
        let dir = tmp_dir("roundtrip");
        let dir_s = dir.to_string_lossy().to_string();
        let f = Flags::parse(&args(&[
            "--dir", &dir_s, "--kernels", "matmul", "--grid", "8,16",
        ]))
        .unwrap();
        let out = cmd_store_build(&f).unwrap();
        assert!(out.contains("built 2"), "{out}");
        // Resumable: a second pass skips everything.
        let out = cmd_store_build(&f).unwrap();
        assert!(out.contains("skipped 2"), "{out}");
        let f = Flags::parse(&args(&["--dir", &dir_s])).unwrap();
        let out = cmd_store_fsck(&f).unwrap();
        assert!(out.contains("2 valid"), "{out}");

        let store = ProfileStore::open(&dir).unwrap();
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        let a = session.answer("io matmul 16 64").unwrap();
        assert!(a.starts_with("io matmul 16 64 = "), "{a}");
        assert!(a.contains("hit ["), "{a}");
        let a = session.answer("intensity matmul 16 64").unwrap();
        assert!(a.contains("op/word"), "{a}");
        let a = session.answer("balance matmul 16 2.0").unwrap();
        assert!(a.contains("= M "), "{a}");
        let a = session
            .answer("binding matmul 16 64:1e8,4096:1e7")
            .unwrap();
        assert!(a.contains("binding matmul 16 = "), "{a}");
        assert!(session.answer("# comment").is_none());
        assert!(session.answer("").is_none());
        let a = session.answer("io nonsense 8 8").unwrap();
        assert!(a.starts_with("! "), "{a}");
        let a = session.answer("io matmul eight 8").unwrap();
        assert!(a.starts_with("! "), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_repairs_a_cold_store_and_balance_point_is_monotone_consistent() {
        let dir = tmp_dir("cold");
        let store = ProfileStore::open(&dir).unwrap();
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        let a = session.answer("io matmul 8 27").unwrap();
        assert!(a.contains("repaired(miss)"), "{a}");
        // The balance answer, recomputed directly: intensity at M-1 must
        // miss the target and at M reach it.
        let a = session.answer("balance matmul 8 1.5").unwrap();
        let m: u64 = a
            .split("= M ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        let served = session.serve("matmul", 8).unwrap();
        let profile = served.profile().clone();
        let ops = session.comp_ops("matmul", 8).unwrap();
        assert!(ops as f64 / profile.io_at(m) as f64 >= 1.5);
        if m > 1 {
            assert!((ops as f64) / profile.io_at(m - 1) as f64 <= 1.5 + 1e-9);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_only_queries_refuse_sampled_artifacts() {
        use balance_core::Budget;
        let dir = tmp_dir("exactonly");
        let store = ProfileStore::open(&dir).unwrap();
        // A starved budget forces the fft repair down to the sampled tier.
        let budget = Budget::unlimited().with_max_addresses(64);
        let mut session = ServeSession::new(&store, TrafficModel::WORD, Some(budget), 1.0e9);
        let a = session.answer("io fft 64 32").unwrap();
        assert!(a.contains("rate 1/"), "{a}");
        let a = session.answer("balance fft 64 2.0").unwrap();
        assert!(a.starts_with("! ") && a.contains("non-exact"), "{a}");
        let a = session.answer("binding fft 64 32:1e8").unwrap();
        assert!(a.starts_with("! ") && a.contains("non-exact"), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_store_answers_match_a_word_capacity_scan() {
        let dir = tmp_dir("device");
        let store = ProfileStore::open(&dir).unwrap();
        let flags = Flags::parse(&args(&["--line-words", "8"])).unwrap();
        let model = traffic_model(&flags).unwrap();
        let peak = 1.0e9;
        let mut session = ServeSession::new(&store, model, None, peak);
        let service = ProfileService::new(&store);
        for (kernel, n) in [
            ("matmul", 16usize),
            ("triangularization", 16),
            ("fft", 256),
            ("sort", 256),
        ] {
            let k = registry_kernel(kernel).unwrap();
            let (_, payload, _) = service.recompute(k.as_ref(), n, model).unwrap();
            let ops = k.access_trace(n).unwrap().comp_ops();
            let io = |m: u64| payload.read_words_at(m) + payload.writeback_words_at(m);
            let intensity = |m: u64| match io(m) {
                0 => f64::INFINITY,
                w => ops as f64 / w as f64,
            };
            // A ratio just below the peak intensity is reachable, but only
            // well past one line: the scan walks word capacities from 1.
            let ratio = 0.999 * intensity(u64::MAX);
            let m = (1..=1u64 << 20)
                .find(|&m| intensity(m) >= ratio)
                .expect("the peak intensity is reached at a finite capacity");
            assert!(m > 8, "{kernel} {n}: balance point {m} within one line");

            let a = session
                .answer(&format!("balance {kernel} {n} {ratio}"))
                .unwrap();
            let want = format!("balance {kernel} {n} {ratio} = M {m} words  [");
            assert!(a.starts_with(&want), "{a}\nwant {want}");

            for cap in [4, m - 1, m, 4 * m] {
                let a = session.answer(&format!("io {kernel} {n} {cap}")).unwrap();
                let want = format!("io {kernel} {n} {cap} = {} words  [", io(cap));
                assert!(a.starts_with(&want), "{a}\nwant {want}");
            }

            let levels = format!("{m}:1e8,{}:1e7", 4 * m);
            let spec = parse_levels(&levels).unwrap();
            let ai: Vec<f64> = spec
                .levels()
                .iter()
                .map(|level| intensity(level.capacity().get()))
                .collect();
            let roofline = HierarchicalRoofline::new(OpsPerSec::new(peak), &spec).unwrap();
            let binds = roofline
                .binding_level(&ai)
                .map_or("compute".to_string(), |level| format!("L{}", level + 1));
            let a = session
                .answer(&format!("binding {kernel} {n} {levels}"))
                .unwrap();
            let want = format!(
                "binding {kernel} {n} = {binds} (attainable {:.3e} op/s)  [",
                roofline.attainable(&ai)
            );
            assert!(a.starts_with(&want), "{a}\nwant {want}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_cli_reads_a_batch_file() {
        let dir = tmp_dir("batch");
        let batch = dir.join("queries.txt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&batch, "# header\nio matmul 8 27\nbogus line\n").unwrap();
        let f = Flags::parse(&args(&[
            "--store",
            &dir.to_string_lossy(),
            "--batch",
            &batch.to_string_lossy(),
        ]))
        .unwrap();
        let out = cmd_serve(&f).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("io matmul 8 27 = "), "{out}");
        assert!(lines[1].starts_with("! bogus line"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
