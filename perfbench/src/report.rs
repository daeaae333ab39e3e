//! Provenance, the standing performance bars, and the printed result.

use std::path::Path;

use crate::host::REFERENCE_S;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{Metric, Options, Outcome};

/// Peak resident memory of this process (`VmHWM`), in MiB; 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result came from.
#[derive(Debug)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Provenance {
    /// Probes the host; `root` is the repository checkout.
    #[must_use]
    pub fn probe(root: &Path) -> Provenance {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc,
            git_rev: git_rev(&root.join(".git")).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The commit `HEAD` names, read from the git directory without running
/// git (the benchmark may run in a copy that is not a repository).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// How a measured figure stands against a bar, given its spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarStatus {
    /// The whole interquartile range satisfies the bar.
    Met,
    /// The interquartile range straddles the bar.
    Unresolved,
    /// The whole interquartile range misses the bar.
    Missed,
}

/// Judges `m` against `bar`: at least `bar` when `at_least`, else at most.
#[must_use]
pub fn judge(m: &Metric, bar: f64, at_least: bool) -> BarStatus {
    let (q1, q3) = m.quartiles;
    let (worst, best) = if at_least { (q1, q3) } else { (q3, q1) };
    let ok = |x: f64| if at_least { x >= bar } else { x <= bar };
    if ok(worst) {
        BarStatus::Met
    } else if ok(best) {
        BarStatus::Unresolved
    } else {
        BarStatus::Missed
    }
}

/// The three standing performance bars: (metric, workload, bar, at_least).
pub const BARS: [(&str, &str, f64, bool); 3] = [
    ("kernels.sweep.analytic_speedup", "sweep-exact", 100.0, true),
    ("rate_per_s", "store-serve", 1e5, true),
    (
        "machine.checkpoint.overhead_frac",
        "sweep-exact",
        0.05,
        false,
    ),
];

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The full report as one JSON object: provenance, every metric with
/// unit, sample count and quartiles, the standing bars this workload can
/// judge, and the reference-check totals with the first mismatches.
#[must_use]
pub fn full_json(opts: &Options, prov: &Provenance, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .results
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{},\"q1\":{},\"q3\":{}}}",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples,
                json_num(m.quartiles.0),
                json_num(m.quartiles.1)
            )
        })
        .collect();
    let bars: Vec<String> = BARS
        .iter()
        .filter(|b| b.1 == opts.workload.name())
        .filter_map(|&(name, _, bar, at_least)| {
            let m = out.results.get(name)?;
            Some(format!(
                "{{\"metric\":\"{name}\",\"bar\":\"{} {bar}\",\"status\":\"{:?}\"}}",
                if at_least { ">=" } else { "<=" },
                judge(m, bar, at_least)
            ))
        })
        .collect();
    let notes: Vec<String> = out
        .checks
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\",\"passes\":[{},{}],\"host\":{{\"reference_s\":{},\"calibrations\":{},\"calibration_median_s\":{}}},\"attempted\":{},\"failed\":{},\"mismatches\":[{}],\"bars\":[{}],\"metrics\":{{{}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        prov.nproc,
        json_escape(&prov.rustc),
        json_escape(&prov.git_rev),
        prov.profile,
        out.passes.0,
        out.passes.1,
        REFERENCE_S,
        out.host.calibrations.len(),
        json_num(crate::stats::median(&out.host.calibrations)),
        out.checks.attempted,
        out.checks.failed,
        notes.join(","),
        bars.join(","),
        metrics.join(",")
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// The result line: the end-to-end metrics (untraced run) or
/// the per-layer ones (traced run), each with value and unit. A metric
/// of a layer this workload does not load reads 0.
#[must_use]
pub fn result_line(opts: &Options, out: &Outcome) -> String {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = out.results.get(d.name).map_or(0.0, |m| m.value);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_num(value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        metrics.join(",")
    )
}

/// Metrics named for `opts.workload` in the catalogue that this run did
/// not report (empty when the run is complete).
#[must_use]
pub fn missing(opts: &Options, out: &Outcome) -> Vec<&'static str> {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    defs.iter()
        .filter(|d| d.workloads.contains(&opts.workload))
        .filter(|d| out.results.get(d.name).is_none())
        .map(|d| d.name)
        .collect()
}
