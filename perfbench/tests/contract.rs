//! The benchmark's own contract, at tiny sizes: every workload reports
//! every metric named for it with its catalogue unit, the reference
//! checks pass and catch a perturbed reference, and the counts repeat
//! exactly across two traced runs with the same seed.

use std::path::PathBuf;

use perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::{report, run, Options, Outcome, Scale, Workload};

fn opts(workload: Workload, trace: bool, perturb: bool) -> Options {
    let tag = format!(
        "{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(perturb)
    );
    Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Small,
        perturb_reference: perturb,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    }
}

fn run_ok(o: &Options) -> Outcome {
    run(o).unwrap_or_else(|e| panic!("{} did not run: {e}", o.workload.name()))
}

fn assert_reports(o: &Options, out: &Outcome, defs: &[MetricDef]) {
    let w = o.workload.name();
    assert!(
        report::missing(o, out).is_empty(),
        "{w} misses {:?}",
        report::missing(o, out)
    );
    for d in defs.iter().filter(|d| d.workloads.contains(&o.workload)) {
        let m = out
            .results
            .get(d.name)
            .unwrap_or_else(|| panic!("{w}: no {}", d.name));
        assert_eq!(m.unit, d.unit, "{w}: unit of {}", d.name);
        assert!(m.value.is_finite(), "{w}: {} = {}", d.name, m.value);
    }
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n}");
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate metric names");
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
    let entries = text.matches("\"name\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn every_workload_reports_its_metrics_and_passes_its_checks() {
    for w in Workload::ALL {
        let o = opts(w, false, false);
        let out = run_ok(&o);
        assert_reports(&o, &out, END_TO_END);
        for d in END_TO_END {
            let v = out.results.get(d.name).map_or(0.0, |m| m.value);
            assert!(v > 0.0, "{}: end-to-end {} must not be 0", w.name(), d.name);
        }
        assert!(out.checks.attempted > 0);
        assert_eq!(out.checks.failed, 0, "{}: {:?}", w.name(), out.checks.notes);
        let line = report::result_line(&o, &out);
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
    }
}

#[test]
fn traced_runs_report_layers_and_repeat_their_counts() {
    const COUNTS: [&str; 5] = [
        "kernels.trace.addr",
        "machine.stackdist.distinct",
        "machine.profstore.image_bytes",
        "kernels.sweep.points",
        "machine.pe.words_moved",
    ];
    for w in Workload::ALL {
        let o = opts(w, true, false);
        let first = run_ok(&o);
        assert_reports(&o, &first, PER_LAYER);
        assert_eq!(
            first.checks.failed,
            0,
            "{}: {:?}",
            w.name(),
            first.checks.notes
        );
        assert!(!first.tracer.is_empty(), "{}: no spans", w.name());
        let second = run_ok(&o);
        for name in COUNTS {
            let a = first.results.get(name).map(|m| m.value);
            let b = second.results.get(name).map(|m| m.value);
            assert_eq!(a, b, "{}: {name} differs between two traced runs", w.name());
        }
    }
}

#[test]
fn a_perturbed_reference_is_caught() {
    for w in Workload::ALL {
        let out = run_ok(&opts(w, false, true));
        assert!(
            out.checks.failed > 0,
            "{}: the perturbed reference went unnoticed",
            w.name()
        );
    }
}
