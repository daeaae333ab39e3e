//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines: the full report
//! (provenance, every metric with unit, sample count and quartiles, the
//! standing bars, the reference checks), then, as the last line of
//! standard output, the result with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The full report and, for traced runs, the
//! spans (JSON lines) are also written under `perfbench/out/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::report::{self, Provenance};
use perfbench::{Options, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <sweep-exact|sweep-scale|store-serve|simulate> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String], out_dir: PathBuf) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::SweepExact,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        perturb_reference: false,
        out_dir,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("missing --workload")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args, package.join("out")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prov = Provenance::probe(package.parent().unwrap_or(package));
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let full = report::full_json(&opts, &prov, &outcome);
    println!("{full}");
    if let Err(e) = std::fs::write(opts.out_dir.join(format!("{stem}.json")), full + "\n") {
        eprintln!("perfbench: writing the report: {e}");
    }
    if opts.trace {
        let spans = opts.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = outcome.tracer.write_jsonl(&spans) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    println!("{}", report::result_line(&opts, &outcome));
    ExitCode::SUCCESS
}
