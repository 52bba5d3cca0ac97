//! `perfmap`: the repo's one wall-clock benchmark.
//!
//! ```text
//! perfmap --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! perfmap all [--quick] [--seed <n>] [--seconds <s>] [--out <file>]  every workload, untraced + traced
//! perfmap layers                                                     the isolated primitives only
//! perfmap compare <a.json> <b.json>                                  apply the regression bounds
//! ```
//!
//! See `perfmap/README.md` for the workloads, metrics and sizing rule.

mod drive;
mod gen;
mod layers;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod sut;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunOpts, RunOutput};

/// Seconds one run measures unless `--seconds` says otherwise (the
/// value `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 10.0;
/// `all --quick`: windows short enough for a smoke test.
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Splits `--flag value` pairs (and the bare `--quick`) from positionals.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    while let Some(a) = argv.next() {
        match a.strip_prefix("--") {
            Some("quick") => {
                args.flags.insert("quick".into(), "1".into());
            }
            Some(flag) => {
                let value = argv.next().ok_or(format!("--{flag} needs a value"))?;
                args.flags.insert(flag.to_string(), value);
            }
            None => args.positional.push(a),
        }
    }
    Ok(args)
}

impl Args {
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        let quick = self.flags.contains_key("quick");
        let seconds: f64 = self.num(
            "seconds",
            if quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            },
        )?;
        if !(0.5..=600.0).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 0.5..=600"));
        }
        Ok(RunOpts {
            seed: self.num("seed", 42)?,
            seconds,
            trace: match self.num::<u8>("trace", 0)? {
                0 => false,
                1 => true,
                n => return Err(format!("--trace takes 0 or 1, not {n}")),
            },
            quick,
            trace_out: self.flags.get("trace-out").map(PathBuf::from),
        })
    }
}

/// One run of one workload: human-readable rows, then the spreads, then
/// — last line — the result object the driver reads.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let opts = args.run_opts()?;
    let out = if opts.trace {
        run::run_traced(spec, &opts)?
    } else {
        run::run_plain(spec, &opts)?
    };
    print_rows(spec.name, &out);
    println!("{}", report::detail_line(&out));
    println!("{}", report::result_line(&out));
    Ok(ExitCode::SUCCESS)
}

/// `workload metric value unit` rows, with the slice IQR and the sample
/// count beside every number that has them.
fn print_rows(workload: &str, out: &RunOutput) {
    for m in &out.metrics {
        let s = &m.summary;
        if s.slices > 1 {
            println!(
                "{workload} {} {:.4} {} iqr={:.4} slices={} n={}",
                m.name, s.value, m.unit, s.iqr, s.slices, s.samples
            );
        } else {
            println!("{workload} {} {:.4} {}", m.name, s.value, m.unit);
        }
    }
    println!(
        "{workload} attempted={} failed={} correct={}",
        out.attempted, out.failed, out.correct
    );
    if let Some(why) = &out.first_failure {
        println!("{workload} first failure: {why}");
    }
}

fn layers_only() -> ExitCode {
    let mut m = BTreeMap::new();
    layers::measure(&mut m, false);
    for pl in spec::PER_LAYER.iter().filter(|pl| m.contains_key(pl.name)) {
        println!("layers {} {:.4} {}", pl.name, m[pl.name], pl.unit);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => run_one(&args),
            Some("all") => {
                report::run_all(&args.run_opts()?, args.flags.get("out").map(PathBuf::from))
            }
            Some("layers") => Ok(layers_only()),
            Some("compare") => match &args.positional[1..] {
                [a, b] => report::compare_files(a.as_ref(), b.as_ref()),
                _ => Err("compare takes two result files".into()),
            },
            Some(other) => Err(format!("unknown sub-command {other:?}")),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("perfmap: {why}");
            ExitCode::from(2)
        }
    }
}
