//! Result lines and files, `all`, and `compare`.
//!
//! A run ends with two JSON lines: the spreads (`detail`), then the
//! result object the driver reads. `all` runs every workload in a fresh
//! child of this binary — so `peak_rss_mb` is per workload — and writes
//! one results file; `compare` applies the regression bounds to two.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use obs::Json;

use crate::run::{Metric, RunOpts, RunOutput};
use crate::spec::{self, Better};
use crate::stats::Summary;

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value as measured and its unit.
pub fn result_line(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = obj(vec![
                ("value", Json::Num(m.summary.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .dump()
}

/// The line before it: slice IQR, slice count and sample count of every
/// metric, for `all` to carry into the results file.
pub fn detail_line(out: &RunOutput) -> String {
    let detail = out
        .metrics
        .iter()
        .map(|m| {
            let entry = obj(vec![
                ("iqr", Json::Num(m.summary.iqr)),
                ("slices", Json::Num(m.summary.slices as f64)),
                ("samples", Json::Num(m.summary.samples as f64)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    obj(vec![("detail", Json::Obj(detail))]).dump()
}

/// One workload's numbers in a results file.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// A results file: what `all` writes and `compare` reads.
#[derive(Debug, Clone)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    /// CPUs of the host the numbers were taken on; the workloads are
    /// sized for 2.
    pub nproc: usize,
    pub workloads: Vec<WorkloadResult>,
}

/// One `"name":{…}` line per metric, so two results files diff by metric.
fn metric_lines(metrics: &[Metric]) -> String {
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            let entry = obj(vec![
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(m.unit.to_string())),
                ("iqr", Json::Num(s.iqr)),
                ("slices", Json::Num(s.slices as f64)),
                ("samples", Json::Num(s.samples as f64)),
            ]);
            format!("   {}:{}", Json::Str(m.name.clone()).dump(), entry.dump())
        })
        .collect();
    lines.join(",\n")
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn pairs(j: &Json) -> Result<&[(String, Json)], String> {
    match j {
        Json::Obj(p) => Ok(p),
        _ => Err("expected an object".into()),
    }
}

/// Unit of a metric this benchmark defines, by name.
fn unit_of(name: &str) -> Result<&'static str, String> {
    spec::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| {
            spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .ok_or_else(|| format!("unknown metric {name:?}"))
}

/// A summary whose value is in one object and whose spread in another
/// (a results file keeps both in the same one).
fn summary_from(value: &Json, spread: &Json) -> Result<Summary, String> {
    Ok(Summary {
        value: num(value, "value")?,
        iqr: num(spread, "iqr")?,
        slices: num(spread, "slices")? as usize,
        samples: num(spread, "samples")? as u64,
    })
}

fn metrics_from(j: &Json) -> Result<Vec<Metric>, String> {
    pairs(j)?
        .iter()
        .map(|(name, entry)| {
            Ok(Metric {
                name: name.clone(),
                unit: unit_of(name)?,
                summary: summary_from(entry, entry)?,
            })
        })
        .collect()
}

impl Results {
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                format!(
                    " {}:{{\"attempted\":{},\"failed\":{},\n  \"end_to_end\":{{\n{}\n  }},\n  \"per_layer\":{{\n{}\n  }}\n }}",
                    Json::Str(w.name.clone()).dump(),
                    w.attempted,
                    w.failed,
                    metric_lines(&w.end_to_end),
                    metric_lines(&w.per_layer),
                )
            })
            .collect();
        format!(
            "{{\"schema\":1,\"seed\":{},\"seconds\":{},\"nproc\":{},\"workloads\":{{\n{}\n}}}}",
            self.seed,
            Json::Num(self.seconds).dump(),
            self.nproc,
            workloads.join(",\n"),
        )
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let j = Json::parse(text)?;
        let workloads = pairs(field(&j, "workloads")?)?
            .iter()
            .map(|(name, w)| {
                Ok(WorkloadResult {
                    name: name.clone(),
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    end_to_end: metrics_from(field(w, "end_to_end")?)?,
                    per_layer: metrics_from(field(w, "per_layer")?)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: num(&j, "seed")? as u64,
            seconds: num(&j, "seconds")?,
            nproc: num(&j, "nproc")? as usize,
            workloads,
        })
    }
}

/// Rebuilds a run's output from the two JSON lines a child ends with.
fn parse_child(stdout: &str) -> Result<RunOutput, String> {
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = Json::parse(lines.next().ok_or("child printed one line")?)?;
    let detail = field(&detail, "detail")?;
    let metrics = pairs(field(&result, "metrics")?)?
        .iter()
        .map(|(name, entry)| {
            let d = field(detail, name)?;
            Ok(Metric {
                name: name.clone(),
                unit: unit_of(name)?,
                summary: summary_from(entry, d)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(RunOutput {
        correct: field(&result, "correct")? == &Json::Bool(true),
        attempted: num(&result, "attempted")? as u64,
        failed: num(&result, "failed")? as u64,
        first_failure: None,
        metrics,
    })
}

/// Runs one workload in a fresh child of this binary and echoes its
/// human-readable rows.
fn run_child(workload: &str, opts: &RunOpts, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(dir)) = (trace, &opts.trace_out) {
        cmd.arg("--trace-out").arg(dir);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    parse_child(&stdout)
}

/// `all`: every workload, untraced then traced, into one results file.
pub fn run_all(opts: &RunOpts, out_path: Option<PathBuf>) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfmap: seed {} seconds {} nproc {nproc}",
        opts.seed, opts.seconds
    );
    let mut results = Results {
        seed: opts.seed,
        seconds: opts.seconds,
        nproc,
        workloads: Vec::new(),
    };
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let plain = run_child(w.name, opts, false)?;
        let traced = run_child(w.name, opts, true)?;
        all_correct &= plain.correct && traced.correct;
        results.workloads.push(WorkloadResult {
            name: w.name.to_string(),
            attempted: plain.attempted,
            failed: plain.failed,
            end_to_end: plain.metrics,
            per_layer: traced.metrics,
        });
    }
    if let Some(path) = out_path {
        std::fs::write(&path, results.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("perfmap: results written to {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What `compare` concludes about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the metric's bound.
    Regressed,
    /// The slice spread of either side is wider than the bound, so the
    /// pair can show neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`'s table.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Applies a metric's bound to a baseline `a` and a candidate `b`.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let spread = |s: &Summary| {
        if s.value == 0.0 {
            0.0
        } else {
            s.iqr / s.value.abs()
        }
    };
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Every (workload, end-to-end metric) pair of `a` against `b`, plus a
/// `failed_frac` row per workload: any increase is a regression.
pub fn compare(a: &Results, b: &Results) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or_else(|| format!("{} is missing from the second file", wa.name))?;
        for ma in &wa.end_to_end {
            let def = spec::end_to_end(&ma.name)
                .ok_or_else(|| format!("unknown metric {:?}", ma.name))?;
            let mb = wb
                .end_to_end
                .iter()
                .find(|m| m.name == ma.name)
                .ok_or_else(|| {
                    format!("{} {} is missing from the second file", wa.name, ma.name)
                })?;
            rows.push(Row {
                workload: wa.name.clone(),
                metric: ma.name.clone(),
                a: ma.summary.value,
                b: mb.summary.value,
                verdict: verdict(&ma.summary, &mb.summary, def.better, def.bound),
            });
        }
        let frac = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        rows.push(Row {
            workload: wa.name.clone(),
            metric: "failed_frac".into(),
            a: frac(wa),
            b: frac(wb),
            verdict: if frac(wb) > frac(wa) {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// `compare a b`: prints the table; non-zero exit on any regression.
pub fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| -> Result<Results, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Results::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    let rows = compare(&ra, &rb)?;
    println!("workload metric a b b/a(base=a) verdict");
    for r in &rows {
        let ratio = if r.a == 0.0 { 1.0 } else { r.b / r.a };
        println!(
            "{} {} {:.4} {:.4} {:.3}x(base {:.4}) {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.a,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(if count(Verdict::Regressed) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(value: f64, iqr: f64) -> Summary {
        Summary {
            value,
            iqr,
            slices: 7,
            samples: 7_000,
        }
    }

    fn sample_output() -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 123_456,
            failed: 0,
            first_failure: None,
            metrics: spec::END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| Metric {
                    name: m.name.to_string(),
                    unit: m.unit,
                    summary: summary(1.25 + i as f64 * 0.1234567, 0.01 * i as f64),
                })
                .collect(),
        }
    }

    fn sample_results() -> Results {
        let out = sample_output();
        Results {
            seed: 42,
            seconds: 10.0,
            nproc: 2,
            workloads: spec::WORKLOADS
                .iter()
                .map(|w| WorkloadResult {
                    name: w.name.to_string(),
                    attempted: out.attempted,
                    failed: 0,
                    end_to_end: out.metrics.clone(),
                    per_layer: spec::PER_LAYER
                        .iter()
                        .map(|m| Metric {
                            name: m.name.to_string(),
                            unit: m.unit,
                            summary: Summary::single(0.5),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&sample_output());
        let j = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = pairs(&j)
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = pairs(field(&j, "metrics").expect("metrics")).expect("object");
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        for (_, entry) in metrics {
            let keys: Vec<&str> = pairs(entry)
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }

    #[test]
    fn child_lines_round_trip_through_the_parser() {
        let out = sample_output();
        let stdout = format!("human row\n{}\n{}\n", detail_line(&out), result_line(&out));
        let back = parse_child(&stdout).expect("parses");
        assert_eq!(back.attempted, out.attempted);
        assert!(back.correct);
        for (x, y) in back.metrics.iter().zip(&out.metrics) {
            assert_eq!(
                (x.name.as_str(), x.unit, x.summary),
                (y.name.as_str(), y.unit, y.summary)
            );
        }
    }

    #[test]
    fn results_file_round_trips_byte_for_byte() {
        let r = sample_results();
        let text = r.to_json();
        let back = Results::from_json(&text).expect("parses");
        assert_eq!(back.to_json(), text);
        assert_eq!(back.workloads.len(), 6);
        assert_eq!(back.nproc, 2);
        assert!(Results::from_json("{\"seed\":1}").is_err());
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let base = summary(100.0, 1.0);
        // Lower is better, bound 10 %: +5 % ok, +15 % regressed, −30 % ok.
        assert_eq!(
            verdict(&base, &summary(105.0, 1.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &summary(115.0, 1.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &summary(70.0, 1.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        // Higher is better: −15 % regressed, +15 % ok.
        assert_eq!(
            verdict(&base, &summary(85.0, 1.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &summary(115.0, 1.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        // A spread wider than the bound on either side resolves nothing,
        // whichever way the medians point.
        assert_eq!(
            verdict(&base, &summary(100.0, 12.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                &summary(100.0, 12.0),
                &summary(150.0, 1.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_flags_a_slower_metric_and_any_new_failure() {
        let a = sample_results();
        assert!(compare(&a, &a)
            .expect("same shape")
            .iter()
            .all(|r| r.verdict == Verdict::Ok));

        let mut slower = a.clone();
        slower.workloads[2].end_to_end[1].summary.value *= 0.6; // throughput −40 %
        let rows = compare(&a, &slower).expect("same shape");
        let bad: Vec<&Row> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            (bad[0].workload.as_str(), bad[0].metric.as_str()),
            ("churn256_gc", "throughput_kops")
        );

        let mut failing = a.clone();
        failing.workloads[0].failed = 1;
        let rows = compare(&a, &failing).expect("same shape");
        assert!(rows
            .iter()
            .any(|r| r.metric == "failed_frac" && r.verdict == Verdict::Regressed));

        let mut missing = a.clone();
        missing.workloads.pop();
        assert!(compare(&a, &missing).is_err());
    }
}
