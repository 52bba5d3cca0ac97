//! Shared plumbing for the figure-regeneration harnesses.
//!
//! Every `benches/*.rs` target reproduces one table or figure of the
//! FlatStore paper's evaluation (§5) and prints the same rows/series the
//! paper reports. The experiments run on the `simkv` discrete-event
//! testbed (see `DESIGN.md` for the hardware-substitution rationale), so
//! absolute numbers are model-calibrated; the *shapes* — who wins, by
//! roughly what factor, where crossovers fall — are the reproduction
//! targets recorded in `EXPERIMENTS.md`.
//!
//! One knob: `FLATBENCH_QUICK=1` shrinks every experiment for smoke
//! runs (8 cores, 64 clients, 30 k keys and ops instead of 36 / 288 /
//! 200 k / 120 k).
//!
//! **One output format.** Each target fills one [`Bench`] — an
//! [`obs::StatsReport`] titled with the target's name, one section per
//! figure panel, one row per `series/x_unit` cell — and writes it as
//! JSON lines to `BENCH_des/{quick,full}/<target>.jsonl` at the repo
//! root. The DES is deterministic and `obs::json::number` prints the
//! shortest round-trip `f64`, so the committed quick-scale files are an
//! exact golden: `scripts/check.sh` fails when a run changes them.

use std::path::PathBuf;

use obs::StatsReport;
use simkv::{SimConfig, Summary, WorkloadSpec};
use workloads::KeyDist;

/// Whether `FLATBENCH_QUICK` asks for the smoke scale.
fn quick() -> bool {
    std::env::var("FLATBENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Experiment scale, resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys per experiment.
    pub keyspace: u64,
    /// Measured operations per data point.
    pub ops: u64,
    /// Warm-up operations per data point.
    pub warmup: u64,
    /// Simulated server cores.
    pub ncores: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// PM pool chunks.
    pub pool_chunks: u32,
}

impl Scale {
    /// Resolves the scale from the environment.
    pub fn from_env() -> Scale {
        let (keyspace, ops, ncores, clients) = if quick() {
            (30_000, 30_000, 8, 64)
        } else {
            (200_000, 120_000, 36, 288)
        };
        Scale {
            keyspace,
            ops,
            warmup: ops / 10,
            ncores,
            clients,
            pool_chunks: 512,
        }
    }

    /// A base simulation config at this scale (paper defaults: client
    /// batch 8, one HB group per socket).
    pub fn config(&self) -> SimConfig {
        SimConfig {
            ncores: self.ncores,
            group_size: self.ncores.div_ceil(2).max(1),
            clients: self.clients,
            client_batch: 8,
            keyspace: self.keyspace,
            pool_chunks: self.pool_chunks,
            ops: self.ops,
            warmup: self.warmup,
            ..SimConfig::default()
        }
    }
}

/// YCSB Put workload at `value_len` with the given skew (paper §5.1).
pub fn ycsb_put(value_len: usize, skew: bool) -> WorkloadSpec {
    WorkloadSpec::Ycsb {
        dist: if skew {
            KeyDist::Zipfian { theta: 0.99 }
        } else {
            KeyDist::Uniform
        },
        value_len,
        put_ratio: 1.0,
    }
}

/// Runs the simulation and returns Mops/s.
pub fn mops(cfg: &SimConfig) -> f64 {
    simkv::run(cfg).mops
}

/// Runs the simulation and returns the full summary.
pub fn run(cfg: &SimConfig) -> Summary {
    simkv::run(cfg)
}

/// One numeric column of a text table: its header text, the `series`
/// and `unit` that name its report rows (`series/x_unit`), and the
/// printed cell format (`{:>width.prec}` followed by `suffix`).
#[derive(Debug, Clone)]
pub struct Col {
    head: String,
    series: String,
    unit: String,
    width: usize,
    prec: usize,
    suffix: &'static str,
}

impl Col {
    /// A column headed by its series name, cells `{:>12.2}`.
    pub fn new(series: &str, unit: &str) -> Col {
        Col::headed(series, series, unit)
    }

    /// A column whose header text differs from its series name.
    pub fn headed(head: &str, series: &str, unit: &str) -> Col {
        Col {
            head: head.to_string(),
            series: series.to_string(),
            unit: unit.to_string(),
            width: 12,
            prec: 2,
            suffix: "",
        }
    }

    /// A throughput column: `series/x_mops`.
    pub fn mops(series: &str) -> Col {
        Col::new(series, "mops")
    }

    /// Overrides the cell format: `{:>width.prec}`.
    pub fn fmt(mut self, width: usize, prec: usize) -> Col {
        self.width = width;
        self.prec = prec;
        self
    }

    /// Prints `suffix` right after each cell (the header widens to match).
    pub fn suffix(mut self, suffix: &'static str) -> Col {
        self.suffix = suffix;
        self
    }
}

/// One bench target's results: prints its text tables and records every
/// printed cell into one [`StatsReport`], which [`Bench::finish`] writes
/// to `BENCH_des/{quick,full}/<target>.jsonl`.
#[derive(Debug)]
pub struct Bench {
    report: StatsReport,
    label_width: usize,
    cols: Vec<Col>,
}

impl Bench {
    /// An empty report titled `target` (the bench target's name).
    pub fn new(target: &str) -> Bench {
        Bench {
            report: StatsReport::new(target),
            label_width: 14,
            cols: Vec::new(),
        }
    }

    /// Opens report section `section` for a table whose rows print a
    /// `label_width`-wide label and then `cols`. Prints nothing.
    pub fn table(
        &mut self,
        section: &str,
        label_width: usize,
        cols: impl IntoIterator<Item = Col>,
    ) -> &mut Bench {
        self.report.section(section);
        self.label_width = label_width;
        self.cols = cols.into_iter().collect();
        self
    }

    /// Prints the open table's header line: `first`, each column head,
    /// then `note` (if any) after three spaces.
    pub fn header(&mut self, first: &str, note: &str) -> &mut Bench {
        let mut line = format!("{first:<w$}", w = self.label_width);
        for c in &self.cols {
            line += &format!(" {:>w$}", c.head, w = c.width + c.suffix.len());
        }
        if !note.is_empty() {
            line += &format!("   {note}");
        }
        println!("{line}");
        self
    }

    /// The paper-figure table: opens `section` with a 14-wide label
    /// column and prints the header line and a rule under it.
    pub fn print_header(
        &mut self,
        section: &str,
        first: &str,
        cols: impl IntoIterator<Item = Col>,
    ) {
        self.table(section, 14, cols).header(first, "");
        let width: usize = self.cols.iter().map(|c| c.width + 1).sum();
        println!("{}", "-".repeat(self.label_width + width));
    }

    /// Prints one row of the open table and records each cell as
    /// `series/x_unit`, where `x` is the row label.
    pub fn print_row(&mut self, x: &str, cells: &[f64]) {
        self.print_row_note(x, cells, "");
    }

    /// [`Bench::print_row`] with a trailing free-text `note` (not
    /// recorded).
    pub fn print_row_note(&mut self, x: &str, cells: &[f64], note: &str) {
        assert_eq!(cells.len(), self.cols.len(), "row {x}: one cell per column");
        let mut line = format!("{x:<w$}", w = self.label_width);
        for (c, v) in self.cols.iter().zip(cells) {
            line += &format!(" {v:>w$.p$}{}", c.suffix, w = c.width, p = c.prec);
        }
        if !note.is_empty() {
            line += &format!("   {note}");
        }
        println!("{line}");
        let section = self.report.sections.last_mut().expect("table is open");
        for (c, &v) in self.cols.iter().zip(cells) {
            section.row(format!("{}/{x}_{}", c.series, c.unit), v);
        }
    }

    /// Records one row in the open section without printing it — for
    /// figures a text line prints in a form of its own.
    pub fn row(&mut self, name: &str, value: impl Into<obs::Value>) {
        self.report
            .sections
            .last_mut()
            .expect("open a table before recording rows")
            .row(name, value);
    }

    /// Prints a simulator report and records its sections verbatim.
    pub fn print_report(&mut self, report: StatsReport) {
        println!("{report}");
        self.report.sections.extend(report.sections);
    }

    /// Writes the report to `BENCH_des/{quick,full}/<target>.jsonl` at
    /// the repo root (the directory follows `FLATBENCH_QUICK`).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn finish(self) {
        let rel = format!(
            "BENCH_des/{}/{}.jsonl",
            if quick() { "quick" } else { "full" },
            self.report.title
        );
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&rel);
        std::fs::create_dir_all(path.parent().expect("file in a directory"))
            .and_then(|()| std::fs::write(&path, self.report.to_jsonl()))
            .unwrap_or_else(|e| panic!("write {rel}: {e}"));
        println!("wrote {rel}");
    }
}
