//! Tracing-overhead trajectory — causal-tracing cost and stage breakdown.
//!
//! Runs the replicated read-heavy YCSB point (Put:Get = 5:95, 64 B
//! values, one backup, engine-default read cache) at zipf θ ∈ {uniform,
//! 0.9, 0.99}, once with `trace_sample = 0` (the untraced baseline) and
//! once with `trace_sample = 32`. Each point pairs the two runs and
//! records the throughput delta plus the traced run's stage-latency
//! breakdown (end-to-end, leader persist, replication ack wait).
//!
//! Span stamps only *observe* the virtual clock — they never charge it —
//! so the golden doubles as the zero-overhead proof: the traced column
//! is bit-identical to the untraced baseline, comfortably inside the
//! ≤ 2 % budget the engine promises for `trace_sample = 0`.

use flatstore_bench::{run, Bench, Col, Scale};
use obs::Stage;
use simkv::{Engine, ExecModel, SimConfig, SimIndex, Summary, WorkloadSpec};
use workloads::KeyDist;

/// Sampling rate for the traced run: 1-in-32, the rate DESIGN.md
/// recommends for always-on production tracing.
const TRACE_SAMPLE: u64 = 32;

/// One measured point: the same workload with tracing off and on.
struct Point {
    theta: f64,
    off: Summary,
    on: Summary,
}

fn config(scale: &Scale, theta: f64, entries: usize, trace_sample: u64) -> SimConfig {
    let mut cfg = scale.config();
    cfg.engine = Engine::FlatStore {
        model: ExecModel::PipelinedHb,
        index: SimIndex::Hash,
    };
    cfg.workload = WorkloadSpec::Ycsb {
        // Zipfian::new panics at θ = 0; uniform IS the θ → 0 limit.
        dist: if theta > 0.0 {
            KeyDist::Zipfian { theta }
        } else {
            KeyDist::Uniform
        },
        value_len: 64,
        put_ratio: 0.05,
    };
    cfg.read_cache_entries = entries;
    // One backup so traced puts pass through the full causal chain
    // (repl_ship / repl_ack_wait show up in the breakdown).
    cfg.replicas = 1;
    cfg.trace_sample = trace_sample;
    cfg
}

fn ns_per_op(s: &Summary) -> f64 {
    if s.mops > 0.0 {
        1e3 / s.mops
    } else {
        0.0
    }
}

/// Throughput overhead of tracing relative to the untraced baseline, in
/// percent (positive = traced run is slower).
fn overhead_pct(p: &Point) -> f64 {
    if p.off.mops > 0.0 {
        (p.off.mops - p.on.mops) / p.off.mops * 100.0
    } else {
        0.0
    }
}

fn stage_p50(s: &Summary, stage: Stage) -> u64 {
    s.breakdown
        .as_ref()
        .map_or(0, |b| b.stage_snapshot(stage).p50())
}

fn main() {
    let scale = Scale::from_env();
    // Mirror the engine default: 8 MiB of DRAM budget split across cores,
    // each 64 B value costing value + SLOT_OVERHEAD (64 B) in the budget.
    let entries = ((8usize << 20) / scale.ncores / 128).max(1);
    let thetas = [0.0, 0.9, 0.99];

    let points: Vec<Point> = thetas
        .iter()
        .map(|&theta| Point {
            theta,
            off: run(&config(&scale, theta, entries, 0)),
            on: run(&config(&scale, theta, entries, TRACE_SAMPLE)),
        })
        .collect();

    println!("== BENCH trajectory: tracing overhead, Put:Get 5:95, 64 B, 1 backup ==");
    let mut bench = Bench::new("trajectory");
    bench.print_header(
        "tracing_overhead",
        "zipf theta",
        [
            Col::headed("off ns/op", "untraced", "ns_per_op"),
            Col::headed("on ns/op", "traced", "ns_per_op"),
            Col::headed("ovhd %", "traced", "overhead_pct"),
            Col::headed("e2e p50", "traced", "e2e_p50_ns"),
            Col::headed("persist p50", "traced", "leader_persist_p50_ns"),
        ],
    );
    for p in &points {
        bench.print_row(
            &format!("{:.2}", p.theta),
            &[
                ns_per_op(&p.off),
                ns_per_op(&p.on),
                overhead_pct(p),
                p.on.breakdown
                    .as_ref()
                    .map_or(0, |b| b.end_to_end_snapshot().p50()) as f64,
                stage_p50(&p.on, Stage::LeaderPersist) as f64,
            ],
        );
    }
    println!();
    for p in &points {
        let spans = p.on.breakdown.as_ref().map_or(0, |b| b.spans());
        println!(
            "theta {:.2}: {spans} spans sampled (1-in-{TRACE_SAMPLE}), overhead {:+.4}%",
            p.theta,
            overhead_pct(p),
        );
        bench.row(&format!("traced/{:.2}_spans", p.theta), spans);
        bench.row(
            &format!("traced/{:.2}_repl_ack_wait_p50_ns", p.theta),
            stage_p50(&p.on, Stage::ReplAckWait),
        );
    }
    println!();
    bench.finish();
}
