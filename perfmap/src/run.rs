//! One workload, end to end: set-up, warm-up, the loaded (*sat*) phase,
//! output checks, and the reduction to metrics.
//!
//! The untraced run produces the end-to-end metrics. The traced run is
//! a separate invocation: harness spans on, `Config::trace_sample(64)`,
//! an unloaded depth-1 (*d1*) phase the layer costs must add up to, the
//! workload's in-process twin and the isolated primitives beside it;
//! its own throughput is reported only to price the tracing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use flatstore::FlatStore;
use obs::{StatsReport, Value};

use crate::drive::{preload, run_phase, Acked, Outcome, PhasePlan, PhaseResult, Transport, Which};
use crate::gen::{read_tag, GenOp, OpStream, Verb};
use crate::layers;
use crate::spans::{self, SpanKind};
use crate::spec::{stage_metric, Front, Spec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::sut::{Sut, DEPTH};

/// How a run is sized.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Seconds of measurement (the phases split it between them).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizing: a tenth of the keys.
    pub quick: bool,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What a run hands back: the contract's four keys plus the spreads.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
}

/// Engine instances an untraced run sets up and measures; `setup_s` is
/// the median of their set-up times.
const SETUPS: usize = 3;
/// Length of one slice of a phase; every reported timing is a median
/// over slices. Long enough to hold several cleaner cycles and tens of
/// thousands of ops, short enough that a run has a few dozen of them.
const SLICE_SECS: f64 = 0.25;
/// Crash-and-reopen cycles per instance of `crash_recover`.
const RECOVERIES: usize = 5;

/// Seconds of warm-up on every instance before anything is timed:
/// caches fill, the index stops growing, the cleaner (where it runs)
/// reaches its steady cycle. Half a second at the driver's 10 s, less
/// in a smoke run.
fn warm_secs(opts: &RunOpts) -> f64 {
    (opts.seconds / 20.0).min(0.5)
}

fn keys_of(spec: &Spec, quick: bool) -> u64 {
    if quick {
        (spec.keys / 10).max(1_000)
    } else {
        spec.keys
    }
}

struct Loaded {
    sut: Sut,
    setup_secs: f64,
    /// User bytes (key + value) of the preload's acked Puts.
    user_bytes: u64,
}

/// Creates the engine behind `front` and loads every key once.
fn set_up(
    spec: &Spec,
    front: Front,
    framed: bool,
    keys: u64,
    trace_sample: u64,
) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let sut = Sut::create(spec, front, trace_sample)?;
    let stream = OpStream::new(spec.mix, keys, 0, front == Front::Crash);
    let mut t = sut.connect(framed)?;
    let (_, user_bytes) = preload(&mut *t, &stream, DEPTH)?;
    drop(t);
    Ok(Loaded {
        sut,
        setup_secs: t0.elapsed().as_secs_f64(),
        user_bytes,
    })
}

fn plan(depth: usize, secs: f64, traced: bool) -> PhasePlan {
    let slices = (secs / SLICE_SECS).round().max(1.0);
    PhasePlan {
        depth,
        secs,
        slice_secs: secs / slices,
        traced,
    }
}

fn report_num(r: &StatsReport, section: &str, row: &str) -> f64 {
    match r.get(section, row) {
        Some(Value::U64(v)) => *v as f64,
        Some(Value::F64(v)) => *v,
        _ => 0.0,
    }
}

/// `after − before` of one cumulative report row.
fn delta(after: &StatsReport, before: &StatsReport, section: &str, row: &str) -> f64 {
    report_num(after, section, row) - report_num(before, section, row)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Running totals of what the run attempted and what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&phase.first_failure);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The depth-1 phase of a traced run.
struct D1 {
    result: PhaseResult,
    /// Engine spans of the phase (session transports only).
    spans: Vec<obs::Span>,
    /// Engine report right after the phase (the wire's only view of the
    /// engine's stages).
    report: StatsReport,
}

/// The phases driven over one loaded engine.
struct Phases {
    sat: PhaseResult,
    d1: Option<D1>,
    /// Engine reports bracketing the *sat* phase.
    before_sat: StatsReport,
    after_sat: StatsReport,
    /// Fewest free chunks seen at a slice boundary.
    free_chunks_min: u32,
    /// User bytes of every Put acked in any phase.
    user_bytes: u64,
}

struct PhaseSecs {
    warm: f64,
    /// 0 skips the depth-1 phase (every untraced run does).
    d1: f64,
    sat: f64,
}

/// Warm-up, the depth-1 phase where there is one, then the loaded phase.
fn drive_phases(
    sut: &Sut,
    t: &mut dyn Transport,
    stream: &mut OpStream,
    mut acked: Option<&mut Acked>,
    secs: &PhaseSecs,
    traced: bool,
    tally: &mut Tally,
) -> Phases {
    let store = sut.store();
    let mut free_min = store.free_chunks();
    let mut sample_free = || free_min = free_min.min(store.free_chunks());

    // *d1* comes before *sat*, and its warm-up runs at depth 1 too, so
    // the engine's cumulative stage histograms hold depth-1 ops only
    // when the phase ends and they are read.
    let with_d1 = secs.d1 > 0.0;
    let warm_depth = if with_d1 { 1 } else { DEPTH };
    let warm = run_phase(
        t,
        stream,
        &plan(warm_depth, secs.warm, false),
        acked.as_deref_mut(),
        &mut || {},
    );
    tally.add(&warm);
    let mut user_bytes = warm.acked_put_bytes;
    t.drain_spans();

    let d1 = with_d1.then(|| {
        let result = run_phase(
            t,
            stream,
            &plan(1, secs.d1, traced),
            acked.as_deref_mut(),
            &mut || {},
        );
        tally.add(&result);
        user_bytes += result.acked_put_bytes;
        D1 {
            result,
            spans: t.drain_spans(),
            report: store.stats_report(),
        }
    });

    let before_sat = store.stats_report();
    let sat = run_phase(
        t,
        stream,
        &plan(DEPTH, secs.sat, traced),
        acked,
        &mut sample_free,
    );
    let after_sat = store.stats_report();
    sample_free();
    tally.add(&sat);
    user_bytes += sat.acked_put_bytes;
    Phases {
        sat,
        d1,
        before_sat,
        after_sat,
        free_chunks_min: free_min,
        user_bytes,
    }
}

/// Cleaner cycles of the *sat* window.
fn gc_cycles(p: &Phases) -> f64 {
    delta(&p.after_sat, &p.before_sat, "maintenance", "gc_chunks")
}

/// Invariants of the workload's design: where a prediction of the
/// workload table fails, the run fails rather than printing a number.
/// `gc_cycles` chunks were reclaimed over `sat_secs` of *sat* windows.
fn check_invariants(spec: &Spec, gc_cycles: f64, sat_secs: f64) -> Result<(), String> {
    match spec.name {
        "put64_hb" if gc_cycles != 0.0 => Err(format!(
            "put64_hb: the cleaner reclaimed {gc_cycles} chunks; this workload must leave it idle"
        )),
        // One cycle per second is 10 cycles in the 10 s the driver asks for.
        "churn256_gc" if gc_cycles < sat_secs => Err(format!(
            "churn256_gc: only {gc_cycles} cleaner cycles in {sat_secs:.1} s of sat windows; the workload needs one per second"
        )),
        _ => Ok(()),
    }
}

fn need(s: Option<Summary>, what: &str) -> Result<Summary, String> {
    s.ok_or_else(|| format!("no samples for {what}"))
}

/// One crash-and-reopen cycle; returns the reopened store and the wall
/// time of `FlatStore::open`.
fn crash_and_open(sut: Sut) -> Result<(Sut, f64), String> {
    let cfg = sut.cfg.clone();
    let pm = sut.kill().ok_or("only a plain store can be crashed")?;
    // Only bytes flushed before this point survive: killing the engine
    // alone would leave every unflushed store readable.
    pm.simulate_crash();
    let t0 = Instant::now();
    let store = FlatStore::open(pm, cfg.clone()).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((Sut::reopened(store, cfg), secs))
}

/// Reads every key back and checks it holds a version no older than the
/// last acked and no newer than the last submitted.
fn verify_survival(
    sut: &Sut,
    stream: &OpStream,
    acked: &Acked,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut t = sut.connect(false)?;
    let mut done = Vec::new();
    let mut next = 0u64;
    let mut inflight = 0usize;
    let mut seen = 0u64;
    while seen < stream.keys() {
        while inflight < DEPTH && next < stream.keys() {
            let op = GenOp {
                key: next,
                verb: Verb::Get,
                len: stream.len_of(next),
                tag: 0,
            };
            t.submit(next, &op, None)?;
            tally.attempted += 1;
            inflight += 1;
            next += 1;
        }
        t.harvest(&mut done);
        for (key, outcome) in done.drain(..) {
            inflight -= 1;
            seen += 1;
            let Outcome::Got(Some(value)) = outcome else {
                tally.fail(format!("key {key} unreadable after recovery"));
                continue;
            };
            let (lo, hi) = (acked[key as usize], stream.submitted_tag(key));
            match read_tag(key, &value) {
                Some(tag) if (lo..=hi).contains(&tag) => {}
                Some(tag) => tally.fail(format!(
                    "key {key} recovered at version {tag}, acked {lo}, submitted {hi}"
                )),
                None => tally.fail(format!("key {key} recovered with foreign bytes")),
            }
        }
    }
    Ok(())
}

/// Decorrelates the op streams of a run's instances.
fn instance_seed(seed: u64, instance: usize) -> u64 {
    seed ^ (instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The untraced run: every end-to-end metric of one workload.
///
/// The engine is set up [`SETUPS`] times and every instance is measured
/// for a third of the time: `setup_s` needs several set-ups for its
/// median, and instances differ by a few percent (memory and thread
/// placement), so pooling their slices steadies the other medians more
/// than one long window on one instance would.
pub fn run_plain(spec: &Spec, opts: &RunOpts) -> Result<RunOutput, String> {
    let keys = keys_of(spec, opts.quick);
    let crash = spec.front == Front::Crash;
    let mut tally = Tally::default();
    let secs = PhaseSecs {
        warm: warm_secs(opts),
        d1: 0.0,
        sat: opts.seconds / SETUPS as f64,
    };

    let mut setups = Vec::new();
    let mut recoveries = Vec::new();
    let mut pooled: Option<PhaseResult> = None;
    let (mut pm_written, mut user_bytes, mut cycles) = (0.0, 0.0, 0.0);
    for instance in 0..SETUPS {
        let l = set_up(spec, spec.front, false, keys, 0)?;
        tally.attempted += keys;
        setups.push(l.setup_secs);
        let mut sut = l.sut;
        // Recovery time, on identical content every time: the freshly
        // loaded store. Throughput is keys recovered per second.
        let recoveries_here = if crash { RECOVERIES } else { 0 };
        for _ in 0..recoveries_here {
            let (reopened, open_secs) = crash_and_open(sut)?;
            if reopened.store().len() as u64 != keys {
                tally.fail(format!(
                    "recovered {} keys of {keys}",
                    reopened.store().len()
                ));
            }
            recoveries.push(keys as f64 / open_secs / 1e3);
            sut = reopened;
        }

        let mut stream = OpStream::new(spec.mix, keys, instance_seed(opts.seed, instance), crash);
        let mut acked: Option<Acked> = crash.then(|| vec![0; keys as usize]);
        let mut t = sut.connect(false)?;
        let p = drive_phases(
            &sut,
            &mut *t,
            &mut stream,
            acked.as_mut(),
            &secs,
            false,
            &mut tally,
        );
        drop(t);
        cycles += gc_cycles(&p);
        pm_written += sut.store().pm().stats().bytes_written() as f64;
        user_bytes += (l.user_bytes + p.user_bytes) as f64;

        if let (Some(acked), true) = (&acked, instance + 1 == SETUPS) {
            // Durability, once per run: crash after the churn, reopen,
            // and check that every acked write survived.
            let (reopened, _) = crash_and_open(sut)?;
            verify_survival(&reopened, &stream, acked, &mut tally)?;
        }
        match &mut pooled {
            Some(sat) => sat.merge(p.sat),
            None => pooled = Some(p.sat),
        }
    }
    check_invariants(spec, cycles, opts.seconds)?;
    let sat = pooled.ok_or("no instance ran")?;

    let throughput = if crash {
        need(
            Summary::of_slices(&recoveries, keys * recoveries.len() as u64),
            "recovery",
        )?
    } else {
        need(sat.throughput_kops(), "throughput")?
    };
    let values = [
        need(Summary::of_slices(&setups, SETUPS as u64), "setup")?,
        throughput,
        need(sat.latency_us(Which::All, 50.0), "lat_p50")?,
        need(sat.latency_us(Which::All, 99.0), "lat_p99")?,
        Summary::single(ratio(pm_written, user_bytes)),
        Summary::single(peak_rss_mb()?),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, summary)| Metric {
            name: m.name.to_string(),
            unit: m.unit,
            summary,
        })
        .collect();
    Ok(RunOutput {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    })
}

fn median_ns(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns.get(ns.len() / 2).map_or(0.0, |&ns| ns as f64)
}

/// Median duration, over the depth-1 phase, of each engine stage and of
/// the whole engine-side span.
fn stage_medians(d1: &D1, wire: bool) -> (Vec<(obs::Stage, f64)>, f64) {
    if wire {
        // The server's sessions are out of the harness's reach; the
        // engine's cumulative breakdown is the only view of its stages.
        let row =
            |name: &str| report_num(&d1.report, "latency_breakdown", &format!("{name}_p50_ns"));
        let stages = obs::Stage::ALL
            .into_iter()
            .map(|st| (st, row(st.name())))
            .collect();
        return (stages, row("end_to_end"));
    }
    let stages = obs::Stage::ALL
        .into_iter()
        .map(|stage| {
            let ns = d1
                .spans
                .iter()
                .flat_map(|s| s.deltas())
                .filter(|(st, _)| *st == stage)
                .map(|(_, ns)| ns)
                .collect();
            (stage, median_ns(ns))
        })
        .collect();
    (
        stages,
        median_ns(d1.spans.iter().map(obs::Span::total_ns).collect()),
    )
}

/// The traced run: every per-layer metric of one workload.
pub fn run_traced(spec: &Spec, opts: &RunOpts) -> Result<RunOutput, String> {
    let keys = keys_of(spec, opts.quick);
    let mut tally = Tally::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let crash = spec.front == Front::Crash;
    let wire = spec.front == Front::Wire;
    let quarter = opts.seconds / 4.0;
    let warm = warm_secs(opts);

    // 1. The untraced reference: same engine, tracing off, *sat* only.
    let untraced_kops = {
        let l = set_up(spec, spec.front, false, keys, 0)?;
        tally.attempted += keys;
        let mut stream = OpStream::new(spec.mix, keys, opts.seed, crash);
        let mut t = l.sut.connect(false)?;
        let secs = PhaseSecs {
            warm,
            d1: 0.0,
            sat: quarter,
        };
        let p = drive_phases(&l.sut, &mut *t, &mut stream, None, &secs, false, &mut tally);
        need(p.sat.throughput_kops(), "untraced throughput")?.value
    };

    // 2. The traced run proper.
    let l = set_up(spec, spec.front, false, keys, 64)?;
    tally.attempted += keys;
    let mut stream = OpStream::new(spec.mix, keys, opts.seed, crash);
    let mut acked: Option<Acked> = crash.then(|| vec![0; keys as usize]);
    let secs = PhaseSecs {
        warm,
        d1: quarter,
        sat: quarter,
    };
    let mut t = l.sut.connect(false)?;
    let p = drive_phases(
        &l.sut,
        &mut *t,
        &mut stream,
        acked.as_mut(),
        &secs,
        true,
        &mut tally,
    );
    drop(t);
    check_invariants(spec, gc_cycles(&p), p.sat.secs)?;
    let d1 = p.d1.as_ref().ok_or("the traced run has a depth-1 phase")?;

    let (b, a) = (&p.before_sat, &p.after_sat);
    let puts = delta(a, b, "ops", "puts");
    let gets = delta(a, b, "ops", "gets");
    let ops = puts + gets;
    let flushes = delta(a, b, "pm", "flushes");
    m.insert("pmem.flushes_per_put".into(), ratio(flushes, puts));
    m.insert(
        "pmem.fences_per_put".into(),
        ratio(delta(a, b, "pm", "fences"), puts),
    );
    m.insert(
        "pmem.bytes_per_put".into(),
        ratio(delta(a, b, "pm", "bytes_written"), puts),
    );
    m.insert(
        "pmem.redundant_flush_ratio".into(),
        ratio(delta(a, b, "pm", "redundant_flushes"), flushes),
    );
    m.insert(
        "pmem.reads_per_get".into(),
        ratio(delta(a, b, "pm", "reads"), gets),
    );
    m.insert(
        "pmalloc.free_chunks_min".into(),
        f64::from(p.free_chunks_min),
    );
    m.insert(
        "flatrpc.send_backpressure_per_kop".into(),
        ratio(delta(a, b, "fabric", "send_backpressure") * 1e3, ops),
    );
    m.insert(
        "flatrpc.peak_ring_occupancy".into(),
        report_num(a, "fabric", "peak_ring_occupancy"),
    );
    m.insert(
        "flatstore.hb.avg_batch".into(),
        ratio(
            delta(a, b, "batching", "batched_entries"),
            delta(a, b, "batching", "batches"),
        ),
    );
    m.insert(
        "flatstore.hb.batch_p99".into(),
        report_num(a, "batching", "batch_p99_entries"),
    );
    m.insert(
        "flatstore.gate.deferred_per_kop".into(),
        ratio(delta(a, b, "ops", "conflicts_deferred") * 1e3, ops),
    );
    let hits = delta(a, b, "read_cache", "hits");
    m.insert(
        "flatstore.cache.hit_rate".into(),
        ratio(hits, hits + delta(a, b, "read_cache", "misses")),
    );
    m.insert(
        "flatstore.gc.chunks_per_s".into(),
        delta(a, b, "maintenance", "gc_chunks") / p.sat.secs,
    );
    m.insert(
        "flatstore.gc.relocated_per_put".into(),
        ratio(delta(a, b, "maintenance", "gc_relocated"), puts),
    );

    // The engine-side span in ns, and each stage's median as its share
    // of the stage medians' sum.
    let (stages, stage_sum) = stage_medians(d1, wire);
    let medians_sum: f64 = stages.iter().map(|(_, p50)| p50).sum();
    for (stage, p50) in stages {
        m.insert(stage_metric(stage), ratio(p50, medians_sum));
    }
    m.insert("flatstore.stage.sum_p50_ns".into(), stage_sum);

    let traced_kops = need(p.sat.throughput_kops(), "traced throughput")?.value;
    m.insert("client.traced_throughput_kops".into(), traced_kops);
    m.insert("client.untraced_throughput_kops".into(), untraced_kops);
    m.insert(
        "flatstore.trace_overhead_frac".into(),
        1.0 - ratio(traced_kops, untraced_kops),
    );

    let d1_ops = d1.result.attempted.max(1) as f64;
    let rtt_us = need(d1.result.latency_us(Which::All, 50.0), "rtt")?.value;
    m.insert("client.gen_ns".into(), d1.result.gen_ns as f64 / d1_ops);
    m.insert(
        "client.submit_ns".into(),
        d1.result.submit_ns as f64 / d1_ops,
    );
    m.insert("client.rtt_p50_us".into(), rtt_us);
    m.insert(
        "client.blocked_frac".into(),
        p.sat.blocked_ns as f64 / (p.sat.secs * 1e9),
    );
    m.insert(
        "client.stall_frac".into(),
        p.sat.stall_ns as f64 / (p.sat.secs * 1e9),
    );
    m.insert(
        "client.lat_p999_us".into(),
        need(p.sat.latency_us(Which::All, 99.9), "p99.9")?.value,
    );
    for (name, q) in [
        ("client.get_put_p50_ratio", 50.0),
        ("client.get_put_p99_ratio", 99.0),
    ] {
        // A mix without one of the verbs has no such ratio and reads 0.
        let of = |which| p.sat.latency_us(which, q).map_or(0.0, |s| s.value);
        m.insert(name.into(), ratio(of(Which::Gets), of(Which::Puts)));
    }

    // 3. The in-process twin: the same stream without the wire, or
    // without the replica.
    let twin = match spec.front {
        Front::Wire => Some(true),
        Front::Repl => Some(false),
        _ => None,
    };
    if let Some(framed) = twin {
        let l = set_up(spec, Front::Session, framed, keys, 64)?;
        tally.attempted += keys;
        let mut stream = OpStream::new(spec.mix, keys, opts.seed, false);
        let mut t = l.sut.connect(framed)?;
        let secs = PhaseSecs {
            warm,
            d1: quarter / 2.0,
            sat: quarter / 2.0,
        };
        let tw = drive_phases(&l.sut, &mut *t, &mut stream, None, &secs, true, &mut tally);
        let twin_d1 = tw.d1.as_ref().ok_or("the twin has a depth-1 phase")?;
        let twin_rtt = need(twin_d1.result.latency_us(Which::All, 50.0), "twin rtt")?.value;
        let twin_kops = need(tw.sat.throughput_kops(), "twin throughput")?.value;
        if framed {
            m.insert("flatsrv.wire_tax_rtt_ratio".into(), ratio(rtt_us, twin_rtt));
            m.insert(
                "flatsrv.wire_tax_tput_ratio".into(),
                ratio(twin_kops, traced_kops),
            );
        } else {
            m.insert(
                "flatrepl.repl_tax_rtt_ratio".into(),
                ratio(rtt_us, twin_rtt),
            );
        }
    }
    if let Some(server) = l.sut.server() {
        let s = server.stats();
        m.insert(
            "flatsrv.slow_consumer_drops".into(),
            s.slow_consumer_drops.load(Ordering::Relaxed) as f64,
        );
        m.insert(
            "flatsrv.collision_misses".into(),
            s.collision_misses.load(Ordering::Relaxed) as f64,
        );
    }
    if let Some(repl) = l.sut.repl() {
        let s = repl.repl_stats();
        m.insert(
            "flatrepl.entries_per_ship".into(),
            ratio(s.shipped_entries.get() as f64, s.ship_batches.get() as f64),
        );
        m.insert(
            "flatrepl.ack_rtt_share".into(),
            ratio(s.ack_latency.snapshot().p50() as f64 / 1e3, rtt_us),
        );
    }

    // 4. Recovery, on the workload that crashes.
    if let Some(acked) = &acked {
        let chunks = (spec.pm_bytes as u64 / pmalloc::CHUNK_SIZE) as f64;
        let used_mb = (chunks - f64::from(l.sut.store().free_chunks())) * 4.0;
        let (reopened, open_s) = crash_and_open(l.sut)?;
        m.insert(
            "flatstore.recovery.scan_mkeys_per_s".into(),
            keys as f64 / open_s / 1e6,
        );
        m.insert("flatstore.recovery.log_mb".into(), used_mb);
        verify_survival(&reopened, &stream, acked, &mut tally)?;
    }

    // 5. The isolated primitives, priced one at a time.
    layers::measure(&mut m, opts.quick);

    // What the layers leave unexplained of the unloaded round trip. The
    // engine stamps only every 64th op and a stamped op is slower than
    // the rest, so in process the round trip it is held against is that
    // of the same sampled ops (their spans lie inside the harness's
    // submit→reply interval; `client.submit_ns` overlaps their first
    // stages and is not taken off again). The server's sessions sample
    // on their own count, so over the wire it is every op's round trip,
    // and the isolated wire costs are taken off too.
    let mut explained = stage_sum;
    let sampled_rtt_ns = if wire {
        for k in [
            "flatsrv.resp_parse_ns",
            "flatsrv.resp_encode_ns",
            "flatsrv.keymap_ns",
        ] {
            explained += m.get(k).copied().unwrap_or(0.0);
        }
        explained += m.get("flatsrv.sock_echo_rtt_us").copied().unwrap_or(0.0) * 1e3;
        rtt_us * 1e3
    } else {
        let ops = d1.result.spans.iter().filter(|s| s.kind == SpanKind::Op);
        median_ns(ops.map(|s| s.end_ns - s.start_ns).collect())
    };
    m.insert("client.sampled_rtt_p50_us".into(), sampled_rtt_ns / 1e3);
    m.insert("client.residual_p50_ns".into(), sampled_rtt_ns - explained);
    m.insert(
        "client.failed_frac".into(),
        ratio(tally.failed as f64, tally.attempted as f64),
    );

    if let Some(dir) = &opts.trace_out {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut harness = d1.result.spans.clone();
        harness.extend_from_slice(&p.sat.spans);
        let doc = spans::chrome_trace(spec.name, &harness, &d1.spans);
        std::fs::write(dir.join(format!("{}.trace.json", spec.name)), doc)
            .map_err(|e| e.to_string())?;
    }

    let metrics = PER_LAYER
        .iter()
        .map(|pl| Metric {
            name: pl.name.to_string(),
            unit: pl.unit,
            summary: Summary::single(m.remove(pl.name).unwrap_or(0.0)),
        })
        .collect();
    if let Some(stray) = m.keys().next() {
        return Err(format!("metric {stray} is not in the per-layer table"));
    }
    Ok(RunOutput {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    })
}
