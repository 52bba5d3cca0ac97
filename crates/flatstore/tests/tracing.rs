//! End-to-end causal tracing: a traced put under replication must report
//! its full causal stage chain, the stage deltas must sum to the
//! end-to-end latency, and the same numbers must be visible in the
//! `latency_breakdown` report section and the Chrome trace export.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flatstore::{Config, FlatStore, Op, ReplOp, ReplicationSink, Reply};
use obs::{Json, Stage};
use pmem::PmAddr;

/// In-test replication sink that acks every shipped batch instantly: the
/// engine's ack gate opens at once, but traced spans still pass through
/// the `repl_ship` and `repl_ack_wait` stages.
struct InstantSink {
    shipped: Vec<AtomicU64>,
    ops: AtomicU64,
}

impl InstantSink {
    fn new(ncores: usize) -> InstantSink {
        InstantSink {
            shipped: (0..ncores).map(|_| AtomicU64::new(0)).collect(),
            ops: AtomicU64::new(0),
        }
    }
}

impl ReplicationSink for InstantSink {
    fn ship(&self, core: usize, ops: Vec<ReplOp>, _tail: PmAddr) -> u64 {
        self.ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
        self.shipped[core].fetch_add(1, Ordering::AcqRel) + 1
    }

    fn acked(&self, core: usize) -> u64 {
        self.shipped[core].load(Ordering::Acquire)
    }
}

fn traced_cfg() -> Config {
    // pmlint: allow(no-unwrap) — test-only configuration.
    Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20) // read cache on → cache_invalidate stage
        .ncores(2)
        .group_size(2)
        .pipeline_depth(8)
        .trace_sample(1)
        .build()
        .expect("valid test config")
}

#[test]
fn traced_put_under_replication_reports_causal_stage_chain() {
    let sink = Arc::new(InstantSink::new(2));
    let store = FlatStore::create_with_replication(
        traced_cfg(),
        Arc::clone(&sink) as Arc<dyn ReplicationSink>,
    )
    .expect("create replicated store");
    let mut session = store.session().expect("session");
    for k in 0..64u64 {
        session.submit(Op::put(k, b"traced-value")).expect("submit");
    }
    for (_, r) in session.wait_all().expect("wait_all") {
        assert_eq!(r, Reply::Put(Ok(())));
    }
    assert!(sink.ops.load(Ordering::Relaxed) >= 64, "sink never shipped");

    let spans = session.drain_spans();
    assert_eq!(spans.len(), 64, "trace_sample=1 must trace every op");
    let span = spans
        .iter()
        .max_by_key(|s| s.stamps.len())
        .expect("non-empty");

    // ≥ 7 distinct causal stages on a replicated put (10 expected here).
    let stages: BTreeSet<Stage> = span.stamps.iter().map(|&(s, _)| s).collect();
    assert!(
        stages.len() >= 7,
        "only {} distinct stages: {stages:?}",
        stages.len()
    );
    for required in [
        Stage::ClientEnqueue,
        Stage::RingTransit,
        Stage::ShardPoll,
        Stage::KeyGate,
        Stage::LeaderPersist,
        Stage::ReplShip,
        Stage::ReplAckWait,
        Stage::Delivery,
    ] {
        assert!(stages.contains(&required), "missing stage {required:?}");
    }

    // The stage deltas must account for the whole end-to-end latency.
    let total = span.total_ns();
    assert!(total > 0, "span has no duration");
    let sum: u64 = span.deltas().iter().map(|&(_, d)| d).sum();
    assert!(
        sum.abs_diff(total) <= total / 100,
        "stage deltas sum to {sum} ns but end-to-end is {total} ns"
    );

    // Same story in the stats report's latency_breakdown section...
    let report = store.stats_report();
    let json = Json::parse(&report.to_json()).expect("report JSON parses");
    let breakdown = json
        .get("sections")
        .and_then(|s| s.get("latency_breakdown"))
        .expect("latency_breakdown section");
    assert!(
        breakdown
            .get("spans")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 64.0),
        "breakdown spans row missing or too small"
    );
    for row in [
        "client_enqueue_p50_ns",
        "ring_transit_p50_ns",
        "shard_poll_p50_ns",
        "key_gate_p50_ns",
        "batch_join_p50_ns",
        "leader_persist_p50_ns",
        "repl_ship_p50_ns",
        "repl_ack_wait_p50_ns",
        "cache_invalidate_p50_ns",
        "delivery_p50_ns",
        "end_to_end_p50_ns",
        "persist_per_entry_p50_ns",
    ] {
        assert!(breakdown.get(row).is_some(), "missing breakdown row {row}");
    }

    // ...and in the Chrome export: the chosen op's stage events must sum
    // (in fractional microseconds) to its end-to-end latency.
    let doc = store.chrome_trace(&spans);
    let parsed = Json::parse(&doc).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let dur_us: f64 = events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_f64)
                == Some(span.ctx.trace_id as f64)
        })
        .filter_map(|e| e.get("dur").and_then(Json::as_f64))
        .sum();
    let total_us = total as f64 / 1000.0;
    assert!(
        (dur_us - total_us).abs() <= total_us * 0.01 + 1e-3,
        "chrome durations sum to {dur_us} us but end-to-end is {total_us} us"
    );
    // Batch spans from the leader's flight ring ride along in the export.
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("batch_persist")),
        "no batch_persist spans in the chrome export"
    );

    store.shutdown().expect("shutdown");
}

#[test]
fn traced_get_takes_the_short_path() {
    let store = FlatStore::create(traced_cfg()).expect("create store");
    store.put(9, b"value").expect("put");
    let mut session = store.session().expect("session");
    let t = session.submit(Op::Get { key: 9 }).expect("submit");
    assert_eq!(
        session.wait(t).expect("wait"),
        Reply::Get(Ok(Some(b"value".to_vec())))
    );
    let spans = session.drain_spans();
    let span = spans.iter().find(|s| !s.stamps.is_empty()).expect("span");
    let stages: BTreeSet<Stage> = span.stamps.iter().map(|&(s, _)| s).collect();
    for required in [Stage::RingTransit, Stage::Execute, Stage::Delivery] {
        assert!(stages.contains(&required), "missing stage {required:?}");
    }
    assert!(
        !stages.contains(&Stage::LeaderPersist) && !stages.contains(&Stage::BatchJoin),
        "a get must not pass through the persist pipeline: {stages:?}"
    );
    store.shutdown().expect("shutdown");
}

#[test]
fn trace_sample_zero_records_nothing() {
    // pmlint: allow(no-unwrap) — test-only configuration.
    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .ncores(2)
        .group_size(2)
        .pipeline_depth(4)
        .build()
        .expect("valid test config");
    let store = FlatStore::create(cfg).expect("create store");
    let mut session = store.session().expect("session");
    for k in 0..32u64 {
        session.submit(Op::put(k, b"untraced")).expect("submit");
    }
    session.wait_all().expect("wait_all");
    assert!(session.drain_spans().is_empty(), "unsampled ops left spans");
    let json = store.stats_report().to_json();
    assert!(
        !json.contains("latency_breakdown"),
        "breakdown section must be absent with trace_sample=0"
    );
    store.shutdown().expect("shutdown");
}
