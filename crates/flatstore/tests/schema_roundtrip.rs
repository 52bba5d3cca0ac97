//! The stats_report JSON schema gate (run by name from `scripts/check.sh`):
//! a live engine's report must emit → parse → re-emit byte-identically,
//! with every optional section populated so the gate covers the whole
//! schema surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flatstore::{Config, FlatStore, Op, ReplOp, ReplicationSink};
use obs::{Json, STATS_SCHEMA_VERSION};
use pmem::PmAddr;

struct CountingSink(Vec<AtomicU64>);

impl ReplicationSink for CountingSink {
    fn ship(&self, core: usize, _ops: Vec<ReplOp>, _tail: PmAddr) -> u64 {
        self.0[core].fetch_add(1, Ordering::AcqRel) + 1
    }

    fn acked(&self, core: usize) -> u64 {
        self.0[core].load(Ordering::Acquire)
    }
}

#[test]
fn stats_report_json_round_trips_byte_identical() {
    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(2)
        .group_size(2)
        .pipeline_depth(8)
        .trace_sample(2)
        .build()
        .expect("valid test config");
    let sink = Arc::new(CountingSink((0..2).map(|_| AtomicU64::new(0)).collect()));
    let store =
        FlatStore::create_with_replication(cfg, sink as Arc<dyn ReplicationSink>).expect("create");

    // Exercise every report section: batched puts (batching + breakdown +
    // replication), gets (cache), deletes (maintenance counters).
    let mut session = store.session().expect("session");
    for k in 0..256u64 {
        session.submit(Op::put(k, b"round-trip")).expect("put");
    }
    session.wait_all().expect("wait_all");
    drop(session);
    for k in 0..256u64 {
        store.get(k % 64).expect("get");
        let _ = k;
    }
    store.delete(3).expect("delete");

    let emitted = store.stats_report().to_json();
    let parsed = Json::parse(&emitted).expect("emitted report must parse");
    assert_eq!(
        parsed.dump(),
        emitted,
        "parse → re-emit must reproduce the document byte for byte"
    );
    assert_eq!(
        parsed.get("schema").and_then(Json::as_f64),
        Some(f64::from(STATS_SCHEMA_VERSION)),
        "schema version field"
    );
    // The gate is only meaningful if the run actually populated the new
    // section alongside the existing ones.
    let sections = parsed.get("sections").expect("sections");
    for sec in ["ops", "batching", "latency", "latency_breakdown", "pm"] {
        assert!(sections.get(sec).is_some(), "missing section {sec}");
    }
    store.shutdown().expect("shutdown");
}
