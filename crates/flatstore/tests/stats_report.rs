//! `FlatStore::stats_report` end-to-end: drive real operations through the
//! engine and check that the unified report carries coherent counters and
//! latency percentiles from the client-observed histograms.

use flatstore::{Config, FlatStore};
use obs::Value;
use workloads::value_bytes;

fn num(report: &obs::StatsReport, section: &str, row: &str) -> f64 {
    match report.get(section, row) {
        Some(Value::U64(v)) => *v as f64,
        Some(Value::F64(v)) => *v,
        other => panic!("missing numeric row [{section}] {row}: {other:?}"),
    }
}

#[test]
fn report_carries_op_counts_and_latency_percentiles() {
    let store = FlatStore::create(
        Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .crash_tracking(false)
            .build()
            .unwrap(),
    )
    .unwrap();

    for k in 0..200u64 {
        store.put(k, value_bytes(k, 32)).unwrap();
    }
    for k in 0..200u64 {
        assert!(store.get(k).unwrap().is_some());
    }
    assert!(store.delete(7).unwrap());

    let r = store.stats_report();

    assert_eq!(num(&r, "ops", "puts"), 200.0);
    assert_eq!(num(&r, "ops", "gets"), 200.0);
    assert_eq!(num(&r, "ops", "deletes"), 1.0);

    // Latency histograms: every op was recorded, and the percentile chain
    // is ordered the way percentiles must be.
    assert_eq!(num(&r, "latency", "put_count"), 200.0);
    assert_eq!(num(&r, "latency", "get_count"), 200.0);
    let p50 = num(&r, "latency", "put_p50_ns");
    let p99 = num(&r, "latency", "put_p99_ns");
    let max = num(&r, "latency", "put_max_ns");
    assert!(p50 > 0.0, "put p50 {p50}");
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    assert!(p99 <= max, "p99 {p99} > max {max}");

    // Fabric counters: every operation crossed the rings, and with every
    // op acknowledged, each delivered request was answered exactly once.
    let requests = num(&r, "fabric", "requests");
    assert!(requests >= 401.0, "fabric requests {requests}");
    assert_eq!(num(&r, "fabric", "responses"), requests);
    assert!(num(&r, "fabric", "clients_attached") >= 1.0);

    // The session layer recorded one completion per data operation.
    assert_eq!(num(&r, "session", "completion_count"), 401.0);

    // The region's persistence counters ride along in the same report.
    assert!(num(&r, "pm", "flushes") > 0.0);
    assert!(num(&r, "pm", "fences") > 0.0);
    assert!(num(&r, "batching", "batches") >= 1.0);

    // And the whole thing serialises to valid JSON.
    let json = r.to_json();
    obs::Json::parse(&json).expect("stats report JSON must parse");
}

/// `open` adds a `recovery` section naming the path it took, what it
/// found and where its time went; a store built by `create` has none.
#[test]
fn recovery_section_reports_each_open_path() {
    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(2)
        .group_size(2)
        .crash_tracking(true)
        .build()
        .unwrap();
    let store = FlatStore::create(cfg.clone()).unwrap();
    assert!(store.stats_report().get("recovery", "path").is_none());
    for k in 0..500u64 {
        store.put(k, value_bytes(k, 32)).unwrap();
    }
    for k in 0..100u64 {
        store.put(k, value_bytes(k + 1, 32)).unwrap();
    }

    // Path 3: bare crash, full scan; the 100 first versions lose.
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, cfg.clone()).unwrap();
    let r = store.stats_report();
    assert_eq!(num(&r, "recovery", "path"), 3.0);
    assert_eq!(num(&r, "recovery", "entries_scanned"), 600.0);
    assert_eq!(num(&r, "recovery", "keys_loaded"), 500.0);
    assert_eq!(num(&r, "recovery", "stale_entries"), 100.0);
    for phase in [
        "scan_ns",
        "newest_wins_ns",
        "index_build_ns",
        "index_load_ns",
    ] {
        assert!(num(&r, "recovery", phase) > 0.0, "{phase}");
    }

    // Path 1: ten more Puts, clean shutdown, snapshot only.
    for k in 500..510u64 {
        store.put(k, value_bytes(k, 32)).unwrap();
    }
    let pm = store.shutdown().unwrap();
    let store = FlatStore::open(pm, cfg).unwrap();
    let r = store.stats_report();
    assert_eq!(num(&r, "recovery", "path"), 1.0);
    assert_eq!(num(&r, "recovery", "entries_scanned"), 0.0);
    assert_eq!(num(&r, "recovery", "keys_loaded"), 510.0);
    assert!(num(&r, "recovery", "index_load_ns") > 0.0);
}
