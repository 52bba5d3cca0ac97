//! Crash flight recorder, end to end: a panic inside a shard worker (the
//! `FLATSTORE_CRASH_TEST_KEY` knob) with `FLATSTORE_CRASH_DIR` armed must
//! leave a crash dump that parses as JSON and contains the in-flight
//! operation's *partial* stage vector.
//!
//! The panicked worker can never rejoin the engine's drain-quiet exit
//! protocol, so the test leaks the session and store instead of joining
//! them (`std::mem::forget`) — the dump, not the shutdown, is under test.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use flatstore::{Config, FlatStore, Op};
use obs::Json;

fn dump_dir() -> PathBuf {
    // target/crash-dump-test: a stable path the CI workflow uploads as an
    // artifact after this test runs.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/crash-dump-test")
}

fn dumps_in(dir: &PathBuf) -> HashSet<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("flatstore-crash-"))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn shard_panic_dumps_partial_stage_vector() {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir).expect("create dump dir");
    // Both variables are read before any worker starts: the dir on first
    // dump, the poisoned key once per shard at construction.
    std::env::set_var("FLATSTORE_CRASH_DIR", &dir);
    std::env::set_var("FLATSTORE_CRASH_TEST_KEY", "7");
    let before = dumps_in(&dir);

    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .ncores(2)
        .group_size(2)
        .pipeline_depth(4)
        .trace_sample(1)
        .build()
        .expect("valid test config");
    let store = FlatStore::create(cfg).expect("create store");
    let mut session = store.session().expect("session");
    session
        .submit(Op::put(7, b"boom"))
        .expect("submit poisoned put");

    // The owning worker panics while the put is in flight; the panic hook
    // dumps every live registry. Poll for the new file.
    let mut dump = None;
    for _ in 0..200 {
        if let Some(p) = dumps_in(&dir).difference(&before).next() {
            dump = Some(p.clone());
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let dump = dump.expect("no crash dump appeared within 20s");

    let body = std::fs::read_to_string(&dump).expect("read dump");
    let json = Json::parse(&body).expect("crash dump must parse as JSON");
    assert!(
        json.get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("panic")),
        "dump reason must record the panic"
    );
    // The full stats report rides along for post-mortems.
    assert!(
        json.get("stats_report")
            .and_then(|s| s.get("schema"))
            .is_some(),
        "dump must embed the stats_report"
    );

    // Find the poisoned op's record: it crashed mid-flight, so its stage
    // vector is partial — the ingress stages are there, delivery is not.
    let flight = json.get("flight").and_then(Json::as_arr).expect("flight");
    let record = flight
        .iter()
        .filter_map(|core| core.get("records").and_then(Json::as_arr))
        .flatten()
        .find(|r| {
            r.get("detail")
                .and_then(Json::as_str)
                .is_some_and(|d| d.contains("crash-test"))
        })
        .expect("no flight record for the in-flight op");
    assert!(
        matches!(record.get("ok"), Some(Json::Bool(false))),
        "the crashed op must not be marked ok"
    );
    let stamps: Vec<&str> = record
        .get("stamps")
        .and_then(Json::as_arr)
        .expect("stamps")
        .iter()
        .filter_map(|s| s.as_arr()?.first()?.as_str())
        .collect();
    assert!(
        stamps.contains(&"ring_transit"),
        "partial stage vector must include the ingress stages: {stamps:?}"
    );
    assert!(
        !stamps.contains(&"delivery"),
        "a crashed op can never have a delivery stamp: {stamps:?}"
    );

    // Leak instead of joining: the dead worker would wedge shutdown.
    std::mem::forget(session);
    std::mem::forget(store);
    std::env::remove_var("FLATSTORE_CRASH_TEST_KEY");
}
