//! Pipelined client sessions over the FlatRPC fabric (paper §3.4/§4.3):
//! four client threads each keep eight operations in flight, so server
//! cores find many pending log entries at once and horizontal batching
//! persists them in cacheline-amortised batches instead of one fence per
//! request.
//!
//! ```sh
//! cargo run --release --example session_pipeline
//! ```

use flatstore::prelude::*;
use flatstore::FlatStore;

const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 25_000;

fn main() -> Result<(), StoreError> {
    let cfg = Config::builder()
        .pm_bytes(512 << 20)
        .ncores(4)
        .group_size(4)
        .pipeline_depth(8)
        .build()?;
    let store = FlatStore::create(cfg)?;

    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let mut session = store.session().expect("attach session");
            s.spawn(move || {
                // submit returns as soon as the request is on the
                // core's ring; completions are harvested out of order.
                for i in 0..OPS_PER_CLIENT {
                    let key = client << 32 | (i % 4096);
                    session
                        .submit(Op::put(key, format!("client{client}-op{i}")))
                        .expect("submit");
                    // A real client would do useful work here; we just
                    // drain whatever already completed.
                    for (_, result) in session.poll_completions() {
                        assert_eq!(result, Reply::Put(Ok(())));
                    }
                }
                for (_, result) in session.wait_all().expect("drain") {
                    assert_eq!(result, Reply::Put(Ok(())));
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();

    let total = CLIENTS * OPS_PER_CLIENT;
    let avg_batch = store.stats().avg_batch();
    println!(
        "{total} pipelined puts from {CLIENTS} depth-8 sessions in {secs:.2}s \
         ({:.0} ops/s), mean HB batch {avg_batch:.2}",
        total as f64 / secs
    );
    println!("{}", store.stats_report());

    // The point of pipelining: batches actually fill (depth-1 blocking
    // clients leave this pinned at ~1).
    assert!(
        avg_batch > 1.0,
        "expected batching to amortise persists, got {avg_batch:.3}"
    );

    store.shutdown()?;
    Ok(())
}
