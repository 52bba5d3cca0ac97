//! Figure 12 — latency vs throughput of Pipelined HB against Vertical
//! batching for client batch sizes 1, 4 and 8, sweeping the client count.

use flatstore_bench::{run, ycsb_put, Bench, Col, Scale};
use simkv::{Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let client_counts = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];

    let mut bench = Bench::new("fig12");
    for batch in [1usize, 4, 8] {
        println!("== Figure 12: client batchsize = {batch} ==");
        bench
            .table(
                &format!("fig12_client_batch_{batch}"),
                9,
                [
                    Col::headed("Vert Mops", "Vertical", "mops"),
                    Col::headed("Vert lat(us)", "Vertical", "avg_lat_us"),
                    Col::headed("Pipe Mops", "PipelinedHB", "mops"),
                    Col::headed("Pipe lat(us)", "PipelinedHB", "avg_lat_us"),
                ]
                .map(|c| c.fmt(14, 2)),
            )
            .header("clients", "");
        for &clients in &client_counts {
            if clients > scale.clients * 2 {
                break;
            }
            let mut row = Vec::new();
            for model in [ExecModel::Vertical, ExecModel::PipelinedHb] {
                let mut cfg = scale.config();
                cfg.engine = Engine::FlatStore {
                    model,
                    index: SimIndex::Hash,
                };
                cfg.clients = clients;
                cfg.client_batch = batch;
                cfg.workload = ycsb_put(64, false);
                cfg.ops = (scale.ops / 2).max(10_000);
                cfg.warmup = cfg.ops / 10;
                let s = run(&cfg);
                row.extend([s.mops, s.avg_latency_ns / 1000.0]);
            }
            bench.print_row(&clients.to_string(), &row);
        }
        println!();
    }
    bench.finish();
}
