//! FlatRPC fabric demo (paper §4.3): clients write requests into per-core
//! message buffers; server cores poll, serve a tiny per-core KV map and
//! answer each client on their own response ring.
//!
//! ```sh
//! cargo run --release --example flatrpc_echo
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flatrpc::Fabric;

#[derive(Debug)]
enum Req {
    Put(u64, u64),
    Get(u64),
}

fn main() {
    let ncores = 3usize;
    let nclients = 4usize;
    let per_client = 20_000u64;

    let fabric = Arc::new(Fabric::<Req, Option<u64>>::new(ncores, nclients, 128));
    let stop = Arc::new(AtomicBool::new(false));

    // Server cores: poll the message buffers, serve a per-core map.
    let mut servers = Vec::new();
    for mut core in fabric.server_cores() {
        let stop = Arc::clone(&stop);
        servers.push(std::thread::spawn(move || {
            let mut map = std::collections::HashMap::new();
            while !stop.load(Ordering::Relaxed) {
                if let Some((client, req)) = core.poll() {
                    let resp = match req {
                        Req::Put(k, v) => map.insert(k, v),
                        Req::Get(k) => map.get(&k).copied(),
                    };
                    core.respond(client, resp);
                } else {
                    std::thread::yield_now();
                }
            }
        }));
    }

    let t = std::time::Instant::now();
    let mut clients = Vec::new();
    for id in 0..nclients {
        let port = fabric.client_port(id);
        clients.push(std::thread::spawn(move || {
            for i in 0..per_client {
                let key = ((id as u64) << 32) | (i % 500);
                let core = (key % 3) as usize;
                let req = if i % 2 == 0 {
                    Req::Put(key, i)
                } else {
                    Req::Get(key)
                };
                let mut msg = req;
                while let Err(back) = port.send(core, msg) {
                    msg = back;
                    std::thread::yield_now();
                }
                let _ = port.recv();
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().unwrap();
    }

    let stats = fabric.stats();
    let total = nclients as u64 * per_client;
    assert_eq!(stats.responses.load(Ordering::Relaxed), total);
    println!(
        "{total} RPCs in {:?} over {ncores} cores — {} responses",
        t.elapsed(),
        stats.responses.load(Ordering::Relaxed),
    );
}
