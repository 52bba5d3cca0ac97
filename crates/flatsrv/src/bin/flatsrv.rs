//! The `flatsrv` server binary: boots a FlatStore engine and serves the
//! RESP subset over TCP and/or Unix-domain sockets.
//!
//! ```sh
//! flatsrv --listen 127.0.0.1:6399 --unix /tmp/flatsrv.sock --ncores 4
//! ```
//!
//! Runs until a client issues `SHUTDOWN` (flatload's `--shutdown` flag
//! does this), then drains and prints the final engine stats report.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use flatsrv::server::{Listener, Server, ServerOpts, StatsSource};
use flatstore::{Config, FlatStore, IndexKind};

struct Args {
    listen: Vec<String>,
    unix: Vec<PathBuf>,
    pm_bytes: usize,
    ncores: usize,
    pipeline_depth: usize,
    index: IndexKind,
    write_buf_limit: usize,
    max_conns: usize,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: flatsrv [--listen ADDR:PORT]... [--unix PATH]... \
         [--pm-bytes N] [--ncores N] [--pipeline-depth N] \
         [--index hash|masstree|fastfair] [--write-buf-limit N] \
         [--max-conns N] [--quiet]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: Vec::new(),
        unix: Vec::new(),
        pm_bytes: 512 << 20,
        ncores: 4,
        pipeline_depth: 8,
        index: IndexKind::Masstree,
        write_buf_limit: 1 << 20,
        max_conns: 1024,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => {
                let v = val();
                args.listen
                    .push(v.strip_prefix("tcp://").unwrap_or(&v).to_string());
            }
            "--unix" => args.unix.push(PathBuf::from(val())),
            "--pm-bytes" => args.pm_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--ncores" => args.ncores = val().parse().unwrap_or_else(|_| usage()),
            "--pipeline-depth" => args.pipeline_depth = val().parse().unwrap_or_else(|_| usage()),
            "--index" => {
                args.index = match val().as_str() {
                    "hash" => IndexKind::Hash,
                    "masstree" => IndexKind::Masstree,
                    "fastfair" => IndexKind::FastFair,
                    _ => usage(),
                }
            }
            "--write-buf-limit" => args.write_buf_limit = val().parse().unwrap_or_else(|_| usage()),
            "--max-conns" => args.max_conns = val().parse().unwrap_or_else(|_| usage()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.listen.is_empty() && args.unix.is_empty() {
        args.listen.push("127.0.0.1:6399".to_string());
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    let cfg = match Config::builder()
        .pm_bytes(args.pm_bytes)
        .ncores(args.ncores)
        .group_size(args.ncores)
        .pipeline_depth(args.pipeline_depth)
        .index(args.index)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("flatsrv: bad config: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = match FlatStore::create(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flatsrv: engine boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = store.handle();
    let store = Arc::new(store);

    let mut listeners = Vec::new();
    for addr in &args.listen {
        match TcpListener::bind(addr) {
            Ok(l) => {
                if !args.quiet {
                    println!(
                        "flatsrv: listening on tcp://{}",
                        l.local_addr()
                            .map_or_else(|_| addr.clone(), |a| a.to_string())
                    );
                }
                listeners.push(Listener::Tcp(l));
            }
            Err(e) => {
                eprintln!("flatsrv: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for path in &args.unix {
        let _ = std::fs::remove_file(path); // stale socket from a dead run
        match UnixListener::bind(path) {
            Ok(l) => {
                if !args.quiet {
                    println!("flatsrv: listening on unix://{}", path.display());
                }
                listeners.push(Listener::Unix(l));
            }
            Err(e) => {
                eprintln!("flatsrv: cannot bind {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let stats_src: StatsSource = {
        let st = Arc::clone(&store);
        Arc::new(move || st.stats_report().to_json())
    };
    let server = match Server::start(
        handle,
        stats_src,
        listeners,
        ServerOpts {
            write_buf_limit: args.write_buf_limit,
            max_conns: args.max_conns,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flatsrv: server start failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let shutdown = server.wait();
    for path in &args.unix {
        let _ = std::fs::remove_file(path);
    }
    if !args.quiet {
        println!("{}", store.stats_report().to_json());
        println!(
            "flatsrv: exiting ({})",
            if shutdown {
                "client shutdown"
            } else {
                "stopped"
            }
        );
    }
    ExitCode::SUCCESS
}
