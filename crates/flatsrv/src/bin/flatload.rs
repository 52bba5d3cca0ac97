//! The `flatload` load generator: drives the ETC workload at a running
//! `flatsrv` over pipelined RESP connections, then reads the engine's
//! own `INFO` figures back over the wire.
//!
//! ```sh
//! flatload --tcp 127.0.0.1:6399 --conns 4 --depth 8 --ops 50000
//! flatload --unix /tmp/flatsrv.sock --assert-batch-gt 1.0 --shutdown
//! ```
//!
//! `--compare` needs no server: it boots a fresh engine per transport
//! (in-process sessions, loopback TCP, Unix socket), runs identical
//! seeded workloads, and emits the three-way BENCH_7 JSON.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use flatsrv::load::{self, LoadOpts, LoadSummary, Target};
use flatsrv::server::{Listener, Server, ServerOpts, StatsSource};
use flatstore::{Config, FlatStore};

struct Args {
    target: Option<Target>,
    opts: LoadOpts,
    assert_batch_gt: Option<f64>,
    shutdown: bool,
    json: bool,
    compare: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: flatload (--tcp ADDR:PORT | --unix PATH | --compare) \
         [--conns N] [--depth N] [--ops N] [--keyspace N] [--put-ratio F] \
         [--seed N] [--assert-batch-gt F] [--shutdown] [--json] [--out PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        target: None,
        opts: LoadOpts::default(),
        assert_batch_gt: None,
        shutdown: false,
        json: false,
        compare: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--tcp" => args.target = Some(Target::Tcp(val())),
            "--unix" => args.target = Some(Target::Unix(PathBuf::from(val()))),
            "--conns" => args.opts.conns = val().parse().unwrap_or_else(|_| usage()),
            "--depth" => args.opts.depth = val().parse().unwrap_or_else(|_| usage()),
            "--ops" => args.opts.ops = val().parse().unwrap_or_else(|_| usage()),
            "--keyspace" => args.opts.keyspace = val().parse().unwrap_or_else(|_| usage()),
            "--put-ratio" => args.opts.put_ratio = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--assert-batch-gt" => {
                args.assert_batch_gt = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--shutdown" => args.shutdown = true,
            "--json" => args.json = true,
            "--compare" => args.compare = true,
            "--out" => args.out = Some(PathBuf::from(val())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.compare == args.target.is_some() {
        usage(); // exactly one of --compare / a target
    }
    args
}

fn print_summary(s: &LoadSummary, label: &str, json: bool) {
    if json {
        println!("{}", s.to_json(label));
    } else {
        print!(
            "flatload [{label}]: {} ops in {:.2}s ({:.3} Mops/s), \
             p50 {:.1}us p99 {:.1}us, {} errors",
            s.ops, s.secs, s.mops, s.p50_us, s.p99_us, s.errors
        );
        if let Some(b) = s.avg_batch {
            print!(", mean HB batch {b:.2}");
        }
        if let Some(h) = s.cache_hit_rate {
            print!(", cache hit rate {h:.2}");
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.compare {
        return compare(&args);
    }
    let target = args.target.as_ref().expect("checked in parse_args");

    let summary = match load::run_wire(target, &args.opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flatload: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_summary(&summary, "wire", args.json);

    let mut ok = true;
    if summary.errors > 0 {
        eprintln!("flatload: {} commands answered -ERR", summary.errors);
        ok = false;
    }
    if let Some(min) = args.assert_batch_gt {
        match summary.avg_batch {
            Some(b) if b > min => {}
            Some(b) => {
                eprintln!("flatload: mean HB batch {b:.3} not > {min}");
                ok = false;
            }
            None => {
                eprintln!("flatload: INFO did not report avg_batch");
                ok = false;
            }
        }
    }
    if args.shutdown {
        if let Err(e) = load::shutdown(target) {
            eprintln!("flatload: shutdown failed: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Boots a fresh engine, runs the workload through `drive`, and returns
/// the summary with the engine's own mean batch size attached.
fn measured<F>(opts: &LoadOpts, drive: F) -> Result<LoadSummary, String>
where
    F: FnOnce(&Arc<FlatStore>) -> Result<LoadSummary, String>,
{
    let cfg = Config::builder()
        .pm_bytes(512 << 20)
        .ncores(4)
        .group_size(4)
        .pipeline_depth(opts.depth.max(1))
        .build()
        .map_err(|e| e.to_string())?;
    let store = Arc::new(FlatStore::create(cfg).map_err(|e| e.to_string())?);
    let mut summary = drive(&store)?;
    summary.avg_batch = Some(store.stats().avg_batch());
    Ok(summary)
}

fn serve(store: &Arc<FlatStore>, listener: Listener) -> std::io::Result<Server> {
    let st = Arc::clone(store);
    let stats_src: StatsSource = Arc::new(move || st.stats_report().to_json());
    Server::start(
        store.handle(),
        stats_src,
        vec![listener],
        ServerOpts::default(),
    )
}

fn compare(args: &Args) -> ExitCode {
    let opts = &args.opts;
    let mut rows: Vec<String> = Vec::new();

    let inproc = measured(opts, |store| {
        load::run_inproc(&store.handle(), opts).map_err(|e| e.to_string())
    });

    let tcp = measured(opts, |store| {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server = serve(store, Listener::Tcp(l)).map_err(|e| e.to_string())?;
        let addr = server.tcp_addrs()[0].to_string();
        let r = load::run_wire(&Target::Tcp(addr), opts).map_err(|e| e.to_string());
        server.stop();
        r
    });

    let unix = measured(opts, |store| {
        let path = std::env::temp_dir().join(format!(
            "flatsrv-bench-{}-{}.sock",
            std::process::id(),
            opts.seed
        ));
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path).map_err(|e| e.to_string())?;
        let server = serve(store, Listener::Unix(l)).map_err(|e| e.to_string())?;
        let r = load::run_wire(&Target::Unix(path.clone()), opts).map_err(|e| e.to_string());
        server.stop();
        let _ = std::fs::remove_file(&path);
        r
    });

    for (label, result) in [("inproc", inproc), ("tcp", tcp), ("unix", unix)] {
        match result {
            Ok(s) => {
                print_summary(&s, label, false);
                rows.push(s.to_json(label));
            }
            Err(e) => {
                eprintln!("flatload: {label} run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let json = format!(
        "{{\"bench\":\"wire_transports\",\"workload\":\"etc\",\"ops\":{},\"conns\":{},\"depth\":{},\"keyspace\":{},\"put_ratio\":{},\"seed\":{},\"transports\":[{}]}}",
        opts.ops,
        opts.conns,
        opts.depth,
        opts.keyspace,
        obs::json::number(opts.put_ratio),
        opts.seed,
        rows.join(",")
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("flatload: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("flatload: wrote {}", path.display());
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
