//! The `flatload` load generator: drives the ETC workload at a running
//! `flatsrv` over pipelined RESP connections, then reads the engine's
//! own `INFO` figures back over the wire.
//!
//! ```sh
//! flatload --tcp 127.0.0.1:6399 --conns 4 --depth 8 --ops 50000
//! flatload --unix /tmp/flatsrv.sock --assert-batch-gt 1.0 --shutdown
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use flatsrv::load::{self, LoadOpts, LoadSummary, Target};

struct Args {
    target: Option<Target>,
    opts: LoadOpts,
    assert_batch_gt: Option<f64>,
    shutdown: bool,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: flatload (--tcp ADDR:PORT | --unix PATH) \
         [--conns N] [--depth N] [--ops N] [--keyspace N] [--put-ratio F] \
         [--seed N] [--assert-batch-gt F] [--shutdown] [--json]"
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
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.target.is_none() {
        usage();
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
