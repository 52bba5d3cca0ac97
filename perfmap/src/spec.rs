//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. Later performance
//! and simplicity issues refer to these names; `BENCHMARK.json` lists
//! the same ones (a unit test holds the two together).

use crate::gen::Mix;

/// What sits between the load generator and the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// A pipelined `Session` on the in-process FlatRPC fabric.
    Session,
    /// `flatsrv::Server` on a Unix socket, RESP over one connection.
    Wire,
    /// `flatrepl::ReplicatedStore`: every ack waits for the backup.
    Repl,
    /// `Session`, then `kill()` + `simulate_crash()` + `open()`.
    Crash,
}

/// One workload: the engine configuration and the traffic it receives.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub front: Front,
    pub ncores: usize,
    pub group_size: usize,
    pub pm_bytes: usize,
    pub keys: u64,
    pub mix: Mix,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "put64_hb",
        // 100 % Put of 64 B inline values, uniform, 2 cores in one HB group:
        // oplog append, HB steal and pmem flush/fence do all the work;
        // allocator, cleaner, cache and wire do none
        front: Front::Session,
        ncores: 2,
        group_size: 2,
        pm_bytes: 1 << 30,
        keys: 400_000,
        mix: Mix::Uniform {
            value_len: 64,
            put_ratio: 1.0,
        },
    },
    Spec {
        name: "get_uniform",
        // 100 % Get, uniform over a footprint far larger than the 8 MiB read
        // cache: ring round trip, index lookup and log read only; the write
        // path is bypassed, so a batching or flush change must show no
        // change here
        front: Front::Session,
        ncores: 1,
        group_size: 1,
        pm_bytes: 256 << 20,
        keys: 800_000,
        mix: Mix::Uniform {
            value_len: 64,
            put_ratio: 0.0,
        },
    },
    Spec {
        name: "churn256_gc",
        // 50 % Put / 50 % Get of 256 B inline values, uniform over 4 k keys
        // in a 64 MiB pool: the log fills a chunk every 100 ms, so the
        // cleaner must recycle dead chunks all run long while Gets
        // (cache-resident) run beside the writes
        front: Front::Session,
        ncores: 1,
        group_size: 1,
        pm_bytes: 64 << 20,
        keys: 4_000,
        mix: Mix::Uniform {
            value_len: 256,
            put_ratio: 0.5,
        },
    },
    Spec {
        name: "etc_wire",
        // Facebook ETC mix (trimodal sizes, zipf 0.99, 50 % SET) over RESP
        // on a Unix socket, one connection: flatsrv parse/encode, keymap,
        // sweep loop and socket do most of the work
        front: Front::Wire,
        ncores: 1,
        group_size: 1,
        pm_bytes: 512 << 20,
        keys: 100_000,
        mix: Mix::Etc { put_ratio: 0.5 },
    },
    Spec {
        name: "repl_put64",
        // 100 % Put of 64 B through a ReplicatedStore: the put64_hb engine
        // path plus one batched ship and ack per HB batch, so a batching
        // change that starves shipping shows here
        front: Front::Repl,
        ncores: 1,
        group_size: 1,
        pm_bytes: 512 << 20,
        keys: 200_000,
        mix: Mix::Uniform {
            value_len: 64,
            put_ratio: 1.0,
        },
    },
    Spec {
        name: "crash_recover",
        // 50 % Put zipf with crash tracking on, then kill, drop every
        // unflushed byte and reopen: acked writes must survive, and
        // throughput_kops is keys recovered per second of FlatStore::open
        front: Front::Crash,
        ncores: 2,
        group_size: 2,
        pm_bytes: 256 << 20,
        keys: 200_000,
        mix: Mix::Zipf {
            value_len: 64,
            put_ratio: 0.5,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the baseline's value by which
/// it may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_kops",
        unit: "kops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pm_write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: produced by the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// Every per-layer metric, prefixed with the module that owns it. A
/// traced run prints all of them. Every metric that is a time is
/// measured on every workload; one that a workload can lack (no Gets,
/// no wire, no replica, no crash) is a count or a ratio and reads 0
/// there.
pub const PER_LAYER: [PerLayer; 64] = [
    layer("pmem.flushes_per_put", "count"),
    layer("pmem.fences_per_put", "count"),
    layer("pmem.bytes_per_put", "B"),
    layer("pmem.redundant_flush_ratio", "ratio"),
    layer("pmem.reads_per_get", "count"),
    layer("pmem.write64_ns", "ns"),
    layer("pmem.persist64_ns", "ns"),
    layer("oplog.append_b1_ns", "ns"),
    layer("oplog.append_b4_ns", "ns"),
    layer("oplog.append_b16_ns", "ns"),
    layer("pmalloc.alloc_free_1k_ns", "ns"),
    layer("pmalloc.free_chunks_min", "count"),
    layer("indexes.cceh_insert_ns", "ns"),
    layer("indexes.cceh_get_ns", "ns"),
    layer("masstree.insert_ns", "ns"),
    layer("masstree.get_ns", "ns"),
    layer("flatrpc.ring_rtt_ns", "ns"),
    layer("flatrpc.send_backpressure_per_kop", "count"),
    layer("flatrpc.peak_ring_occupancy", "count"),
    layer("flatstore.hb.avg_batch", "count"),
    layer("flatstore.hb.batch_p99", "count"),
    layer("flatstore.gate.deferred_per_kop", "count"),
    layer("flatstore.cache.hit_rate", "ratio"),
    layer("flatstore.gc.chunks_per_s", "1/s"),
    layer("flatstore.gc.relocated_per_put", "count"),
    layer("flatstore.stage.client_enqueue_share", "ratio"),
    layer("flatstore.stage.ring_transit_share", "ratio"),
    layer("flatstore.stage.shard_poll_share", "ratio"),
    layer("flatstore.stage.key_gate_share", "ratio"),
    layer("flatstore.stage.execute_share", "ratio"),
    layer("flatstore.stage.batch_join_share", "ratio"),
    layer("flatstore.stage.leader_persist_share", "ratio"),
    layer("flatstore.stage.repl_ship_share", "ratio"),
    layer("flatstore.stage.repl_ack_wait_share", "ratio"),
    layer("flatstore.stage.cache_invalidate_share", "ratio"),
    layer("flatstore.stage.delivery_share", "ratio"),
    layer("flatstore.stage.sum_p50_ns", "ns"),
    layer("flatstore.trace_overhead_frac", "ratio"),
    layer("flatstore.recovery.scan_mkeys_per_s", "Mkeys/s"),
    layer("flatstore.recovery.log_mb", "MiB"),
    layer("flatsrv.resp_parse_ns", "ns"),
    layer("flatsrv.resp_encode_ns", "ns"),
    layer("flatsrv.keymap_ns", "ns"),
    layer("flatsrv.sock_echo_rtt_us", "us"),
    layer("flatsrv.wire_tax_rtt_ratio", "ratio"),
    layer("flatsrv.wire_tax_tput_ratio", "ratio"),
    layer("flatsrv.slow_consumer_drops", "count"),
    layer("flatsrv.collision_misses", "count"),
    layer("flatrepl.entries_per_ship", "count"),
    layer("flatrepl.ack_rtt_share", "ratio"),
    layer("flatrepl.repl_tax_rtt_ratio", "ratio"),
    layer("client.gen_ns", "ns"),
    layer("client.submit_ns", "ns"),
    layer("client.blocked_frac", "ratio"),
    layer("client.stall_frac", "ratio"),
    layer("client.lat_p999_us", "us"),
    layer("client.get_put_p50_ratio", "ratio"),
    layer("client.get_put_p99_ratio", "ratio"),
    layer("client.rtt_p50_us", "us"),
    layer("client.sampled_rtt_p50_us", "us"),
    layer("client.traced_throughput_kops", "kops/s"),
    layer("client.untraced_throughput_kops", "kops/s"),
    layer("client.residual_p50_ns", "ns"),
    layer("client.failed_frac", "ratio"),
];

/// Name of the per-layer metric holding `stage`'s share of
/// `flatstore.stage.sum_p50_ns`.
pub fn stage_metric(stage: obs::Stage) -> String {
    format!("flatstore.stage.{}_share", stage.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_in_the_allowed_charset_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(!name_ok("has space") && !name_ok(".dot") && !name_ok("µs"));
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_engine_stage_has_its_metric() {
        for stage in obs::Stage::ALL {
            let name = stage_metric(stage);
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` and these tables are the same list.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = obs::Json::parse(&text).expect("valid JSON");
        let entries = |key: &str| {
            doc.get(key)
                .and_then(obs::Json::as_arr)
                .expect("array")
                .iter()
        };
        let text_of = |entry: &obs::Json, key: &str| -> String {
            entry
                .get(key)
                .and_then(obs::Json::as_str)
                .expect("string")
                .to_string()
        };
        let names =
            |key: &str| -> Vec<String> { entries(key).map(|e| text_of(e, "name")).collect() };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name.to_string()));
        for (entry, m) in entries("end_to_end").zip(&END_TO_END) {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(
                (text_of(entry, "unit"), text_of(entry, "better")),
                (m.unit.to_string(), better.to_string())
            );
            assert_eq!(
                entry.get("bound").and_then(obs::Json::as_f64),
                Some(m.bound)
            );
        }
        for (entry, m) in entries("per_layer").zip(&PER_LAYER) {
            assert_eq!(text_of(entry, "unit"), m.unit);
        }
        for entry in entries("workloads") {
            let why = text_of(entry, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
