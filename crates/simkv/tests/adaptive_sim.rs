//! Adaptive-batching gate over the DES: across key skew × static group
//! sizes, the self-tuning configuration must land within 5% of the best
//! static operating point and strictly beat the worst one — the claim
//! the `tuner10` bench target sweeps at full scale, pinned here at test
//! scale.

use simkv::{run, Engine, ExecModel, SimConfig, SimIndex, WorkloadSpec};
use workloads::KeyDist;

fn base(dist: KeyDist) -> SimConfig {
    SimConfig {
        engine: Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        },
        ncores: 8,
        group_size: 8,
        clients: 64,
        client_batch: 8,
        keyspace: 20_000,
        ops: 40_000,
        warmup: 4_000,
        workload: WorkloadSpec::Ycsb {
            dist,
            value_len: 64,
            put_ratio: 1.0,
        },
        ..SimConfig::default()
    }
}

/// The tentpole's acceptance claim: at every swept (skew, scale) point,
/// adaptive ≥ 0.95 × best-static and > worst-static. Group size 1 is in
/// the static sweep on purpose — it degenerates to vertical-ish batching
/// and anchors "worst" somewhere a fixed config really does land.
#[test]
fn adaptive_tracks_best_static_across_skew() {
    let dists = [
        ("uniform", KeyDist::Uniform),
        ("zipf-0.9", KeyDist::Zipfian { theta: 0.9 }),
        ("zipf-0.99", KeyDist::Zipfian { theta: 0.99 }),
    ];
    for (name, dist) in dists {
        let statics: Vec<(usize, f64)> = [1usize, 4, 8]
            .iter()
            .map(|&gs| {
                let mut c = base(dist);
                c.group_size = gs;
                (gs, run(&c).mops)
            })
            .collect();
        let best = statics.iter().map(|&(_, m)| m).fold(0.0, f64::max);
        let worst = statics
            .iter()
            .map(|&(_, m)| m)
            .fold(f64::INFINITY, f64::min);
        let mut c = base(dist);
        c.adaptive = true;
        let adaptive = run(&c).mops;
        println!("{name}: statics={statics:?} adaptive={adaptive:.4}");
        assert!(
            adaptive >= 0.95 * best,
            "{name}: adaptive {adaptive:.4} Mops below 95% of best static \
             {best:.4} (statics {statics:?})"
        );
        assert!(
            adaptive > worst,
            "{name}: adaptive {adaptive:.4} Mops not above worst static \
             {worst:.4} (statics {statics:?})"
        );
    }
}

/// `adaptive` is only defined for `PipelinedHb`; on every other model the
/// flag must be inert — the run stays bit-identical to `adaptive: false`
/// (same virtual clocks, not just close throughput).
#[test]
fn adaptive_flag_is_inert_outside_pipelined_hb() {
    for model in [ExecModel::NonBatch, ExecModel::Vertical, ExecModel::NaiveHb] {
        let mut plain = base(KeyDist::Uniform);
        plain.engine = Engine::FlatStore {
            model,
            index: SimIndex::Hash,
        };
        plain.ops = 10_000;
        plain.warmup = 1_000;
        let mut flagged = plain.clone();
        flagged.adaptive = true;
        let a = run(&plain);
        let b = run(&flagged);
        assert_eq!(
            a.mops.to_bits(),
            b.mops.to_bits(),
            "{model:?}: adaptive flag must be inert"
        );
        assert_eq!(a.avg_batch.to_bits(), b.avg_batch.to_bits());
    }
}
