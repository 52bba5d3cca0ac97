#!/usr/bin/env bash
# Full validation pipeline for the FlatStore reproduction — CI's `check`
# job (.github/workflows/ci.yml) runs exactly this script. Everything is
# --offline: the workspace has no registry dependencies (std-only shims
# under shims/). Artifacts: target/crash-dump-test/ (flight-recorder
# dumps from the tests) and target/smoke/{metrics,trace}.json (the
# simulate exporters).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release --workspace --all-targets --offline

echo "== clippy =="
# The workspace [lints] table adds undocumented_unsafe_blocks and
# allow_attributes_without_reason; the persistence crates' lib roots deny
# unwrap_used/expect_used outside tests.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== clippy: SAFETY comments in perfmap =="
# perfmap is a package of its own, outside the workspace lint table; hold
# its `unsafe` to the same SAFETY-comment rule and nothing else.
cargo clippy --offline --manifest-path perfmap/Cargo.toml --all-targets -- \
    -A warnings -D clippy::undocumented_unsafe_blocks

echo "== pmlint (persistence-discipline lint) =="
cargo run --release --offline -p pmlint

echo "== pmcheck strict mode (real paths, zero violations) =="
cargo test -p pmcheck -q --offline

echo "== racecheck (interleaving explorer over the fabric protocols) =="
cargo test -p racecheck -q --offline

echo "== racecheck on the shipped ring and publish list =="
# `--cfg racecheck` resolves the `racecheck::sync` facade to the model
# types, and the `racecheck_tests` modules in flatrpc::ring and
# flatstore::batch explore the shipped code. Model atomics panic outside
# `model::check`, so only those modules run. The separate target dir
# keeps the release cache warm.
RUSTFLAGS="--cfg racecheck" CARGO_TARGET_DIR=target/racecheck \
    cargo test --offline -p flatrpc -p flatstore --lib racecheck_tests

echo "== racecheck stays out of release artifacts =="
# Outside the checker's crate the cfg may only gate test modules, spelled
# exactly `cfg(all(test, racecheck))`; any other cfg/cfg_attr/cfg! naming
# it could leak model types into release artifacts.
if grep -rn 'racecheck' crates shims src tests examples --include='*.rs' \
        | grep -v '^crates/racecheck/' \
        | sed 's/cfg(all(test, racecheck))//g' \
        | grep -E 'cfg(_attr)?!? *\(.*racecheck'; then
    echo "a racecheck cfg other than cfg(all(test, racecheck)) found outside crates/racecheck"
    exit 1
fi

echo "== tests (unit + integration + property) =="
# Includes the wire smoke, crates/flatsrv/tests/binary.rs: the flatsrv
# binary under 4 pipelined connections, checked for every reply, a mean
# HB batch > 1 and a clean exit after SHUTDOWN.
cargo test --workspace -q --offline

echo "== docs (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== session smoke: pipelined sessions fill HB batches =="
cargo run --release --offline --example session_pipeline

echo "== fabric smoke: standalone FlatRPC echo over 3 cores =="
cargo run --release --offline --example flatrpc_echo

echo "== replication smoke: failover, promotion, catch-up =="
cargo run --release --offline --example replicated_failover

echo "== observability smoke: simulate with exporters =="
smoke=target/smoke
mkdir -p "$smoke"
cargo run --release --offline --example simulate -- \
    --metrics-out "$smoke/metrics.json" --trace-out "$smoke/trace.json"
test -s "$smoke/metrics.json"
test -s "$smoke/trace.json"

echo "== smoke-scale figures + DES golden =="
# Every deterministic bench target rewrites BENCH_des/quick/<target>.jsonl;
# the committed files are the golden. The sweep starts from an empty
# directory, so a golden whose target is gone shows up as deleted. Any
# changed, deleted or untracked file there means a DES figure moved or
# lost its target: commit the new golden (or delete the orphan) and
# explain the delta in EXPERIMENTS.md.
rm -f BENCH_des/quick/*.jsonl
FLATBENCH_QUICK=1 cargo bench --workspace --offline
golden="$(git status --porcelain -- BENCH_des/quick)"
if [ -n "$golden" ]; then
    echo "$golden"
    git --no-pager diff --stat -- BENCH_des/quick
    echo "DES golden moved: BENCH_des/quick differs from the committed files"
    exit 1
fi

echo "== perfmap (the stand-alone wall-clock benchmark: build, unit tests, smoke) =="
# A package of its own (empty [workspace] table), so --workspace above
# never reaches it; it builds into perfmap/target.
cargo build --release --offline --manifest-path perfmap/Cargo.toml
cargo test --offline -q --manifest-path perfmap/Cargo.toml
perfmap/smoke.sh

echo "All checks passed."
