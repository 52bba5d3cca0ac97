#!/usr/bin/env bash
# Smoke run of the benchmark: every workload, untraced and traced, with
# 2 s windows and a tenth of the keys (under a minute), results to a
# temp dir. Exits non-zero if a workload fails a check.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release --offline --quiet --manifest-path perfmap/Cargo.toml -- \
    all --quick --out "$out/perfmap.json"
test -s "$out/perfmap.json"
echo "perfmap smoke ok"
