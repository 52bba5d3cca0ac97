#!/usr/bin/env bash
# ThreadSanitizer sweep over the fabric hot path.
#
# racecheck (crates/racecheck) explores the shipped SPSC ring and HB
# publish list, and models of the other hand-off disciplines, over
# bounded schedule trees; TSan complements it by watching the *real*
# code under whatever interleavings the OS happens to produce, on
# whole-engine paths racecheck cannot drive. Neither subsumes the other,
# so CI runs both — this one non-blocking, because it needs a nightly
# toolchain with rust-src (`-Zsanitizer=thread` must rebuild std
# instrumented via -Zbuild-std).
#
# Usage: scripts/tsan.sh
# Exits 0 with a notice when the nightly prerequisites are missing.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "tsan.sh: no nightly toolchain installed — skipping (racecheck still gates)."
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src.*(installed)'; then
    echo "tsan.sh: nightly rust-src not installed — skipping (racecheck still gates)."
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"

export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
# Suppress allocation-heavy interceptor noise in histograms; fail on the
# first reported race.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

run() {
    echo "== tsan: $* =="
    cargo +nightly test --offline -Zbuild-std --target "$host" "$@" -- --test-threads=2
}

# The protocols racecheck checks, exercised end-to-end in real code: the
# SPSC ring and client port fabric, completion fulfil/poll and per-key
# gates (session tests), and the cache fill-vs-invalidate path.
run -p flatrpc
run -p flatstore --test session_tests
run -p flatstore --test cache_tests

echo "tsan.sh: all suites clean."
