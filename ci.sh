#!/usr/bin/env bash
# Tier-1 CI gate for the roots workspace (offline: all deps vendored
# under vendor/, see Cargo.toml).
#
#   1. release build of every crate;
#   2. full test suite, then the repo benchmark's own tests (pinned
#      paper-section digests vs the experiment registry, printed metric
#      names vs BENCHMARK.json);
#   3. examples build + smoke runs (tiny scale, temp output dirs);
#   4. bench smoke run refreshing the committed BENCH_results.json,
#      followed by the bench_guard regression gate (fails on >25%
#      regression of rootd/loadgen/qps, rootd/serve_*, or codec/* vs the
#      committed baseline);
#   5. rustdoc with warnings promoted to errors;
#   6. formatting check;
#   7. clippy with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test -q --offline
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

cargo build --release --offline --examples
figdir="$(mktemp -d)"
trap 'rm -rf "$figdir"' EXIT
cargo run -q --release --offline --example quickstart > /dev/null
cargo run -q --release --offline --example paper_report -- tiny > /dev/null
cargo run -q --release --offline --example zone_integrity_audit > /dev/null
cargo run -q --release --offline --example local_root_daemon > /dev/null
cargo run -q --release --offline --example anycast_explorer > /dev/null
cargo run -q --release --offline --example broot_renumbering > /dev/null
cargo run -q --release --offline --example export_figures -- "$figdir" > /dev/null
cargo run -q --release --offline --example scenario_report > /dev/null
cargo run -q --release --offline --example rootd_bench -- tiny 20000 > /dev/null
# Chaos smoke: sweep the fault matrix at a fixed seed and require the
# machine-readable invariant summary (corrupt copies never activate,
# convergence, SOA-bounded staleness, deterministic replay).
cargo run -q --release --offline --example chaos_report -- 49374 > "$figdir/chaos.txt"
grep -q "chaos invariants: OK" "$figdir/chaos.txt"
# Virtual-clock smoke: serving load, scenario fault windows, and refresh
# backoff co-executed on one clock — refresh must escape the blackhole by
# backing off, and the whole run must replay bit-identically across
# worker counts.
cargo run -q --release --offline --example clock_chaos_demo > "$figdir/clock_chaos.txt"
grep -q "clock chaos invariants: OK" "$figdir/clock_chaos.txt"
# Adversarial-traffic smoke: the demo attack scenario against a
# rate-limited fleet — legit service must hold through every flood
# window, delivered answers must match the unlimited twin byte for byte,
# and the run must replay identically across worker counts.
cargo run -q --release --offline --example attack_report > "$figdir/attack.txt"
grep -q "attack invariants: OK" "$figdir/attack.txt"
# Planner smoke: a 1000-candidate what-if sweep over b.root — the
# baseline must match the world's routing bit-for-bit, the identity
# candidate must score exactly zero, and scores/ranking/frontier must be
# identical for every worker count 1..=5.
cargo run -q --release --offline --example planner_report > "$figdir/planner.txt"
grep -q "planner invariants: OK" "$figdir/planner.txt"
# Serving-farm smoke: a scaled-down constellation (2 letters × 4 sites)
# under catchment-steered load through the batched datagram path — the
# report's counters must be internally consistent and the whole run must
# replay bit-identically across shard counts.
cargo run -q --release --offline --example farm_report > "$figdir/farm.txt"
grep -q "farm invariants: OK" "$figdir/farm.txt"
# Self-healing-farm smoke: three concurrent site failures, a stalled
# shard, a poisoned reload and a junk flood against the health-checked
# farm — ≥99% of legit queries served, every answer byte-identical to
# the fault-free twin, the poisoned push refused, both crashes recovered
# within the backoff budget, and the whole run fingerprint-identical
# across 1..=8 shards and seed-sensitive.
cargo run -q --release --offline --example farm_chaos_report > "$figdir/farm_chaos.txt"
grep -q "farm chaos invariants: OK" "$figdir/farm_chaos.txt"

# Bench smoke: every bench target runs end to end and merges its numbers
# into the committed BENCH_results.json, including the rootd loadgen's
# million-query throughput/latency figures (a few seconds of wall clock).
# The committed file is snapshotted first so bench_guard can diff the
# fresh numbers against what the branch shipped with.
cp BENCH_results.json "$figdir/bench_baseline.json"
BENCH_RESULTS_PATH="$PWD/BENCH_results.json" cargo bench --offline -q > /dev/null
cargo run -q --release --offline -p bench --bin bench_guard -- \
    "$figdir/bench_baseline.json" BENCH_results.json

RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "ci: all gates green"
