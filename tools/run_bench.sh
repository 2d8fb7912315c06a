#!/usr/bin/env bash
# Builds the Release tree and runs the policy + RPC + coherence +
# admission + storage + observability + overload benchmarks, leaving
# BENCH_policy.json, BENCH_rpc.json, BENCH_coherence.json,
# BENCH_admission.json, BENCH_storage.json, BENCH_obs.json, and
# BENCH_overload.json at the repo root (schemas: docs/BENCH_SCHEMAS.md,
# enforced by tools/check_bench_schema.py).
#
# Usage: tools/run_bench.sh [max_credentials]
#   max_credentials  cap the policy_scaling and admission_scaling sweeps
#                    (default 10000)
set -euo pipefail

die() {
  echo "run_bench.sh: error: $*" >&2
  exit 1
}

command -v cmake >/dev/null 2>&1 || die "cmake not found in PATH"
command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 ||
  command -v clang++ >/dev/null 2>&1 || die "no C++ compiler found in PATH"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-release"
max_credentials="${1:-10000}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" \
  --target policy_scaling ablation_cache rpc_pipeline \
  coherence_propagation admission_scaling storage_scaling \
  obs_overhead overload_harness

echo "--- policy_scaling (writes BENCH_policy.json) ---"
"$build_dir/policy_scaling" "$repo_root/BENCH_policy.json" "$max_credentials"

echo "--- ablation_cache ---"
"$build_dir/ablation_cache"

echo "--- rpc_pipeline (writes BENCH_rpc.json; fails below 3x pipelining"
echo "    speedup or when 64->256 connections grows the thread count) ---"
"$build_dir/rpc_pipeline" "$repo_root/BENCH_rpc.json"

echo "--- coherence_propagation (writes BENCH_coherence.json; fails when"
echo "    remote invalidation stops being scoped: survivors < 0.9) ---"
"$build_dir/coherence_propagation" "$repo_root/BENCH_coherence.json"

echo "--- admission_scaling (writes BENCH_admission.json; fails below 2x"
echo "    verify speedup or, on >= 4 cores, below 2x admit scaling) ---"
"$build_dir/admission_scaling" "$repo_root/BENCH_admission.json" \
  "$max_credentials"

echo "--- storage_scaling (writes BENCH_storage.json; fails when warm"
echo "    cached reads are below 3x a cold mount's, below 90% rewrite hit"
echo "    rate, or on a dirty fsck; two tiers run with the device latency"
echo "    model enabled) ---"
"$build_dir/storage_scaling" "$repo_root/BENCH_storage.json"

echo "--- obs_overhead (writes BENCH_obs.json; fails when the enabled"
echo "    metrics registry costs > 5% on pipelined RPC or warm admission,"
echo "    or when a live kServerStats scrape comes back incomplete) ---"
"$build_dir/obs_overhead" "$repo_root/BENCH_obs.json"

echo "--- overload_harness (writes BENCH_overload.json; fails on any"
echo "    control-plane shed under data-plane overload, any expired"
echo "    request executed past its deadline, or when a handshake flood"
echo "    reaches the worker pool or locks out a legitimate client) ---"
"$build_dir/overload_harness" "$repo_root/BENCH_overload.json" \
  "$max_credentials"

if command -v python3 >/dev/null 2>&1; then
  echo "--- schema validation ---"
  python3 "$repo_root/tools/check_bench_schema.py" \
    "$repo_root/BENCH_policy.json" "$repo_root/BENCH_rpc.json" \
    "$repo_root/BENCH_coherence.json" "$repo_root/BENCH_admission.json" \
    "$repo_root/BENCH_storage.json" "$repo_root/BENCH_obs.json" \
    "$repo_root/BENCH_overload.json"
else
  echo "warning: python3 not found; skipping bench schema validation" >&2
fi

echo "done: $repo_root/BENCH_policy.json $repo_root/BENCH_rpc.json" \
  "$repo_root/BENCH_coherence.json $repo_root/BENCH_admission.json" \
  "$repo_root/BENCH_storage.json $repo_root/BENCH_obs.json" \
  "$repo_root/BENCH_overload.json"
