#!/usr/bin/env bash
# Builds and tests every configuration: the default RelWithDebInfo tree,
# the ASan/UBSan tree, and the ThreadSanitizer tree (CMakePresets.json).
# The tsan preset builds the concurrency and workspace test binaries and
# runs the `concurrency`- and `workspace`-labelled tests (thread pool,
# sharded cache, parallel gather, coalescing determinism, loader
# determinism, corruption-counter determinism, workspace-pool books and
# zero-allocation steady state). The asan-ubsan preset additionally
# re-runs the `integrity`-labelled tests (CRC32C, corruption repair,
# scrubber), the `coalescing`-labelled tests (page-coalescing gather
# determinism and fault fan-out), the `workspace`-labelled tests
# (pooled-scratch recycling), and the `cachepolicy`-labelled tests
# (CachePolicy conformance suite, CACHING.md) on their own so checksum-,
# scatter-, pool-, and policy-path memory errors fail loudly, the
# `replication`-labelled tests (journal CRC/LSN/crash-replay, replica
# routing, mutation-stream determinism; FAULTS.md "Durability &
# failover"), and the `serving`-labelled tests (online inference tier:
# admission/shedding, batch forming, SLO scheduling, cross-request
# coalescing equivalence; DESIGN.md §14). Also runs the documentation
# lint (tools/docs_lint.sh: dead intra-repo markdown links, undocumented
# GidsOptions / FaultOptions / IntegrityOptions / ServingOptions fields,
# gids_cli flags, and cache-policy name/enum drift).
# The default preset additionally runs the bench regression gate: the
# FIG03/FIG13 headline benches, the HOSTPAR host-parallelism sweep, the
# ABL-CACHEPOLICY cache-policy ablation, the ABL-REPLICATION
# durability/availability sweep, and the SERVING latency/throughput
# frontier are replayed and their RESULT_JSON rows diffed against
# bench/baselines/seed.json with tools/bench_compare.py (virtual-time
# `measured` values are deterministic, so the gate fails on any >10%
# drift, schema violation, or lost row; HOSTPAR rows additionally carry
# `steady_state_allocs`, which must be exactly 0 — the zero-allocation
# hot-path contract of DESIGN.md §11; ABL-CACHEPOLICY hit-rate rows,
# ABL-REPLICATION-AVAIL availability rows, and SERVING-GOODPUT rows gate
# one-sided, higher-is-better, and SERVING-P99 latency rows one-sided,
# lower-is-better, via the baseline's `directions` map, so cache
# acceptance ratios, the replicated-outage availability floor, serving
# goodput, and serving tail latency cannot silently regress).
# The default preset also configures and builds the standalone perfbench/
# project (the benchmark BENCHMARK.json runs) into build/perfbench: it
# compiles ../src on its own, so an src/ API change can break it while
# every ctest passes.
# Run from the repository root:
#
#   tools/check.sh            # docs lint + all presets
#   tools/check.sh default    # docs lint + one preset
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc)
presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan tsan)
fi

echo "=== docs lint"
tools/docs_lint.sh

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure"
  cmake --preset "$preset"
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] test"
  ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = "asan-ubsan" ]; then
    echo "=== [$preset] integrity-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L integrity
    echo "=== [$preset] coalescing-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L coalescing
    echo "=== [$preset] workspace-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L workspace
    echo "=== [$preset] cachepolicy-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L cachepolicy
    echo "=== [$preset] replication-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L replication
    echo "=== [$preset] serving-labelled tests"
    ctest --preset "$preset" -j "$jobs" -L serving
  fi
  if [ "$preset" = "default" ]; then
    echo "=== [$preset] perfbench build"
    cmake -S perfbench -B build/perfbench
    cmake --build build/perfbench -j "$jobs"
    echo "=== [$preset] bench regression gate"
    benchlog=$(mktemp -d)
    build/bench/bench_fig03_request_rate > "$benchlog/fig03.log"
    build/bench/bench_fig13_e2e_samsung > "$benchlog/fig13.log"
    build/bench/bench_host_parallelism > "$benchlog/hostpar.log"
    build/bench/bench_abl_cache_policy > "$benchlog/cachepolicy.log"
    build/bench/bench_abl_replication > "$benchlog/replication.log"
    build/bench/bench_serving > "$benchlog/serving.log"
    python3 tools/bench_compare.py --baseline bench/baselines/seed.json \
      "$benchlog/fig03.log" "$benchlog/fig13.log" "$benchlog/hostpar.log" \
      "$benchlog/cachepolicy.log" "$benchlog/replication.log" \
      "$benchlog/serving.log"
    rm -rf "$benchlog"
  fi
done

echo "=== all presets passed"
