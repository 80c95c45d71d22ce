#!/usr/bin/env bash
# CI matrix driver: plain build + full suite, ASan/UBSan + full suite,
# TSan + the `stress`-labelled concurrency suites, the `chaos`
# fault-injection drills (fixed seed + one randomized seed) under TSan,
# and the `durability` WAL/recovery suites under ASan/UBSan, plus the
# `surface` check that every src/ function has a caller outside tests/.
#
#   ./ci.sh            # run the whole matrix
#   ./ci.sh plain      # one leg: plain | asan | tsan | chaos | durability
#                      #          | throughput | flashcrowd | fragments
#                      #          | sharding | dispatch | surface
#   ./ci.sh quick      # fast pre-push check: plain build, unit tests only,
#                      # then the MEM residency check (memory_footprint)
#
# Each leg configures its own build tree (build-ci-*) so the matrices never
# contaminate each other or the developer's ./build.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

run_leg() {
  local leg="$1" sanitize="$2" ctest_args="$3"
  local tree="build-ci-${leg}"
  echo "=== [${leg}] configure (${sanitize:-no sanitizer}) ==="
  cmake -B "${tree}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNAGANO_SANITIZE="${sanitize}" > /dev/null
  echo "=== [${leg}] build ==="
  cmake --build "${tree}" -j "${JOBS}" -- -k > /dev/null
  echo "=== [${leg}] ctest ${ctest_args} ==="
  # shellcheck disable=SC2086
  (cd "${tree}" && ctest --output-on-failure -j "${JOBS}" ${ctest_args})
  echo "=== [${leg}] OK ==="
}

# The bench half of the gated legs: configure the plain tree, build one
# bench target and run its quick gate.
#   run_bench_gate <leg> <target> <gate description> <bench args...>
run_bench_gate() {
  local leg="$1" target="$2" gate="$3"
  shift 3
  local tree="build-ci-plain"
  echo "=== [${leg}] configure ==="
  cmake -B "${tree}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNAGANO_SANITIZE="" > /dev/null
  echo "=== [${leg}] build ==="
  cmake --build "${tree}" -j "${JOBS}" --target "${target}" -- -k > /dev/null
  echo "=== [${leg}] ${gate} ==="
  "${tree}/bench/${target}" "$@"
  echo "=== [${leg}] OK ==="
}

leg_plain() { run_leg plain "" ""; }
# Shares the plain tree: a quick run warms the cache for a later full run.
# The MEM bench exits non-zero if any prefetched object is not resident
# (the cache has no replacement policy; every page must fit).
leg_quick() {
  run_leg plain "" "-L unit"
  run_bench_gate quick memory_footprint "MEM residency check"
}
leg_asan()  { run_leg asan "address,undefined" ""; }
# TSan leg: the `stress` suites, including integration_test, the one suite
# that runs the trigger's tail thread against live HTTP reactors and a
# feed. TSan halts the run on the first data race (halt_on_error) so a race
# can never scroll by as a warning in a passing job.
leg_tsan()  { TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
              run_leg tsan "thread" "-L stress"; }
# Chaos leg: the fault-injection drills, raced under TSan. Two passes —
# the deterministic scripted schedule, then one randomized kill schedule
# drawn from NAGANO_CHAOS_SEED (the test echoes the seed, so a CI failure
# is always reproducible by exporting the printed value).
leg_chaos() {
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_leg tsan "thread" "-L chaos"
  local seed="${NAGANO_CHAOS_SEED:-$(( (RANDOM << 15) ^ RANDOM ^ $$ ))}"
  echo "=== [chaos] randomized pass, NAGANO_CHAOS_SEED=${seed} ==="
  ( cd build-ci-tsan && \
    NAGANO_CHAOS_SEED="${seed}" \
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest -V -L chaos )
  echo "=== [chaos] OK ==="
}
# Durability leg: the WAL crash-point property suites and the recovery
# paths, under ASan/UBSan — heap misuse in the framing/replay code is
# exactly what a torn-tail bug would look like. Shares the asan tree.
leg_durability() { run_leg asan "address,undefined" "-L durability"; }
# Flash-crowd leg: the stampede/scenario suites raced under TSan (the
# renderer's single-flight is pure lock/cv choreography — a race there is
# a correctness bug, not noise), then the FLASH bench's quick gate against
# the committed BENCH_flashcrowd.json: sharing one renderer's flight must
# still cut renders-per-invalidation-storm >= 10x vs one renderer per herd
# request, at >= 99.9% availability, and the quick 50x-spike p99 must
# stay within 3x of the baseline's quick-shape p99 (spike_quick_p99_ms).
# Shares the tsan and plain trees.
leg_flashcrowd() {
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_leg tsan "thread" "-L flashcrowd"
  run_bench_gate flashcrowd flash_crowd \
    "smoke gate vs BENCH_flashcrowd.json" \
    --quick --baseline=BENCH_flashcrowd.json
}
# Fragments leg: the composition-plan suites (plan cache, fragment DUP
# properties, shared-fragment stampedes) raced under TSan — plan patching
# is a lock-free Peek plus an identity-checked swap, so a race there
# corrupts served pages. Then the update-latency bench's quick gate on a
# plain tree: a scoreboard commit must still cut fanout bytes >= 10x vs
# whole-page mode, with hit-only composed responses copying zero body
# bytes. Shares the tsan and plain trees.
leg_fragments() {
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_leg tsan "thread" "-L fragments"
  run_bench_gate fragments update_latency "fanout-bytes quick gate" --quick
}
# Sharding leg: the sharded-storage / parallel-recovery suites raced under
# TSan (parallel shard replay fans WAL streams across a thread pool, and the
# group-commit Sync() barrier is cross-shard lock choreography — a race
# there corrupts recovered state), then the recovery bench's quick gate on
# a plain tree: parallel replay must still scale >= 2x from 1 to 4 shards
# (wall-clock on wide hosts, measured critical-path ratio on narrow ones)
# without the sharded write path regressing. Shares the tsan and plain
# trees.
leg_sharding() {
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_leg tsan "thread" "-L sharding"
  run_bench_gate sharding recovery_time "parallel-recovery quick gate" --quick
}
# Dispatch leg: the dispatcher-tier suites (connection handoff, weighted
# P2C routing, advisor health, drain, failover, rolling upgrade) raced
# under TSan — accept threads hand sockets to backend reactors while the
# advisor thread folds probe EWMAs, so a race there misroutes traffic. Then
# the same suites under ASan/UBSan: a socket handed to a server that
# KillBackend then destroys is a use-after-free TSan does not reliably
# catch. Then the AVAIL bench's quick gate on a plain tree: a live
# dispatcher + 3 real-TCP backends must hold >= 99% availability through a
# hard kill and a rolling upgrade, with the clean drain losing zero
# requests (writes BENCH_dispatch.json). Shares the tsan, asan and plain
# trees.
leg_dispatch() {
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_leg tsan "thread" "-L dispatch"
  run_leg asan "address,undefined" "-L dispatch"
  run_bench_gate dispatch failover_availability \
    "real-TCP availability quick gate" --quick
}
# Throughput smoke: one short cache-hit sweep against the committed
# baseline (BENCH_throughput.json). The bench exits non-zero if the
# single-reactor hit rate regresses more than 20% below the baseline or
# if a cache-hit response copies its body. Shares the plain tree.
leg_throughput() {
  run_bench_gate throughput throughput_server \
    "smoke sweep vs BENCH_throughput.json" \
    --quick --baseline=BENCH_throughput.json
}

# Surface leg: builds src, tests, benches, examples and perfbench with
# per-function sections at -O0 and links with --gc-sections, so each binary
# keeps exactly the src/ functions it can reach; then fails if any src/
# function is reachable from a test binary only and is not on the short,
# reasoned list of kept observers in tools/surface_check.py, or if no
# binary reaches it at all.
leg_surface() {
  local tree="build-ci-surface"
  local cflags="-O0 -ffunction-sections -fdata-sections"
  local lflags="-Wl,--gc-sections"
  echo "=== [surface] configure ==="
  cmake -B "${tree}" -S . -DCMAKE_BUILD_TYPE=None -DNAGANO_SANITIZE="" \
        -DCMAKE_CXX_FLAGS="${cflags}" -DCMAKE_EXE_LINKER_FLAGS="${lflags}" \
        > /dev/null
  cmake -B "${tree}/perfbench" -S perfbench -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="${cflags}" -DCMAKE_EXE_LINKER_FLAGS="${lflags}" \
        > /dev/null
  echo "=== [surface] build ==="
  cmake --build "${tree}" -j "${JOBS}" -- -k > /dev/null
  cmake --build "${tree}/perfbench" -j "${JOBS}" -- -k > /dev/null
  echo "=== [surface] test-only src functions ==="
  python3 tools/surface_check.py "${tree}" "${tree}/perfbench"
  echo "=== [surface] OK ==="
}

case "${1:-all}" in
  plain) leg_plain ;;
  quick) leg_quick ;;
  asan)  leg_asan ;;
  tsan)  leg_tsan ;;
  chaos) leg_chaos ;;
  durability) leg_durability ;;
  throughput) leg_throughput ;;
  flashcrowd) leg_flashcrowd ;;
  fragments) leg_fragments ;;
  sharding) leg_sharding ;;
  dispatch) leg_dispatch ;;
  surface) leg_surface ;;
  all)   leg_plain; leg_asan; leg_tsan; leg_chaos; leg_durability
         leg_throughput; leg_flashcrowd; leg_fragments; leg_sharding
         leg_dispatch; leg_surface ;;
  *) echo "usage: $0 [plain|quick|asan|tsan|chaos|durability|throughput|flashcrowd|fragments|sharding|dispatch|surface|all]" >&2; exit 2 ;;
esac
echo "ci.sh: all requested legs passed"
