#!/usr/bin/env sh
# Fast local gate, run from the repository root: ./scripts/check.sh
#
# Stages, in fail-fast order:
#   1. gaze_lint            determinism/hygiene linter (pure python,
#                           runs before any compile time is spent)
#   2. configure + build    with GAZE_WERROR=ON: the hardened warning
#                           set (-Wall -Wextra -Wshadow
#                           -Wnon-virtual-dtor -Wextra-semi
#                           -Wsuggest-override) is part of the gate
#   3. ctest -L tier1       the fast test set ("slow" label is what a
#                           full `ctest` adds on top)
#   4. smokes               registry JSON contract (registry_check.py),
#                           trace record->validate->replay, campaign
#                           cache, engine throughput + structure
#                           microbench, obs trace
#                           (validate_obs.py on a fresh --obs-trace)
#   5. bench_compare        normal (non-sanitize) gate only: rerun the
#                           full engine benchmark at the committed
#                           baseline's scale and fail on a >10%
#                           geomean Minstr/s regression against the
#                           checked-in BENCH_engine.json;
#                           bench_compare.py SKIPs with a notice when
#                           host_cpus (or the workload size) differs
#
# Variants:
#   ./scripts/check.sh                    normal gate, build/
#   ./scripts/check.sh --sanitize         ASan+UBSan gate (alias for
#                                         --sanitize=address),
#                                         build-sanitize/
#   ./scripts/check.sh --sanitize=thread  TSan gate, build-sanitize-
#                                         thread/: builds everything
#                                         and runs the concurrency-
#                                         labeled tests (ThreadPool /
#                                         BaselineCache / campaign-
#                                         shard stress) race-clean
#   ./scripts/check.sh --tidy             clang-tidy over src/ against
#                                         compile_commands.json
#   ./scripts/check.sh --format           clang-format --dry-run
#                                         -Werror (diff-only, never
#                                         rewrites)
#
# --tidy and --format SKIP with a notice when the tool is not
# installed (this container ships only GCC); they fail loudly on any
# finding where the tools exist. Everything else has no external
# dependencies beyond cmake/g++/python3.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_EXTRA="-DGAZE_WERROR=ON"
RUN_TIDY=0
RUN_FORMAT=0
TSAN=0
for arg in "$@"; do
    case "$arg" in
      --sanitize|--sanitize=address)
        BUILD_DIR=build-sanitize
        CMAKE_EXTRA="-DGAZE_SANITIZE=address"
        ;;
      --sanitize=thread)
        BUILD_DIR=build-sanitize-thread
        CMAKE_EXTRA="-DGAZE_SANITIZE=thread"
        TSAN=1
        ;;
      --tidy)
        RUN_TIDY=1
        ;;
      --format)
        RUN_FORMAT=1
        ;;
      *)
        echo "usage: $0 [--sanitize[=address|thread]] [--tidy] [--format]" >&2
        exit 2
        ;;
    esac
done

# Stage 1: the linter gates everything — it is pure python and fails
# in under a second, before any compile time is spent.
echo "== gaze_lint =="
python3 scripts/lint/gaze_lint.py

if [ "$RUN_FORMAT" = 1 ]; then
    echo "== clang-format (diff-only) =="
    if command -v clang-format >/dev/null 2>&1; then
        # shellcheck disable=SC2046
        clang-format --dry-run -Werror \
            $(find src bench tests examples \
                -name '*.cc' -o -name '*.hh' -o -name '*.cpp')
        echo "clang-format: clean"
    else
        echo "clang-format: not installed, stage SKIPPED"
    fi
fi

# $CMAKE_EXTRA is deliberately unquoted: it is a flag list.
# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . $CMAKE_EXTRA
cmake --build "$BUILD_DIR" -j

if [ "$RUN_TIDY" = 1 ]; then
    echo "== clang-tidy =="
    if command -v clang-tidy >/dev/null 2>&1; then
        # shellcheck disable=SC2046
        clang-tidy -p "$BUILD_DIR" --quiet \
            $(find src -name '*.cc')
        echo "clang-tidy: clean"
    else
        echo "clang-tidy: not installed, stage SKIPPED"
    fi
fi

cd "$BUILD_DIR"

if [ "$TSAN" = 1 ]; then
    # The TSan gate is focused: the concurrency-labeled tests hammer
    # the ThreadPool, the shared BaselineCache (incl. LRU eviction)
    # and two in-process campaign shards publishing into one cache
    # dir. Simulation-heavy tier1 tests run 10-20x slower under TSan
    # and exercise no threading the stress tests don't; the address
    # gate covers them.
    ctest -L concurrency --output-on-failure --stop-on-failure
    echo "check.sh: TSan gate passed"
    exit 0
fi

ctest -L tier1 --output-on-failure --stop-on-failure -j

# Prefetcher-registry smoke (runs under the sanitize gate too):
# rendering the JSON listing round-trips every registered scheme
# through the registry — parse, canonicalize, build, storageBits() —
# and registry_check.py asserts the contract on the result: every
# scheme has a canonical spelling, a sane storage_kib and non-empty
# docs.
./src/gaze_sim --list-prefetchers=json > registry.json
python3 ../scripts/lint/registry_check.py \
    --require=gaze,vberti,sms,dspatch,ip_stride registry.json
./src/gaze_campaign describe > /dev/null

# Trace subsystem smoke: record two workloads, validate the files,
# inspect them as JSON, replay them through the suite runner.
SMOKE_DIR=check_traces
rm -rf "$SMOKE_DIR"
GAZE_SIM_SCALE=0.02 ./src/gaze_trace record \
    --workloads=leslie3d,mcf --out-dir="$SMOKE_DIR"
./src/gaze_trace validate "$SMOKE_DIR"/leslie3d.gzt "$SMOKE_DIR"/mcf.gzt
./src/gaze_trace info --json "$SMOKE_DIR"/leslie3d.gzt > /dev/null
GAZE_SIM_SCALE=0.02 ./src/gaze_sim --quiet \
    --prefetchers=gaze --workloads=leslie3d,mcf \
    --trace-dir="$SMOKE_DIR" --warmup=2000 --sim=8000 \
    --out="$SMOKE_DIR"/BENCH_check.json

# Campaign cache smoke: 2-cell campaign twice (second run must be
# 100% cache hits, byte-identical report) + sharded equivalence.
GAZE_SIM_SCALE=0.02 sh ../scripts/campaign_smoke.sh \
    ./src/gaze_campaign check_campaign

# Engine throughput smoke: one short event-engine cell must simulate
# at a positive Minstr/s (asserted inside the binary, printed here so
# the gate records the number) and skip idle cycles, and the quick
# mode's cross-engine identity gate (polled == event) dies fatally on
# any mismatch. No pipeline: the binary's
# exit status must reach set -e.
GAZE_SIM_SCALE=0.02 ./bench/bench_engine --quick > engine_smoke.txt
cat engine_smoke.txt
grep -q "Minstr/s" engine_smoke.txt
grep -q "metrics identical" engine_smoke.txt

# Structure microbench smoke: the self-timed MshrTable/LruTable
# harness must run its quick slice and report every structure (the
# numbers are informational; a crash or a missing row is the failure).
./bench/micro_structures --quick > micro_smoke.txt
grep -q "MshrTable find (hit)" micro_smoke.txt
grep -q "LruTable insert" micro_smoke.txt

# Default engine smoke through the real CLI: the default (event)
# engine must run a sparse and a dense workload end to end and report
# its stats, and a 4-core mix must run end to end (bit-identity is the
# differential suite's job; this proves the flags work from the
# binary).
GAZE_SIM_SCALE=0.02 ./src/gaze_sim --quiet \
    --prefetchers=ip_stride --workloads=canneal,leslie3d \
    --warmup=2000 --sim=8000 --engine-stats \
    --out=engine_default_smoke.json > engine_default_smoke.txt
cat engine_default_smoke.txt
grep -q "engine: event |" engine_default_smoke.txt
# ...with the per-component work counters (gate-passed ticks).
grep -Eq "ticks core=[0-9]+ l1d=[0-9]+ l2=[0-9]+ llc=[0-9]+ dram=[0-9]+" \
    engine_default_smoke.txt
GAZE_SIM_SCALE=0.02 ./src/gaze_sim --quiet \
    --prefetchers=ip_stride --workloads=mcf \
    --cores=4 --warmup=1000 --sim=4000 \
    --out=engine_4core_smoke.json

# Observability smoke: one matrix with the tracer and sampler on must
# leave a valid Chrome-trace JSON (validate_obs.py pins the span
# nesting + metadata contract, fail-fast) and an interval-timeline
# CSV with the canonical header.
GAZE_SIM_SCALE=0.02 ./src/gaze_sim --quiet \
    --prefetchers=gaze,ip_stride --workloads=mcf \
    --warmup=2000 --sim=8000 \
    --obs-trace=obs_smoke_trace.json \
    --obs-timeline=obs_smoke_timeline.csv \
    --obs-interval=2048 \
    --out=obs_smoke.json
python3 ../scripts/validate_obs.py obs_smoke_trace.json
head -1 obs_smoke_timeline.csv | grep -q "^prefetcher,workload,cycle,"

# Perf-regression gate, normal build only: sanitizer instrumentation
# slows the simulator 5-20x, so those builds would always "regress".
# The fresh run uses the committed baseline's own scale so the work
# matches; bench_compare.py skips itself on a host mismatch.
if [ "$BUILD_DIR" = build ]; then
    echo "== bench_compare =="
    BASE_SCALE=$(python3 -c "import json; \
print(json.load(open('../BENCH_engine.json'))['scale'])")
    GAZE_SIM_SCALE="$BASE_SCALE" ./bench/bench_engine \
        > bench_engine_full.txt
    tail -n 6 bench_engine_full.txt
    python3 ../scripts/bench_compare.py \
        ../BENCH_engine.json BENCH_engine.json
fi

echo "check.sh: all stages passed"
