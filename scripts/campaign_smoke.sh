#!/usr/bin/env sh
# Campaign-engine smoke, run by CTest (and usable standalone):
#
#   campaign_smoke.sh <gaze_campaign binary> <scratch dir>
#
# Asserts the ISSUE/acceptance behavior end to end on a tiny 2-cell
# campaign:
#   1. first run executes 4 simulations (2 cells + 2 baselines),
#   2. a second run is served 100% from cache (0 simulations) and its
#      aggregate report is byte-identical,
#   3. --shard=0/2 + --shard=1/2 into a fresh cache followed by
#      `report` equals the unsharded report byte for byte,
#   4. --compare against the first report yields an exact 0 delta,
#   5. a respelled spec (non-canonical prefetcher spellings: explicit
#      defaults, reordered options) against the warm cache is 100%
#      cache hits with a byte-identical report — cache identity is
#      spelling-invariant,
#   6. a 3-workload x 2-prefetcher campaign run with --threads=1 and
#      with --threads=4 into fresh caches writes byte-identical
#      reports (jobs share one generated trace per workload and are
#      submitted in an interleaved order; neither may move a result),
#   7. a spec with an L1+L2 pair entry and two named systems does the
#      same, and its rerun is 100% cache hits.
set -eu

BIN=$1
WORKDIR=$2

# The script cds into WORKDIR; tolerate a relative binary path.
case "$BIN" in
  /*) ;;
  *) BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN") ;;
esac

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR"

cat > spec.json <<'EOF'
{
  "name": "smoke2cell",
  "prefetchers": ["gaze"],
  "workloads": ["leslie3d", "mcf"],
  "warmup": 2000,
  "sim": 8000
}
EOF

# No `cmd | tee` anywhere: plain sh has no pipefail, and a pipeline
# would hide the binary's exit status (e.g. a sanitizer failure after
# the stats line printed). Redirect, assert, then show.
echo "== run 1 (cold cache)"
"$BIN" run --spec=spec.json --cache-dir=cache --quiet \
    --out=report1.json > run1.txt
cat run1.txt
grep -q "executed 4 simulation(s), 0 cache hit(s)" run1.txt

echo "== run 2 (must be 100% cache hits)"
"$BIN" run --spec=spec.json --cache-dir=cache --quiet \
    --out=report2.json > run2.txt
cat run2.txt
grep -q "executed 0 simulation(s), 4 cache hit(s)" run2.txt
cmp report1.json report2.json
echo "OK: second run byte-identical, zero simulations"

echo "== sharded into a fresh cache"
"$BIN" run --spec=spec.json --cache-dir=cache_sharded --quiet \
    --shard=0/2 > shard0.txt
cat shard0.txt
grep -q "executed 2 simulation(s)" shard0.txt
"$BIN" run --spec=spec.json --cache-dir=cache_sharded --quiet \
    --shard=1/2 > shard1.txt
cat shard1.txt
grep -q "executed 2 simulation(s)" shard1.txt
"$BIN" report --spec=spec.json --cache-dir=cache_sharded \
    --out=report_sharded.json --csv=report_sharded.csv
cmp report1.json report_sharded.json
echo "OK: sharded + report equals unsharded"

echo "== respelled spec against the warm cache"
# "gaze:region=4096:n=2" spells out schema defaults in arbitrary
# order; it canonicalizes to plain "gaze", so every cell must hit the
# cache the canonical spelling populated and the report must not
# change by a byte.
cat > spec_respelled.json <<'EOF'
{
  "name": "smoke2cell",
  "prefetchers": ["gaze:region=4096:n=2"],
  "workloads": ["leslie3d", "mcf"],
  "warmup": 2000,
  "sim": 8000
}
EOF
"$BIN" run --spec=spec_respelled.json --cache-dir=cache --quiet \
    --out=report_respelled.json > respelled.txt
cat respelled.txt
grep -q "executed 0 simulation(s), 4 cache hit(s)" respelled.txt
cmp report1.json report_respelled.json
echo "OK: non-canonical spellings are pure cache hits, same report"

echo "== compare against self"
"$BIN" report --spec=spec.json --cache-dir=cache \
    --out=report_cmp.json --compare=report1.json
grep -q '"speedup_delta":0[,}]' report_cmp.json
echo "OK: self-compare delta is exactly 0"

echo "== 1 thread vs 4 threads, fresh caches"
cat > spec_threads.json <<'EOF'
{
  "name": "smoke_threads",
  "prefetchers": ["ip_stride", "gaze"],
  "workloads": ["leslie3d", "mcf", "lbm"],
  "warmup": 2000,
  "sim": 8000
}
EOF
"$BIN" run --spec=spec_threads.json --cache-dir=cache_t1 --quiet \
    --threads=1 --out=report_t1.json --csv=report_t1.csv > t1.txt
cat t1.txt
grep -q "executed 9 simulation(s), 0 cache hit(s)" t1.txt
"$BIN" run --spec=spec_threads.json --cache-dir=cache_t4 --quiet \
    --threads=4 --out=report_t4.json --csv=report_t4.csv > t4.txt
cat t4.txt
grep -q "executed 9 simulation(s), 0 cache hit(s)" t4.txt
cmp report_t1.json report_t4.json
cmp report_t1.csv report_t4.csv
echo "OK: --threads=1 and --threads=4 reports are byte-identical"

echo "== L1+L2 pair x two systems: 1 thread vs 4 threads, then rerun"
cat > spec_axes.json <<'EOF'
{
  "name": "smoke_axes",
  "prefetchers": ["gaze", ["ip_stride", "bingo"]],
  "workloads": ["leslie3d", "mcf"],
  "systems": {
    "base": {},
    "slow": {"dram_mtps": 800, "l2_bytes": 262144}
  },
  "warmup": 2000,
  "sim": 8000
}
EOF
"$BIN" run --spec=spec_axes.json --cache-dir=cache_axes_t1 --quiet \
    --threads=1 --out=report_axes_t1.json --csv=report_axes_t1.csv \
    > axes_t1.txt
cat axes_t1.txt
grep -q "executed 12 simulation(s), 0 cache hit(s)" axes_t1.txt
"$BIN" run --spec=spec_axes.json --cache-dir=cache_axes_t4 --quiet \
    --threads=4 --out=report_axes_t4.json --csv=report_axes_t4.csv \
    > axes_t4.txt
cat axes_t4.txt
grep -q "executed 12 simulation(s), 0 cache hit(s)" axes_t4.txt
cmp report_axes_t1.json report_axes_t4.json
cmp report_axes_t1.csv report_axes_t4.csv
grep -q '"prefetcher":"ip_stride+bingo"' report_axes_t1.json
grep -q '"system":"slow"' report_axes_t1.json
"$BIN" run --spec=spec_axes.json --cache-dir=cache_axes_t4 --quiet \
    --out=report_axes_rerun.json > axes_rerun.txt
cat axes_rerun.txt
grep -q "executed 0 simulation(s), 12 cache hit(s)" axes_rerun.txt
cmp report_axes_t1.json report_axes_rerun.json
echo "OK: pair + systems reports byte-identical across threads, rerun all hits"

echo "campaign_smoke: all stages passed"
