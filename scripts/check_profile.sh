#!/usr/bin/env bash
# Profiling gate: builds the CLI with PMU support ON and OFF, smoke-runs
# `mio profile` on a synthetic dataset, and asserts
#  - the report is valid mio-qlog-v1 records (one per measured run) in
#    both builds, and loads with `mio qlog report --in=`;
#  - MIO_PMU=off forces the timing tier (env.pmu_tier is "timing", no
#    hardware event fields beyond task_clock_ns, no derived rates);
#  - the PMU-disabled build reports the timing tier unconditionally;
#  - `mio query --stats-json`, `mio sweep --stats-json` (one record per
#    radius, the empty r=0 result included) and the exit-flush fallback
#    of an interrupted query all load with `mio qlog report --in=`;
#  - `mio explain` runs clean and prints the pruning funnel.
# On hosts without a hardware PMU (most VMs) the PMU-ON build also lands
# on the timing tier — that degradation is exactly what this gate checks.
# Finally chains scripts/check_qlog.sh (the workload / query-log gate)
# against the PMU-ON build; set MIO_SKIP_QLOG=1 to skip it.
# Usage: scripts/check_profile.sh [build-dir-prefix]
set -eu

PREFIX=${1:-build-profile}
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)

build_cli() { # build_cli <dir> <extra cmake flags...>
  local dir=$1; shift
  cmake -B "$dir" -S "$SRC" -DCMAKE_BUILD_TYPE=Release \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF -DMIO_BUILD_TESTS=OFF \
    "$@" > "$dir.cmake.log" 2>&1 || { cat "$dir.cmake.log"; exit 1; }
  cmake --build "$dir" --target mio_cli -j "$JOBS" \
    > "$dir.build.log" 2>&1 || { tail -50 "$dir.build.log"; exit 1; }
}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Validates the structural invariants of one profile's qlog records.
check_report() { # check_report <file> <label> <expect-timing: 0|1> <runs>
  python3 - "$@" <<'PYEOF'
import json, sys
path, label = sys.argv[1], sys.argv[2]
expect_timing, runs = sys.argv[3] == "1", int(sys.argv[4])
docs = [json.loads(line) for line in open(path) if line.strip()]
def fail(msg):
    sys.exit(f"FAILED [{label}]: {msg}\n{json.dumps(docs, indent=1)[:800]}")
if len(docs) != runs:
    fail(f"{len(docs)} records for {runs} runs")
for doc in docs:
    if doc.get("schema") != "mio-qlog-v1":
        fail(f"schema = {doc.get('schema')!r}")
    if doc.get("workload") != "profile":
        fail(f"workload = {doc.get('workload')!r}")
    if doc["wall_seconds"] <= 0:
        fail("non-positive wall_seconds")
    if doc["phases"]["total"] <= 0:
        fail("non-positive phases.total")
    tier = doc["env"]["pmu_tier"]
    if expect_timing and tier != "timing":
        fail(f"expected timing tier, got {tier!r}")
    hardware = doc.get("hardware")
    if hardware is None:
        fail("missing hardware section")
    if tier == "timing":
        for phase, counts in hardware["phases"].items():
            extra = set(counts) - {"task_clock_ns"}
            if extra:
                fail(f"timing tier leaked hardware fields in {phase}: {extra}")
        if "derived" in hardware:
            fail("timing tier must not carry derived rates")
    else:
        if hardware["phases"].get("total", {}).get("cycles", 0) <= 0:
            fail("hardware tier reported no cycles")
        if "derived" not in hardware:
            fail("hardware tier missing derived rates")
print(f"  [{label}] ok: {runs} records, pmu_tier={tier}")
PYEOF
}

# Loads one qlog with `mio qlog report` and checks its record counts.
check_loads() { # check_loads <file> <label> <queries> <incomplete>
  "$CLI_ON" qlog report --in="$1" \
    | grep -q "qlog report: $3 queries ($4 incomplete" \
    || { echo "FAILED [$2]: mio qlog report on $1"; cat "$1"; exit 1; }
  echo "  [$2] ok: loads, $3 record(s)"
}

echo "== build: PMU support ON =="
build_cli "$PREFIX-on"
CLI_ON="$PREFIX-on/tools/mio"

echo "== build: PMU support OFF (-DMIO_PMU_SUPPORT=OFF) =="
build_cli "$PREFIX-off" -DMIO_PMU_SUPPORT=OFF
CLI_OFF="$PREFIX-off/tools/mio"

"$CLI_ON" generate --preset=bird2 --scale=quick --seed=11 \
  --out="$WORK/data.bin" > /dev/null

echo "== mio profile: PMU-ON build, host default =="
"$CLI_ON" profile --in="$WORK/data.bin" --r=3 --warmup=1 --runs=3 \
  --out="$WORK/on.json" > /dev/null
check_report "$WORK/on.json" "pmu-on/default" 0 3
check_loads "$WORK/on.json" "pmu-on/default" 3 0

echo "== mio profile: PMU-ON build, MIO_PMU=off fallback =="
MIO_PMU=off "$CLI_ON" profile --in="$WORK/data.bin" --r=3 --warmup=0 \
  --runs=2 --out="$WORK/forced.json" > /dev/null
check_report "$WORK/forced.json" "pmu-on/MIO_PMU=off" 1 2
check_loads "$WORK/forced.json" "pmu-on/MIO_PMU=off" 2 0

echo "== mio profile: PMU-OFF build =="
"$CLI_OFF" profile --in="$WORK/data.bin" --r=3 --warmup=0 --runs=2 \
  --out="$WORK/off.json" > /dev/null
check_report "$WORK/off.json" "pmu-off-build" 1 2
check_loads "$WORK/off.json" "pmu-off-build" 2 0

echo "== --stats-json records load with mio qlog report =="
"$CLI_ON" query --in="$WORK/data.bin" --r=3 --stats-json="$WORK/query.jsonl" \
  > /dev/null
check_loads "$WORK/query.jsonl" "query --stats-json" 1 0
"$CLI_ON" sweep --in="$WORK/data.bin" --r=0,3,4.5 \
  --stats-json="$WORK/sweep.jsonl" > /dev/null
check_loads "$WORK/sweep.jsonl" "sweep --stats-json" 3 0

echo "== exit-flush fallback of an interrupted query =="
# The nested-loop oracle runs for tens of seconds; SIGTERM lands mid-query.
"$CLI_ON" query --in="$WORK/data.bin" --r=3 --algo=nl \
  --stats-json="$WORK/interrupted.jsonl" > /dev/null &
PID=$!
sleep 2
kill -TERM "$PID"
wait "$PID" 2> /dev/null || true
check_loads "$WORK/interrupted.jsonl" "exit-flush fallback" 1 1

echo "== mio explain smoke =="
"$CLI_ON" explain --in="$WORK/data.bin" --r=3 > "$WORK/explain.txt"
grep -q "pruning funnel" "$WORK/explain.txt" \
  || { echo "FAILED: explain output missing funnel"; cat "$WORK/explain.txt"; exit 1; }
grep -q "ub-survivors" "$WORK/explain.txt" \
  || { echo "FAILED: explain output missing ub-survivors"; exit 1; }

echo "check_profile: all passes clean"

# The qlog gate reuses the PMU-ON build's CLI; MIO_SKIP_QLOG=1 skips it
# (e.g. when iterating on the profile checks alone).
if [ "${MIO_SKIP_QLOG:-0}" != "1" ]; then
  "$SRC/scripts/check_qlog.sh" "$PREFIX-on"
fi
