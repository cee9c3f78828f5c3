#!/usr/bin/env bash
# Build Release, run the compiler-throughput micro-benchmarks and
# write BENCH_pipeline.json at the repo root.
#
# The emitted file keeps a "baseline" section so the perf trajectory
# is visible PR over PR: on the first run the current numbers become
# the baseline; later runs preserve the stored baseline and report
# per-benchmark speedups against it. Refresh the baseline explicitly
# with --rebaseline after an intentional perf change has landed.
#
# With --gate RATIO the script exits non-zero when any benchmark runs
# slower than RATIO times its stored baseline (e.g. --gate 0.9 fails
# on >10% regressions). Only benchmarks whose baseline is at least
# 1 ms are gated: microsecond-scale benches swing past 10% from
# scheduler noise alone on shared runners, while the coarse
# end-to-end ones are stable. Only meaningful when the baseline was
# recorded on comparable hardware; CI re-baselines first for that
# reason.
#
# Every benchmark runs three repetitions. Its entry stores the median
# real time ("real_time", what the speedups and the gate read), the
# coefficient of variation across the repetitions ("cv") and the
# median of each user counter: a single round on a shared host swings
# past 10% on benches whose code did not change, the median of three
# does far less.
#
# Each benchmark's user counters are kept in the file next to its
# time. Some counters are pinned to an exact value because they are
# behaviour, not speed: the urgent batch overtakes the background one
# (BM_FrontierMixedTenants overtake == 1), the background tenant is
# never starved (BM_FrontierStarvation starved == 0), and a storm of
# identical jobs compiles once (BM_DedupStorm compiles_per_batch ==
# 1). --gate also fails when a pinned counter is violated or missing
# in any repetition, whatever the timing ratio.
#
# Usage: scripts/bench.sh [--rebaseline] [--min-time SECONDS]
#                         [--gate RATIO]

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-bench"
out_json="${repo_root}/BENCH_pipeline.json"
raw_json="${build_dir}/perf_micro_raw.json"

rebaseline=0
min_time=0.2
repetitions=3
gate=""
while [[ $# -gt 0 ]]; do
    case "$1" in
      --rebaseline) rebaseline=1; shift ;;
      --min-time) min_time="$2"; shift 2 ;;
      --gate) gate="$2"; shift 2 ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCVLIW_BUILD_TESTS=OFF -DCVLIW_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${build_dir}" --target perf_micro -j >/dev/null

if [[ ! -x "${build_dir}/perf_micro" ]]; then
    echo "perf_micro was not built (google-benchmark missing?)" >&2
    exit 1
fi

"${build_dir}/perf_micro" \
    --benchmark_format=json \
    --benchmark_min_time="${min_time}" \
    --benchmark_repetitions="${repetitions}" > "${raw_json}"

python3 - "$raw_json" "$out_json" "$rebaseline" "$gate" <<'PY'
import json
import statistics
import sys

raw_path, out_path, rebaseline = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
gate = float(sys.argv[4]) if sys.argv[4] else None
raw = json.load(open(raw_path))

# Everything google-benchmark itself reports; any other numeric field
# of an entry is a user counter.
STANDARD_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit", "label",
    "error_occurred", "error_message", "aggregate_name",
    "aggregate_unit",
}

# The repetitions of each benchmark, in run order. google-benchmark's
# own aggregates (mean, median, stddev, cv) are recomputed here.
runs = {}
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    runs.setdefault(b.get("run_name", b["name"]), []).append(b)


def counters_of(b):
    return {
        k: v for k, v in b.items()
        if k not in STANDARD_FIELDS and isinstance(v, (int, float))
        and not isinstance(v, bool)
    }


current = {}
for name, reps in runs.items():
    times = [b["real_time"] for b in reps]
    mean = statistics.fmean(times)
    entry = {
        "real_time": statistics.median(times),
        "time_unit": reps[0]["time_unit"],
        "repetitions": len(reps),
        "cv": round(statistics.pstdev(times) / mean, 4) if mean > 0
        else 0.0,
    }
    per_rep = [counters_of(b) for b in reps]
    counters = {
        k: statistics.median(c[k] for c in per_rep if k in c)
        for k in per_rep[0]
    }
    if counters:
        entry["counters"] = counters
    current[name] = entry

# (benchmark family, counter) -> the value it must have.
PINNED = {
    ("BM_FrontierMixedTenants", "overtake"): 1.0,
    ("BM_FrontierStarvation", "starved"): 0.0,
    ("BM_DedupStorm", "compiles_per_batch"): 1.0,
}

baseline = None
baseline_label = None
try:
    prev = json.load(open(out_path))
    if not rebaseline:
        baseline = prev.get("baseline")
        baseline_label = prev.get("baseline_label")
except (OSError, ValueError):
    pass
if baseline is None:
    baseline = current
    baseline_label = "rebaselined from this run"

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(entry):
    return entry["real_time"] * UNIT_NS.get(entry["time_unit"], 1.0)


speedup = {}
for name, cur in current.items():
    base = baseline.get(name)
    if base and cur["real_time"] > 0:
        # Normalize units: a bench's reported time_unit may change
        # between the stored baseline and this run.
        speedup[name] = round(to_ns(base) / to_ns(cur), 3)

doc = {
    "schema": "cvliw-bench-pipeline-v1",
    "generated_by": "scripts/bench.sh",
    "context": raw.get("context", {}),
    "baseline_label": baseline_label,
    "baseline": baseline,
    "current": current,
    "speedup_vs_baseline": speedup,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
print(f"wrote {out_path}")
for name in sorted(speedup):
    print(f"  {name}: {speedup[name]}x vs baseline "
          f"(median of {current[name]['repetitions']}, "
          f"cv {current[name]['cv']:.3f})")

if gate is not None:
    broken = []
    for (family, counter), want in sorted(PINNED.items()):
        family_runs = [(name, reps) for name, reps in runs.items()
                       if name.split("/")[0] == family]
        if not family_runs:
            broken.append(f"{family}: not run, {counter} unchecked")
        for name, reps in family_runs:
            for i, b in enumerate(reps):
                got = counters_of(b).get(counter)
                if got is None or abs(got - want) > 1e-9:
                    broken.append(f"{name} (repetition {i}): "
                                  f"{counter} = {got}, pinned {want}")
    if broken:
        print("FAIL: pinned counters violated:")
        for line in broken:
            print(f"  {line}")
        sys.exit(1)
    print("pinned counters ok: " + ", ".join(
        f"{family} {counter} == {want:g}"
        for (family, counter), want in sorted(PINNED.items())))

    def coarse(name):
        base = baseline.get(name)
        # Gate only >=1ms benches: stable on CI.
        return bool(base) and to_ns(base) >= 1e6

    slow = {n: s for n, s in speedup.items()
            if s < gate and coarse(n)}
    if slow:
        print(f"FAIL: benchmark medians regressed past the {gate}x "
              "gate:")
        for name in sorted(slow):
            print(f"  {name}: {slow[name]}x vs baseline")
        sys.exit(1)
    print(f"gate ok: no >=1ms benchmark's median below {gate}x of "
          "baseline")
PY
