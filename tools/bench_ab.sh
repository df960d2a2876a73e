#!/usr/bin/env bash
# A/B the end-to-end benchmark: a base revision against the working tree.
#
#   tools/bench_ab.sh <base-rev> <workload> <seed>...
#
# Builds perfbench's ruru_e2e (Release) twice under a temporary directory:
# once from `git archive <base-rev>`, once from the working tree,
# uncommitted edits included.  Then, for each seed, runs base and change
# back to back, alternating which goes first, so a burst of host steal
# lands on both sides of a pair rather than on one.  Prints, per metric,
# the median of each side, the change/base ratio, the base's IQR and the
# pairs the change won; per seed, each run's steal_frac, sample digest and (traced) the
# bottleneck line.
#
# Every run lasts BENCHMARK.json's run_seconds, on both sides.
#
# Environment:
#   BENCH_TRACE    --trace per run, 0 or 1 (default 0)
#   BENCH_AB_DIR   work directory to reuse (default: a fresh mktemp -d,
#                  removed on exit); builds there are incremental
#
# It only builds and runs the benchmark binary; it writes nothing under
# perfbench/ and reads BENCHMARK.json only for the run length and which
# way each metric is better.
set -euo pipefail

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <base-rev> <workload> <seed>..." >&2
  exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
shift 2
SEEDS=("$@")
TRACE="${BENCH_TRACE:-0}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SECONDS_PER_RUN="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$ROOT/BENCHMARK.json")"
BASE_SHA="$(git -C "$ROOT" rev-parse --verify "$BASE_REV^{commit}")"
if [ -n "${BENCH_AB_DIR:-}" ]; then
  WORK="$BENCH_AB_DIR"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi

GEN=()
if command -v ninja >/dev/null; then GEN=(-G Ninja); fi

build() {  # <source root> <build dir>
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=Release "${GEN[@]}" >"$2.log" 2>&1 ||
      { tail -40 "$2.log" >&2; exit 1; }
  fi
  cmake --build "$2" --target ruru_e2e -j"$(nproc)" >>"$2.log" 2>&1 ||
    { tail -40 "$2.log" >&2; exit 1; }
}

rm -rf "$WORK/base-src"
mkdir -p "$WORK/base-src" "$WORK/runs"
# --touch: stamp the extracted files with the current time, not the
# commit's.  A reused BENCH_AB_DIR keeps the previous base's objects, and
# an older base commit's sources would otherwise look up to date to the
# incremental build.
git -C "$ROOT" archive "$BASE_SHA" | tar -x --touch -C "$WORK/base-src"
echo "building base ${BASE_SHA:0:12} and the working tree under $WORK" >&2
build "$WORK/base-src" "$WORK/base-build"
build "$ROOT" "$WORK/change-build"

pair=0
for seed in "${SEEDS[@]}"; do
  # Alternate which side goes first, so neither always runs on a warmer host.
  order=(base change)
  if [ $((pair++ % 2)) -eq 1 ]; then order=(change base); fi
  for side in "${order[@]}"; do
    out="$WORK/runs/$side-$seed.txt"
    echo "run $side seed $seed" >&2
    "$WORK/$side-build/ruru_e2e" --workload "$WORKLOAD" --seed "$seed" \
      --seconds "$SECONDS_PER_RUN" --trace "$TRACE" --out-dir "$WORK/runs" >"$out"
  done
done

python3 - "$ROOT/BENCHMARK.json" "$WORK/runs" "$WORKLOAD" "${BASE_SHA:0:12}" "${SEEDS[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

bench_json, runs, workload, base, seeds = sys.argv[1], Path(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5:]
spec = json.loads(Path(bench_json).read_text())
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse(side, seed):
    lines = (runs / f"{side}-{seed}.txt").read_text().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"'))
    digest = next(l.split()[-1] for l in lines if l.startswith("sample digest"))
    bottleneck = next((l for l in lines if l.startswith("bottleneck stage:")), "")
    return result, prov["steal_frac"], digest, bottleneck


rows = {side: [parse(side, s) for s in seeds] for side in ("base", "change")}
print(f"workload {workload}: base {base} vs working tree, seeds {' '.join(seeds)}")
print(f"{'seed':>6} {'base steal':>11} {'change steal':>13}  {'base digest':<17} {'change digest':<17} ok")
for i, seed in enumerate(seeds):
    b, c = rows["base"][i], rows["change"][i]
    ok = b[0]["correct"] and c[0]["correct"] and b[2] == c[2]
    print(f"{seed:>6} {b[1]:>11.4f} {c[1]:>13.4f}  {b[2]:<17} {c[2]:<17} {'yes' if ok else 'NO'}")
    for side, r in (("base", b), ("change", c)):
        if r[3]:
            print(f"{'':>6} {side}: {r[3]}")

# base IQR: the spread between the base's own runs, which a claimed gain's
# median difference must exceed.
print(f"\n{'metric':<42} {'base':>14} {'change':>14} {'ratio':>7} {'base IQR':>12}  wins")
for name in rows["base"][0][0]["metrics"]:
    bv = [r[0]["metrics"][name]["value"] for r in rows["base"]]
    cv = [r[0]["metrics"].get(name, {}).get("value") for r in rows["change"]]
    if None in cv:
        continue
    bm, cm = statistics.median(bv), statistics.median(cv)
    ratio = f"{cm / bm:7.3f}" if bm else "      -"
    q = statistics.quantiles(bv, n=4) if len(bv) > 1 else [bm, bm, bm]
    sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
    wins = sum(1 for x, y in zip(bv, cv) if sign * (y - x) > 0) if sign else 0
    print(f"{name:<42} {bm:>14.4f} {cm:>14.4f} {ratio} {q[2] - q[0]:>12.4f}  "
          f"{wins}/{len(seeds) if sign else 0}")
EOF
