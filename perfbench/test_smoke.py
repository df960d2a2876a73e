#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/test_smoke.py

Runs a short smoke mode of every workload in BENCHMARK.json, untraced and
traced, and checks that:
  * every end-to-end (untraced) and per-layer (traced) metric is emitted,
    with its unit, as a finite number, and nothing else is;
  * the output checks passed on every replay (correct, failed == 0);
  * the sample digest of the untraced and the traced run of one seed are
    equal (the sink output depends only on the trace).
Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(workload: str, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("sample digest ")), None)
    return json.loads(lines[-1]), digest


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, digest = run(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"FAIL {label}: output checks failed: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                         f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                sys.exit(f"FAIL {label}: non-numeric values for {bad}")
            digests.append(digest)
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} replays, digest {digest}")
        if digests[0] is None or digests[0] != digests[1]:
            sys.exit(f"FAIL {workload}: sample digest differs between runs: {digests}")
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
