#!/usr/bin/env python3
"""Build ruru_e2e from this checkout and run one benchmark measurement.

    python3 perfbench/run.py --workload <handshake_mix|bulk_skip|synflood>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a Ruru checkout.  The first call configures and
builds the pipeline libraries and the benchmark (Release) under
.bench_build/; later calls only rebuild what changed.  The benchmark's
output is passed through; its last line is the JSON result.  Build
failures and a missing source tree exit non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "ruru_e2e"
SPAN_DIR = ROOT / ".bench_build" / "spans"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(message: str, code: int = 1) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd: list, log, timeout: int) -> bool:
    log.write(f"$ {' '.join(cmd)}\n")
    log.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log.write("timed out\n")
        return False


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "pipeline.hpp").is_file():
        fail(f"no Ruru source tree at {ROOT}", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        ok = True
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            ok = run_logged(configure, log, BUILD_TIMEOUT_S)
        ok = ok and run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "ruru_e2e",
                                "-j", str(os.cpu_count() or 1)], log, BUILD_TIMEOUT_S)
    if not ok:
        sys.stderr.write(log_path.read_text()[-4000:])
        fail(f"build failed (log: {log_path})")
    return BUILD_DIR / "ruru_e2e"


def commit() -> str:
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the files the benchmark builds from (path + content)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="short self-test run")
    args = ap.parse_args()

    binary = build()
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(SPAN_DIR), "--commit", commit(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
