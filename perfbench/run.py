#!/usr/bin/env python3
"""Builds bansim's benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library is compiled from the checkout's src/ tree into
.bench_build/perfbench (an incremental no-op after the first run).  The
benchmark binary then prints a "facts" line and, as the last stdout line,
the JSON result.  Traced runs also leave a Chrome trace-event file in
.bench_build/perfbench/traces/.  Exits non-zero, without a result line,
when the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "bansim_perfbench"
WORKLOADS = ("table1_ecg", "table4_rpeak", "ward_campaign", "fade_lifetime")
MAX_JOBS = 4


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(os.cpu_count() or 1, MAX_JOBS))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "bansim_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--root", str(ROOT),
           "--work", str(work),
           "--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json"),
           "--commit", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
