#!/usr/bin/env python3
"""opckit benchmark: time to a signed-off mask on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload flat_dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Builds the perfbench binary (perfbench/CMakeLists.txt: the opckit
libraries from src/ plus perfbench/src/) into .bench_build/perfbench,
then runs one workload:

  flat_dense     flat flow, SOCS imaging, dense source: litho/core bound
  cell_escalate  cell flow with engine=escalate: the only ILT workload
  daemon_reuse   opcd under a closed-loop client load: reuse/service bound

Inputs are generated from --seed as GDSII; outputs are checked on every
run (repeat hashes, daemon-vs-in-process bytes, mask_deck_180 signoff).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record (machine context, every metric
with median, spread and sample count, reuse shares, check failures),
which is also printed to stderr as a table.

With --workload all every workload runs in turn, a table of each
metric's median, spread and sample count is printed, and the exit code
is non-zero if any output check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["flat_dense", "cell_escalate", "daemon_reuse"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def source_id():
    """Content hash of the benchmarked sources (the checkout has no VCS)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"opckit sources not found under {ROOT / 'src'}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", str(cpu_count()),
           "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        return False
    return BINARY.is_file()


def run_one(workload, seed, seconds, trace, sid):
    """Run the binary once; returns (record, result) or None on failure."""
    # Relative to the repository root, so unix socket paths stay short.
    work = Path(".bench_build") / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--source-id", sid]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{workload}: perfbench exited with {proc.returncode}")
        return None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def print_table(record, out):
    def say(line):
        print(line, file=out)
    say(f"== {record['workload']} seed={record['seed']} "
        f"trace={record['trace']}")
    say(f"  {'metric':34} {'median':>14} {'unit':6} {'spread':>8} {'n':>5}")
    for name, m in record["metrics"].items():
        say(f"  {name:34} {m['median']:14.6g} {m['unit']:6} "
            f"{m['spread']:8.4f} {m['n']:5d}")
    for name, v in record["info"].items():
        say(f"  {name:34} {v:14.6g} (info)")
    for name, v in {**record["context"], **record["notes"]}.items():
        say(f"  {name} = {v}")
    for failure in record["checks_failed"]:
        say(f"  CHECK FAILED: {failure}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2
    sid = source_id()

    if args.workload != "all":
        got = run_one(args.workload, args.seed, args.seconds, args.trace, sid)
        if got is None:
            return 1
        record, result = got
        print_table(record, sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        return 0

    ok = True
    for workload in WORKLOADS:
        got = run_one(workload, args.seed, args.seconds, args.trace, sid)
        if got is None:
            ok = False
            continue
        record, result = got
        print_table(record, sys.stdout)
        ok = ok and result["correct"]
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
