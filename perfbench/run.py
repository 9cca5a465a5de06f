#!/usr/bin/env python3
"""Build and run the mgsec benchmark.

    python3 perfbench/run.py --workload paper4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the mgbench program)
in Release mode under $CARGO_TARGET_DIR, default .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the
last stdout line is mgbench's result JSON. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper4", "scaleout", "observe", "fuzz")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure + build; returns the mgbench path or None on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "mgbench"],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    exe = os.path.join(out, "mgbench")
    return exe if os.path.isfile(exe) else None


def run_mgbench(exe, argv, seconds, capture=False):
    """Run mgbench; kills it if it overruns its budget by a margin."""
    try:
        p = subprocess.run([exe] + argv, timeout=seconds * 3 + 60,
                           stdout=subprocess.PIPE if capture else None,
                           text=True)
    except subprocess.TimeoutExpired:
        print("run.py: mgbench timed out", file=sys.stderr)
        return 1, ""
    return p.returncode, p.stdout or ""


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(exe):
    """Tiny job sets: every named metric is printed with its unit, and a
    corrupted reference count trips the correctness gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", wl, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            rc, out = run_mgbench(exe, argv, 1, capture=True)
            res = last_json(out) if rc == 0 else None
            tag = f"{wl} trace={trace}"
            if res is None:
                problems.append(f"{tag}: no result (rc={rc})")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: gate failed on clean inputs")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got.keys() & want[trace].keys()
                               if got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} "
                                f"unit mismatch {wrong}")
            table = out.splitlines()[:-1]
            for name, unit in want[trace].items():
                if not any(ln.split()[:1] == [name] and unit in ln.split()
                           for ln in table):
                    problems.append(f"{tag}: {name} [{unit}] not in table")
        argv = ["--workload", wl, "--seed", "7", "--seconds", "1",
                "--trace", "0", "--tiny", "--corrupt-ref"]
        rc, out = run_mgbench(exe, argv, 1, capture=True)
        res = last_json(out) if rc == 0 else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(f"{wl}: corrupted reference did not trip "
                            f"the gate: {res}")
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    exe = build()
    if exe is None:
        return 1
    if a.selftest:
        return selftest(exe)
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        argv += ["--spans-out",
                 os.path.join(spans, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    rc, _ = run_mgbench(exe, argv, a.seconds)
    return rc


if __name__ == "__main__":
    sys.exit(main())
