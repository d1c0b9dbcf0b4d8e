#!/usr/bin/env python3
"""Small-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at --small scale with and without --trace and checks
that each emitted metric is declared in BENCHMARK.json with its unit; that
a deliberately altered links file fails the output check; that a record
with a different workload fingerprint is refused as a stale baseline; and
that a directory holding only the benchmark (no repository sources) fails
without printing a result. Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(ROOT, ".bench_build", "selftest")
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra, cwd=ROOT, script=RUN):
    p = subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace",
                        str(trace), "--small", *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    for w in spec["workloads"]:
        for trace in (0, 1):
            p, r = run(w["name"], 7, trace)
            tag = f"{w['name']} --trace {trace}"
            expect(p.returncode == 0 and r is not None and r["correct"]
                   and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{tag}: correct run, exit 0 ({p.stderr.strip()[-200:]})")
            if r is None:
                continue
            expect(sorted(r) == ["attempted", "correct", "failed",
                                 "metrics"], f"{tag}: result keys")
            emitted = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(emitted == declared[trace],
                   f"{tag}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) and
                       math.isfinite(v["value"])
                       for v in r["metrics"].values()),
                   f"{tag}: every value is a finite number")

    p, r = run("checkin-batch", 7, 0, "--corrupt-links")
    expect(p.returncode == 1 and r is not None and not r["correct"] and
           r["failed"] >= 1 and "links differ" in p.stderr,
           "an altered links file fails the output check")

    record = os.path.join(WORK, "record.json")
    p, _ = run("serve-stream", 7, 0, "--out", record)
    expect(p.returncode == 0 and os.path.isfile(record), "--out saves")
    p, _ = run("serve-stream", 8, 0, "--baseline", record)
    expect(p.returncode == 3 and "stale baseline, regenerate" in p.stderr,
           "a baseline from another seed is refused as stale")
    p, _ = run("serve-stream", 7, 0, "--baseline", record)
    expect("stale baseline" not in p.stderr,
           "a baseline from the same seed is compared")

    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p, r = run("checkin-batch", 7, 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    expect(p.returncode != 0 and r is None,
           "without the repository sources: non-zero exit, no result")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
