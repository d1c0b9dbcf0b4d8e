#!/usr/bin/env python3
"""The SLIM linkage benchmark: one command, four workloads, measured outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the repository's tools and the
traced-run tool into .bench_build (or $CARGO_TARGET_DIR), generates the
workload from --seed, and then:

  --trace 0  times the real slim_link (at 1 and 4 threads) and slim_serve
             binaries as child processes for --seconds, repeating rounds,
             and reports the end-to-end metrics;
  --trace 1  runs the traced composition (perfbench/bench_main.cc) of every
             layer in-process, next to untraced slim_link runs, and reports
             the per-layer metrics. Its spans are kept in
             .bench_build/traces/ as Chrome trace-event JSON.

Every run checks its outputs: t1 and t4 links are byte-identical, the
daemon's SAVE equals slim_link --min_records 0 over the same records, the
traced compositions link exactly what the CLI links, and F1 stays at or
above the workload's floor. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's record, which carries the workload fingerprint. --out saves the
record; --baseline refuses a record whose fingerprint differs ("stale
baseline, regenerate") and otherwise gates each end-to-end metric on the
bound in BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import serve_client
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up runs at least SETUP_REPEATS times, and on short set-ups again
# until SETUP_MIN_S have passed, at most SETUP_MAX_REPEATS times.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 9
LINK_SHARE = 0.5
CHILD_TIMEOUT_S = 150
TOOLS = ("slim_link", "slim_serve", "slim_bench")


class CheckFailed(Exception):
    """An output check, a child exit code or a protocol reply failed."""


class Counter:
    """Operations attempted and failed, as the result line reports them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise CheckFailed(what)


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build --

def build():
    """Configures and builds perfbench/CMakeLists.txt; returns tool paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("the repository sources are missing next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, "build.log"), "w") as log:
        steps = [["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  *TOOLS]]
        cache = os.path.join(cmake_dir, "CMakeCache.txt")
        if not os.path.isfile(cache) or os.path.getmtime(cache) < \
                os.path.getmtime(os.path.join(HERE, "CMakeLists.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                die(f"build failed; see {log.name}")
    paths = {t: os.path.join(cmake_dir, t) for t in TOOLS}
    for t in TOOLS[:2]:
        paths[t] = os.path.join(cmake_dir, "slim", "tools", t)
    return out, paths


# ------------------------------------------------------------- children --

def run_child(args, log, counter, what):
    """Runs one child to exit; returns (wall seconds, ru_maxrss in MB).

    The child is spawned by spawn.py, so its ru_maxrss is its own; its
    output is appended to the log.
    """
    log.flush()
    launcher = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "spawn.py"), log.name, *args],
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = launcher.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)  # the child too
        launcher.wait()
        out = b"{}"
    result = json.loads(out or b"{}")
    code = result.get("exit", "no exit status (timeout or spawn failure)")
    counter.check(launcher.returncode == 0 and code == 0,
                  f"{what} exited with {code}")
    return result["wall_s"], result["maxrss_kb"] / 1024.0


def link_args(tools, wl, inputs, threads, out, sctx):
    flags = [f.replace("{sctx}", sctx) for f in wl.link_flags]
    return [tools["slim_link"], "--a", inputs.a, "--b", inputs.b,
            "--out", out, "--threads", str(threads), "--min_records", "0",
            *flags]


def run_link(tools, wl, inputs, threads, out, sctx, log, counter):
    if os.path.exists(sctx):
        os.remove(sctx)  # every run writes, then maps, its SCTX
    return run_child(link_args(tools, wl, inputs, threads, out, sctx), log,
                     counter, f"slim_link --threads {threads}")


def another_round(start, rounds, seconds):
    """Whether one more round, as long as the mean so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def same_bytes(a, b):
    return read_bytes(a) == read_bytes(b)


def read_pairs(path):
    pairs = set()
    for line in read_bytes(path).decode().splitlines()[1:]:
        u, v, _ = line.split(",")
        pairs.add((int(u), int(v)))
    return pairs


def f1_score(links_path, truth_path):
    links, truth = read_pairs(links_path), read_pairs(truth_path)
    tp = len(links & truth)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(links), tp / len(truth)
    return 2 * precision * recall / (precision + recall)


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode() + b"\0" + read_bytes(p))
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------- setup --

def setup(tools, wl, wdir, seed, small, log, counter):
    """Generates the inputs and starts a daemon, several times.

    Returns (median seconds, number of set-ups, inputs of the last one).
    Every repeat must produce the same bytes.
    """
    times, digests, inputs = [], set(), None
    for k in range(SETUP_MAX_REPEATS):
        rep = os.path.join(wdir, f"setup{k}")
        t0 = time.perf_counter()
        counter.attempted += 1
        try:
            inputs = workloads.generate(wl, tools["slim_bench"], rep, seed,
                                        small, log)
        except (subprocess.SubprocessError, OSError, ValueError) as e:
            counter.failed += 1
            raise CheckFailed(f"input generation: {e}") from e
        daemon = start_serve(tools, wdir, log, counter)
        times.append(time.perf_counter() - t0)
        serve_client.stop_daemon(daemon)
        digests.add(sha256_files(inputs.files + (inputs.stream,)))
        if k + 1 == SETUP_MAX_REPEATS or (
                k + 1 >= SETUP_REPEATS and sum(times) >= SETUP_MIN_S):
            break
        shutil.rmtree(rep)
    counter.check(len(digests) == 1, "one seed generated different inputs")
    return statistics.median(times), len(times), inputs


def sock_path(wdir):
    # AF_UNIX paths are short; a path relative to the checkout root fits.
    return os.path.relpath(os.path.join(wdir, "serve.sock"))


def start_serve(tools, wdir, log, counter):
    counter.attempted += 1
    try:
        return serve_client.start_daemon(tools["slim_serve"], sock_path(wdir),
                                         log)
    except (serve_client.ServeError, OSError) as e:
        counter.failed += 1
        raise CheckFailed(f"slim_serve start: {e}") from e


def serve_round(tools, inputs, wdir, save, log, counter, stats, cpu):
    """One daemon session, with the client and the daemon on CPU `cpu`.

    On one CPU a request's round trip is two context switches. Across CPUs
    it waits for idle vCPUs to wake, which on a shared VM takes as long as
    the host's load makes it.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # inherited by the daemon and the drain
    try:
        daemon = start_serve(tools, wdir, log, counter)
        before = stats.requests
        try:
            serve_client.run_session(daemon, sock_path(wdir), inputs.stream,
                                     os.path.relpath(save), stats)
        except (serve_client.ServeError, OSError,
                subprocess.TimeoutExpired) as e:
            counter.attempted += stats.requests - before
            counter.failed += 1
            raise CheckFailed(f"serve session: {e}") from e
        finally:
            serve_client.stop_daemon(daemon)
        counter.attempted += stats.requests - before
    finally:
        os.sched_setaffinity(0, allowed)


# ------------------------------------------------------ end-to-end run --

def end_to_end(tools, wl, inputs, wdir, seconds, log, counter, corrupt):
    """Rounds of slim_link t1, t4 and one daemon session, for `seconds`."""
    t1s, t4s, rss = [], [], []
    stats = serve_client.SessionStats()
    sctx = os.path.join(wdir, "link.sctx")
    ref = os.path.join(wdir, "links_t1.csv")
    out4 = os.path.join(wdir, "links_t4.csv")
    saved = os.path.join(wdir, "links_serve.csv")
    session_s = []
    per_session = {"epoch_ms.p50": [], "ingest_krec_s": []}
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while not session_s or another_round(start, len(session_s), seconds):
        # Link pairs take about LINK_SHARE of a session's time, at least
        # one per round, so a short link gets as many samples as it needs.
        budget = LINK_SHARE * statistics.mean(session_s) if session_s else 0
        t0 = time.perf_counter()
        while True:
            t1s.append(run_link(tools, wl, inputs, 1, ref, sctx, log,
                                counter)[0])
            wall, maxrss = run_link(tools, wl, inputs, 4, out4, sctx, log,
                                    counter)
            t4s.append(wall)
            rss.append(maxrss)
            if corrupt:
                with open(out4, "ab") as f:
                    f.write(b"0,0,1.000000\n")
            counter.check(same_bytes(ref, out4), "t1 and t4 links differ")
            if time.perf_counter() - t0 >= budget:
                break
        # One daemon session per round, so the link and the serve samples
        # are spread alike over the run; each on the next CPU in turn.
        t0 = time.perf_counter()
        epochs, lines = len(stats.epoch_ms), len(stats.ingest_krec_s)
        serve_round(tools, inputs, wdir, saved, log, counter, stats,
                    cpus[len(session_s) % len(cpus)])
        session_s.append(time.perf_counter() - t0)
        per_session["epoch_ms.p50"].append(
            statistics.median(stats.epoch_ms[epochs:]))
        per_session["ingest_krec_s"].append(
            statistics.median(stats.ingest_krec_s[lines:]))
        counter.check(same_bytes(ref, saved),
                      "serve SAVE differs from slim_link --min_records 0")
    f1 = f1_score(ref, inputs.truth)
    counter.check(f1 >= workloads.F1_FLOOR,
                  f"F1 {f1:.4f} below {workloads.F1_FLOOR}")
    metrics = {
        "link_s.t1": statistics.median(t1s),
        "peak_rss_mb": statistics.median(rss),
        "f1": f1,
        "epoch_ms.p50": statistics.median(stats.epoch_ms),
        "ingest_krec_s": statistics.median(stats.ingest_krec_s),
    }
    # Recorded, not gated: 4-thread wall times and socket round trips
    # moved 2-10x with the neighbours' load on a shared box.
    ungated = {
        "link_s.t4": (statistics.median(t4s), "s"),
        "epoch_ms.p90": (percentile(stats.epoch_ms, 90), "ms"),
        "topk_us.p50": (statistics.median(stats.topk_us), "us"),
        "topk_us.p99": (percentile(stats.topk_us, 99), "us"),
        "topk_us.after_link": (statistics.median(stats.after_link_us), "us"),
    }
    samples = {"link_s.t1": t1s, "link_s.t4": t4s, "epoch_ms": stats.epoch_ms,
               "sessions": len(session_s), "per_session": per_session,
               "ingest_lines": len(stats.ingest_krec_s),
               "topk": len(stats.topk_us), "event_lines": stats.event_lines,
               "ungated": {k: {"value": v, "unit": u}
                           for k, (v, u) in ungated.items()}}
    return metrics, samples, stats.candidate_pairs, ref


# ----------------------------------------------------------- traced run --

def trace_args(tools, mode, inputs, threads, wdir, tag):
    args = [tools["slim_bench"], "--mode", mode, "--threads", str(threads),
            "--links", os.path.join(wdir, f"trace_{tag}.csv"),
            "--spans", os.path.join(wdir, f"spans_{tag}.json")]
    if mode in ("batch", "ooc"):
        args += ["--a", inputs.a, "--b", inputs.b, "--truth", inputs.truth]
    if mode == "ooc":
        args += ["--sctx", os.path.join(wdir, "trace.sctx"),
                 "--spill", os.path.join(wdir, "trace.spill")]
    if mode in ("incremental", "service"):
        args += ["--stream", inputs.stream]
    return args


def span_seconds(spans, name):
    return [(s["end_us"] - s["start_us"]) * 1e-6 for s in spans
            if s["name"] == name]


def traced(tools, wl, inputs, wdir, seconds, log, counter):
    """Rounds of the traced compositions next to untraced slim_link runs."""
    primary = "ooc" if wl.link_flags else "batch"
    serve = serve_client.SERVE_THREADS
    runs = [(primary, 1), (primary, 4), ("incremental", serve),
            ("service", serve)]
    if primary != "ooc":
        runs.append(("ooc", 4))
    sctx = os.path.join(wdir, "link.sctx")
    ref = os.path.join(wdir, "links_t1.csv")
    out4 = os.path.join(wdir, "links_t4.csv")
    rounds = []
    start = time.perf_counter()
    while not rounds or another_round(start, len(rounds), seconds):
        link_t1 = run_link(tools, wl, inputs, 1, ref, sctx, log, counter)[0]
        link_t4 = run_link(tools, wl, inputs, 4, out4, sctx, log, counter)[0]
        counter.check(same_bytes(ref, out4), "t1 and t4 links differ")
        result = {"link_s.1": link_t1, "link_s.4": link_t4}
        for mode, threads in runs:
            tag = f"{mode}{threads}"
            run_child(trace_args(tools, mode, inputs, threads, wdir, tag),
                      log, counter, f"slim_bench --mode {mode}")
            counter.check(
                same_bytes(ref, os.path.join(wdir, f"trace_{tag}.csv")),
                f"traced {mode} composition at {threads} threads links "
                "differently from slim_link")
            with open(os.path.join(wdir, f"spans_{tag}.json")) as f:
                result[tag] = json.load(f)
        rounds.append(result)
    return layer_metrics(rounds, primary), rounds


def layer_metrics(rounds, primary):
    """Per-layer metrics: times are medians over rounds, counts round 1."""
    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def total(tag, name):
        return lambda r: sum(span_seconds(r[tag]["spans"], name))

    def root_children(r, tag):
        spans = r[tag]["spans"]
        root = next(i for i, s in enumerate(spans) if s["name"] == "link")
        return sum((s["end_us"] - s["start_us"]) * 1e-6 for s in spans
                   if s["parent"] == root)

    seal = "ooc.seal_streamed" if primary == "ooc" else "seal"
    first = rounds[0]
    inc_tag = f"incremental{serve_client.SERVE_THREADS}"
    svc_tag = f"service{serve_client.SERVE_THREADS}"
    p1 = first[f"{primary}1"]["counters"]
    inc = first[inc_tag]["counters"]
    svc = first[svc_tag]["counters"]
    ooc = first["ooc4"]["counters"]
    m = {}
    for t in (1, 4):
        tag = f"{primary}{t}"
        m[f"data.read_s.t{t}"] = med(total(tag, "data.read"))
        m[f"context.build_s.t{t}"] = med(total(tag, "context.build"))
        m[f"candidates.build_s.t{t}"] = med(total(tag, "candidates.build"))
        m[f"scoring.s.t{t}"] = med(total(tag, "scoring"))
        m[f"seal.s.t{t}"] = med(total(tag, seal))
    m.update({
        "data.records": p1["data.records"],
        "context.bins": p1["context.bins"],
        "context.entries": p1["context.entries"],
        "context.rss_mb": p1["context.rss_mb"],
        "candidates.pairs": p1["candidates.pairs"],
        "candidates.share":
            p1["candidates.pairs"] / p1["candidates.cross_product"],
        "candidates.true_recall":
            p1.get("candidates.truth_found", 0) /
            p1["candidates.truth_pairs"],
        "candidates.rss_mb": p1["candidates.rss_mb"],
        "scoring.positive_ratio": p1["scoring.edges"] / p1["scoring.pairs"],
        "scoring.record_comparisons": p1["scoring.record_comparisons"],
        "scoring.alibi_pairs": p1["scoring.alibi_pairs"],
        "seal.edges": p1["seal.edges"],
        "seal.links": p1["seal.links"],
        "ooc.sctx_write_s": med(total("ooc4", "ooc.sctx_write")),
        "ooc.sctx_map_s": med(total("ooc4", "ooc.sctx_map")),
        "ooc.blocks": ooc["ooc.blocks"],
        "ooc.spill_bytes": ooc["ooc.spill_bytes"],
        "ooc.merge_passes": ooc["ooc.merge_passes"],
        "ooc.seal_streamed_s": med(total("ooc4", "ooc.seal_streamed")),
        "incremental.epoch_s": med(lambda r: statistics.median(
            span_seconds(r[inc_tag]["spans"], "incremental.epoch"))),
        "incremental.pairs_reused_ratio": inc["incremental.pairs_reused"] / (
            inc["incremental.pairs_reused"] + inc["incremental.pairs_scored"]),
        "incremental.signatures_reused_ratio":
            inc["incremental.signatures_reused"] /
            inc["incremental.signatures"],
        "incremental.rescored_all_ratio":
            inc["incremental.rescored_all"] / inc["incremental.epochs"],
        "serve.ingest_execute_us": med(lambda r: statistics.median(
            span_seconds(r[svc_tag]["spans"],
                         "serve.execute.INGEST"))) * 1e6,
        "serve.link_execute_ms": med(lambda r: statistics.median(
            span_seconds(r[svc_tag]["spans"],
                         "serve.execute.LINK"))) * 1e3,
        "serve.topk_execute_us": med(lambda r: statistics.median(
            span_seconds(r[svc_tag]["spans"],
                         "serve.execute.TOPK"))) * 1e6,
        "serve.event_lines_per_epoch":
            svc["serve.event_lines"] / inc["incremental.epochs"],
        "trace.overhead_ratio": med(
            lambda r: root_children(r, f"{primary}4") / r["link_s.4"] - 1),
    })
    return m


def write_chrome_trace(rounds, path):
    """Saves round 1's spans as Chrome trace-event JSON (one pid per run)."""
    events = []
    for pid, (tag, run) in enumerate(
            (k, v) for k, v in rounds[0].items() if isinstance(v, dict)):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": f"slim_bench {tag}"}})
        for s in run["spans"]:
            events.append({"ph": "X", "name": s["name"], "pid": pid,
                           "tid": 0, "ts": s["start_us"],
                           "dur": s["end_us"] - s["start_us"]})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


# ----------------------------------------------------------- reporting --

def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def compare(record, baseline_path, e2e):
    """Gates `record` against a saved one; returns the failures."""
    with open(baseline_path) as f:
        base = json.load(f)
    if base["fingerprint"] != record["fingerprint"]:
        return ["stale baseline, regenerate: workload fingerprints differ "
                f"({base['fingerprint']} vs {record['fingerprint']})"]
    problems = []
    for name, value in record["metrics"].items():
        spec = e2e.get(name)
        if spec is None or name not in base["metrics"]:
            continue
        ref = base["metrics"][name]["value"]
        worse = (value["value"] - ref if spec["better"] == "lower"
                 else ref - value["value"])
        if worse > spec["bound"] * abs(ref):
            problems.append(f"{name}: {value['value']:.6g} vs baseline "
                            f"{ref:.6g} (bound {spec['bound']:.0%})")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="scaled-down inputs (self-test)")
    ap.add_argument("--corrupt-links", action="store_true",
                    help="alter the t4 links file before its check "
                         "(self-test of the output check)")
    ap.add_argument("--out", help="also save this run's record here")
    ap.add_argument("--baseline", help="gate against a saved record")
    args = ap.parse_args()

    # A SIGTERM unwinds like an error, so the finally blocks stop the
    # daemon and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    e2e, per_layer = declared_metrics()
    out, tools = build()
    wl = workloads.WORKLOADS[args.workload]
    wdir = os.path.join(out, "work", f"{wl.name}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    counter = Counter()
    metrics, record, error = {}, {}, None
    with open(os.path.join(wdir, "children.log"), "w") as log:
        try:
            setup_s, setups, inputs = setup(tools, wl, wdir, args.seed,
                                            args.small, log, counter)
            if args.trace:
                metrics, rounds = traced(tools, wl, inputs, wdir,
                                         args.seconds, log, counter)
                write_chrome_trace(rounds, os.path.join(
                    out, "traces", f"{wl.name}-s{args.seed}.json"))
                pairs = int(metrics["candidates.pairs"])
                samples = {"rounds": len(rounds)}
                ref = os.path.join(wdir, "links_t1.csv")
            else:
                metrics, samples, pairs, ref = end_to_end(
                    tools, wl, inputs, wdir, args.seconds, log, counter,
                    args.corrupt_links)
                metrics["setup_s"] = setup_s
                samples["setups"] = setups
            declared = per_layer if args.trace else e2e
            counter.check(set(metrics) == set(declared),
                          "emitted metrics differ from BENCHMARK.json: "
                          f"{sorted(set(metrics) ^ set(declared))}")
            record = {
                "workload": wl.name, "seed": args.seed, "trace": args.trace,
                "fingerprint": {
                    "inputs_sha256": sha256_files(inputs.files),
                    "candidate_pairs": pairs,
                    "links_sha256": sha256_files((ref,)),
                },
                "samples": samples,
                "metrics": {k: {"value": v, "unit": declared[k]["unit"]}
                            for k, v in sorted(metrics.items())},
            }
        except CheckFailed as e:
            error = str(e)
        finally:
            shutil.rmtree(wdir, ignore_errors=True)

    problems = []
    if error is None:
        print("record " + json.dumps(record, sort_keys=True))
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1, sort_keys=True)
        if args.baseline:
            problems = compare(record, args.baseline, e2e)
    else:
        print(f"run.py: check failed: {error}", file=sys.stderr)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps({"correct": error is None,
                      "attempted": max(1, counter.attempted),
                      "failed": counter.failed,
                      "metrics": record.get("metrics", {})}))
    sys.exit(1 if error else 3 if problems else 0)


if __name__ == "__main__":
    main()
