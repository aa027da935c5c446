#!/usr/bin/env python3
"""The repository benchmark: the machine check of the paper's theorems
through its exhaustive-check and serving paths.

    python3 perfbench/run.py --workload check-dac6|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository's libraries, the
shipped binary lbsa_serverd and the benchmark's own program lbsa_bench from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build), checks every output, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics (E2E below; every workload
reports each of them for its own operation, see perfbench/README.md),
--trace 1 makes the traced run:
spans around calls into each layer's public functions (lbsa_bench layers),
written as a Chrome trace, and the per-layer metrics. BENCHMARK.json lists
the metrics and why each workload exists.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("check-dac6", "serve-mix")
# Sources the build needs; without them the benchmark refuses to run.
REQUIRED = ("src/CMakeLists.txt", "tools/lbsa_serverd.cpp", "HIERARCHY.json")
# Build targets and where they land in the build tree (perfbench/CMakeLists.txt
# builds the shipped tool from the repository's tools/CMakeLists.txt).
TARGETS = {"lbsa_bench": "lbsa_bench",
           "lbsa_serverd": "lbsa_tools/lbsa_serverd"}

# serve-mix: open loop at a fixed offered rate, below the capacity
# (serve.max_rate_rps) a shared 4-core host shows even when slow, with a
# fixed latency limit.
OFFERED_RPS = 300
LATENCY_LIMIT_MS = 100.0
# The timed phase is repeated; each repetition has enough requests for
# >= 10 samples beyond p99, and the metrics are medians across them.
REP_REQUESTS = 1200
MIN_REPS = 3
# Higher offered rates tried in order, PROBE_REQUESTS each, until one
# misses the limit (traced run only: the knee moves with host contention
# by more than any bound an end-to-end metric may have).
PROBE_RATES = (600, 800, 1000, 1200, 1400, 1700, 2000, 2500, 3000)
PROBE_REQUESTS = 1000
# Traffic before the timed phase, while the server's allocator and fuzz
# engines warm up; not measured.
WARM_REQUESTS = 900
# A repetition whose generator sent its median request later than this has
# fallen behind schedule: it is invalid and is not reported. Short stalls
# of the whole host delay a few sends and stay in the latencies, which run
# from the due time.
GENERATOR_BEHIND_MS = 1.0
SERVE_WORKERS = 4

# Set-up is measured this many times per run (after one untimed start that
# fills the page cache); setup_s is the median.
SETUP_SAMPLES = 11


class WrongOutput(Exception):
    """An output of the program under test was wrong."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            os.remove(cache)  # a tree configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *TARGETS])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise SystemExit("perfbench: build failed")
    return {t: os.path.join(build_dir, path) for t, path in TARGETS.items()}


def provenance(build_dir, args):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "host_cores": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version,
        "git_sha": sha,
        # A checkout without .git still names its code by content.
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


# ------------------------------------------------------------ processes


def last_json_line(text, what):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise WrongOutput(f"{what}: no result line")


def spawn(bins, argv, timeout=120):
    """Runs argv under `lbsa_bench spawn`: wall time and exit code."""
    proc = subprocess.run([bins["lbsa_bench"], "spawn", "--", *argv],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WrongOutput(f"spawn {argv[0]}: {proc.stderr.strip()}")
    return last_json_line(proc.stdout, "spawn")


def run_bench(bins, argv, timeout):
    proc = subprocess.run([bins["lbsa_bench"], *argv], capture_output=True,
                          text=True, timeout=timeout)
    result = last_json_line(proc.stdout, argv[0])
    if proc.returncode != 0:
        why = result.get("error") or result.get("errors") or proc.stderr
        raise WrongOutput(f"lbsa_bench {argv[0]}: {why}")
    return result


class Server:
    """One lbsa_serverd; set-up is start to listening plus the client's
    cache warm-up of the repeated shapes."""

    def __init__(self, bins, socket_path):
        self.bins = bins
        self.socket = socket_path
        if os.path.exists(socket_path):
            os.remove(socket_path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["lbsa_serverd"], "--socket", socket_path, "--workers",
             str(SERVE_WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        listen_s = time.perf_counter() - t0
        if "listening" not in line:
            self.stop()
            raise WrongOutput(f"lbsa_serverd did not start: {line!r}")
        try:
            warm = self.client(["--phases", "1:1", "--warm-only"])
        except BaseException:
            self.stop()
            raise
        self.setup_s = listen_s + warm["warm_ns"] / 1e9

    def client(self, extra, seed=0, samples_out=None):
        argv = ["serve-client", "--socket", self.socket, "--seed", str(seed),
                *extra]
        if samples_out:
            argv += ["--samples-out", samples_out]
        return run_bench(self.bins, argv, timeout=150)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise WrongOutput("lbsa_serverd: no VmHWM")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if os.path.exists(self.socket):
            os.remove(self.socket)


# ----------------------------------------------------------------- legs


class Run:
    """Accumulates attempts, failures and samples across the legs."""

    def __init__(self, bins, run_dir, seed):
        self.bins = bins
        self.run_dir = run_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.setups = []
        self.notes = []

    def add(self, name, values):
        self.samples.setdefault(name, []).extend(values)


def leg_check(run, budget_s):
    out = run_bench(run.bins, ["check", "--seconds",
                               str(max(1, int(budget_s)))], timeout=170)
    run.attempted += len(out["check_ns"])
    run.add("latency_p50_ms", [v / 1e6 for v in out["check_ns"]])
    run.add("peak_rss_mb", [out["peak_rss_bytes"] / 2**20])


def phase_summary(rows):
    """rows: [kind, due, sent, received, ok] per request (ns)."""
    latencies, lateness = stats.due_time_latencies(
        [(due, sent, recv) for _, due, sent, recv, _ in rows])
    latencies = [lat if ok else math.inf
                 for lat, (*_, ok) in zip(latencies, rows)]
    good = sum(1 for lat in latencies if lat <= LATENCY_LIMIT_MS)
    span_s = (max(r[3] for r in rows) - min(r[1] for r in rows)) / 1e9
    return {
        "n": len(rows),
        "latencies": latencies,
        "p50": stats.tail_percentile(latencies, 0.5),
        "p99": stats.tail_percentile(latencies, 0.99),
        "late_p50": stats.percentile(lateness, 0.5),
        "late_p99": stats.percentile(lateness, 0.99),
        "goodput": good / span_s,
        "failed": sum(1 for *_, ok in rows if not ok),
    }


def serve_phases(run, server, phases, seed):
    """Runs phases "R:N,..." through the client; returns their rows."""
    path = os.path.join(run.run_dir, "serve-samples.json")
    out = server.client(["--phases", phases], seed=seed, samples_out=path)
    with open(path) as f:
        result = [p["rows"] for p in json.load(f)["phases"]]
    run.attempted += sum(len(rows) for rows in result)
    note = "serve-client ran without real-time priority"
    if not out["realtime"] and note not in run.notes:
        run.notes.append(note)
    if out["failed"]:
        run.failed += out["failed"]
        raise WrongOutput(f"serve-mix: {out['errors']}")
    return result


def serve_setups(run):
    """SETUP_SAMPLES timed server starts (after one untimed); returns the
    last server, running."""
    socket_path = os.path.join(run.run_dir, "serve.sock")
    server = None
    for i in range(SETUP_SAMPLES + 1):
        if server is not None:
            server.stop()
        server = Server(run.bins, socket_path)
        if i > 0:
            run.setups.append(server.setup_s)
    return server


def leg_serve(run, budget_s):
    """Set-up samples, warm traffic, then timed repetitions at OFFERED_RPS
    for the rest of the budget."""
    start = time.perf_counter()
    server = serve_setups(run)
    try:
        serve_phases(run, server, f"{OFFERED_RPS}:{WARM_REQUESTS}",
                     run.seed * 1000)
        elapsed = time.perf_counter() - start
        reps = max(MIN_REPS, round((budget_s - elapsed) /
                                   (REP_REQUESTS / OFFERED_RPS)))
        valid = []
        for k in range(reps + 3):  # room to replace invalid repetitions
            if len(valid) == reps:
                break
            [rows] = serve_phases(run, server, f"{OFFERED_RPS}:{REP_REQUESTS}",
                                  run.seed * 1000 + 1 + k)
            s = phase_summary(rows)
            if s["late_p50"] > GENERATOR_BEHIND_MS:
                run.notes.append(
                    f"serve-mix repetition invalid: generator median "
                    f"lateness {s['late_p50']:.2f} ms; repeated")
                continue
            valid.append(s)
        if len(valid) < reps:
            raise WrongOutput("serve-mix: generator fell behind schedule")
        for s in valid:
            run.add("latency_p50_ms", [s["p50"]])
            run.add("rep_p99_ms", [s["p99"]])
            run.add("goodput_rps", [s["goodput"]])
            run.add("gen_late_p99_ms", [s["late_p99"]])
        # p99 over all repetitions together: many more samples beyond it
        # than one repetition has, so one burst of host contention moves it
        # less than it moves the median of per-repetition p99s.
        pooled = [lat for s in valid for lat in s["latencies"]]
        # Printed, not an end-to-end metric: it moved by 0.36 to 0.53 of its
        # median between runs on a shared host, beyond any allowed bound.
        run.add("latency_p99_ms", [stats.tail_percentile(pooled, 0.99)])
        run.notes.append(f"serve-mix: {reps} repetitions of {REP_REQUESTS} "
                         f"requests at {OFFERED_RPS} req/s, open loop; "
                         f"p99 over all {len(pooled)}")
        run.add("peak_rss_mb", [server.peak_rss_mb()])
    finally:
        server.stop()


def probe_max_rate(run):
    """p99 latency of one repetition at OFFERED_RPS, then offered rates
    above it, PROBE_REQUESTS each, until one misses the latency limit.
    Returns (that p99, the crossing rate, interpolated)."""
    server = Server(run.bins, os.path.join(run.run_dir, "serve.sock"))
    try:
        serve_phases(run, server, f"{OFFERED_RPS}:{WARM_REQUESTS}",
                     run.seed * 1000)
        [rows] = serve_phases(run, server, f"{OFFERED_RPS}:{REP_REQUESTS}",
                              run.seed * 1000 + 1)
        p99 = phase_summary(rows)["p99"]
        passed = (OFFERED_RPS, p99)
        failed = None
        for k, rate in enumerate(PROBE_RATES):
            [rows] = serve_phases(run, server, f"{rate}:{PROBE_REQUESTS}",
                                  run.seed * 1000 + 100 + k)
            s = phase_summary(rows)
            on_time = s["late_p50"] <= GENERATOR_BEHIND_MS
            ok = on_time and s["p99"] <= LATENCY_LIMIT_MS
            run.notes.append(f"probe {rate} req/s: p99 {s['p99']:.2f} ms, "
                             f"generator median lateness "
                             f"{s['late_p50']:.3f} ms, "
                             f"{'meets' if ok else 'misses'} the limit")
            if not ok:
                failed = (rate, s["p99"] if on_time else math.inf)
                break
            passed = (rate, s["p99"])
    finally:
        server.stop()
    return p99, stats.crossing_rate(passed, failed, LATENCY_LIMIT_MS)


def setup_samples(run, argv):
    for i in range(SETUP_SAMPLES + 1):
        r = spawn(run.bins, argv)
        if r["exit_code"] != 0:
            raise WrongOutput(f"set-up of {' '.join(argv)} failed")
        if i > 0:
            run.setups.append(r["wall_ns"] / 1e9)


# The end-to-end metrics besides setup_s; every workload produces each for
# its own operation (a dac6 check, a served request) and the process doing
# the work.
E2E = (("latency_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def measure(run, workload, seconds):
    start = time.perf_counter()
    if workload == "check-dac6":
        # Process start to the first timed call: task registry and dac6.
        setup_samples(run, [run.bins["lbsa_bench"], "check", "--setup-only"])
        leg_check(run, seconds - (time.perf_counter() - start))
    else:
        leg_serve(run, seconds)
    metrics = {name: {"value": statistics.median(run.samples[name]),
                      "unit": unit} for name, unit in E2E}
    metrics["setup_s"] = {"value": statistics.median(run.setups), "unit": "s"}
    for name, values in sorted(run.samples.items()):
        q1, med, q3 = stats.quartiles(values)
        run.notes.append(f"{name}: {len(values)} samples, median {med:.6g}, "
                         f"quartiles {q1:.6g} .. {q3:.6g}")
    q1, med, q3 = stats.quartiles(run.setups)
    run.notes.append(f"setup_s: {len(run.setups)} samples, median {med:.6g}, "
                     f"quartiles {q1:.6g} .. {q3:.6g}")
    return metrics


# --------------------------------------------------------------- traced


def load_spans(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        a = e["args"]
        spans.append({"name": e["name"], "layer": e["cat"],
                      "id": a["span_id"], "parent": a["parent_id"],
                      "request": a["request_id"], "start": a["start_ns"],
                      "end": a["start_ns"] + a["dur_ns"]})
    return spans


def measure_layers(run, workload):
    # Kept after the run for viewers (chrome://tracing, Perfetto).
    trace_path = os.path.join(os.path.dirname(os.path.dirname(run.run_dir)),
                              f"trace-{workload}.json")
    raw = run_bench(run.bins, ["layers", "--workload", workload, "--seed",
                                str(run.seed), "--trace-out", trace_path,
                                "--hierarchy",
                                os.path.join(ROOT, "HIERARCHY.json")],
                     timeout=170)
    spans = load_spans(trace_path)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    self_ns = stats.self_times(spans)
    requests = by_name["request.hit"] + by_name["request.miss"]
    run.attempted += len(spans)
    ms = lambda ns: ns / 1e6  # noqa: E731

    def dur(span):
        return span["end"] - span["start"]

    nodes = raw["explore_nodes"]
    check_ns = raw["check_traced_ns"]
    m = {
        "sim.successors.calls": (raw["sim_successors_calls"], "count"),
        "sim.successors.busy_s": (raw["sim_successors_ns"] / 1e9, "s"),
        "sim.encode.busy_s": (raw["sim_encode_ns"] / 1e9, "s"),
        "sim.encode.words_per_node": (raw["sim_encode_words"] / nodes,
                                      "words"),
        "explorer.explore_s.w1": (raw["explore_w1_ns"] / 1e9, "s"),
        "explorer.explore_s.w4": (raw["explore_w4_ns"] / 1e9, "s"),
        "explorer.nodes": (nodes, "count"),
        "explorer.transitions": (raw["explore_transitions"], "count"),
        "explorer.nodes_per_s.w1": (nodes / (raw["explore_w1_ns"] / 1e9),
                                    "1/s"),
        "explorer.nodes_per_s.w4": (nodes / (raw["explore_w4_ns"] / 1e9),
                                    "1/s"),
        "explorer.bytes_per_node": (raw["explore_rss_growth_bytes"] / nodes,
                                    "B"),
        "explorer.intern.busy_s": (raw["intern_ns"] / 1e9, "s"),
        "explorer.intern.cas_retries": (raw["intern_cas_retries"], "count"),
        "explorer.steal.count": (raw["steal_count"], "count"),
        "task_check.busy_s": (raw["task_check_ns"] / 1e9, "s"),
        "task_check.self_s": (
            (raw["task_check_ns"] - raw["explore_w4_ns"]) / 1e9, "s"),
        "task_check.explore_share": (raw["explore_w4_ns"] / check_ns, "ratio"),
        "task_check.self_share": (
            (raw["task_check_ns"] - raw["explore_w4_ns"]) / check_ns, "ratio"),
        "symmetry.canon.calls": (raw["canon_calls"], "count"),
        "symmetry.canon.busy_s": (raw["canon_ns"] / 1e9, "s"),
        "symmetry.canon.cache_hit_ratio": (
            raw["canon_cache_hits"] /
            max(1, raw["canon_cache_hits"] + raw["canon_cache_misses"]),
            "ratio"),
        "por.skips": (raw["por_skips"], "count"),
        "hierarchy.row_s.max": (raw["row_max_ns"] / 1e9, "s"),
        "hierarchy.row_s.sum": (raw["row_sum_ns"] / 1e9, "s"),
        "hierarchy.cross_check_s": (
            (raw["row_sum_ns"] - raw["row_plain_sum_ns"]) / 1e9, "s"),
        "hierarchy.explore.nodes": (raw["sweep_explore_nodes"], "count"),
        "fuzz.runs_per_s.coverage": (
            raw["fuzz_coverage_runs"] / (raw["fuzz_coverage_ns"] / 1e9),
            "1/s"),
        "fuzz.runs_per_s.blind": (
            raw["fuzz_blind_runs"] / (raw["fuzz_blind_ns"] / 1e9), "1/s"),
        "report.serialize_us": (raw["report_ns"] / raw["report_count"] / 1e3,
                                "us"),
        "report.bytes": (raw["report_bytes"] / raw["report_count"], "B"),
        "serve.parse_us": (raw["parse_ns"] / raw["parse_count"] / 1e3, "us"),
        "serve.cache.hit_ratio": (
            raw["cache_hits"] / max(1, raw["cache_hits"] + raw["cache_misses"]),
            "ratio"),
        "serve.latency_ms.hit.p99": (stats.tail_percentile(
            [ms(dur(s)) for s in by_name["request.hit"]], 0.99), "ms"),
        "serve.latency_ms.miss.p99": (stats.tail_percentile(
            [ms(dur(s)) for s in by_name["request.miss"]], 0.99), "ms"),
        "serve.queue_wait_ms.p99": (stats.tail_percentile(
            [ms(self_ns[s["id"]]) for s in requests], 0.99), "ms"),
        "serve.queue_depth.max": (raw["queue_depth_max"], "count"),
        "serve.execute_ms.p50": (stats.percentile(
            [ms(dur(s)) for s in by_name["execute"]], 0.5), "ms"),
        "gen.late_ms.p99": (stats.tail_percentile(
            [ms(dur(s)) for s in by_name["generator.late"]], 0.99), "ms"),
    }
    # The workload's own operation in traced/untraced pairs, alternating
    # which leg runs first (a dac6 check; the in-process service's median
    # latency).
    pairs = sum(1 for key in raw if key.startswith("overhead.traced."))
    ratios = [raw[f"overhead.traced.{k}"] / raw[f"overhead.untraced.{k}"]
              for k in range(pairs)]
    m["trace.overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    run.notes.append("trace.overhead_frac: median of traced/untraced pair "
                     "ratios " + ", ".join(f"{r:.4f}" for r in ratios))
    p99, max_rate = probe_max_rate(run)
    m["serve.latency_p99_ms"] = (p99, "ms")
    m["serve.max_rate_rps"] = (max_rate, "req/s")
    run.notes.append(
        f"check-dac6: exploration (4 workers) covers "
        f"{m['task_check.explore_share'][0]:.1%} of the traced check, "
        f"task_check self time {m['task_check.self_share'][0]:.1%}")
    run.notes.append(f"trace: {len(spans)} spans in {trace_path}")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: repository sources missing: " + ", ".join(missing))
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    bins = build(build_dir)
    prov = provenance(build_dir, args)
    run_dir = os.path.join(build_dir, "runs", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(bins, run_dir, args.seed)
    correct = True
    metrics = {}
    try:
        if args.trace:
            metrics = measure_layers(run, args.workload)
        else:
            metrics = measure(run, args.workload, args.seconds)
    except (WrongOutput, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        correct = False
        run.failed = max(run.failed, 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for note in run.notes:
        print(note)
    for name, m in sorted(metrics.items()):
        print(f"{name} {m['value']:.6g} {m['unit']}")
    attempted = max(1, run.attempted)
    print(f"failed_frac {run.failed / attempted:.6g} "
          f"({run.failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
