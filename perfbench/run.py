#!/usr/bin/env python3
"""The linkclust repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-gnm-t1 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, both modes
    python3 perfbench/run.py --smoke                          # tiny-input self-test

One run builds the benchmark package (perfbench/Cargo.toml) and the
`linkclustd` daemon, generates the workload's inputs from the seed,
measures for `--seconds`, checks every output, and prints as its last
stdout line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, with `--trace 1` the per-layer metrics of the
traced run. The line before it is a detail document: machine identity,
input properties, sample counts, rate-ladder steps and per-layer self
times.
METRICS.md describes every metric and which one it should move.
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
CHILD_TIMEOUT_S = 150

# The thread count each workload clusters with.
WORKLOADS = {"batch-gnm-t1": 1, "batch-ba-t2": 2, "serve-lfr-mixed": 2}

# The serve workload's traffic. The figures are fixed, so a change to the
# daemon is measured under the same offered load; each is derived from a
# figure this benchmark measured when it was defined (medians of ten
# seeds on a shared 2-vCPU Xeon VM; METRICS.md gives the measurements):
#
# * the nominal rate is NOMINAL_SHARE of the closed-loop capacity (the
#   closed-loop answer rate over the socket, 184 queries/s). Below about
#   0.2 of it (35-40 queries/s) the median query meets an idle daemon and
#   p50 is a service time (~0.6 ms); above, it queues behind uncached
#   topk answers and p50 jumps to ~15 ms. 0.11 keeps the nominal point
#   at half that knee.
# * a recluster is admitted every ADMIT_MULTIPLE median admissions (0.335
#   s), so the nominal phase (NOMINAL_PHASE of the run) holds eight of
#   them for run_s to be the median of, and admissions take an eighth of
#   the phase: the daemon serves most queries with no recluster running.
CAPACITY_QPS = 184.0
ADMIT_S = 0.335
NOMINAL_SHARE = 0.11
ADMIT_MULTIPLE = 7.5
NOMINAL_PHASE = 0.65
SERVE_RATE = round(NOMINAL_SHARE * CAPACITY_QPS)
SERVE_ADMIT_EVERY_S = ADMIT_MULTIPLE * ADMIT_S
# The open-loop rate ladder above the nominal rate (detail line only).
SERVE_LADDER = [40, 60, 95, 150, 240, 380, 600, 950]
# Queries of the closed-loop burst (detail line only): a fixed count
# (about 5 s at ~190 answers/s), so every run does the same work.
SERVE_CLOSED_QUERIES = 1000
# The serve workload's query and admission figures: measured and printed,
# but not gated (see METRICS.md, "Measured steadiness").
SERVE_QUERY_FIGURES = {"query_p50_ms": "ms", "query_p99_ms": "ms", "query_samples": "count",
                       "query_tail_q": "ratio", "query_tail_ms": "ms", "max_qps": "1/s",
                       "admit_s": "s"}
# Timed daemon start-ups behind the serve workload's setup_s (~25 ms each;
# the median of several keeps one slow start from moving it).
SERVE_SPAWNS = 7


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    """Runs one child in its own process group; returns its last stdout
    line parsed as JSON. Kills the whole group on timeout, so no
    daemon outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def build():
    """Builds the benchmark binaries and linkclustd; returns their dir."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for manifest, extra in (("perfbench/Cargo.toml", []), ("Cargo.toml", ["--bin", "linkclustd"])):
        if not os.path.exists(os.path.join(ROOT, manifest)):
            raise RuntimeError(f"{manifest} is missing: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
               "--manifest-path", manifest] + extra
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, timeout=840)
        if res.returncode != 0:
            raise RuntimeError(f"build failed ({' '.join(cmd)}):\n{res.stderr[-3000:]}")
    return os.path.join(target, "release")


def machine_identity():
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return None

    cpu_max = read("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:
        quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = f"{quota} {period} (cgroup v1 quota/period)" if quota else "absent"
    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "cpu_model": model,
        "kernel": platform.release(),
        "rustc": rustc,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """SHA-256 over the sources that build the measured binaries, so a
    result identifies its code even where there is no git metadata."""
    h = hashlib.sha256()
    paths = []
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(full)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if f.endswith((".rs", ".toml", ".lock", ".py")))
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def med(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else float("nan")


def run_batch(bins, name, inputs, work, seconds, corrupt):
    """Fresh batch children, at least three, for most of the budget."""
    graph = os.path.join(work, inputs["graph"])
    index = os.path.join(work, "batch.lnkclsdx")
    children = []
    start = time.monotonic()
    while len(children) < 3 or time.monotonic() - start < 0.85 * seconds:
        cmd = [os.path.join(bins, "perfbench"), "batch", graph, index, str(WORKLOADS[name]),
               inputs["oracle_fingerprint"]]
        if corrupt:
            cmd.append("--corrupt")
        children.append(run_child(cmd))
        if corrupt:
            break
    metrics = {k: med([c[k] for c in children]) for k in ("setup_s", "run_s", "cpu_s",
                                                          "peak_rss_mb")}
    failed = sum(1 for c in children if not c["ok"])
    return metrics, len(children), failed, {"children": children}


def serve_cmd(bins, work, graph, index, threads, seed, rate, nominal_s, admit_every, closed_n,
              ladder, step_s, spawns, corrupt):
    cmd = [os.path.join(bins, "perfbench"), "serve", os.path.join(work, graph),
           os.path.join(work, index), os.path.join(bins, "linkclustd"), str(seed),
           "--threads", str(threads), "--rate", str(rate), "--nominal-s", f"{nominal_s:.3f}",
           "--admit-every", f"{admit_every:.3f}", "--closed-n", str(closed_n),
           "--ladder", ",".join(str(r) for r in ladder), "--step-s", f"{step_s:.3f}",
           "--spawns", str(spawns)]
    if corrupt:
        cmd.append("--corrupt")
    return cmd


def run_serve(bins, inputs, work, seed, seconds, corrupt):
    """Set-up, the nominal phase with admissions, the closed-loop burst,
    then the ladder."""
    doc = run_child(serve_cmd(bins, work, inputs["graph"], "graph.lnkclsdx", 2, seed, SERVE_RATE,
                              NOMINAL_PHASE * seconds, SERVE_ADMIT_EVERY_S, SERVE_CLOSED_QUERIES,
                              SERVE_LADDER, seconds / 40, SERVE_SPAWNS, corrupt))
    metrics = {k: doc[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    return metrics, doc["attempted"], doc["failed"], doc


def run_trace(bins, name, inputs, work, seed, seconds, corrupt):
    """The traced process, then a short daemon stream for the
    service-side layers, then one untraced batch run for the gap. The
    stream runs at NOMINAL_SHARE of the in-process answer capacity the
    traced process measured on this graph, with one admission."""
    threads = WORKLOADS[name]
    graph = os.path.join(work, inputs["graph"])
    index = os.path.join(work, "traced.lnkclsdx")
    spans_path = os.path.join(work, "spans.json")
    oracle = inputs["oracle_fingerprint"]
    if corrupt:
        oracle = "0" * 16
    traced = run_child([os.path.join(bins, "perfbench-traced"), graph, index, str(threads),
                        oracle, str(seed), f"{0.6 * seconds:.3f}", spans_path])
    daemon_s = max(0.2 * seconds, 3.0)
    stream_rate = max(1.0, NOMINAL_SHARE * traced["answer_capacity_qps"])
    stream = run_child(serve_cmd(bins, work, inputs["graph"], "traced.lnkclsdx", threads, seed,
                                 stream_rate, daemon_s, daemon_s, 0, [], 1.0, 1, False))
    untraced = run_child([os.path.join(bins, "perfbench"), "batch", graph,
                          os.path.join(work, "untraced.lnkclsdx"), str(threads),
                          inputs["oracle_fingerprint"]])

    metrics = {k: v for k, v in traced.items() if k in PER_LAYER_NAMES}
    metrics["serve.server.queue_wait_p99_ms"] = stream["queue_wait_p99_ms"]
    metrics["serve.cache.hit_ratio"] = stream["cache_hit_ratio"]
    metrics["serve.admit.queries_during"] = stream["admit_queries_during"]
    metrics["trace.untraced_run_s"] = untraced["run_s"]
    metrics["trace.coverage"] = traced["trace.on_path_s"] / untraced["run_s"]

    # The traced process reports each layer's self time, the largest
    # on-path layer, the share of its traced passes the layers account
    # for, and whether its spans nest.
    detail = {
        "traced": {k: v for k, v in traced.items() if k not in PER_LAYER_NAMES},
        "stream_rate": stream_rate,
        "stream": stream,
        "untraced_batch": untraced,
        "on_path_s_per_pass": traced["trace.on_path_s"],
        "untraced_run_s": untraced["run_s"],
        "gap_s": traced["trace.on_path_s"] - untraced["run_s"],
    }
    failed = traced["failed"] + stream["failed"] + (0 if untraced["ok"] else 1)
    if not traced["spans_nested"]:
        failed += 1
    attempted = traced["attempted"] + stream["attempted"] + 1
    return metrics, attempted, failed, detail


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


BENCH = None
PER_LAYER_NAMES = set()


def measure(bins, name, seed, seconds, trace, corrupt=False, smoke=False):
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = [os.path.join(bins, "perfbench"), "gen", name, str(seed), work]
        if smoke:
            gen.append("--smoke")
        inputs = run_child(gen)
        if trace:
            metrics, attempted, failed, detail = run_trace(bins, name, inputs, work, seed,
                                                           seconds, corrupt)
        elif name.startswith("batch"):
            metrics, attempted, failed, detail = run_batch(bins, name, inputs, work, seconds,
                                                           corrupt)
        else:
            metrics, attempted, failed, detail = run_serve(bins, inputs, work, seed, seconds,
                                                           corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    result_metrics = {}
    for m in declared:
        v = metrics.get(m["name"])
        result_metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    detail = {"workload": name, "seed": seed, "trace": trace, "inputs": inputs,
              "machine": machine_identity(), "detail": detail}
    correct = failed == 0 and all(
        isinstance(x["value"], (int, float)) and math.isfinite(x["value"])
        for x in result_metrics.values())
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed),
              "metrics": result_metrics}
    return result, detail


def smoke(bins):
    """Tiny inputs, short runs. Asserts for each workload: every metric
    of BENCHMARK.json is emitted with its unit, a deliberately corrupted
    output is counted as failed, and the traced run's spans nest."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, detail = measure(bins, name, 7, 4.0, trace, smoke=True)
            declared = BENCH["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)) \
                        or not math.isfinite(got["value"]):
                    problems.append(f"{name} trace={trace}: metric {m['name']} missing or not a number: {got}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{name} trace={trace}: clean run reported failures: {detail}")
            traced = detail["detail"].get("traced", {})
            if trace and not traced.get("spans_nested"):
                problems.append(f"{name}: spans do not nest: {traced.get('nesting_error')}")
            result, _ = measure(bins, name, 7, 4.0, trace, corrupt=True, smoke=True)
            if result["failed"] == 0 or result["correct"]:
                problems.append(f"{name} trace={trace}: corrupted output was not counted as failed")
            log(f"smoke {name} trace={trace}: done")
    for p in problems:
        log(f"SMOKE FAILURE: {p}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main():
    global BENCH, PER_LAYER_NAMES
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-input self-test of every workload")
    args = ap.parse_args()
    try:
        BENCH = load_benchmark()
        PER_LAYER_NAMES = {m["name"] for m in BENCH["per_layer"]}
        seconds = args.seconds if args.seconds is not None else BENCH["run_seconds"]
        bins = build()
        if args.smoke:
            return smoke(bins)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if any(n not in WORKLOADS for n in names):
            raise RuntimeError(f"unknown workload {args.workload}; have {', '.join(WORKLOADS)}")
        if args.workload == "all":
            all_correct = True
            for name in names:
                for trace in (0, 1):
                    result, detail = measure(bins, name, args.seed, seconds, trace)
                    all_correct = all_correct and result["correct"]
                    print(f"== {name} trace={trace} correct={result['correct']} "
                          f"attempted={result['attempted']} failed={result['failed']} "
                          f"failed_frac={result['failed'] / result['attempted']:.6g}")
                    for m, v in result["metrics"].items():
                        value = v["value"] if v["value"] is not None else float("nan")
                        print(f"   {m:42s} {value:.6g} {v['unit']}")
                    if name.startswith("serve") and not trace:
                        for m, unit in SERVE_QUERY_FIGURES.items():
                            value = detail["detail"].get(m)
                            value = value if value is not None else float("nan")
                            print(f"   {m:42s} {value:.6g} {unit} (not gated)")
            return 0 if all_correct else 1
        result, detail = measure(bins, names[0], args.seed, seconds, args.trace)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    except Exception as e:  # any failure: no result line, non-zero exit
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
