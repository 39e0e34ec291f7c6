#!/usr/bin/env python3
"""csTuner benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload cli-cstuner|serve-hot \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the csTuner libraries, the `cstuner`
CLI and the in-process driver (Release) into $CARGO_TARGET_DIR (default
.bench_build), runs whole cycles of the workload's seeded request sequence
for at least --seconds, checks every output, prints a table of every
metric with its unit and sample count, and prints one JSON result as the
last line of standard output. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. Exits nonzero when any check fails.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cli-cstuner", "serve-hot")
POOL_THREADS = "2"
SETUPS = 3  # set-ups per run; setup_s is their median
# cli-cstuner's 16-request cycle is too short for a tail percentile above
# the median (that needs more than 2 * TAIL_BEYOND requests) and its median
# rests on two requests, so an untraced run covers at least two cycles.
CLI_MIN_CYCLES = 2
STENCILS = ("j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4",
            "addsgd6", "rhs4center")
CELLS = [(s, a) for s in STENCILS for a in ("a100", "v100")]
WARM_UP_CELL = ("hypterm", "a100")  # the cheapest csTuner cell
TUNE_SEED = 7                       # the CLI's default --seed
REQUEST_TIMEOUT_S = 120
DRIVER_TIMEOUT_S = 170
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it

# Metric names and units: BENCHMARK.json at the repository root is the one
# list. A traced run reports every per-layer metric; a layer its workload
# never enters reads 0 with 0 samples.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (no output is printed)."""


# --- statistics -------------------------------------------------------------

def tail_percentile(values):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). Raises ValueError when the
    run is too short for such a percentile above the median.
    """
    n = len(values)
    rank = n - TAIL_BEYOND  # 1-based: exactly TAIL_BEYOND samples beyond
    if rank * 2 <= n:
        raise ValueError("%d samples: no percentile above the median has "
                         "%d beyond it" % (n, TAIL_BEYOND))
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(requests, timed_wall_s, setup_s, peak_rss_mb):
    """The end-to-end metrics: {name: (value, unit, samples, note)}."""
    walls = [r["wall_s"] for r in requests]
    ok = sum(1 for r in requests if r["ok"])
    bests = [r["best_ms"] for r in requests
             if r["best_ms"] is not None and math.isfinite(r["best_ms"])
             and r["best_ms"] > 0]
    tail, pct, n = tail_percentile(walls)
    out = {
        "request_wall_p50_s": (statistics.median(walls), n, ""),
        "request_wall_tail_s": (tail, n, "p%.2f" % pct),
        "requests_per_s": (ok / timed_wall_s, ok, ""),
        "ok_frac": (ok / len(requests), len(requests), ""),
        "best_ms_geomean": (geomean(bests), len(bests),
                            "" if len(bests) == len(requests)
                            else "%d request(s) without a best" %
                                 (len(requests) - len(bests))),
        "setup_s": (statistics.median(setup_s), len(setup_s), "median"),
        "peak_rss_mb": (peak_rss_mb, 1, ""),
    }
    return {k: (v, UNITS[k], s, note) for k, (v, s, note) in out.items()}


# --- build and processes ----------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    for needed in ("src/CMakeLists.txt", "tools/cstuner_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("csTuner sources not found: %s is missing"
                             % needed)
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "cstuner"), os.path.join(bdir,
                                                       "perfbench_driver")


def run_child(cmd, timeout):
    """Runs cmd with the benchmark's pool size; returns (exit code, stdout,
    wall seconds, peak RSS MB of that child alone). A child still running
    after `timeout` seconds is killed."""
    env = dict(os.environ, CSTUNER_THREADS=POOL_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # Reap with wait4 for this child's own rusage (RUSAGE_CHILDREN
        # would include the compilers of the build).
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def digest(best_ms, evaluations, virtual_time_s):
    """Same format as perfbench::digest in the driver."""
    return "%016x:%d:%016x" % (bits(best_ms), evaluations,
                               bits(virtual_time_s))


# --- workloads --------------------------------------------------------------

def cli_request(cstuner, cell):
    stencil, arch = cell
    code, out, wall, rss = run_child(
        [cstuner, "tune", stencil, "--arch", arch, "--seed", str(TUNE_SEED),
         "--json"], REQUEST_TIMEOUT_S)
    req = {"cell": "%s/%s" % cell, "wall_s": wall, "ok": False,
           "cancelled": False, "error": "", "best_ms": None, "digest": ""}
    try:
        if code != 0:
            raise ValueError("exit code %d" % code)
        doc = json.loads(out)
        best = float(doc["best_time_ms"])
        if not (math.isfinite(best) and best > 0 and doc["best_setting"]):
            raise ValueError("no finite best")
        req.update(ok=True, best_ms=best,
                   digest=digest(best, int(doc["evaluations"]),
                                 float(doc["virtual_time_s"])))
    except (ValueError, KeyError, TypeError) as e:
        req["error"] = "cstuner tune: %s" % e
    return req, rss


def run_cli(binaries, args):
    """cli-cstuner: one client, each request a fresh `cstuner tune`."""
    cstuner, driver = binaries
    report = {"setup_s": [], "requests": [], "layers": [], "errors": []}
    peak = 0.0
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        warm, rss = cli_request(cstuner, WARM_UP_CELL)
        report["setup_s"].append(time.perf_counter() - t0)
        peak = max(peak, rss)
        if not warm["ok"]:
            report["errors"].append("warm-up: " + warm["error"])

    start = time.perf_counter()
    startup = []
    cycle = 0
    while True:
        # A fresh seeded order per cycle, as the driver's cycle_order.
        order = list(range(len(CELLS)))
        random.Random("%d/%d" % (args.seed, cycle)).shuffle(order)
        cycle += 1
        for i in order:
            req, rss = cli_request(cstuner, CELLS[i])
            peak = max(peak, rss)
            report["requests"].append(req)
            if args.trace:
                code, _, wall, _ = run_child([cstuner, "list-stencils"],
                                             REQUEST_TIMEOUT_S)
                if code != 0:
                    report["errors"].append("cstuner list-stencils failed")
                startup.append(wall)
        if args.trace or (cycle >= CLI_MIN_CYCLES and
                          time.perf_counter() - start >= args.seconds):
            break
    report["timed_wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = peak

    if args.trace:
        trace_cli(driver, args, report, startup)
    return report


def trace_cli(driver, args, report, startup):
    """cli-cstuner's per-layer numbers: the CLI pipeline replayed in process
    (every replayed digest must equal the CLI's), then the traced zoo
    sweep of search and evaluator layers."""
    cells = ",".join(r["cell"] for r in report["requests"])
    replay = run_driver(driver, ["replay", "--cells", cells], args)
    zoo = run_driver(driver, ["zoo", "--cells",
                              ",".join("%s/%s" % c for c in CELLS)], args)
    report["errors"] += replay["errors"] + zoo["errors"]
    for cli_req, rep in zip(report["requests"], replay["requests"]):
        if cli_req["digest"] != rep["digest"]:
            report["errors"].append(
                "%s: replay digest %s != CLI digest %s"
                % (rep["cell"], rep["digest"], cli_req["digest"]))
    for r in zoo["requests"]:
        r["cell"] = "zoo/" + r["cell"]
    report["zoo"] = zoo["requests"]
    report["replayed"] = replay["requests"]
    layers = {l["name"]: l for l in replay["layers"] + zoo["layers"]}

    # Wall that the named layers cover, and traced against untraced wall,
    # over both halves. The zoo driver reports its own fractions; weight
    # them by its traced wall (all requests; requests that finish).
    n = len(startup)
    cli_wall = sum(r["wall_s"] for r in report["requests"])
    cli_traced = sum(r["wall_s"] for r in replay["requests"]) + sum(startup)
    cli_named = sum(l["value"] for l in replay["layers"]) * n + sum(startup)
    zoo_traced = sum(r["wall_s"] for r in zoo["requests"])
    zoo_named = (1 - layers["unattributed_frac"]["value"]) * zoo_traced
    zoo_ok_traced = sum(r["wall_s"] for r in zoo["requests"] if r["ok"])
    zoo_ok_untraced = zoo_ok_traced / (
        1 + layers["tracing_overhead_frac"]["value"])
    samples = n + len(zoo["requests"])
    layers["cli.startup_s"] = {"name": "cli.startup_s", "unit": "s",
                               "value": statistics.mean(startup),
                               "samples": n}
    layers["unattributed_frac"] = {
        "name": "unattributed_frac", "unit": "frac", "samples": samples,
        "value": 1 - (cli_named + zoo_named) / (cli_traced + zoo_traced)}
    layers["tracing_overhead_frac"] = {
        "name": "tracing_overhead_frac", "unit": "frac", "samples": samples,
        "value": (cli_traced + zoo_ok_traced) / (cli_wall + zoo_ok_untraced)
        - 1}
    report["layers"] = list(layers.values())


def run_driver(driver, extra, args):
    cmd = [driver] + extra + ["--seed", str(args.seed), "--seconds",
                              str(args.seconds), "--trace",
                              "1" if args.trace else "0"]
    code, out, _, _ = run_child(cmd, DRIVER_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s" % (code, " ".join(cmd)))
    return json.loads(lines[-1])


def run_serve(binaries, args):
    """serve-hot: two NDJSON connections to an in-process daemon."""
    state = os.path.join(os.path.dirname(build_dir()),
                         "perfbench-state-%d" % os.getpid())
    try:
        return run_driver(binaries[1], ["serve", "--state-dir", state], args)
    finally:
        shutil.rmtree(state, ignore_errors=True)


# --- output checks ----------------------------------------------------------

def request_errors(requests):
    """Failed output checks among the requests. A zoo request cancelled by
    its wall deadline and a typed serve rejection are failed requests (they
    count against ok_frac), not wrong outputs."""
    return ["%s: %s" % (r["cell"], r["error"]) for r in requests
            if not (r["ok"] or r["cancelled"]
                    or r["error"].startswith("rejected"))]


def binaries_key(binaries):
    h = hashlib.sha256()
    for path in binaries:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def check_digests(workload, records, key):
    """Every cell's digest (or its cancellation) must equal what earlier
    runs of the same binaries in this checkout recorded, whatever their seed
    or trace setting. Serve results depend on warm-store completion order
    and are not bit-compared."""
    if workload == "serve-hot":
        return []
    path = os.path.join(os.path.dirname(build_dir()), "perfbench-digests",
                        key + ".json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    errors = []
    for r in records:
        value = "cancelled" if r["cancelled"] else r["digest"]
        if not value:
            continue
        name = workload + ":" + r["cell"]
        if known.setdefault(name, value) != value:
            errors.append("%s: digest %s differs from an earlier run's %s"
                          % (name, value, known[name]))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)
    return errors


# --- main -------------------------------------------------------------------

def print_table(metrics):
    for name, (value, unit, samples, note) in metrics.items():
        print("%-32s %14.6g %-6s n=%-6d %s" % (name, value, unit, samples,
                                                note))


def selftest(binaries):
    state = os.path.join(os.path.dirname(build_dir()), "perfbench-selftest")
    try:
        code = subprocess.run([binaries[1], "selftest", "--state-dir", state],
                              cwd=ROOT).returncode
    finally:
        shutil.rmtree(state, ignore_errors=True)
    unit = subprocess.run([sys.executable, "-m", "unittest", "-v",
                           "test_run"], cwd=HERE).returncode
    return 0 if code == 0 and unit == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own checks and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binaries = build()
        if args.selftest:
            return selftest(binaries)
        key = binaries_key(binaries)
        runner = {"cli-cstuner": run_cli,
                  "serve-hot": run_serve}[args.workload]
        report = runner(binaries, args)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1

    # A traced cli-cstuner run also holds the replayed and zoo records.
    requests = report["requests"] + report.get("zoo", [])
    errors = list(report["errors"]) + request_errors(requests)
    errors += check_digests(args.workload,
                            requests + report.get("replayed", []), key)
    cancelled = [r["cell"] for r in requests if r["cancelled"]]
    if cancelled:
        print("cancelled by the wall deadline (%d): %s"
              % (len(cancelled), ", ".join(sorted(cancelled))))
    for e in errors:
        print("CHECK FAILED: " + e)

    if args.trace:
        got = {l["name"]: l for l in report["layers"]}
        metrics = {}
        for name, unit in PER_LAYER:
            layer = got.get(name, {"value": 0.0, "samples": 0})
            metrics[name] = (layer["value"], unit, layer["samples"],
                             "" if name in got else "not in this workload")
        # Shares among the timed layers measured over the same requests
        # (same sample count); io.* nest inside serve sessions.
        groups = {}
        for name, (value, unit, samples, _) in metrics.items():
            if unit == "s" and samples > 0 and not name.startswith("io."):
                groups.setdefault(samples, {})[name] = value
        for layers in groups.values():
            total = sum(layers.values())
            for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
                print("share %-28s %6.2f%%" % (name, 100 * value / total))
    else:
        try:
            metrics = end_to_end(requests, report["timed_wall_s"],
                                 report["setup_s"], report["peak_rss_mb"])
        except ValueError as e:  # --seconds too short for a tail
            log("perfbench: " + str(e))
            return 1
    print_table(metrics)
    result = {
        "correct": not errors,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r["ok"]),
        "metrics": {name: {"value": v[0], "unit": v[1]}
                    for name, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
