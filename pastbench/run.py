#!/usr/bin/env python3
"""The PAST benchmark: one command for every workload and metric.

    python3 pastbench/run.py --workload sparse_reads --seed 1 --seconds 15 --trace 0

Run it from the repository root. It builds the unchanged library, the
`past_cli` daemon and the simulator program from source into .bench_build/,
runs the workload, checks every output, prints a table of every metric with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
traced and the metrics are the per-layer ones, and the span dumps are written
to .bench_build/traces/. The full result, with the run's metadata, goes to
.bench_build/results/. See pastbench/README.md for the workloads and the
meaning of every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pastbench")
BUILD_TYPE = "Release"
SETUPS = 20  # set-ups per untraced run; setup_s is the fastest
WARMUP_S = 2.0

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import daemon_layers  # noqa: E402


class Stop(Exception):
    """Raised by SIGTERM/SIGINT so every `finally` (daemon teardown) runs."""


def _on_signal(signum, _frame):
    raise Stop("signal %d" % signum)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def build():
    """Configures once, then rebuilds whatever changed. Output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def warm_up():
    """Keeps every CPU busy for WARMUP_S before anything is timed. On a
    virtual machine that was idle, process wake-ups stay several times slower
    until the virtual CPUs have been busy for a second or two; without this,
    whichever phase runs first pays for it."""
    spin = "import time\nt = time.monotonic() + %f\nwhile time.monotonic() < t: pass" % WARMUP_S
    procs = []
    try:
        for _ in range(os.cpu_count() or 1):
            procs.append(subprocess.Popen([sys.executable, "-c", spin]))
    finally:
        for p in procs:
            p.wait()


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "examples", "tools", "pastbench"):
        for root, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(root, f) for f in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def metadata(args):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    compiler = None
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                              text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(), "build_type": BUILD_TYPE,
            "compiler": compiler, "cpu": cpu, "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def run(args, workdir, trace_paths):
    cmd = [os.path.join(BUILD, "pastbench_sim"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setups", str(SETUPS), "--dir", os.path.join(workdir, "state")]
    if args.trace:
        cmd += ["--trace-out", trace_paths[0]]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    sys.stderr.write(out.stderr)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    attempted, failed, per_layer = res["attempted"], res["failed"], res.get("per_layer", {})
    details = res["details"]
    if args.trace and args.workload == "burst_writes":
        # The daemon and net layers, measured next to the write-heavy workload.
        a, f, layers, details["daemons"], spans = daemon_layers.layer_run(
            os.path.join(BUILD, "past_cli"), os.path.join(workdir, "cluster"), args.seed)
        attempted, failed = attempted + a, failed + f
        per_layer.update(layers)
        trace_paths.append(trace_paths[0].replace(".json", "-daemons.json"))
        with open(trace_paths[1], "w") as dump:
            json.dump({"experiment": "pastbench.daemons", "spans": spans, "dropped": 0}, dump)
    return (attempted, failed, res.get("end_to_end", {}), per_layer, details,
            res["params"], res.get("ledger"))


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-36s %16.6g  %s" % (name, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "examples/past_cli.cpp", "tools/past_stats.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("pastbench: %s is missing; run from a PAST checkout\n" % needed)
            return 2
    e2e_units, layer_units, workloads = load_benchmark()
    if args.workload not in workloads:
        sys.stderr.write("pastbench: unknown workload %s\n" % args.workload)
        return 2
    build()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    base = os.path.join(ROOT, ".bench_build")
    workdir = os.path.join(base, "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    trace_paths = [os.path.join(base, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    meta = metadata(args)
    warm_up()
    try:
        attempted, failed, e2e, per_layer, details, params, ledger = run(
            args, workdir, trace_paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = layer_units if args.trace else e2e_units
    values = per_layer if args.trace else e2e
    # Metrics a workload's layers never exercise read 0 (see README.md).
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    missing = [name for name in e2e_units if name not in e2e] if not args.trace else []
    correct = failed == 0 and not missing
    result = {"meta": meta, "params": params, "details": details, "ledger": ledger,
              "end_to_end": e2e, "per_layer": per_layer, "missing": missing,
              "correct": correct, "attempted": attempted, "failed": failed}
    result_path = os.path.join(base, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)

    print("pastbench %s seed=%d commit=%s source=%s build=%s cpu=%s nproc=%s" % (
        args.workload, args.seed, meta["commit"], meta["source_sha256"][:12], BUILD_TYPE,
        meta["cpu"], meta["nproc"]))
    print("params " + json.dumps(params, sort_keys=True))
    print("error_rate %.6g (%d failed of %d attempted)" % (
        failed / max(1, attempted), failed, attempted))
    print_table("per-layer metrics:" if args.trace else "end-to-end metrics:", metrics)
    if ledger is not None:
        print("ledger (timed wall %.1f ms, rows sum to %.1f ms, %d nesting violations):" % (
            ledger["timed_wall_ms"], ledger["sum_ms"], ledger["nesting_violations"]))
        for row in ledger["rows"]:
            print("  %-30s %12.1f ms %8.2f%%" % (row["layer"], row["self_ms"],
                                                 100 * row["share"]))
    for path in trace_paths if args.trace else []:
        print("spans: " + os.path.relpath(path, ROOT))
    print("result: " + os.path.relpath(result_path, ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Stop as e:
        sys.stderr.write("pastbench: stopped by %s\n" % e)
        sys.exit(1)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, OSError) as e:
        sys.stderr.write("pastbench: %s\n" % e)
        sys.exit(1)
