#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of rsind, the DES and the
federation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds rsind and the load generator from the
repository's src/ (once, into $CARGO_TARGET_DIR or .bench_build), runs one
workload, checks its outputs, prints a readable report, and prints as the
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a separate traced run, whose Chrome trace is
written to <build dir>/traces/<workload>.json. Workloads and metrics are
described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("svc_lifetime", "svc_overload", "des_storm", "fed_partition")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("op_cost_growth", "ratio"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics of the traced run, with their units. A workload that
#: does not run a layer reports 0 with a sample count of 0.
PER_LAYER = (
    ("svc.parse_us", "us"),
    ("svc.execute_req_us", "us"),
    ("svc.execute_cycle_us", "us"),
    ("svc.commit_us", "us"),
    ("svc.state_hash_us", "us"),
    ("svc.state_hash_growth", "ratio"),
    ("svc.transport_share", "ratio"),
    ("svc.shed_frac", "ratio"),
    ("svc.pending_p50", "count"),
    ("svc.journal_records_per_op", "count"),
    ("svc.snapshot_bytes", "bytes"),
    ("load.client_cpu_us_per_op", "us"),
    ("load.server_cpu_us_per_op", "us"),
    ("core.schedule_us", "us"),
    ("core.schedule_share", "ratio"),
    ("core.breaker.cold_cycles", "count"),
    ("sim.self_us", "us"),
    ("sim.degraded_cycle_frac", "ratio"),
    ("sim.tasks_shed", "count"),
    ("flow.bfs_phases_per_solve", "count"),
    ("flow.augmentations_per_solve", "count"),
    ("flow.operations_per_solve", "count"),
    ("flow.warm_hit_ratio", "ratio"),
    ("flow.repair_cancelled_per_solve", "count"),
    ("fed.run_cycle_us", "us"),
    ("fed.submit_us", "us"),
    ("fed.spill_admit_ratio", "ratio"),
    ("fed.spill_moved", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: Wall-clock budget of one run of the load generator, in seconds.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir(root):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def build(root):
    """Configures and builds rsind and perfbench_load; returns their paths."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no rsin sources under {root / 'src'}")
    out = build_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "perfbench_load", "rsind"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_load", out / "rsin" / "svc" / "rsind"


def run_load(load, rsind, args, out_dir):
    """Runs the load generator in a fresh scratch directory; returns the
    parsed raw result."""
    work = out_dir / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = out_dir / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(load), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", "result.json",
               "--rsind", str(rsind)]
    if args.trace:
        command += ["--trace-out", str(traces / f"{args.workload}.json")]
    # Its own session, so a timeout also stops the rsind processes it started.
    load_process = subprocess.Popen(command, cwd=work, stdout=sys.stderr,
                                    stderr=sys.stderr, start_new_session=True)
    try:
        code = load_process.wait(timeout=RUN_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"perfbench_load exited {code}")
        with open(work / "result.json") as f:
            return json.load(f)
    finally:
        if load_process.poll() is None:
            os.killpg(load_process.pid, signal.SIGKILL)
            load_process.wait()
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(raw):
    """The end-to-end metrics with the facts the report states about them."""
    phases = raw["phases"]
    rate, latencies = stats.fastest_blocks(
        [(p["start_us"], p["end_us"], p["lat_us"]) for p in phases])
    n = len(latencies)
    tail = stats.reported_tail(n)
    values = {
        "setup_s": stats.setup_time(raw["setup_s"]),
        "ops_per_s": rate,
        "op_p50_us": stats.median(latencies),
        "op_p99_us": stats.percentile(latencies, tail) if tail else 0.0,
        "op_cost_growth": stats.cost_growth(latencies),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    blocks = len(stats.block_bounds(len(phases[0]["lat_us"])))
    kept = (f"{blocks} blocks of each repetition's ops, each the fastest "
            f"of {len(phases)} repetitions")
    notes = {
        "setup_s": (f"p{stats.SETUP_PERCENTILE:g} of "
                    f"{len(raw['setup_s'])} start-ups spread over the run"),
        "ops_per_s": f"{n} ops in {kept}",
        "op_p50_us": f"n={n}",
        "op_p99_us": (f"p{tail:g}, n={n}, {stats.beyond(n, tail)} beyond"
                      if tail else f"n={n}: too few samples for a tail"),
        "op_cost_growth": "median of the last tenth of the ops / first tenth",
        "peak_rss_mb": f"VmHWM of {raw['rss_of']}",
    }
    return values, notes


def per_layer(raw):
    """Per-layer metrics of the traced run: {name: (value, count, note)}."""
    layers = {}
    for layer in raw["layers"]:
        if "samples" in layer:
            samples = layer["samples"]
            value = stats.median(samples) if samples else 0.0
            layers[layer["name"]] = (value, len(samples), "p50")
            if layer["name"] == "svc.state_hash_us" and samples:
                first, last = stats.tenth_windows(samples)
                layers["svc.state_hash_growth"] = (
                    stats.cost_growth(samples), len(samples),
                    f"p50 {stats.median(first):.1f} us in the first tenth of "
                    f"the run -> {stats.median(last):.1f} us in the last")
        else:
            layers[layer["name"]] = (layer["value"], layer["count"],
                                     layer["note"])
    untraced, traced, basis = overhead_rates(raw)
    if untraced:
        layers["trace.overhead_frac"] = (
            (untraced - traced) / untraced, 2,
            f"{basis}: {untraced:.1f} -> {traced:.1f}")
    return layers


def overhead_rates(raw):
    """(untraced rate, traced rate, basis) of the tracing overhead. With
    alternated untraced and traced repetitions, each group's rate is read
    like ops_per_s, from its fastest blocks."""
    if not raw["traced_phases"]:
        return raw["untraced_rate"], raw["traced_rate"], raw["overhead_basis"]
    rates = [stats.fastest_blocks([(p["start_us"], p["end_us"], p["lat_us"])
                                   for p in raw[key]])[0]
             for key in ("untraced_phases", "traced_phases")]
    basis = (f"{raw['overhead_basis']}, fastest blocks of "
             f"{len(raw['traced_phases'])} traced and as many untraced "
             f"repetitions, alternated")
    return rates[0], rates[1], basis


def report(args, raw):
    """Prints the readable report and returns the metrics of the JSON line."""
    ops = raw["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: {ops} ops attempted, "
          f"{raw['failed']} failed")
    for error in raw["errors"]:
        print(f"  FAILED: {error}")
    for key, value in raw["facts"].items():
        print(f"  {key}: {value}")
    cpu = raw["loadgen_cpu_s"] * 1e6 / max(ops, 1)
    if raw["server_cpu_s"] >= 0:
        server = raw["server_cpu_s"] * 1e6 / max(ops, 1)
        verdict = "server-bound" if server > 2 * cpu else "CLIENT-BOUND"
        print(f"  load check: load generator {cpu:.2f} us CPU/op, rsind "
              f"{server:.2f} us CPU/op ({verdict})")
    else:
        print(f"  load check: the load process does the work itself, "
              f"{cpu:.2f} us CPU/op")
    metrics = {}
    if not args.trace:
        values, notes = end_to_end(raw)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<16} {values[name]:>14.6g} {unit:<6} "
                  f"{notes[name]}")
        fail_frac = raw["failed"] / max(ops, 1)
        print(f"  {'fail_frac':<16} {fail_frac:>14.6g} {'ratio':<6} "
              f"{raw['failed']} of {ops} ops failed (also in the JSON's "
              f"failed/attempted)")
        return metrics
    layers = per_layer(raw)
    for name, unit in PER_LAYER:
        value, count, note = layers.get(name, (0.0, 0,
                                               "not run by this workload"))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={count} {note}")
    print("  self time per span (traced run):")
    for name, (total, count) in sorted(raw["self_us"].items()):
        print(f"    {name:<18} {total / 1e3:>10.1f} ms over {count} spans")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = HERE.parent
    started = time.monotonic()
    try:
        load, rsind = build(root)
        raw = run_load(load, rsind, args, build_dir(root))
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 1
    try:
        metrics = report(args, raw)
    except ValueError as error:  # e.g. repetitions that did different work
        log(f"perfbench: cannot compute the metrics: {error}")
        return 1
    log(f"perfbench: run took {time.monotonic() - started:.1f} s")
    attempted = max(1, raw["attempted"])
    print(json.dumps({"correct": raw["failed"] == 0 and raw["attempted"] > 0,
                      "attempted": attempted, "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
