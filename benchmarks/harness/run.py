#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name.

    python3 benchmarks/harness/run.py                      # all five workloads
    python3 benchmarks/harness/run.py --workload serve40   # one workload
    python3 benchmarks/harness/run.py --seed 7919          # the held-out seed
    python3 benchmarks/harness/run.py --trace              # per-layer + spans
    python3 benchmarks/harness/run.py --repeat 5 --out A.json   # a run set

Each workload's inputs are generated here from ``--seed``, handed to a
fresh child process (``scenarios.py``) that drives the program through
its public entry points, and verified before anything is reported.  The
last line printed for a workload is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` on an untraced run, its per-layer metrics on a
traced one.  Exit status is non-zero if any verification failed.

See ``README.md`` beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from catalog import (
    HARNESS_DIR,
    HISTORY_PATH,
    RESULTS_DIR,
    ROOT,
    SRC,
    load_benchmark,
    load_layers,
    load_pinned,
)

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

from generate import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402

#: a workload child that runs longer than this is killed and counts as
#: one failed operation out of one (``failed_share`` = 1)
CHILD_TIMEOUT_SECONDS = 150.0


def parse_args(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(WORKLOADS), metavar="NAME",
                        help="workload(s) to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="floor on each workload's timed phase")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also make the traced pass and the layer probes")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (a run set for compare.py)")
    parser.add_argument("--out", help="result file (default: results/run-*.json)")
    return parser.parse_args(argv)


def kill_group(pgid: int) -> bool:
    """SIGKILL every process left in ``pgid``; True if any was there."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def run_child(inputs, options):
    """Run one workload in its own session; returns ``(result, notes)``.

    Whatever happens -- success, a failed check, a timeout, Ctrl-C --
    the child's whole process group is gone and its run directory is
    removed before this returns.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="tmp-run-", dir=RESULTS_DIR)
    notes = {"timed_out": False, "orphans": False, "exit_code": None}
    proc = None
    try:
        with open(os.path.join(run_dir, "inputs.pkl"), "wb") as handle:
            pickle.dump((inputs, options), handle)
        env = dict(os.environ, TMPDIR=run_dir, PYTHONHASHSEED="0")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HARNESS_DIR, "scenarios.py"), run_dir],
            stdout=sys.stderr, env=env, start_new_session=True)
        try:
            notes["exit_code"] = proc.wait(timeout=CHILD_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            notes["timed_out"] = True
        result = None
        result_path = os.path.join(run_dir, "result.json")
        if notes["exit_code"] == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        trace_path = os.path.join(run_dir, "trace.json")
        if result is not None and os.path.exists(trace_path):
            shutil.copyfile(trace_path, os.path.join(
                RESULTS_DIR, f"trace_{inputs.workload}.json"))
        return result, notes
    finally:
        if proc is not None:
            # workers the child forked share its group: a clean run
            # leaves nobody behind, and anything else is reaped here
            exited = proc.poll() is not None
            notes["orphans"] = kill_group(proc.pid) and exited
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(name, args, benchmark, pinned):
    """One run of one workload -> a run record (never raises on failure)."""
    began = time.perf_counter()
    inputs = make_inputs(name, args.seed)
    options = {
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned": pinned.get(name) if args.seed == pinned["seed"] else None,
    }
    result, notes = run_child(inputs, options)
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **notes}
    if result is None or notes["orphans"]:
        why = ("timed out" if notes["timed_out"] else
               "left processes behind" if notes["orphans"] else
               f"child exited {notes['exit_code']} without a result")
        record.update(correct=False, attempted=1, failed=1, end_to_end={},
                      per_layer=None, samples={}, digest=None,
                      checks=[{"name": "child", "ok": False, "detail": why}])
    else:
        record.update(result)
        if args.trace:
            # a layer this workload never enters did no work
            record["per_layer"] = {
                entry["name"]: record["per_layer"].get(entry["name"], 0)
                for entry in benchmark["per_layer"]}
        else:
            record["per_layer"] = None
    record["failed_share"] = record["failed"] / record["attempted"]
    record["wall_s"] = time.perf_counter() - began
    return record


def contract_line(record, benchmark):
    """The one-object summary the acceptance driver reads."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section] or {}
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in benchmark[section] if entry["name"] in values}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_report(record, benchmark, layers):
    samples = record["samples"]
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"({len(samples.get('scan_mbps', []))} timed passes, "
          f"{samples.get('chunk_latencies', 0)} latency samples, "
          f"{record['wall_s']:.1f} s wall) ==")
    for entry in benchmark["end_to_end"]:
        value = record["end_to_end"].get(entry["name"])
        shown = "n/a" if value is None else f"{value:.4f}"
        note = ""
        if entry["name"] in samples:
            note = "   samples: " + " ".join(f"{v:.3f}" for v in samples[entry["name"]])
        print(f"  {entry['name']:<24}{shown:>12} {entry['unit']:<6}"
              f"({entry['better']} is better){note}")
    print(f"  {'failed_share':<24}{record['failed_share']:>12.4f} "
          f"      ({record['failed']} of {record['attempted']} operations)")
    if record["digest"]:
        count, crc = record["digest"]
        print(f"  digest                  {count} matches, crc32 {crc:#010x}")
    bad = [check for check in record["checks"] if not check["ok"]]
    print(f"  checks                  {len(record['checks']) - len(bad)} ok, "
          f"{len(bad)} failed")
    for check in bad:
        print(f"    FAILED {check['name']}: {check['detail']}")
    if record["per_layer"]:
        print("  per-layer (traced run; 0 = this workload bypasses the layer):")
        for entry in benchmark["per_layer"]:
            name = entry["name"]
            print(f"    {name:<40}{record['per_layer'][name]:>16.6g} "
                  f"{entry['unit']:<6} -> {layers[name]['moves']}")


def host_meta(args):
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    import numpy

    return {
        "commit": commit or "unknown",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end_medians(records):
    by_workload: dict[str, dict[str, list]] = {}
    for record in records:
        for name, value in record["end_to_end"].items():
            by_workload.setdefault(record["workload"], {}).setdefault(
                name, []).append(value)
        by_workload.setdefault(record["workload"], {}).setdefault(
            "failed_share", []).append(record["failed_share"])
    return {workload: {name: statistics.median(values)
                       for name, values in metrics.items()}
            for workload, metrics in by_workload.items()}


def main(argv=None) -> int:
    # a terminated run unwinds like an interrupted one, through the
    # ``finally`` that reaps the workload's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = load_benchmark()
    layers = load_layers()
    pinned = load_pinned()
    args = parse_args(argv, benchmark)
    names = args.workload or list(WORKLOADS)
    meta = host_meta(args)
    records = []
    for _ in range(args.repeat):
        for name in names:
            record = run_workload(name, args, benchmark, pinned)
            records.append(record)
            print_report(record, benchmark, layers)
            print(contract_line(record, benchmark), flush=True)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = args.out or os.path.join(
        RESULTS_DIR, f"run-{meta['utc'].replace(':', '')[:17]}-{os.getpid()}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "runs": records}, handle, indent=1)
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {**meta, "medians": end_to_end_medians(records)}) + "\n")
    print(f"# results: {out}", file=sys.stderr)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
