"""The chainwave benchmark: one command, four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded processes (the thread cap is
set in their environment before chainwave is imported) as a closed loop
with one client: a task starts only when the previous one has finished.
With ``--trace 0`` it prints the end-to-end metrics, each with its unit
and sample count, times in reference seconds (see worker.py) next to
the raw seconds they come from; with ``--trace 1`` it prints the per-layer metrics of
a traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a checkout; the program is imported from ``src/``.
See perfbench/README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-sweep", "slow-growth", "oracle-compare", "ray-pointwise")
THREAD_CAP = {
    "CHAINWAVE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: fresh processes timed for set-up besides the measuring one
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 30
#: the timed loop ends on a pass boundary; passes plus verification fit here
RUN_GRACE_S = 90


def _worker(workload: str, seed: int, seconds: float, trace: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ, **THREAD_CAP)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--mode", mode,
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_inputs(res: dict) -> None:
    threads = " ".join(f"{k}={v}" for k, v in res["threads"].items())
    print(f"== {res['workload']}  seed={res['seed']}  threads: {threads}")
    print("   inputs: " + ", ".join(f"{k}={v}" for k, v in res["properties"].items()))
    for error in res["errors"]:
        print(f"   FAILED {error}")


def run_workload(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # probes before and after the measuring process spread the set-up
    # samples over the whole run, so a slow spell of the machine moves
    # only some of them
    def probes(count: int) -> list[dict]:
        return [_worker(workload, seed, seconds, 0, "setup", PROBE_TIMEOUT_S) for _ in range(count)]

    setups = probes(SETUP_PROBES // 2)
    res = _worker(workload, seed, seconds, 0, "run", seconds + RUN_GRACE_S)
    setups += [res] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    n = res["timed_tasks"]
    values = {
        "setup_s": statistics.median(probe["setup_s"] for probe in setups),
        "tasks_per_s": res["tasks_per_s"],
        "task_p50_s": res["task_p50_s"],
        "task_tail_s": res["task_tail_s"],
        "peak_rss_mib": res["peak_rss_mib"],
    }
    beyond = n * (1000 - round(10 * res["tail_percentile"])) // 1000
    raw = {
        "setup_s": statistics.median(probe["setup_raw_s"] for probe in setups),
        "tasks_per_s": res["raw_tasks_per_s"],
        "task_p50_s": res["raw_task_p50_s"],
        "task_tail_s": res["raw_task_tail_s"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "tasks_per_s": f"{res['properties']['tasks_per_pass']} tasks per pass over their summed "
        f"median latencies; {res['passes']} passes, n={n} in {res['elapsed_s']:.2f} s",
        "task_p50_s": f"n={n}",
        "task_tail_s": f"p{res['tail_percentile']:g}, n={n}, {beyond} beyond",
        "peak_rss_mib": "n=1 measuring process",
    }
    _print_inputs(res)
    print(
        f"   host slowdown {res['host_slowdown']:.3f}: median reference kernel over "
        f"its unloaded {res['reference_ms']:.3g} ms; times below are in reference seconds, "
        "raw in brackets"
    )
    for name, (unit, _) in END_TO_END.items():
        measured = f"[{raw[name]:.6g}]" if name in raw else ""
        print(f"   {name:<14} {values[name]:>14.6g} {unit:<4} {measured:<12} ({notes[name]})")
    print(
        f"   {'fail_ratio':<14} {res['failed'] / res['attempted']:>14.6g} {'':<17} "
        f"({res['failed']}/{res['attempted']} tasks, untimed first pass included)"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return res, metrics


def trace_workload(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    res = _worker(workload, seed, seconds, 1, "run", seconds + RUN_GRACE_S)
    _print_inputs(res)
    print(
        f"   counts repeat across traced passes: {res['counts_repeat']}; "
        f"self times within task wall time: {res['self_within_wall']}; "
        f"untraced/traced pass {res['untraced_pass_s']:.4f}/{res['traced_pass_s']:.4f} s; "
        f"spans in {res['spans']}"
    )
    if res["missing_targets"]:
        print(f"   not found, so not traced: {', '.join(res['missing_targets'])}")
    layers = res["layers"]
    for name, (unit, _) in LAYER_METRICS.items():
        print(f"   {name:<42} {layers[name]:>14.6g} {unit}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    # a trace whose counts do not repeat, or whose self times exceed the
    # wall time, measured something other than the task list
    if not (res["counts_repeat"] and res["self_within_wall"]):
        res["failed"] = res["attempted"]
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "chainwave" / "__init__.py").is_file():
        print(f"error: no chainwave source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = trace_workload if args.trace else run_workload
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(res["attempted"] for res, _ in results.values())
    failed = sum(res["failed"] for res, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, (_, per) in results.items()
            for metric, value in per.items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
