"""One workload in one process: set-up, closed loop, verification.

Started by run.py with the thread cap already in its environment; the
last line of its standard output is one JSON object with the raw
results.  ``--mode setup`` stops after set-up and reports only its time.

Every duration the benchmark reports is in *reference seconds*: the
measured duration d times ``R / r``, where r is the duration of the
workload's reference kernel, which does not touch chainwave, timed in
the same process right next to d, and R that kernel's duration on an
unloaded core.  The shared host this benchmark runs on slows a core by
up to 1.8x in spells of seconds to minutes; both d and r stretch with
it, and their ratio does not.  The raw seconds are reported too.
"""

import os
import sys
import time

START = time.perf_counter()

# the cap must reach the BLAS/OpenMP environment before numpy loads;
# chainwave/__init__.py maps CHAINWAVE_THREADS onto the other three
THREAD_VARS = ("CHAINWAVE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import chainwave  # noqa: E402
from chainwave import solver  # noqa: E402

if not Path(chainwave.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"chainwave imported from {chainwave.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402

#: percentiles, in permille, the tail is read at; the highest with ten
#: samples beyond it wins
TAIL_LADDER = (500, 900, 990, 999)
MAX_REPORTED_ERRORS = 5
#: reference kernel runs whose median scales one set-up time
REF_SETUP_REPEATS = 7

_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal(256)
_REF_FFT = _REF_RNG.standard_normal(1 << 12)
_REF_LOG = np.log(_REF_RNG.uniform(0.1, 1.0, 1 << 17))
# the large-array part works in place, so that no run of it depends on
# how the allocator maps fresh memory at that point
_REF_BUF = np.empty_like(_REF_LOG)
_REF_OUT = np.empty_like(_REF_LOG)


def _small_steps() -> None:
    x = _REF_SMALL.copy()
    v = np.zeros_like(x)
    for _ in range(250):
        v -= 0.01 * x
        x += 0.01 * v


def _ffts() -> None:
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(_REF_FFT))


def _exponentials() -> None:
    _REF_OUT.fill(0.0)
    for a in (0.2, 0.3):
        np.multiply(_REF_LOG, -a, out=_REF_BUF)
        np.exp(_REF_BUF, out=_REF_BUF)
        np.multiply(_REF_BUF, a, out=_REF_BUF)
        np.add(_REF_OUT, _REF_BUF, out=_REF_OUT)


#: parts of the reference kernel, each standing for one kind of work that
#: a loaded host slows by its own factor: name -> (part, its duration on an
#: unloaded core of the machine the baseline comes from, a 2-core Xeon at
#: 2.1 GHz, so that reference seconds read about as that core's seconds)
REFERENCE_PARTS = {
    # small-array numpy steps, as in the oracle's Verlet loop
    "small-steps": (_small_steps, 0.5e-3),
    # FFTs, as in the spectral solves
    "ffts": (_ffts, 0.45e-3),
    # exponentials over a large array, as in p_values on a fine mesh
    "exponentials": (_exponentials, 0.5e-3),
}


class Reference:
    """The reference kernel of one workload: the parts that stand for the
    kind of work its tasks do.  It never calls chainwave."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = [REFERENCE_PARTS[name][0] for name in parts]
        #: the kernel's duration on an unloaded core
        self.nominal_s = sum(REFERENCE_PARTS[name][1] for name in parts)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the median when there are fewer than twenty."""
    n = len(latencies)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1000 - p) >= 10 * 1000:
            chosen = p
    return chosen / 10.0, float(np.percentile(latencies, chosen / 10.0))


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


class Loop:
    """Closed loop with one client over whole passes of the task list."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict[int, object] = {}
        self.instances = [0] * len(workload.tasks)
        self.failed_instances = [0] * len(workload.tasks)
        self.latencies: list[list[float]] = [[] for _ in workload.tasks]
        #: the same latencies in reference seconds
        self.scaled: list[list[float]] = [[] for _ in workload.tasks]
        self.reference = Reference(workload.REFERENCE)
        self.references: list[float] = []
        self.errors: list[str] = []
        self.worst_ratio = 0.0

    def _error(self, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def _checks(self, index: int, checks) -> bool:
        ok = True
        for reference, measure, limit in checks:
            ok = ok and bool(measure <= limit)
            self.worst_ratio = max(self.worst_ratio, float(measure / limit))
            if not measure <= limit:
                label = self.workload.tasks[index].label
                self._error(f"{label}: {reference} {measure:.3e} > {limit:.3e}")
        return ok

    def one_pass(self, tracer=None, pass_no: int = 0) -> float:
        """Run every task once; return the summed task latencies.  The
        reference kernel runs before the first task and after each one,
        and a task's scale is the mean of the two runs around it."""
        busy = 0.0
        before = self.reference()
        self.references.append(before)
        for i, task in enumerate(self.workload.tasks):
            span = None
            if tracer is not None:
                tracer.task = (pass_no, i)
                span = tracer.open("task")
            t0 = time.perf_counter()
            try:
                output, checks = self.workload.run(task)
            except Exception:  # a raising task is a failed task; keep running
                output, checks = None, None
                self._error(f"{task.label}: {traceback.format_exc(limit=3)}")
            latency = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
            after = self.reference()
            self.references.append(after)
            self.latencies[i].append(latency)
            self.scaled[i].append(latency * 2.0 * self.reference.nominal_s / (before + after))
            before = after
            busy += latency
            self.instances[i] += 1
            ok = checks is not None and self._checks(i, checks)
            if ok and i in self.first and not same(output, self.first[i]):
                ok = False
                self._error(f"{task.label}: output differs from its first run")
            elif ok and i not in self.first:
                self.first[i] = output
            self.failed_instances[i] += not ok
        return busy

    def verify(self) -> None:
        """Reference checks that are not the task's own work; a task that
        misses one fails in every run of it."""
        for i, task in enumerate(self.workload.tasks):
            if i not in self.first:
                continue
            try:
                ok = self._checks(i, self.workload.verify(task, self.first[i]))
            except Exception:
                ok = False
                self._error(f"{task.label}: verify: {traceback.format_exc(limit=3)}")
            if not ok:
                self.failed_instances[i] = self.instances[i]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args()

    warnings.simplefilter("error", solver.EdgeDominanceWarning)
    out_dir = HERE / "_run" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.task = "setup"
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if tracer is not None:
        tracer.uninstall()
    workload.warmup()
    setup_raw_s = time.perf_counter() - START
    # the first kernel run pays numpy's FFT plan; the median of the rest
    # scales the set-up
    reference = Reference(workload.REFERENCE)
    references = [reference() for _ in range(REF_SETUP_REPEATS + 1)][1:]
    setup_s = setup_raw_s * reference.nominal_s / statistics.median(references)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    loop = Loop(workload)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "properties": workload.properties(),
    }
    # the first pass at full size pays page faults and allocator growth
    # that later passes do not; it is checked like the others but not timed
    loop.one_pass()
    for samples in loop.latencies + loop.scaled + [loop.references]:
        samples.clear()
    started = time.perf_counter()
    if tracer is None:
        passes = 0
        while passes == 0 or time.perf_counter() - started < args.seconds:
            loop.one_pass()
            passes += 1
        elapsed = time.perf_counter() - started
    else:
        # untraced and traced passes alternate, each going first in turn;
        # the ratio of their medians is the tracing overhead
        plain_s, traced_s, pass_stats = [], [], []
        while not traced_s or time.perf_counter() - started < args.seconds:
            pass_no = len(traced_s)
            if pass_no % 2:
                plain_s.append(loop.one_pass())
            tracer.install()
            traced_s.append(loop.one_pass(tracer, pass_no))
            tracer.uninstall()
            if not pass_no % 2:
                plain_s.append(loop.one_pass())
            pass_stats.append(tracer.stats(lambda task, p=pass_no: isinstance(task, tuple) and task[0] == p))
        passes = len(plain_s) + len(traced_s)
        elapsed = time.perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.verify()

    attempted = sum(loop.instances)
    failed = sum(loop.failed_instances)
    pooled = [lat for scaled in loop.scaled for lat in scaled]
    raw = [lat for latencies in loop.latencies for lat in latencies]
    # a task's latency is the median of its repeats, in reference seconds
    task_latency = [statistics.median(scaled) for scaled in loop.scaled]
    percentile, tail_s = tail(pooled)
    result.update(
        attempted=attempted,
        failed=failed,
        errors=loop.errors,
        passes=passes,
        elapsed_s=elapsed,
        timed_tasks=len(pooled),
        # one client, so throughput is tasks per pass over the pass time
        tasks_per_s=len(workload.tasks) / sum(task_latency),
        task_p50_s=statistics.median(pooled),
        tail_percentile=percentile,
        task_tail_s=tail_s,
        raw_tasks_per_s=len(workload.tasks) / sum(statistics.median(lat) for lat in loop.latencies),
        raw_task_p50_s=statistics.median(raw),
        raw_task_tail_s=tail(raw)[1],
        host_slowdown=statistics.median(loop.references) / loop.reference.nominal_s,
        reference_ms=1e3 * loop.reference.nominal_s,
        peak_rss_mib=peak_rss_mib,
        err_to_tol_max=loop.worst_ratio,
    )
    if tracer is not None:
        setup_stats = tracer.stats(lambda task: task == "setup")
        layers = tracing.layer_metrics(setup_stats, pass_stats)
        layers["verify.err_to_tol_max"] = loop.worst_ratio
        layers["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
        signatures = [tracing.counts_signature(s) for s in pass_stats]
        meshes = tracer.meshes(lambda task: isinstance(task, tuple) and task[0] == 0)
        result["properties"]["meshes"] = [min(meshes), max(meshes)] if meshes else []
        result.update(
            layers=layers,
            counts_repeat=all(sig == signatures[0] for sig in signatures),
            self_within_wall=self_within_wall(tracer),
            untraced_pass_s=statistics.median(plain_s),
            traced_pass_s=statistics.median(traced_s),
            missing_targets=tracer.missing,
        )
        spans_path = HERE / "_run" / f"{args.workload}.spans.jsonl"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def self_within_wall(tracer) -> bool:
    """The layer spans of every task have self times summing to at most the
    task's wall time."""
    own = tracer.self_times()
    layers: dict = {}
    wall: dict = {}
    for idx, name in enumerate(tracer.names):
        key = tracer.tasks[idx]
        if name == "task":
            wall[key] = tracer.ends[idx] - tracer.starts[idx]
        else:
            layers[key] = layers.get(key, 0.0) + float(own[idx])
    return all(layers.get(key, 0.0) <= wall[key] + 1e-9 for key in wall)


if __name__ == "__main__":
    sys.exit(main())
