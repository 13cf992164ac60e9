"""metricmesh benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` repeats it with spans recorded around
each layer's entry points and prints the per-layer metrics. Either way
every output is checked, a failed check counts as a failed operation,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The package is
imported from ``src/`` of the checkout, with one BLAS thread.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before numpy is first imported (in main): one worker thread.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("quality_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class Ops:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        """Time one operation; returns (seconds, result), result None on an exception."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the run continues so every failure is counted
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, result

    def check(self, problems) -> None:
        """Record the checks of the last operation; any problem fails it."""
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)


def environment() -> dict:
    import numpy as np

    import metricmesh as mm

    digest = hashlib.sha256()
    for path in sorted((SRC / "metricmesh").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = proc.stdout.strip() or None
        except OSError:  # git not installed
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": mm.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def _setup(workload, ops, spec, times):
    """Set up one instance ``setup_repeats`` times, appending each time to ``times``."""
    state = None
    for _ in range(workload.setup_repeats):
        dt, state = ops.call(workload.setup, spec)
        if state is not None:
            times.append(dt)
            ops.check(workload.check_setup(state))
    return state


def _unit(workload, ops, state, reference):
    """One timed unit with its checks; ``reference`` is an earlier output to match."""
    if state is None:
        ops.attempted += 1
        ops.failed += 1
        return None, None
    dt, result = ops.call(workload.run, state)
    if result is not None:
        problems = workload.check(state, result)
        if reference is not None and not workload.same_output(reference, result):
            problems.append("output differs from an earlier run of the same input")
        ops.check(problems)
    return dt, result


def measure(workload, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off, and the wall times behind them.

    The instances take turns, at least once each and again while the
    next turn is expected to end within ``seconds`` of the start. A turn
    sets its instance up ``setup_repeats`` times and then runs it, so
    set-up times are sampled across the whole run like unit times. An
    instance's time is the median of its samples; ``run_s`` and
    ``setup_s`` are the means over instances, because the work differs
    between instances (line-search candidates, repair sweeps) and a
    median over instances would jump between them from one seed to the
    next. Units are kept short (about a second) so that each instance
    is sampled often across the whole run: the host's speed wanders over
    tens of seconds, and a median over many short units spread across
    the run follows that wander far less than a few long ones do.

    The wander over minutes is larger still, so each turn is followed by
    one call of ``hostspeed.reference_work``, and ``setup_s`` and
    ``run_s`` are the wall times scaled to the reference host's speed
    (see ``hostspeed``). The unscaled wall times and the reference time
    are returned as well, for the output's readable lines.
    """
    from hostspeed import REFERENCE_S, reference_work

    t_end = time.perf_counter() + seconds
    n = len(workload.specs)
    setup_times = [[] for _ in range(n)]
    unit_times = [[] for _ in range(n)]
    first = [None] * n
    reference_times = []

    def turn(k):
        state = _setup(workload, ops, workload.specs[k], setup_times[k])
        dt, result = _unit(workload, ops, state, first[k])
        if result is not None:
            unit_times[k].append(dt)
            if first[k] is None:
                first[k] = result
        t0 = time.perf_counter()
        reference_work()
        reference_times.append(time.perf_counter() - t0)
        return setup_times[k] and unit_times[k]

    if not all([turn(k) for k in range(n)]):
        raise RuntimeError("an instance never set up or ran successfully; nothing to report")
    k = 0
    while time.perf_counter() + statistics.median(unit_times[k]) * 1.1 <= t_end:
        turn(k)
        k = (k + 1) % n
    wall = {
        "wall_setup_s": statistics.fmean(statistics.median(t) for t in setup_times),
        "wall_run_s": statistics.fmean(statistics.median(t) for t in unit_times),
        "reference_s": statistics.median(reference_times),
    }
    scale = REFERENCE_S / wall["reference_s"]
    metrics = {
        "setup_s": wall["wall_setup_s"] * scale,
        "run_s": wall["wall_run_s"] * scale,
        "quality_ratio": workload.quality(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, wall


def measure_traced(workload, seconds: float, ops: Ops, spans_path: Path) -> dict:
    """Per-layer metrics from traced passes over every instance.

    A pass sets up and runs every instance once; passes repeat while the
    next is expected to finish within ``seconds`` of the start. Counts
    come from the first pass and must repeat exactly in later ones;
    times are medians over passes. ``trace.overhead_s`` is the pass's
    span count times the cost of one traced call, measured on a no-op.
    """
    from tracing import Tracer, combine_passes, install_library_spans, layer_metrics, span_cost

    t_end = time.perf_counter() + seconds
    cost = span_cost()
    tracer = Tracer()
    install_library_spans(tracer)
    passes, per_pass = [], []
    first = [None] * len(workload.specs)
    try:
        while not passes or time.perf_counter() + statistics.median(passes) <= t_end:
            t0 = time.perf_counter()
            with tracer.span("pass") as root:
                for k, spec in enumerate(workload.specs):
                    with tracer.span("setup"):
                        _, state = ops.call(workload.setup, spec)
                    if state is not None:
                        ops.check(workload.check_setup(state))
                    with tracer.span("unit"):
                        _, result = _unit(workload, ops, state, first[k])
                    if first[k] is None:
                        first[k] = result
            passes.append(time.perf_counter() - t0)
            layers = layer_metrics(root, tracer.spans)
            layers["trace.overhead_s"] = layers["trace.spans"] * cost
            per_pass.append(layers)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    metrics, problems = combine_passes(per_pass)
    ops.check(problems)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metricmesh benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metricmesh" / "__init__.py").is_file():
        print(f"error: no metricmesh sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metricmesh

    if Path(metricmesh.__file__).resolve().parent != (SRC / "metricmesh").resolve():
        print(f"error: imported metricmesh from {metricmesh.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench"
    workdir = outdir / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        ops = Ops()
        if args.trace:
            from tracing import LAYER_METRICS

            values = measure_traced(
                workload, args.seconds, ops, outdir / f"spans-{args.workload}-{args.seed}.json"
            )
            units = dict(LAYER_METRICS)
            wall = {}
        else:
            values, wall = measure(workload, args.seconds, ops)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    env.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in wall.items():
        print(f"{name:28s} {value!r:>24} s")
    for name, value in values.items():
        print(f"{name:28s} {value!r:>24} {units[name]}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
