"""In-memory span tracing around metricmesh entry points.

The tracer replaces a function under the name its caller looks it up by
(a module global such as ``metricmesh.optimize.total_loss`` or a class
attribute such as ``TapeProgram.value_and_grad``) with a wrapper that
records one span per call. No file of the library is modified, and
``uninstall`` puts every original back. Spans are kept in a list and
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; parents come from the open-span stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(span, result)`` may add attributes from the return
        value. A missing attribute is skipped: a layer whose entry point
        no longer exists reports zero work instead of failing the run.
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(span, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call adds to an untraced one, median of ``repeats``."""
    probe = types.SimpleNamespace(noop=lambda: None)
    plain = probe.noop
    tracer = Tracer()
    tracer.wrap(probe, "noop", "probe")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            probe.noop()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def install_library_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry point under the name its caller uses.

    The optimizer reaches projection, loss and repair through globals of
    ``metricmesh.optimize``; the benchmark reaches everything else
    through the package namespace, the way the CLI calls it.
    """
    import metricmesh
    from metricmesh import autodiff, optimize, outputs

    def tape_size(span, program):
        span.attrs["nodes"] = len(program)

    def descent(span, result):
        span.attrs["iterations"] = result.iterations
        span.attrs["final_ratio"] = result.final.l_total / result.rows[0].l_total

    tracer.wrap(optimize, "project_dataset_arrays", "projection")
    tracer.wrap(optimize, "total_loss", "optimize.loss")
    tracer.wrap(optimize, "feasibility_projection", "optimize.repair")
    tracer.wrap(metricmesh, "feasibility_projection", "optimize.repair")
    tracer.wrap(metricmesh, "run_optimization", "optimize.run", descent)
    tracer.wrap(autodiff.TapeProgram, "value_and_grad", "autodiff.replay")
    tracer.wrap(autodiff.Tape, "program", "autodiff.record", tape_size)
    tracer.wrap(metricmesh, "read_off", "mesh.load")
    tracer.wrap(metricmesh, "generate_mesh", "mesh.load")
    tracer.wrap(metricmesh, "validate_manifold", "mesh.validate")
    tracer.wrap(metricmesh, "curvature_report", "geometry.curvature")
    tracer.wrap(metricmesh, "fast_marching", "geodesic.fmm")
    tracer.wrap(metricmesh, "dijkstra_distances", "geodesic.dijkstra")
    tracer.wrap(outputs, "read_lengths_csv", "outputs.read")
    for name in ("write_text", "curvature_csv_text", "distances_csv_text"):
        tracer.wrap(outputs, name, "outputs.write")


# Layer metrics, in the order they are printed: (metric, unit).
# "count" metrics must repeat exactly between passes with the same seed.
LAYER_METRICS = (
    ("projection.calls", "count"),
    ("projection.s", "s"),
    ("autodiff.records", "count"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.replays", "count"),
    ("autodiff.replay_s", "s"),
    ("optimize.self_s", "s"),
    ("optimize.iterations", "count"),
    ("optimize.candidates", "count"),
    ("optimize.accept_ratio", "ratio"),
    ("optimize.final_loss_ratio", "ratio"),
    ("optimize.repair_calls", "count"),
    ("optimize.repair_failures", "count"),
    ("optimize.repair_s", "s"),
    ("optimize.loss_calls", "count"),
    ("optimize.loss_s", "s"),
    ("mesh.load_s", "s"),
    ("mesh.validate_s", "s"),
    ("geometry.curvature_s", "s"),
    ("geodesic.fmm_calls", "count"),
    ("geodesic.fmm_s", "s"),
    ("geodesic.dijkstra_s", "s"),
    ("outputs.read_s", "s"),
    ("outputs.write_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Spans subtracted from a solve to leave the optimizer's own time.
_SOLVE_CHILDREN = frozenset(("projection", "optimize.loss", "optimize.repair"))


def _outermost(spans: list[Span], by_id: dict[int, Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _covered(span: Span, children: dict[int, list[Span]], names) -> float:
    """Time inside ``span`` covered by its outermost descendants in ``names``."""
    total = 0.0
    for c in children.get(span.id, ()):
        total += c.duration if c.name in names else _covered(c, children, names)
    return total


def _descendants(span: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, todo = [], list(children.get(span.id, ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


def layer_metrics(root: Span, spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times for the subtree under ``root``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    sub = sorted(_descendants(root, children), key=lambda s: s.id)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return len(_outermost(sub, by_id, name))

    def busy(name):
        return sum(s.duration for s in _outermost(sub, by_id, name))

    solves = [s for s in sub if s.name == "optimize.run"]
    candidates = 0
    for run in solves:
        inner = sorted(_descendants(run, children), key=lambda s: s.start)
        first_loss = next((s for s in inner if s.name == "optimize.loss"), None)
        if first_loss is not None:
            # The repair before the first loss evaluation is the initial
            # projection of the start metric, not a line-search candidate.
            candidates += sum(
                1 for s in inner if s.name == "optimize.repair" and s.start >= first_loss.end
            )
    iters = sum(s.attrs.get("iterations", 0) for s in solves)
    ratios = [s.attrs["final_ratio"] for s in solves if "final_ratio" in s.attrs]
    return {
        "projection.calls": calls("projection"),
        "projection.s": busy("projection"),
        "autodiff.records": calls("autodiff.record"),
        "autodiff.tape_nodes": sum(
            s.attrs.get("nodes", 0) for s in _outermost(sub, by_id, "autodiff.record")
        ),
        "autodiff.replays": calls("autodiff.replay"),
        "autodiff.replay_s": busy("autodiff.replay"),
        "optimize.self_s": sum(
            s.duration - _covered(s, children, _SOLVE_CHILDREN) for s in solves
        ),
        "optimize.iterations": iters,
        "optimize.candidates": candidates,
        "optimize.accept_ratio": iters / candidates if candidates else 0.0,
        "optimize.final_loss_ratio": (
            math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0
        ),
        "optimize.repair_calls": calls("optimize.repair"),
        "optimize.repair_failures": sum(
            1 for s in _outermost(sub, by_id, "optimize.repair") if s.error
        ),
        "optimize.repair_s": busy("optimize.repair"),
        "optimize.loss_calls": calls("optimize.loss"),
        "optimize.loss_s": busy("optimize.loss"),
        "mesh.load_s": busy("mesh.load"),
        "mesh.validate_s": busy("mesh.validate"),
        "geometry.curvature_s": busy("geometry.curvature"),
        "geodesic.fmm_calls": calls("geodesic.fmm"),
        "geodesic.fmm_s": busy("geodesic.fmm"),
        "geodesic.dijkstra_s": busy("geodesic.dijkstra"),
        "outputs.read_s": busy("outputs.read"),
        "outputs.write_s": busy("outputs.write"),
        "trace.spans": len(sub),
    }


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first pass, times as the median over passes.

    Returns the combined metrics and a message for every count that
    differed between passes, which the caller treats as a failed check.
    """
    combined, problems = {}, []
    for name, unit in LAYER_METRICS:
        values = [m[name] for m in per_pass]
        if unit == "count":
            combined[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
        else:
            combined[name] = statistics.median(values)
    return combined, problems
