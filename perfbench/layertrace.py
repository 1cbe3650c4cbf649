"""Outside-in layer tracing for the benchmark's traced run.

The benchmark does not edit the program. Instead, :func:`install` replaces
each layer's public function with a wrapper, in the namespace where the
caller looks the name up (``framework`` and ``spark_ops`` import functions
by name, so patching the defining module alone would miss them). Every
wrapper records one span: its layer name, its duration and its parent span.
A layer's self time is its span minus the spans of the layers it called.

Spans are aggregated per layer in memory as they close (calls, seconds, self
seconds, plus layer-specific counts); :meth:`Tracer.restore` puts every
original function back. Code that runs inside Spark's Python workers is out
of reach and stays untraced.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.active = False
        self.totals: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # layer functions the program no longer has
        self.op_kind = ""  # kind of the operation now running ("ojsp", "cjsp", ...)
        self._stack: list[list[float]] = []  # open spans: [child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def _close(self, name: str, dt: float, frame: list[float]) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        t = self.totals
        t[name + "_calls"] += 1
        t[name + "_s"] += dt
        t[name + "_self_s"] += dt - frame[0]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that calls into a layer."""
        if not self.active:
            yield
            return
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - t0, frame)

    @contextmanager
    def paused(self):
        """Run oracle checks without counting their calls into the program."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``count(totals, args, out)`` adds layer-specific counts after a call.
        """
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(name, time.perf_counter() - t0, frame)
            if count is not None:
                count(tracer.totals, args, out)
            return out

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.active = False


def _n_sources(root) -> int:
    if root.is_leaf:
        return len(root.summaries)
    return _n_sources(root.left) + _n_sources(root.right)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the four workloads cross."""
    from repro import spark_ops
    from repro.core import coverage, framework, node, update

    def add(key, fn):
        def count(t, args, out):
            t[key] += fn(args, out)
        return count

    def rounds(t, args, out):
        t["dits_global.sources_kept"] += len(out)
        t["dits_global.sources_total"] += _n_sources(args[0])
        if tracer.op_kind == "cjsp":
            t["coverage.rounds"] += 1

    def clip(t, args, out):
        t["framework.clip_cells_in"] += len(args[0])
        t["framework.clip_cells_out"] += len(out)

    # points -> cells and index builds
    import repro.cells as cells

    tracer.wrap(cells, "cell_sets_from_pdf", "cells.encode",
                add("cells.points", lambda a, o: len(a[0])))
    tracer.wrap(update.DitsLocalIndex, "__init__", "dits_local.build",
                add("dits_local.datasets", lambda a, o: len(a[0])))
    tracer.wrap(node.DatasetNode, "__init__", "node.dataset_node",
                add("node.dataset_node_cells", lambda a, o: len(a[0].cells)))
    for ns in (framework, spark_ops):
        tracer.wrap(ns, "build_global_index", "dits_global.build")

    # federated protocol (DataCenter / DataSource)
    tracer.wrap(framework, "candidate_sources", "dits_global.candidate_sources", rounds)
    tracer.wrap(framework, "clip_cells_to_summary", "framework.clip", clip)
    tracer.wrap(framework.DataSource, "local_overlap", "framework.local_overlap")
    tracer.wrap(framework.DataSource, "best_coverage_candidate",
                "framework.best_coverage_candidate")
    tracer.wrap(update, "overlap_search", "overlap.search",
                add("overlap.results", lambda a, o: len(o)))
    # framework passes a fresh list, so its length afterwards is the
    # number of candidates this outermost call found; recursion goes
    # through coverage's own (unwrapped) name.
    tracer.wrap(framework, "find_connect_set", "coverage.find_connect_set",
                add("coverage.candidates", lambda a, o: len(a[3])))
    for ns in (coverage, framework):
        tracer.wrap(ns, "min_cell_distance", "geometry.min_cell_distance",
                    add("geometry.min_cell_distance_pairs", lambda a, o: len(a[0]) * len(a[1])))
    tracer.wrap(coverage, "marginal_gain", "coverage.marginal_gain",
                add("coverage.marginal_gain_cells", lambda a, o: len(a[0])))

    # Appendix-C maintenance
    for op in ("insert", "update", "delete"):
        tracer.wrap(update.DitsLocalIndex, op, f"update.{op}")

    # Spark driver side. Only names the mapInPandas closures do not
    # reference are wrapped: a wrapper would otherwise be pickled into
    # the tasks.
    tracer.wrap(spark_ops, "build_distributed_index", "spark_ops.build")
    tracer.wrap(spark_ops, "candidate_sources", "spark_ops.driver", rounds)
    tracer.wrap(spark_ops, "query_lonlat_geom", "spark_ops.driver")
    tracer.wrap(spark_ops, "clip_cells_to_summary", "spark_ops.driver",
                add("spark_ops.task_cells", lambda a, o: len(o)))
