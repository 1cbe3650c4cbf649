#!/usr/bin/env python3
"""Benchmark for federated OJSP/CJSP, DITS-L maintenance and the Spark path.

    python3 perfbench/run.py --workload ojsp-federated --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it runs the same operations untraced and then traced, and
reports the per-layer metrics, the bypass checks and the tracing overhead.
Every answer is checked against an oracle outside the timed region.

Each metric is printed as ``workload metric value unit``; the full report
(per-kind latencies, tail percentiles and sample counts, digests, checks)
is written to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``. The
last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "share",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
}

# Layer metrics from one traced setup (per setup) ...
SETUP_LAYERS = {
    "cells.encode_s": "s",
    "cells.points": "count",
    "dits_local.build_s": "s",
    "dits_local.datasets": "count",
    "dits_global.build_s": "s",
    "spark_ops.build_s": "s",
    "spark_ops.session_s": "s",
}
# ... and from the traced operations (per operation of the workload).
OP_LAYERS = [
    "node.dataset_node_calls", "node.dataset_node_s", "node.dataset_node_cells",
    "dits_global.candidate_sources_calls", "dits_global.candidate_sources_s",
    "dits_global.sources_kept", "dits_global.sources_total",
    "framework.clip_calls", "framework.clip_s",
    "framework.clip_cells_in", "framework.clip_cells_out",
    "framework.local_overlap_calls", "framework.local_overlap_s", "framework.local_overlap_self_s",
    "overlap.search_calls", "overlap.search_s", "overlap.results",
    "framework.best_coverage_candidate_calls", "framework.best_coverage_candidate_s",
    "framework.best_coverage_candidate_self_s", "coverage.rounds",
    "coverage.find_connect_set_calls", "coverage.find_connect_set_s", "coverage.candidates",
    "geometry.min_cell_distance_calls", "geometry.min_cell_distance_s",
    "geometry.min_cell_distance_pairs",
    "coverage.marginal_gain_calls", "coverage.marginal_gain_cells",
    "comm.messages", "comm.ojsp-query.bytes", "comm.ojsp-results.bytes",
    "comm.cjsp-query.bytes", "comm.cjsp-best.bytes", "comm.cjsp-fetch.bytes",
    "comm.cjsp-cells.bytes",
    "update.insert_calls", "update.insert_s", "update.update_calls", "update.update_s",
    "update.delete_calls", "update.delete_s",
    "spark_ops.jobs_per_query", "spark_ops.driver_s", "spark_ops.remote_s",
    "spark_ops.task_cells",
]
CHECKS = {
    "trace.overhead_ms": "ms",
    "check.bypass_violations": "count",
    "check.silent_layers": "count",
    "check.trace_mismatches": "count",
}


def op_unit(name: str) -> str:
    return "s/op" if name.endswith("_s") else "1/op"


PER_LAYER = {**SETUP_LAYERS, **{n: op_unit(n) for n in OP_LAYERS}, **CHECKS}

# Layers each workload must cross (calls > 0) and must not (calls == 0).
CROSSES = {
    "ojsp-federated": ["cells.encode", "dits_local.build", "dits_global.build",
                       "node.dataset_node", "dits_global.candidate_sources",
                       "framework.clip", "framework.local_overlap", "overlap.search"],
    "cjsp-federated": ["cells.encode", "dits_local.build", "dits_global.build",
                       "node.dataset_node", "dits_global.candidate_sources",
                       "framework.clip", "framework.best_coverage_candidate",
                       "coverage.find_connect_set", "geometry.min_cell_distance",
                       "coverage.marginal_gain"],
    "index-churn": ["cells.encode", "dits_local.build", "node.dataset_node",
                    "overlap.search", "update.insert", "update.update", "update.delete"],
    "spark-distributed": ["cells.encode", "spark_ops.build", "dits_global.build",
                          "spark_ops.driver"],
}
BYPASSES = {
    "ojsp-federated": ["geometry.min_cell_distance", "coverage.find_connect_set"],
    "cjsp-federated": ["overlap.search"],
    "index-churn": ["geometry.min_cell_distance", "coverage.find_connect_set"],
    "spark-distributed": [],
}


class Rec:
    __slots__ = ("kind", "dt", "ok", "answer", "comm", "jobs", "error")

    def __init__(self, kind, dt, ok, answer, comm, jobs, error):
        self.kind, self.dt, self.ok, self.answer = kind, dt, ok, answer
        self.comm, self.jobs, self.error = comm, jobs, error


def run_phase(wl, system, n_ops, tracer) -> list[Rec]:
    """Closed loop: the next operation starts when the previous one and
    its (untimed) check are done."""
    recs: list[Rec] = []
    for i in range(n_ops):
        kind, call, check = wl.op(system, i)
        tracer.op_kind = kind
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a failed operation is counted, not retried
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        with tracer.paused():
            try:
                ok = error is None and bool(check(out))
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
        comm = out[1] if isinstance(out, tuple) else None
        answer = out[0] if isinstance(out, tuple) else out
        jobs = wl.jobs_of(i) if tracer.active and hasattr(wl, "jobs_of") else 0
        recs.append(Rec(kind, dt, ok, answer, comm, jobs, error))
    return recs


def tail(lat_ms: np.ndarray) -> tuple[float, float]:
    """The highest percentile up to p95 with at least 10 samples beyond it.

    p99 is left out of the gated metric: on a shared 4-core VM, stalls hit
    about 1% of operations, and p99 of ojsp-federated spread 0.40 of its
    median over five seeds. The report still records p99 and p99.9.
    """
    n = len(lat_ms)
    for p in (95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(lat_ms, p))
    return 50.0, float(np.percentile(lat_ms, 50))


def latency_summary(recs: list[Rec]) -> dict:
    lat = np.array([r.dt for r in recs]) * 1e3
    p, t = tail(lat)
    return {"n": len(lat), "p50_ms": float(np.percentile(lat, 50)), "tail_ms": t,
            "tail_percentile": p, "mean_ms": float(lat.mean()),
            "percentiles_ms": {str(q): float(np.percentile(lat, q)) for q in (75, 90, 95, 99, 99.9)}}


def by_kind(wl, recs: list[Rec]) -> dict:
    out = {}
    for kind in wl.kinds:
        rs = [r for r in recs if r.kind == kind]
        if rs:
            out[kind] = latency_summary(rs)
            logs = [r.comm for r in rs if r.comm is not None]
            if logs:
                out[kind]["bytes_per_query"] = sum(c.total_bytes for c in logs) / len(logs)
    return out


def comm_totals(recs: list[Rec]) -> dict:
    t: dict[str, float] = {"comm.messages": 0}
    for r in recs:
        if r.comm is not None:
            t["comm.messages"] += r.comm.n_messages
            for kind, b in r.comm.bytes_by_kind().items():
                t[f"comm.{kind}.bytes"] = t.get(f"comm.{kind}.bytes", 0) + b
    return t


def failures(recs: list[Rec]) -> list[str]:
    return [r.error or f"{r.kind} op {i}: answer differs from the oracle"
            for i, r in enumerate(recs) if not r.ok]


def timed_setups(wl, reps: int):
    system, times = None, []
    for _ in range(reps):
        system = None
        gc.collect()
        t0 = time.perf_counter()
        system = wl.setup()
        times.append(time.perf_counter() - t0)
    return system, times


def untraced_run(wl, seconds, report) -> tuple[list[Rec], dict]:
    for _ in range(getattr(wl, "warm_builds", 0)):
        wl.setup()
    system, setups = timed_setups(wl, wl.setup_reps)
    wl.warm(system)
    recs = run_phase(wl, system, wl.n_ops(seconds), wl.tracer)
    final_ok = wl.final_check(system)
    report["setup_runs_s"] = setups
    report["final_check"] = final_ok
    summary = latency_summary(recs)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": sum(r.ok for r in recs) / len(recs),
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "ops_per_s": len(recs) / sum(r.dt for r in recs),
    }
    report["all_ops"] = summary
    return recs, metrics


def traced_run(wl, seconds, report, session_s) -> tuple[list[Rec], dict]:
    from layertrace import install

    tracer = wl.tracer
    half = max(1, wl.n_ops(seconds) // 2)
    for _ in range(getattr(wl, "warm_builds", 0)):
        wl.setup()
    system = wl.setup()
    wl.warm(system)
    plain = run_phase(wl, system, half, tracer)
    report["final_check_untraced"] = wl.final_check(system)
    system = None
    gc.collect()

    install(tracer)
    try:
        tracer.active = True
        system = wl.setup()
        setup_totals = dict(tracer.totals)
        tracer.totals.clear()
        with tracer.paused():
            wl.warm(system)
        traced = run_phase(wl, system, half, tracer)
        tracer.active = False
        totals = dict(tracer.totals)
    finally:
        tracer.restore()
    report["final_check"] = wl.final_check(system)

    ops = len(traced)
    totals.update(comm_totals(traced))
    if wl.name == "spark-distributed":
        totals["spark_ops.jobs_per_query"] = sum(r.jobs for r in traced)
        totals["spark_ops.remote_s"] = sum(r.dt for r in traced) - totals.get("spark_ops.driver_s", 0.0)
    metrics = {name: float(setup_totals.get(name, 0.0)) for name in SETUP_LAYERS}
    metrics["spark_ops.session_s"] = session_s[0] if session_s else 0.0
    metrics.update({name: float(totals.get(name, 0.0)) / ops for name in OP_LAYERS})

    seen = {**setup_totals, **totals}
    silent = [l for l in CROSSES[wl.name] if seen.get(l + "_calls", 0) == 0]
    crossed = [l for l in BYPASSES[wl.name] if seen.get(l + "_calls", 0) != 0]
    common = min(len(plain), len(traced))
    mismatches = sum(plain[i].answer != traced[i].answer for i in range(common))
    u, t = latency_summary(plain), latency_summary(traced)
    metrics["trace.overhead_ms"] = t["p50_ms"] - u["p50_ms"]
    metrics["check.bypass_violations"] = len(crossed)
    metrics["check.silent_layers"] = len(silent)
    metrics["check.trace_mismatches"] = mismatches
    report.update(
        untraced_ops=u, traced_ops=t, silent_layers=silent, bypass_violations=crossed,
        missing_functions=tracer.missing, setup_totals=setup_totals, op_totals=totals,
        untraced_failures=failures(plain)[:5],
    )
    report["checks_ok"] = not crossed and not mismatches
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources (src/repro) are missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from layertrace import Tracer

    classes = {c.name: c for c in (workloads.OjspFederated, workloads.CjspFederated,
                                   workloads.IndexChurn, workloads.SparkDistributed)}
    if args.workload not in classes:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(classes)}", file=sys.stderr)
        return 2

    tracer = Tracer()
    session_s: list[float] = []
    cls = classes[args.workload]
    extra = (str(ROOT), session_s) if cls is workloads.SparkDistributed else ()
    wl = cls(args.seed, tracer, *extra)
    report: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "corpus_seed": workloads.CORPUS_SEED}
    try:
        report["seed_plumbing"] = workloads.seed_plumbing_check(args.seed)
        report["digests"] = wl.digests()
        if args.trace:
            recs, metrics = traced_run(wl, args.seconds, report, session_s)
            units = PER_LAYER
        else:
            recs, metrics = untraced_run(wl, args.seconds, report)
            units = END_TO_END
        report["by_kind"] = by_kind(wl, recs)
    finally:
        wl.close()

    failed = sum(not r.ok for r in recs)
    report["failures"] = failures(recs)[:10]
    report["error_rate"] = failed / len(recs)
    correct = (failed == 0 and report["final_check"] and report.get("final_check_untraced", True)
               and report.get("checks_ok", True) and all(report["seed_plumbing"].values()))
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))

    for name, m in report["metrics"].items():
        print(f"{wl.name:18s} {name:44s} {m['value']:.6g} {m['unit']}")
    for kind, s in report["by_kind"].items():
        extra_b = f" bytes/query={s['bytes_per_query']:.0f}" if "bytes_per_query" in s else ""
        print(f"{wl.name:18s} {kind}: n={s['n']} p50={s['p50_ms']:.3f} ms "
              f"p{s['tail_percentile']:g}={s['tail_ms']:.3f} ms{extra_b}")
    print(f"{wl.name:18s} error_rate={report['error_rate']:.4g} report={path.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": len(recs), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
