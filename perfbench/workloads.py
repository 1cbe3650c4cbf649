"""The benchmark's four closed-loop workloads, one client each.

Every workload follows the paper's §VII-A protocol: θ=12, f=10, query
datasets are corpus datasets excluded from their own answer. A workload

- makes its inputs from the seed (``__init__``, untimed, with the oracle);
- builds the system from points (``setup``, timed as ``setup_s``);
- warms caches and lazy set-up (``warm``, untimed);
- yields operations (``op(system, i)``): a kind, a call into the program
  (the only timed part) and a check of its answer against the oracle.

A run performs a fixed number of operations, ``ops_per_second`` for each
second of the run length, sized so a run takes about that long on a 4-core
Xeon VM. Fixed work keeps the mix of operations the same from run to run
(a time-bounded run of slow CJSP queries ends on whichever prefix the
machine reached) and keeps the churned index the same size at the end.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from collections import deque

import numpy as np

import repro.cells as cells
from repro import spark_ops
from repro.core import framework
from repro.core.overlap import query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.params import DELTA_DEFAULT, DELTA_VALUES, K_DEFAULT, K_VALUES
from repro.synth_spatial import SPACE, generate_corpus_pdf, pick_queries

from oracles import CoverageOracle, OverlapOracle, static_topk

THETA = 12
F = 10
CJSP_K = 10
# One Spark job per greedy round: k=3 keeps a distributed CJSP query near a
# second, so a run holds enough of them.
SPARK_CJSP_K = 3

# Workbench sizes of benchmarks/conftest.py (scale, points cap per dataset).
SEARCH_WB = dict(scale=0.1, max_points_per_dataset=1500)
BUILD_WB = dict(scale=0.05, max_points_per_dataset=400)
COV_WB = dict(scale=0.012, max_points_per_dataset=200)

# The corpus comes from this generator seed, passed straight to
# generate_corpus_pdf (Workbench.make drops its seed argument). The run seed
# picks the queries, their parameters and the write stream: with the corpus
# seeded per run, the CJSP p50 over eight seeds ranged from 54 to 454 ms,
# because the hotspot layout changes how connected the corpus is.
CORPUS_SEED = 7


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def points_digest(points) -> str:
    return digest(points["dataset_id"].to_numpy(), points["x"].to_numpy(), points["y"].to_numpy())


def stratified(slots: list, key, seed: int, strata: int) -> list:
    """Reorder ``slots`` (in seeded order) so every prefix mixes costs alike.

    Slots are cut into ``strata`` equal bins by ``key``, an estimate of an
    operation's cost; round r takes the r-th slot (in seeded order) of every
    bin, bins in a seeded order. A run that covers a prefix then holds cheap
    and costly operations in the same proportions whatever the seed drew;
    with one stratum per operation of a run, it holds one of each.
    """
    by_key = sorted(range(len(slots)), key=lambda i: (key(slots[i]), i))
    bins = [sorted(b) for b in np.array_split(np.array(by_key), strata)]
    rng = np.random.default_rng([seed, 6])
    out = []
    for r in range(max(len(b) for b in bins)):
        out += [slots[bins[b][r]] for b in rng.permutation(strata) if r < len(bins[b])]
    return out


def cycled(values, n: int, rng) -> list:
    """``n`` parameter values, each block of ``len(values)`` a permutation."""
    return [values[int(i)] for _ in range(-(-n // len(values))) for i in rng.permutation(len(values))][:n]


def merged_cells(union, qid: int, answer) -> int:
    """Cells a greedy CJSP query merges over its rounds (Σ |covered| per
    round): its cost estimate, rank-correlated 0.97 with DataCenter latency."""
    covered, total = len(union[qid]), len(union[qid])
    for _, gain in answer:
        covered += gain
        total += covered
    return total


def seed_plumbing_check(seed: int) -> dict:
    """Same seed -> same corpus and queries; another seed -> different ones."""
    def gen(s):
        pts = generate_corpus_pdf(seed=s, **COV_WB)
        return points_digest(pts), digest(np.array(pick_queries(pts, 20, seed=s)))

    a, b, c = gen(seed), gen(seed), gen(seed + 1)
    return {"same_seed_equal": a == b, "other_seed_differs": a[0] != c[0] and a[1] != c[1]}


class Workload:
    name = ""
    setup_reps = 3
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def n_ops(self, seconds: float) -> int:
        return max(1, int(self.ops_per_second * seconds))

    def warm(self, system) -> None:
        for i in range(self.warm_ops):
            _, call, _ = self.op(system, i)
            call()

    def final_check(self, system) -> bool:
        return True

    def digests(self) -> dict:
        return {"corpus": points_digest(self.points), "queries": digest(np.array(self.pool))}

    def close(self) -> None:
        pass


def _union(corpus):
    return {d: c for src in corpus.values() for d, c in src.items()}


class Federated(Workload):
    """A DataCenter over the five sources, built from the points."""

    def setup(self):
        corpus = cells.cell_sets_from_pdf(self.points, SPACE, THETA)
        return framework.make_center(corpus, THETA, F, SPACE)


class OjspFederated(Federated):
    """DataCenter.overlap_search over the five sources, k from Table II."""

    name = "ojsp-federated"
    kinds = ("ojsp",)
    ops_per_second = 300
    warm_ops = 64

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.points = generate_corpus_pdf(seed=CORPUS_SEED, **SEARCH_WB)
        self.union = _union(cells.cell_sets_from_pdf(self.points, SPACE, THETA))
        order = pick_queries(self.points, len(self.union), seed=seed)
        ks = cycled(K_VALUES, len(order), np.random.default_rng([seed, 1]))
        # Every dataset is a query; the strata balance the partial last pass.
        self.slots = stratified(list(zip(order, ks)), lambda s: len(self.union[s[0]]), seed, 256)
        self.pool = [q for q, _ in self.slots]
        self.answers = static_topk(self.union, self.pool, max(K_VALUES))

    def op(self, center, i):
        qid, k = self.slots[i % len(self.slots)]
        q, ex = self.union[qid], frozenset([qid])
        return "ojsp", lambda: center.overlap_search(q, k, ex), lambda out: out[0] == self.answers[qid][:k]


class CjspFederated(Federated):
    """DataCenter.coverage_search(strategy="merge"), k=10, δ from Table II."""

    name = "cjsp-federated"
    kinds = ("cjsp",)
    ops_per_second = 4
    setup_reps = 15
    warm_ops = 3

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.points = generate_corpus_pdf(seed=CORPUS_SEED, **COV_WB)
        self.union = _union(cells.cell_sets_from_pdf(self.points, SPACE, THETA))
        order = pick_queries(self.points, len(self.union), seed=seed)
        deltas = cycled([float(d) for d in DELTA_VALUES], len(order), np.random.default_rng([seed, 2]))
        self.oracle = CoverageOracle(self.union, THETA, max(DELTA_VALUES))
        slots = [(q, d, tuple(self.oracle.greedy(q, d, CJSP_K))) for q, d in zip(order, deltas)]
        # One stratum per query of a 20-s run.
        self.slots = stratified(slots, lambda s: merged_cells(self.union, s[0], s[2]), seed,
                                20 * self.ops_per_second)
        self.pool = [q for q, _, _ in self.slots]

    def op(self, center, i):
        qid, delta, answer = self.slots[i % len(self.slots)]
        q, ex = self.union[qid], frozenset([qid])

        def check(out):
            ids = tuple(d for d, _ in out[0])
            return tuple(out[0]) == answer and self.oracle.connected(qid, ids, delta)

        return "cjsp", lambda: center.coverage_search(q, delta, CJSP_K, ex, strategy="merge"), check


class IndexChurn(Workload):
    """One DitsLocalIndex under a seeded read/insert/update/delete stream."""

    name = "index-churn"
    kinds = ("read", "insert", "update", "delete")
    mix = (0.60, 0.20, 0.15, 0.05)
    ops_per_second = 200
    warm_ops = 0

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.points = generate_corpus_pdf(seed=CORPUS_SEED, **BUILD_WB)
        self.union = _union(cells.cell_sets_from_pdf(self.points, SPACE, THETA))
        rng = np.random.default_rng([seed, 3])
        ids = rng.permutation(sorted(self.union)).tolist()
        cut = int(0.8 * len(ids))
        self.initial, self.held_out = sorted(ids[:cut]), ids[cut:]
        self.pool = self.initial
        self._corpus_ids = sorted(self.union)
        self._stream: list[tuple] = []

    def _extend_stream(self, n: int) -> None:
        """Draw the stream up to ``n`` ops. It depends only on the seed: the
        ids it touches follow a simulated membership, not the index."""
        if not self._stream:
            self._rng = np.random.default_rng([self.seed, 4])
            self._present = list(self.initial)
            self._spare = deque(self.held_out)
            self._fresh = 10_000_000
        rng, present, spare, corpus_ids = self._rng, self._present, self._spare, self._corpus_ids
        while len(self._stream) < n:
            kind = self.kinds[int(rng.choice(4, p=self.mix))]
            if kind == "read":
                self._stream.append(("read", present[int(rng.integers(len(present)))], None))
            elif kind == "insert":
                if spare:
                    did = spare.popleft()
                    payload = self.union[did]
                else:
                    did, self._fresh = self._fresh, self._fresh + 1
                    payload = self.union[corpus_ids[int(rng.integers(len(corpus_ids)))]]
                present.append(did)
                self._stream.append(("insert", did, payload))
            elif kind == "update":
                did = present[int(rng.integers(len(present)))]
                payload = self.union[corpus_ids[int(rng.integers(len(corpus_ids)))]]
                self._stream.append(("update", did, payload))
            else:
                did = present.pop(int(rng.integers(len(present))))
                if did in self.union:
                    spare.append(did)
                self._stream.append(("delete", did, None))

    def setup(self):
        corpus = _union(cells.cell_sets_from_pdf(self.points, SPACE, THETA))
        return DitsLocalIndex({d: corpus[d] for d in self.initial}, THETA, F)

    def warm(self, index):
        for did in self.initial[:16]:
            index.search_overlap(query_node_from_cells(self.union[did], THETA), K_DEFAULT, frozenset([did]))

    def op(self, index, i):
        if i == 0:  # a phase starts on a fresh index; the oracle follows its writes
            self.oracle = OverlapOracle({d: self.union[d] for d in self.initial})
        self._extend_stream(i + 1)
        kind, did, payload = self._stream[i]
        oracle = self.oracle
        if kind == "read":
            q, ex = oracle.datasets[did], frozenset([did])

            def call():
                return index.search_overlap(query_node_from_cells(q, THETA), K_DEFAULT, ex)

            return kind, call, lambda out: out == oracle.topk(q, K_DEFAULT, ex)
        if kind == "delete":
            def check(_):
                oracle.remove(did)
                return did not in index._nodes

            return kind, lambda: index.delete(did), check

        def write_check(_):
            oracle.put(did, payload)
            return np.array_equal(index._nodes[did].cells, payload)

        return kind, lambda: getattr(index, kind)(did, payload), write_check

    def final_check(self, index):
        got = index.datasets
        want = self.oracle.datasets
        return got.keys() == want.keys() and all(np.array_equal(got[d], want[d]) for d in want)


class SparkDistributed(Workload):
    """Catalyst encoder + applyInPandas build, then distributed OJSP/CJSP.

    Two OJSP queries (k from Table II) per CJSP query (k=3, δ=5): the
    median lands inside the OJSP latencies and the p75 tail inside the
    slower CJSP ones, away from the gap between the two.
    """

    name = "spark-distributed"
    kinds = ("ojsp", "cjsp")
    ops_per_second = 2
    warm_ops = 3
    warm_builds = 1  # the first applyInPandas build starts the Python workers

    def __init__(self, seed, tracer, root: str, session_s: list):
        super().__init__(seed, tracer)
        self.points = generate_corpus_pdf(seed=CORPUS_SEED, **COV_WB)
        self.union = _union(cells.cell_sets_from_pdf(self.points, SPACE, THETA))
        order = pick_queries(self.points, len(self.union), seed=seed)
        ks = cycled(K_VALUES, len(order), np.random.default_rng([seed, 5]))
        # A 20-s run makes 27 OJSP and 13 CJSP queries.
        self.slots = stratified(list(zip(order, ks)), lambda s: len(self.union[s[0]]), seed, 27)
        self.answers = static_topk(self.union, order, max(K_VALUES))
        self.oracle = CoverageOracle(self.union, THETA, DELTA_DEFAULT)
        cjsp = [(q, tuple(self.oracle.greedy(q, DELTA_DEFAULT, SPARK_CJSP_K))) for q in order]
        self.cjsp_slots = stratified(cjsp, lambda s: merged_cells(self.union, *s), seed, 13)
        self.pool = [q for q, _ in self.slots] + [q for q, _ in self.cjsp_slots]
        self.scratch = os.path.join(root, "perfbench", "out", f"spark-{os.getpid()}")
        self.spark = start_spark(root, self.scratch, session_s)
        self.points_df = self.spark.createDataFrame(self.points)
        self._builds = 0

    def setup(self):
        # A fresh directory per build: spark_ops caches loaded indexes by path.
        self._builds += 1
        out_dir = os.path.join(self.scratch, f"index-{self._builds}")
        with self.tracer.span("cells.encode"):
            cells_df = cells.cell_sets_df(self.points_df, SPACE, THETA).persist()
            cells_df.count()
        if self.tracer.active:
            self.tracer.totals["cells.points"] += len(self.points)
        built = spark_ops.build_distributed_index(cells_df, SPACE, THETA, F, out_dir)
        cells_df.unpersist()
        return built

    def op(self, built, i):
        groot, summaries, paths = built
        sc = self.spark.sparkContext
        group = f"perfbench-op-{i}" if self.tracer.active else None
        if i % 3 == 2:
            qid, answer = self.cjsp_slots[(i // 3) % len(self.cjsp_slots)]
            q, ex = self.union[qid], (qid,)

            def call():
                if group:
                    sc.setJobGroup(group, "cjsp")
                return spark_ops.distributed_coverage_search(
                    self.spark, groot, summaries, paths, q, DELTA_DEFAULT, SPARK_CJSP_K, SPACE, THETA, ex)

            def check(out):
                ids = tuple(d for d, _ in out)
                return tuple(out) == answer and self.oracle.connected(qid, ids, DELTA_DEFAULT)

            return "cjsp", call, check
        qid, k = self.slots[(i - i // 3) % len(self.slots)]
        q, ex = self.union[qid], (qid,)

        def call():
            if group:
                sc.setJobGroup(group, "ojsp")
            return spark_ops.distributed_overlap_search(
                self.spark, groot, summaries, paths, q, k, SPACE, THETA, ex)

        return "ojsp", call, lambda out: out == self.answers[qid][:k]

    def jobs_of(self, i: int) -> int:
        return len(self.spark.sparkContext.statusTracker().getJobIdsForGroup(f"perfbench-op-{i}"))

    def close(self):
        stop_spark(self.spark)
        shutil.rmtree(self.scratch, ignore_errors=True)


def start_spark(root: str, scratch: str, session_s: list):
    """A local SparkSession whose Python workers can import ``repro``.

    The package is not installed, so the workers get ``src`` on their
    PYTHONPATH, set before the JVM (and the workers it forks) starts.
    Temporary files stay under ``scratch``.
    """
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = tmp
    tempfile.tempdir = tmp
    n = min(4, os.cpu_count() or 1)
    # HotSpot writes its perf data under /tmp whatever java.io.tmpdir says.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{n}] --driver-memory 1g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        f"--conf spark.local.dir={tmp} --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(n))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    session_s.append(time.perf_counter() - t0)
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
