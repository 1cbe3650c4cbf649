"""Benchmark fixtures: one workbench + prebuilt indexes per table family.

Benchmarks time *representative cells* of each paper table (default
parameters, every method) with pytest-benchmark; the full parameter sweeps
that regenerate the complete tables live in ``jobs/`` (they take minutes).
All timing cells run ``benchmark.pedantic(rounds=1)`` — the workloads are
deterministic batch runs, not microsecond kernels, so calibration rounds
would only burn the time budget.
"""
from __future__ import annotations

import pytest

from repro.core.framework import make_center
from repro.experiments import (
    BUILD_WB,
    COMM_WB,
    COV_WB,
    SEARCH_WB,
    Workbench,
    make_coverage_searchers,
    make_overlap_searchers,
)
from repro.synth_spatial import SPACE

THETA = 12
F = 10


@pytest.fixture(scope="session")
def search_wb():
    return Workbench.make(**SEARCH_WB)


@pytest.fixture(scope="session")
def build_wb():
    return Workbench.make(**BUILD_WB)


@pytest.fixture(scope="session")
def comm_wb():
    return Workbench.make(**COMM_WB)


@pytest.fixture(scope="session")
def cov_wb():
    return Workbench.make(**COV_WB)


@pytest.fixture(scope="session")
def overlap_searchers(search_wb):
    return make_overlap_searchers(search_wb.union(THETA), THETA, F)


@pytest.fixture(scope="session")
def coverage_searchers(cov_wb):
    return make_coverage_searchers(cov_wb.union(THETA), THETA, F)


@pytest.fixture(scope="session")
def comm_center(comm_wb):
    return make_center(comm_wb.corpus(THETA), THETA, F, SPACE)


@pytest.fixture(scope="session")
def cov_center(cov_wb):
    return make_center(cov_wb.corpus(THETA), THETA, F, SPACE)
