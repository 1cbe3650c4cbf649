"""Shared plumbing for the experiment entrypoints.

Each ``jobs/figNN_*.py`` is a spark-submit-able script that reruns one
evaluation artifact on its workbench (``repro.experiments.SEARCH_WB`` and
friends), prints the paper-style table (rows = methods, columns = the swept
parameter) and writes the raw rows to ``results/<name>.csv``.
"""
from __future__ import annotations

import os
import sys

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.experiments import pivot_table  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def emit(name: str, df: pd.DataFrame, param: str | None = None, value: str = "time_s") -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.csv")
    df.to_csv(path, index=False)
    print(f"\n== {name} ==")
    if param is not None:
        print(pivot_table(df, param, value).to_string())
    else:
        print(df.to_string(index=False))
    print(f"[saved {os.path.relpath(path)}]")
