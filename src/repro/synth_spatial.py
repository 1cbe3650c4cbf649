"""Synthetic multi-source spatial data (substitute for the paper's Table I).

The paper evaluates on five proprietary/portal data sources (Baidu, BTAA,
NYU, Transit, UMN). We cannot download them offline, so this module
generates five synthetic sources that preserve the knobs that drive search
cost:

- per-source *bounding box* (taken from Table I);
- per-source *dataset count* and *point count*, scaled by ``scale`` so tests
  (scale≈0.005) and benchmarks (scale≈0.02..0.05) stay tractable;
- *spatial skew*: each source draws dataset anchors from a seeded mixture of
  hotspots (mimicking the heatmap density of Fig. 7), and each dataset is a
  random-walk "route" or a Gaussian "region" of points.

Everything is deterministic in ``seed`` (per-dataset generators are seeded
with ``[seed, source_index, dataset_index]``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .grid import WORLD, Bounds


@dataclass(frozen=True)
class SourceSpec:
    """Shape parameters of one synthetic data source."""

    name: str
    n_datasets: int          # Table I dataset count (scaled at generation)
    mean_points: int         # points per dataset before scaling/capping
    bbox: Bounds             # Table I coordinate range
    n_hotspots: int = 12     # density clusters (Fig. 7 heatmaps)
    style: str = "route"     # "route" (random walk) or "region" (blob)


#: Table I, with point counts converted to per-dataset means.
SOURCE_SPECS: tuple[SourceSpec, ...] = (
    SourceSpec("baidu", 6581, 560, Bounds(87.52, 19.98, 127.15, 46.35), 20, "region"),
    SourceSpec("btaa", 3204, 30200, Bounds(-179.77, -87.70, 179.99, 71.40), 14, "region"),
    SourceSpec("nyu", 1093, 14000, Bounds(-138.00, -74.01, 56.39, 83.09), 10, "region"),
    SourceSpec("transit", 1967, 265, Bounds(-77.73, 36.81, -74.53, 39.78), 8, "route"),
    SourceSpec("umn", 5453, 9980, Bounds(-179.14, -14.55, 179.77, 71.35), 14, "region"),
)


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.minimum(np.maximum(v, lo), hi)


def _gen_dataset(
    rng: np.random.Generator, spec: SourceSpec, centers: np.ndarray, n_points: int
) -> np.ndarray:
    """(n_points, 2) array of (x, y) for one dataset around a hotspot."""
    c = centers[rng.integers(0, len(centers))]
    span = min(spec.bbox.width, spec.bbox.height)
    if spec.style == "route":
        # Random-walk route: correlated steps give an elongated shape.
        step = span * 0.004
        heading = rng.uniform(0, 2 * np.pi)
        turns = rng.normal(0, 0.35, n_points).cumsum() + heading
        dx = np.cos(turns) * step
        dy = np.sin(turns) * step
        xs = c[0] + dx.cumsum() + rng.normal(0, step * 0.2, n_points)
        ys = c[1] + dy.cumsum() + rng.normal(0, step * 0.2, n_points)
    else:
        # Region blob: anisotropic Gaussian cloud.
        sx = span * rng.uniform(0.004, 0.05)
        sy = span * rng.uniform(0.004, 0.05)
        xs = rng.normal(c[0], sx, n_points)
        ys = rng.normal(c[1], sy, n_points)
    xs = _clip(xs, spec.bbox.x0, spec.bbox.x1)
    ys = _clip(ys, spec.bbox.y0, spec.bbox.y1)
    return np.stack([xs, ys], axis=1)


def generate_source_pdf(
    spec: SourceSpec,
    *,
    scale: float = 0.01,
    seed: int = 7,
    source_index: int = 0,
    max_points_per_dataset: int = 400,
) -> pd.DataFrame:
    """One source as a pandas frame (source_id, dataset_id, x, y).

    ``dataset_id`` is globally unique across sources (prefixed with the
    source index) so the data center can aggregate without collisions.
    """
    n_datasets = max(10, int(round(spec.n_datasets * scale)))
    rng = np.random.default_rng([seed, source_index])
    centers = np.stack(
        [
            rng.uniform(spec.bbox.x0, spec.bbox.x1, spec.n_hotspots),
            rng.uniform(spec.bbox.y0, spec.bbox.y1, spec.n_hotspots),
        ],
        axis=1,
    )
    # Keep point counts proportional to Table I but capped for tractability.
    mean_pts = min(max(8, int(spec.mean_points * max(scale, 0.002) * 10)), max_points_per_dataset)
    frames = []
    for i in range(n_datasets):
        drng = np.random.default_rng([seed, source_index, i])
        n_pts = max(4, int(drng.lognormal(np.log(mean_pts), 0.5)))
        n_pts = min(n_pts, max_points_per_dataset)
        pts = _gen_dataset(drng, spec, centers, n_pts)
        frames.append(
            pd.DataFrame(
                {
                    "source_id": spec.name,
                    "dataset_id": source_index * 1_000_000 + i,
                    "x": pts[:, 0],
                    "y": pts[:, 1],
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def generate_corpus_pdf(
    *,
    scale: float = 0.01,
    seed: int = 7,
    specs: tuple[SourceSpec, ...] = SOURCE_SPECS,
    max_points_per_dataset: int = 400,
) -> pd.DataFrame:
    """All sources concatenated into one pandas frame."""
    return pd.concat(
        [
            generate_source_pdf(
                s,
                scale=scale,
                seed=seed,
                source_index=i,
                max_points_per_dataset=max_points_per_dataset,
            )
            for i, s in enumerate(specs)
        ],
        ignore_index=True,
    )


def pick_queries(points: pd.DataFrame, q: int, *, seed: int = 11) -> list[int]:
    """The paper's protocol: sample ``q`` corpus datasets as query datasets."""
    ids = np.sort(points["dataset_id"].unique())
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(ids, size=min(q, len(ids)), replace=False)]


def source_statistics(points: pd.DataFrame) -> pd.DataFrame:
    """Table I statistics of a generated corpus (per source)."""
    rows = []
    for sid, g in points.groupby("source_id", sort=True):
        rows.append(
            {
                "source": sid,
                "storage_mb": round(g.memory_usage(index=False, deep=False).sum() / 1e6, 3),
                "n_datasets": g["dataset_id"].nunique(),
                "n_points": len(g),
                "x_min": round(g["x"].min(), 3),
                "y_min": round(g["y"].min(), 3),
                "x_max": round(g["x"].max(), 3),
                "y_max": round(g["y"].max(), 3),
            }
        )
    return pd.DataFrame(rows)


#: Grid space used for all experiments: the globe, as in the paper's
#: resolution discussion ("divide the globe into a 2^12 x 2^12 grid").
SPACE = WORLD
