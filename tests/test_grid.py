"""z-order encoding and grid partitioning (paper Defs 4-5)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    WORLD,
    Bounds,
    cell_ids_np,
    cells_to_lonlat_center,
    grid_coords_np,
    z_decode_np,
    z_encode_np,
)


class TestZOrder:
    def test_paper_example2_origin(self):
        assert z_encode_np(np.array([0]), np.array([0]), 2)[0] == 0

    def test_paper_example2_d1(self):
        # Fig. 2: S_D1 = {9, 11} at coords (1,2) and (1,3).
        assert z_encode_np(np.array([1, 1]), np.array([2, 3]), 2).tolist() == [9, 11]

    def test_paper_example2_d2_d3(self):
        # S_D2 = {1, 3} at (1,0),(1,1); S_D3 = {12, 13} at (2,2),(3,2).
        assert z_encode_np(np.array([1, 1]), np.array([0, 1]), 2).tolist() == [1, 3]
        assert z_encode_np(np.array([2, 3]), np.array([2, 2]), 2).tolist() == [12, 13]

    @pytest.mark.parametrize("theta", [1, 2, 4, 8, 12, 14, 16])
    def test_round_trip_exhaustive_small_or_sampled(self, theta):
        n = 1 << theta
        if theta <= 4:
            X, Y = np.meshgrid(np.arange(n), np.arange(n))
            X, Y = X.ravel(), Y.ravel()
        else:
            g = np.random.default_rng(theta)
            X = g.integers(0, n, 500)
            Y = g.integers(0, n, 500)
        cells = z_encode_np(X, Y, theta)
        X2, Y2 = z_decode_np(cells, theta)
        assert np.array_equal(X, X2) and np.array_equal(Y, Y2)

    @pytest.mark.parametrize("theta", [2, 6, 12])
    def test_ids_in_range(self, theta):
        n = 1 << theta
        g = np.random.default_rng(0)
        cells = z_encode_np(g.integers(0, n, 1000), g.integers(0, n, 1000), theta)
        assert cells.min() >= 0
        assert cells.max() <= n * n - 1

    @given(
        x=st.integers(0, (1 << 14) - 1),
        y=st.integers(0, (1 << 14) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_is_bijective_theta14(self, x, y):
        c = z_encode_np(np.array([x]), np.array([y]), 14)
        X, Y = z_decode_np(c, 14)
        assert (X[0], Y[0]) == (x, y)

    def test_encode_distinct_coords_distinct_ids(self):
        n = 1 << 5
        X, Y = np.meshgrid(np.arange(n), np.arange(n))
        cells = z_encode_np(X.ravel(), Y.ravel(), 5)
        assert len(np.unique(cells)) == n * n


class TestBounds:
    def test_world_dimensions(self):
        assert WORLD.width == 360.0 and WORLD.height == 180.0

    @pytest.mark.parametrize("theta", [10, 12, 14])
    def test_cell_size(self, theta):
        nu, mu = WORLD.cell_size(theta)
        assert nu == pytest.approx(360.0 / (1 << theta))
        assert mu == pytest.approx(180.0 / (1 << theta))

    def test_paper_resolution_example(self):
        # Paper: a 2^12 grid over the globe -> cells ~10km x 5km
        nu, mu = WORLD.cell_size(12)
        km_x, km_y = nu * 111, mu * 111
        assert 8 < km_x < 11 and 4 < km_y < 6


class TestGridCoords:
    def test_corner_points(self):
        X, Y = grid_coords_np(
            np.array([-180.0, 180.0]), np.array([-90.0, 90.0]), WORLD, 4
        )
        assert X.tolist() == [0, 15] and Y.tolist() == [0, 15]

    def test_out_of_bounds_clipped(self):
        X, Y = grid_coords_np(np.array([-999.0, 999.0]), np.array([999.0, -999.0]), WORLD, 4)
        assert X.tolist() == [0, 15] and Y.tolist() == [15, 0]

    @pytest.mark.parametrize("theta", [4, 8, 12])
    def test_center_round_trip(self, theta):
        """cell -> center lon/lat -> cell must be the identity."""
        g = np.random.default_rng(theta)
        n = 1 << theta
        cells = np.unique(z_encode_np(g.integers(0, n, 300), g.integers(0, n, 300), theta))
        x, y = cells_to_lonlat_center(cells, WORLD, theta)
        again = cell_ids_np(x, y, WORLD, theta)
        assert np.array_equal(np.sort(again), cells)

    def test_nonsquare_bounds(self):
        b = Bounds(0.0, 0.0, 100.0, 1.0)
        cells = cell_ids_np(np.array([99.9]), np.array([0.99]), b, 3)
        X, Y = z_decode_np(cells, 3)
        assert X[0] == 7 and Y[0] == 7
