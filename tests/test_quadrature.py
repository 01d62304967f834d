"""Midpoint grids, compensated summation, and the evaluation budget."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec import BudgetExceededError, LadderSpec, PreconditionError, QuadratureSpec
from apspec.quadrature import (
    BUDGET_ENV_VAR,
    COMPENSATED,
    KahanAccumulator,
    REDUCE_BLOCK,
    check_budget,
    default_points_per_axis,
    exp_axis_sums,
    full_grid,
    grid_points,
    index_sum,
    midpoint_nodes,
    point_budget,
    reduce_in_blocks,
    split_axis,
    symmetric_axes,
    tensor_integral,
    tensor_mean,
    tensor_sum,
)


class TestSpecs:
    def test_quadrature_spec_validation(self):
        with pytest.raises(PreconditionError):
            QuadratureSpec(half_width=0.0, points_per_axis=10)
        with pytest.raises(PreconditionError):
            QuadratureSpec(half_width=1.0, points_per_axis=1)
        with pytest.raises(PreconditionError):
            QuadratureSpec(half_width=1.0, points_per_axis=10, summation="magic")

    def test_ladder_doubles_half_widths(self):
        lad = LadderSpec(base=50.0, levels=4, tail_levels=2)
        assert list(lad.half_widths()) == [50.0, 100.0, 200.0, 400.0]

    def test_ladder_validation(self):
        with pytest.raises(PreconditionError):
            LadderSpec(base=50.0, levels=2, tail_levels=3)


class TestMidpointNodes:
    def test_centers_of_equal_cells(self):
        nodes = midpoint_nodes(0.0, 1.0, 4)
        assert np.allclose(nodes, [0.125, 0.375, 0.625, 0.875])

    def test_symmetric_axes_are_symmetric(self):
        (lo, hi, n), = symmetric_axes(3.0, 8, 1)
        nodes = midpoint_nodes(lo, hi, n)
        assert np.allclose(nodes, -nodes[::-1])


class TestSummation:
    def test_kahan_matches_fsum_on_adversarial_input(self):
        vals = [1e16, 1.0, -1e16, 1.0] * 100
        acc = KahanAccumulator()
        for v in vals:
            acc.add(v)
        assert acc.total == pytest.approx(math.fsum(vals), abs=1e-9)

    def test_reduce_in_blocks_compensated(self):
        parts = np.array([1e16, 1.0, -1e16, 1.0])
        assert reduce_in_blocks(parts, "compensated") == pytest.approx(2.0)

    def test_reduce_in_blocks_plain(self):
        parts = np.arange(10.0)
        assert reduce_in_blocks(parts, COMPENSATED) == pytest.approx(45.0)

    def test_unknown_summation_name_rejected(self):
        axes = [(-1.0, 1.0, 8)]
        ones = lambda c: np.ones(c.shape[0])
        with pytest.raises(PreconditionError, match="plain"):
            reduce_in_blocks(np.arange(10.0), "plain")
        with pytest.raises(PreconditionError, match="plain"):
            index_sum(lambda start, stop: np.ones(stop - start), 8, "plain")
        for walk in (tensor_sum, tensor_mean, tensor_integral):
            with pytest.raises(PreconditionError, match="plain"):
                walk(ones, axes, "plain")


class TestTensorRoutines:
    def test_mean_of_constant_is_exact(self):
        axes = [(-2.0, 2.0, 64), (-2.0, 2.0, 32)]
        out = tensor_mean(lambda c: np.ones(c.shape[0]), axes, "compensated")
        assert out == 1.0

    def test_integral_of_constant_is_volume(self):
        axes = [(-2.0, 2.0, 16), (-1.0, 1.0, 16)]
        out = tensor_integral(lambda c: np.ones(c.shape[0]), axes, "compensated")
        assert out == pytest.approx(8.0, rel=1e-14)

    def test_sum_counts_points(self):
        axes = [(-1.0, 1.0, 8), (-1.0, 1.0, 4)]
        out = tensor_sum(lambda c: np.ones(c.shape[0]), axes, "compensated")
        assert out == pytest.approx(32.0)

    @given(st.floats(min_value=0.1, max_value=3.0), st.integers(min_value=8, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_midpoint_exponential_closed_form(self, mu, n):
        # the midpoint mean of e^{i mu x} over [-T, T] telescopes exactly
        T = 5.0
        axes = [(-T, T, n)]
        out = tensor_mean(lambda c: np.exp(1j * mu * c[:, 0]), axes, "compensated")
        expected = math.sin(mu * T) / (n * math.sin(mu * T / n))
        assert out == pytest.approx(expected, abs=5e-13)

    @pytest.mark.parametrize("summation", ["compensated", "naive"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_vector_fn_matches_scalar_sums_bitwise(self, summation, complex_valued):
        freqs = np.array([[1.3, 0.2], [-0.7, 2.0], [0.0, 0.0], [5.1, -3.3]])

        def rows(c):
            phase = freqs @ c.T
            vals = np.exp(1j * phase) if complex_valued else np.cos(phase)
            # a large swing between blocks exercises the compensation
            vals[1] += 1e12 * np.sign(c[:, 0])
            return vals

        axes = [(-3.0, 3.0, 301), (-2.0, 2.0, 101)]  # 30401 nodes, 8 blocks
        vec = tensor_sum(rows, axes, summation, block=4096)
        assert vec.shape == (4,)
        for j in range(4):
            scalar = tensor_sum(lambda c: rows(c)[j], axes, summation, block=4096)
            assert vec[j].tobytes() == np.asarray(scalar).tobytes()

    @pytest.mark.parametrize("summation", ["compensated", "naive"])
    def test_index_walk_matches_coordinate_walk_bitwise(self, summation):
        axes = [(-3.0, 3.0, 301), (-2.0, 2.0, 101)]  # 30401 nodes, 8 blocks
        ns = [n for (_, _, n) in axes]
        nodes = [midpoint_nodes(lo, hi, n) for (lo, hi, n) in axes]

        def f(x, y):
            return np.exp(1j * (1.3 * x - 0.7 * y)) + 1e12 * np.sign(x)

        by_coords = tensor_sum(lambda c: f(c[:, 0], c[:, 1]), axes, summation, block=4096)

        def by_index(start, stop):
            i, j = np.unravel_index(np.arange(start, stop), ns)
            return f(nodes[0][i], nodes[1][j])

        by_idx = index_sum(by_index, grid_points(ns), summation, block=4096)
        assert np.asarray(by_idx).tobytes() == np.asarray(by_coords).tobytes()

    @pytest.mark.parametrize("total,block", [(1, 4096), (4096, 4096), (30401, 4096),
                                             (65537, REDUCE_BLOCK), (10, 3)])
    def test_index_sum_bounds_tile_the_indices(self, total, block):
        # fn sees consecutive [start, stop) bounds in block steps, the last
        # block partial when block does not divide total
        seen = []

        def fn(start, stop):
            seen.append((start, stop))
            return np.ones(stop - start)

        assert index_sum(fn, total, COMPENSATED, block) == total
        assert seen == [(s, min(s + block, total)) for s in range(0, total, block)]
        assert seen[-1][1] - seen[-1][0] == (total % block or block)

    def test_grid_points_rejects_empty_axis(self):
        with pytest.raises(PreconditionError):
            grid_points([4, 0])

    def test_full_grid_orders_first_axis_slowest(self):
        grid = full_grid([np.array([0.0, 1.0]), np.array([10.0, 20.0])])
        assert grid.shape == (4, 2)
        assert np.allclose(grid[0], [0.0, 10.0])
        assert np.allclose(grid[1], [0.0, 20.0])


class TestExpAxisSums:
    @pytest.mark.parametrize("summation", ["compensated", "naive"])
    @pytest.mark.parametrize("kind", ["imaginary", "real", "mixed"])
    @pytest.mark.parametrize("lo,hi", [(-50.0, 50.0), (0.0, 4.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17, 101, 65537, 100003])
    def test_matches_direct_sum_over_midpoints(self, n, lo, hi, kind, summation):
        # coarse x fine split against exp() at every midpoint.  3, 17, 101,
        # 65537 and 100003 leave a partial last row; the direct sums over
        # 65537 and 100003 nodes span two REDUCE_BLOCK blocks
        rng = np.random.default_rng(n)
        reach = max(abs(lo), abs(hi))
        a = np.zeros(7, dtype=np.complex128)
        if kind != "real":
            a[1:] += 1j * rng.uniform(-4.0, 4.0, 6)
        if kind != "imaginary":
            a[1:] += rng.uniform(-8.0, 8.0, 6) / reach
        nodes = midpoint_nodes(lo, hi, n)
        ref = index_sum(lambda start, stop: np.exp(np.outer(a, nodes[start:stop])), n, summation)
        got = exp_axis_sums(a, (lo, hi, n), summation)
        scale = np.sum(np.abs(np.exp(np.outer(a, nodes))), axis=1)
        assert got.shape == a.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
        assert got[0] == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17, 101, 65537])
    def test_split_axis_covers_the_midpoints(self, n):
        # every midpoint once, in order, in ceil(n / n_f) rows of n_f nodes
        cols, origins, offsets = split_axis((0.0, 4.0, n))
        assert cols == math.ceil(math.sqrt(n)) and offsets.size == cols
        assert origins.size == -(-n // cols)
        nodes = (origins[:, None] + offsets[None, :]).ravel()[:n]
        assert np.allclose(nodes, midpoint_nodes(0.0, 4.0, n), rtol=0, atol=1e-12)


class TestBudget:
    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert point_budget() == 10 ** 8

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        assert point_budget() == 1000
        with pytest.raises(BudgetExceededError):
            check_budget(10 ** 6)

    def test_tensor_sum_respects_budget(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        with pytest.raises(BudgetExceededError):
            tensor_sum(lambda c: np.ones(c.shape[0]), [(-1.0, 1.0, 64), (-1.0, 1.0, 64)],
                       "compensated")

    def test_malformed_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
        with pytest.raises(PreconditionError):
            point_budget()
        monkeypatch.setenv(BUDGET_ENV_VAR, "-3")
        with pytest.raises(PreconditionError):
            point_budget()


class TestDefaultPoints:
    def test_scales_down_with_dimension(self):
        assert default_points_per_axis(1) == 4096
        assert default_points_per_axis(2) == 64
        assert default_points_per_axis(3) == 16
