"""Strip integral bound, contour closure, edge decay, and the full verdict."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from apspec import (
    BudgetExceededError,
    EvaluationRangeError,
    FunctionSource,
    LadderSpec,
    PreconditionError,
    QuadratureSpec,
    TrigPolynomial,
    VerificationAborted,
    VerifyConfig,
    besicovitch_seminorm,
    box_average_abs,
    containment_verdict,
    contour_decomposition,
    eval_complex,
    eval_real,
    exact_type,
    generate_polynomial,
    spectrum_scan,
    strip_bound_constant,
    strip_integral_bound,
    top_edge_decay_check,
    verify_spectral_containment,
)
from apspec.meanvalue import SpectrumEntry, SpectrumReport, abs_grid_sum
from apspec.quadrature import BUDGET_ENV_VAR, symmetric_axes, tensor_sum
from apspec.verifier import _default_candidates, _horizontal_edges


def tensor_integral(fn, axes):
    """Midpoint-rule integral of fn over the box, walked node by node: the reference."""
    return tensor_sum(fn, axes) * math.prod((hi - lo) / n for (lo, hi, n) in axes)


def single_exp(lam):
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    p = TrigPolynomial(dim=lam.shape[0], freqs=lam[None, :],
                       coeffs=np.array([1.0 + 0j]))
    return FunctionSource.from_poly(p)


TWO_TERM = FunctionSource.from_poly(TrigPolynomial(
    dim=1, freqs=np.array([[1.8], [2.0]]), coeffs=np.array([0.6 + 0j, 0.7 + 0j])))


class TestStripBoundConstant:
    def test_values(self):
        assert strip_bound_constant(1, 1.0) == pytest.approx(28.0)
        assert strip_bound_constant(3, 0.0) == pytest.approx(16.0)
        assert strip_bound_constant(2, 0.5) == pytest.approx(8.0 * (1.0 + 9.0))


class TestStripIntegralBound:
    def test_constant_closed_form(self):
        q = QuadratureSpec(half_width=50.0, points_per_axis=65536)
        r = strip_integral_bound(FunctionSource.constant(1.0), sigma=0.0, s=0.5,
                                 quad=q, norm_value=1.0, min_half_width=50.0)
        assert r.lhs == pytest.approx(100.0, abs=1e-8)
        assert r.bound_constant == pytest.approx(28.0)
        assert r.rhs == pytest.approx(1400.0)
        assert r.passed

    def test_single_exponential_closed_form(self):
        q = QuadratureSpec(half_width=50.0, points_per_axis=65536)
        for s in (0.25, 0.5, 1.0):
            r = strip_integral_bound(single_exp([1.0]), sigma=1.0, s=s, quad=q,
                                     norm_value=1.0, min_half_width=50.0)
            assert r.lhs == pytest.approx(100.0 * math.exp(-2.0 * s), abs=1e-8)
            assert r.passed

    def test_ladder_norm_route_passes_on_random_polynomials(self):
        npts = {1: 16384, 2: 512, 3: 96}
        for i in range(6):
            dim = 1 + i % 3
            p = generate_polynomial(seed=7000 + i, dim=dim, n_terms=min(5, 2 + i % 4),
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            import apspec
            sigma = apspec.exact_type(p)
            q = QuadratureSpec(half_width=50.0, points_per_axis=npts[dim])
            r = strip_integral_bound(f, sigma=sigma, s=0.5, quad=q, min_half_width=50.0)
            assert r.passed
            assert r.norm_estimate > 0.1  # amplitudes start at 0.1

    def test_polynomial_walk_matches_pointwise_walk(self):
        # the table-and-matmul kernel (every dimension; one variable is split
        # into coarse x fine nodes) against |f| evaluated node by node
        npts = {1: 4096, 2: 256, 3: 48}
        for i in range(6):
            dim = 1 + i % 3
            p = generate_polynomial(seed=7000 + i, dim=dim, n_terms=2 + i % 4,
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            sigma = exact_type(p)
            T = 50.0
            q = QuadratureSpec(half_width=T, points_per_axis=npts[dim])
            axes = [(-T, T, npts[dim])] * dim
            for s in (0.25, 1.0):
                r = strip_integral_bound(f, sigma=sigma, s=s, quad=q, norm_value=1.0,
                                         min_half_width=50.0)
                shift = np.zeros(dim)
                shift[0] = s
                ref = tensor_integral(lambda c: np.abs(eval_complex(f, c + 1j * shift)),
                                      axes) * math.exp(-s * sigma)
                envelope = (2.0 * T) ** dim * float(np.sum(
                    np.abs(p.coeffs) * np.exp(-s * p.freqs[:, 0]))) * math.exp(-s * sigma)
                assert abs(r.lhs - ref) <= 1e-13 * envelope

    @pytest.mark.parametrize("dim,points,T", [(1, 100003, 50.0), (1, 17, 400.0), (2, 300, 137.0),
                                              (3, 41, 50.0)])
    def test_sinc_factor_sums_match_pointwise_walk(self, dim, points, T):
        # |A| prod_j sum_i |sinc(a x_ji)|, with x_1 + is in the first factor,
        # against |f(x1 + is, x')| node by node (the walk this route
        # replaced).  Bound fixed beforehand: 4 eps C (p + 1 + Phi + log2 N)
        # per node, C = |A| cosh(a s) and Phi = |a| p T
        for scale, amplitude, s in ((0.8, 1.5, 0.5), (2.3, 0.7 - 0.4j, 0.25), (0.5, 1.0, 1.0)):
            f = FunctionSource.sinc_product(dim, scale=scale, amplitude=amplitude)
            q = QuadratureSpec(half_width=T, points_per_axis=points)
            r = strip_integral_bound(f, sigma=0.3, s=s, quad=q, norm_value=1.0,
                                     min_half_width=50.0)
            shift = np.zeros(dim)
            shift[0] = s
            ref = tensor_integral(lambda c: np.abs(eval_complex(f, c + 1j * shift)),
                                  symmetric_axes(T, points, dim)) * math.exp(-0.3 * s)
            bound = 4 * np.finfo(float).eps * abs(amplitude) * math.cosh(scale * s) * (
                dim + 1 + scale * dim * T + math.log2(points ** dim)) * (2 * T) ** dim
            assert abs(r.lhs - ref) <= bound

    @pytest.mark.parametrize("dim,points", [(1, 65536), (1, 10 ** 6), (2, 512), (3, 96)])
    def test_polynomial_walk_memory_below_one_block(self, dim, points):
        # scratch buffers made once per call: one block of float magnitudes
        # (512 KB), products of whole-row groups of about a quarter block,
        # and the per-axis tables.  Block-sized complex products peaked at
        # 2.1-2.8 MB here, block-sized temporaries near 13 MB
        p = generate_polynomial(seed=11, dim=dim, n_terms=5, radius=2.0,
                                min_gap=0.5)
        tracemalloc.start()
        try:
            abs_grid_sum(FunctionSource.from_poly(p), [symmetric_axes(50.0, points, dim)], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dim,points", [(1, 10 ** 12), (2, 60000), (2, 10 ** 6),
                                            (3, 64)])
    def test_point_budget_checked_before_any_allocation(self, monkeypatch, dim, points):
        # the strip, the box mean and the seminorm ladder check the full grid
        # against the budget before any table is built; 10**12 and 10**6 per
        # axis would exhaust memory if a walk allocated before the check
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        p = generate_polynomial(seed=7100 + dim, dim=dim, n_terms=3, radius=2.0,
                                min_gap=0.5)
        q = QuadratureSpec(half_width=50.0, points_per_axis=points)
        for f in (FunctionSource.from_poly(p), FunctionSource.sinc_product(dim, scale=0.8)):
            with pytest.raises(BudgetExceededError):
                strip_integral_bound(f, sigma=exact_type(p), s=0.5,
                                     quad=q, norm_value=1.0, min_half_width=50.0)
            with pytest.raises(BudgetExceededError):
                box_average_abs(f, q)
            with pytest.raises(BudgetExceededError):
                besicovitch_seminorm(f, LadderSpec(), q)

    def test_exp_guard_on_shift(self):
        q = QuadratureSpec(half_width=50.0, points_per_axis=64)
        with pytest.raises(EvaluationRangeError):
            strip_integral_bound(single_exp([701.0, 0.0]), sigma=701.0, s=1.0, quad=q,
                                 norm_value=1.0, min_half_width=50.0)
        with pytest.raises(EvaluationRangeError):
            strip_integral_bound(FunctionSource.sinc_product(2, scale=701.0), sigma=0.0, s=1.0,
                                 quad=q, norm_value=1.0, min_half_width=50.0)

    def test_half_width_below_threshold_rejected(self):
        q = QuadratureSpec(half_width=50.0, points_per_axis=128)
        with pytest.raises(PreconditionError):
            strip_integral_bound(FunctionSource.constant(1.0), sigma=0.0, s=1.0, quad=q)

    def test_shift_outside_range_rejected(self):
        q = QuadratureSpec(half_width=100.0, points_per_axis=128)
        with pytest.raises(PreconditionError):
            strip_integral_bound(FunctionSource.constant(1.0), sigma=0.0, s=1.5,
                                 quad=q, s_max=1.0)

    def test_negative_sigma_rejected(self):
        q = QuadratureSpec(half_width=100.0, points_per_axis=128)
        with pytest.raises(PreconditionError):
            strip_integral_bound(FunctionSource.constant(1.0), sigma=-1.0, s=0.5, quad=q)

    def test_as_check_carries_verdict(self):
        q = QuadratureSpec(half_width=50.0, points_per_axis=1024)
        r = strip_integral_bound(FunctionSource.constant(1.0), sigma=0.0, s=0.5,
                                 quad=q, norm_value=1.0, min_half_width=50.0)
        c = r.as_check()
        assert c.passed == r.passed
        assert c.lhs == r.lhs


class TestContourDecomposition:
    def test_constant_pieces_match_closed_forms(self):
        f = FunctionSource.constant(1.0)
        T, omega, y1 = 4.0, 0.5, 1.0
        q = QuadratureSpec(half_width=T, points_per_axis=16384)
        d = contour_decomposition(f, sigma=0.0, eta=omega, half_width=T, y1=y1, quad=q)
        i0 = 2 * math.sin(T * omega) / omega
        S = (1 - math.exp(-omega * y1)) / omega
        assert d.real_axis == pytest.approx(i0, abs=1e-7)
        assert d.top_edge == pytest.approx(math.exp(-omega * y1) * i0, abs=1e-7)
        assert d.left_edge == pytest.approx(1j * np.exp(-1j * omega * T) * S, abs=1e-7)
        assert d.right_edge == pytest.approx(1j * np.exp(1j * omega * T) * S, abs=1e-7)
        assert d.closure_gap <= 1e-7

    def test_zero_height_collapses_exactly(self):
        f = FunctionSource.constant(1.0)
        q = QuadratureSpec(half_width=4.0, points_per_axis=4096)
        d = contour_decomposition(f, sigma=0.0, eta=0.5, half_width=4.0, y1=0.0, quad=q)
        assert d.left_edge == 0.0
        assert d.right_edge == 0.0
        assert d.closure_gap == 0.0

    def test_gap_shrinks_at_second_order(self):
        T_by_dim = {1: 4.0, 2: 3.0, 3: 2.0}
        for i in range(3):
            dim = 1 + i
            p = generate_polynomial(seed=4200 + i, dim=dim, n_terms=min(5, 2 + i % 4),
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            import apspec
            sigma = apspec.exact_type(p)
            T = T_by_dim[dim]
            gaps = []
            for n in (4096, 8192, 16384):
                q = QuadratureSpec(half_width=T, points_per_axis=n)
                d = contour_decomposition(f, sigma=sigma, eta=0.5, half_width=T,
                                          y1=1.0, quad=q, side_points=n // 2,
                                          rest_points=4)
                gaps.append(d.closure_gap)
            order = math.log(gaps[0] / gaps[2]) / math.log(4.0)
            assert order >= 1.8

    def test_parameter_validation(self):
        f = FunctionSource.constant(1.0)
        q = QuadratureSpec(half_width=4.0, points_per_axis=64)
        with pytest.raises(PreconditionError):
            contour_decomposition(f, sigma=0.0, eta=0.0, half_width=4.0, y1=1.0, quad=q)
        with pytest.raises(PreconditionError):
            contour_decomposition(f, sigma=0.0, eta=0.5, half_width=4.0, y1=-1.0, quad=q)
        with pytest.raises(PreconditionError):
            contour_decomposition(f, sigma=-2.0, eta=0.5, half_width=4.0, y1=1.0, quad=q)


def reference_edges(source, omega, half_width, y1, x1_points, rest_points, magnitude=False):
    """Bottom and top edge by one grid walk each, evaluating f pointwise.

    With magnitude, each walk sums the integrand's modulus instead: the
    edge's l1 envelope.
    """
    axes = ([(-half_width, half_width, x1_points)]
            + [(-half_width, half_width, rest_points)] * (source.dim - 1))
    form = np.abs if magnitude else np.asarray

    def fn_bottom(coords):
        return form(eval_real(source, coords) * np.exp(1j * omega * coords[:, 0]))

    def fn_top(coords):
        z = coords.astype(np.complex128)
        z[:, 0] = z[:, 0] + 1j * y1
        return form(eval_complex(source, z) * np.exp(1j * omega * coords[:, 0]))

    bottom = tensor_integral(fn_bottom, axes)
    top = tensor_integral(fn_top, axes) * math.exp(-omega * y1)
    return complex(bottom), complex(top)


def edge_envelope(poly, omega, half_width, y1):
    """l1 term envelope (2T)^p sum_m |c_m| e^{-(lam_m1 + omega) y1} of an edge."""
    rates = poly.freqs[:, 0] + omega
    return (2.0 * half_width) ** poly.dim * float(
        np.sum(np.abs(poly.coeffs) * np.exp(-rates * y1)))


class TestHorizontalEdges:
    # one grid walk serves every height; the pointwise walk is the reference
    HEIGHTS = (0.0, 1.0, 2.0, 2.0, 4.0, 8.0)
    T_BY_DIM = {1: 4.0, 2: 3.0, 3: 2.0}
    REL_TOL = 1e-13

    def _cases(self):
        for i in range(6):
            dim = 1 + i % 3
            p = generate_polynomial(seed=7100 + i, dim=dim, n_terms=2 + i % 4,
                                    radius=2.0, min_gap=0.5)
            yield FunctionSource.from_poly(p), self.T_BY_DIM[dim]

    def test_grouped_heights_match_pointwise_walk(self):
        for f, T in self._cases():
            sigma, eta = exact_type(f.poly), 0.5
            omega = sigma + eta
            rest = 8 if f.dim > 1 else 1
            edges = _horizontal_edges(f, omega, T, self.HEIGHTS, 512, rest)
            assert edges.shape == (len(self.HEIGHTS),)
            for y1, edge in zip(self.HEIGHTS, edges):
                _, ref = reference_edges(f, omega, T, y1, 512, rest)
                assert abs(edge - ref) <= self.REL_TOL * edge_envelope(f.poly, omega, T, y1)
            assert edges[2] == edges[3]

    def test_decay_check_magnitudes_match_pointwise_walk(self):
        for f, T in self._cases():
            sigma, eta = exact_type(f.poly), 0.5
            omega = sigma + eta
            rest = 8 if f.dim > 1 else 1
            q = QuadratureSpec(half_width=T, points_per_axis=512)
            checks = top_edge_decay_check(f, sigma=sigma, eta=eta, half_width=T,
                                          y1_values=self.HEIGHTS, quad=q,
                                          rest_points=rest, norm_value=1.0)
            decay = [c for c in checks if c.context.startswith("top_edge_decay ")]
            assert len(decay) == len(self.HEIGHTS)
            for y1, c in zip(self.HEIGHTS, decay):
                _, ref = reference_edges(f, omega, T, y1, 512, rest)
                assert abs(c.lhs - abs(ref)) <= self.REL_TOL * edge_envelope(f.poly, omega, T, y1)

    def test_contour_bottom_and_top_match_pointwise_walk(self):
        for f, T in self._cases():
            sigma, eta, y1 = exact_type(f.poly), 0.5, 1.0
            omega = sigma + eta
            rest = 4 if f.dim > 1 else 1
            q = QuadratureSpec(half_width=T, points_per_axis=512)
            d = contour_decomposition(f, sigma=sigma, eta=eta, half_width=T, y1=y1,
                                      quad=q, side_points=256, rest_points=rest)
            bottom, top = reference_edges(f, omega, T, y1, 512, rest)
            assert abs(d.real_axis - bottom) <= self.REL_TOL * edge_envelope(f.poly, omega, T, 0.0)
            assert abs(d.top_edge - top) <= self.REL_TOL * edge_envelope(f.poly, omega, T, y1)

    @pytest.mark.parametrize("lam", [[-100.0], [90.0, 0.5]])
    def test_exponent_guard_still_fires(self, lam):
        # y1 * |lam_1| = 800 or 720 passes the exp() guard of 700
        f = single_exp(lam)
        q = QuadratureSpec(half_width=4.0, points_per_axis=64)
        sigma = float(np.linalg.norm(lam))
        with pytest.raises(EvaluationRangeError):
            top_edge_decay_check(f, sigma=sigma, eta=0.5, half_width=4.0,
                                 y1_values=(1.0, 8.0), quad=q, rest_points=4,
                                 norm_value=1.0)
        with pytest.raises(EvaluationRangeError):
            contour_decomposition(f, sigma=sigma, eta=0.5, half_width=4.0, y1=8.0,
                                  quad=q, side_points=64, rest_points=4)


def reference_side(source, omega, half_width, y1, side_points, rest_points, edge_sign,
                   magnitude=False):
    """One vertical edge of the contour by a grid walk evaluating f pointwise.

    With magnitude, the walk sums the integrand's modulus: the l1 envelope.
    """
    axes = ([(0.0, y1, side_points)]
            + [(-half_width, half_width, rest_points)] * (source.dim - 1))
    x1 = edge_sign * half_width
    form = np.abs if magnitude else np.asarray

    def fn(coords):
        z = coords.astype(np.complex128)
        z[:, 0] = x1 + 1j * coords[:, 0]
        return form(eval_complex(source, z) * np.exp(1j * omega * z[:, 0]))

    return complex(1j * tensor_integral(fn, axes))


def side_envelope(poly, omega, half_width, y1):
    """l1 term envelope (2T)^{p-1} sum_m |c_m| (1 - e^{-r_m y1}) / r_m, r_m = lam_m1 + omega."""
    rates = poly.freqs[:, 0] + omega
    return (2.0 * half_width) ** (poly.dim - 1) * float(
        np.sum(np.abs(poly.coeffs) * -np.expm1(-rates * y1) / rates))


class TestSideEdges:
    # per-term axis sums against the pointwise walk of each vertical edge
    T_BY_DIM = {1: 4.0, 2: 3.0, 3: 2.0}
    REL_TOL = 1e-13

    @pytest.mark.parametrize("y1", [0.5, 1.0, 4.0])
    def test_side_edges_match_pointwise_walk(self, y1):
        for i in range(6):
            dim = 1 + i % 3
            p = generate_polynomial(seed=7300 + i, dim=dim, n_terms=2 + i % 4,
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            T = self.T_BY_DIM[dim]
            sigma, eta = exact_type(p), 0.5
            omega = sigma + eta
            rest = 8 if dim > 1 else 1
            q = QuadratureSpec(half_width=T, points_per_axis=256)
            d = contour_decomposition(f, sigma=sigma, eta=eta, half_width=T, y1=y1,
                                      quad=q, side_points=256, rest_points=rest)
            envelope = side_envelope(p, omega, T, y1)
            for edge, sign in ((d.left_edge, -1.0), (d.right_edge, +1.0)):
                ref = reference_side(f, omega, T, y1, 256, rest, sign)
                assert abs(edge - ref) <= self.REL_TOL * envelope

    def test_point_budget_covers_full_edge_grid(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        p = generate_polynomial(seed=7400, dim=3, n_terms=3, radius=2.0, min_gap=0.5)
        f = FunctionSource.from_poly(p)
        sigma = exact_type(p)
        q = QuadratureSpec(half_width=4.0, points_per_axis=1024)
        with pytest.raises(BudgetExceededError):
            top_edge_decay_check(f, sigma=sigma, eta=0.5, half_width=4.0,
                                 y1_values=(1.0, 2.0), quad=q, rest_points=16,
                                 norm_value=1.0)
        with pytest.raises(BudgetExceededError):
            contour_decomposition(f, sigma=sigma, eta=0.5, half_width=4.0, y1=1.0, quad=q,
                                  side_points=2048, rest_points=16)
        # bottom and top fit (8 x 8 x 8); every side axis fits, the 16 x 8 x 8
        # side grid does not
        q = QuadratureSpec(half_width=4.0, points_per_axis=8)
        with pytest.raises(BudgetExceededError):
            contour_decomposition(f, sigma=sigma, eta=0.5, half_width=4.0, y1=1.0, quad=q,
                                  side_points=16, rest_points=8)


class TestSincEdges:
    # a sinc product's edges are products of per-axis line sums; the
    # pointwise walk of the whole edge grid is the reference.  Bound fixed
    # beforehand: 1e-13 of the edge's l1 envelope, int |integrand| node by
    # node (the two differ in summation order and in the order of the
    # per-axis factors)
    T_BY_DIM = {1: 4.0, 2: 3.0, 3: 2.0}
    HEIGHTS = (0.0, 1.0, 2.0, 2.0, 4.0)
    REL_TOL = 1e-13

    # (x1 nodes, side nodes, rest nodes): even counts keep every node off
    # x = 0; odd ones put a node on the removable point of each sinc factor
    GRIDS = [(512, 256, 8), (17, 9, 5)]

    @pytest.mark.parametrize("x1_points,side_points,rest_points", GRIDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("y1", [0.5, 2.0])
    def test_edges_match_pointwise_walk(self, dim, y1, x1_points, side_points, rest_points):
        T = self.T_BY_DIM[dim]
        rest = rest_points if dim > 1 else 1
        for scale, amplitude, sigma in ((0.5, 1.0, 1.2), (1.7, 0.6 - 0.8j, 0.3)):
            f = FunctionSource.sinc_product(dim, scale=scale, amplitude=amplitude)
            eta = 0.5
            omega = sigma + eta
            q = QuadratureSpec(half_width=T, points_per_axis=x1_points)
            d = contour_decomposition(f, sigma=sigma, eta=eta, half_width=T, y1=y1,
                                      quad=q, side_points=side_points, rest_points=rest)
            bottom, top = reference_edges(f, omega, T, y1, x1_points, rest)
            l1_bottom, l1_top = reference_edges(f, omega, T, y1, x1_points, rest, magnitude=True)
            assert abs(d.real_axis - bottom) <= self.REL_TOL * abs(l1_bottom)
            assert abs(d.top_edge - top) <= self.REL_TOL * abs(l1_top)
            for edge, sign in ((d.left_edge, -1.0), (d.right_edge, +1.0)):
                ref = reference_side(f, omega, T, y1, side_points, rest, sign)
                l1 = abs(reference_side(f, omega, T, y1, side_points, rest, sign,
                                        magnitude=True))
                assert abs(edge - ref) <= self.REL_TOL * l1

    @pytest.mark.parametrize("x1_points,side_points,rest_points", GRIDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_heights_match_pointwise_walk(self, dim, x1_points, side_points, rest_points):
        T = self.T_BY_DIM[dim]
        rest = rest_points if dim > 1 else 1
        f = FunctionSource.sinc_product(dim, scale=0.9, amplitude=1.5 + 0.5j)
        omega = 1.4
        edges = _horizontal_edges(f, omega, T, self.HEIGHTS, x1_points, rest)
        for y1, edge in zip(self.HEIGHTS, edges):
            _, ref = reference_edges(f, omega, T, y1, x1_points, rest)
            _, l1 = reference_edges(f, omega, T, y1, x1_points, rest, magnitude=True)
            assert abs(edge - ref) <= self.REL_TOL * abs(l1)
        assert edges[2] == edges[3]

    def test_height_past_guard_raises(self):
        # scale * y1 = 800 passes the exp() guard of 700
        f = FunctionSource.sinc_product(2, scale=100.0)
        q = QuadratureSpec(half_width=4.0, points_per_axis=64)
        with pytest.raises(EvaluationRangeError):
            top_edge_decay_check(f, sigma=150.0, eta=0.5, half_width=4.0,
                                 y1_values=(1.0, 8.0), quad=q, rest_points=4,
                                 norm_value=1.0)
        with pytest.raises(EvaluationRangeError):
            contour_decomposition(f, sigma=150.0, eta=0.5, half_width=4.0, y1=8.0,
                                  quad=q, side_points=64, rest_points=4)


class TestEdgeMemory:
    # edges are one-axis line sums, so no buffer grows with the edge grid:
    # 4096 x 64 x 64 (16.8 million nodes) and a 2^20-node line.  Bound fixed
    # beforehand at 8 MB, the sinc scan's
    @pytest.mark.parametrize("kind", ["poly", "sinc"])
    @pytest.mark.parametrize("dim,points,rest", [(3, 4096, 64), (1, 1 << 20, 1)])
    def test_contour_and_top_edge_memory(self, kind, dim, points, rest):
        if kind == "poly":
            p = generate_polynomial(seed=11, dim=dim, n_terms=5, radius=2.0, min_gap=0.5)
            f, sigma = FunctionSource.from_poly(p), exact_type(p)
        else:
            f = FunctionSource.sinc_product(dim, scale=0.8, amplitude=1.5)
            sigma = 0.8 * math.sqrt(dim)
        q = QuadratureSpec(half_width=50.0, points_per_axis=points)
        tracemalloc.start()
        try:
            contour_decomposition(f, sigma=sigma, eta=0.5, half_width=50.0, y1=1.0, quad=q,
                                  side_points=points, rest_points=rest)
            top_edge_decay_check(f, sigma=sigma, eta=0.5, half_width=50.0,
                                 y1_values=(1.0, 2.0, 4.0, 8.0), quad=q, rest_points=rest,
                                 norm_value=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20



class TestTopEdgeDecay:
    def test_single_exponential_bounds_and_ratios(self):
        f = single_exp([0.3])
        q = QuadratureSpec(half_width=4.0, points_per_axis=1024)
        checks = top_edge_decay_check(f, sigma=0.3, eta=0.5, half_width=4.0,
                                      y1_values=(1.0, 2.0, 4.0, 8.0), quad=q,
                                      norm_value=1.0)
        assert all(c.passed for c in checks)
        contexts = [c.context for c in checks]
        assert sum(c.startswith("top_edge_decay") for c in contexts) == 4
        assert sum(c.startswith("top_edge_ratio") for c in contexts) == 3

    def test_cancellation_dominated_heights_skip_ratio_checks(self):
        # seed 7009 sits below 2% of its term envelope at every height
        p = generate_polynomial(seed=7009, dim=1, n_terms=3, radius=2.0, min_gap=0.5)
        f = FunctionSource.from_poly(p)
        import apspec
        q = QuadratureSpec(half_width=4.0, points_per_axis=1024)
        checks = top_edge_decay_check(f, sigma=apspec.exact_type(p), eta=0.5,
                                      half_width=4.0, y1_values=(1.0, 2.0, 4.0, 8.0),
                                      quad=q, norm_value=1.0)
        assert all(c.passed for c in checks)
        assert not any(c.context.startswith("top_edge_ratio") for c in checks)

    def test_eta_must_be_positive(self):
        with pytest.raises(PreconditionError):
            top_edge_decay_check(FunctionSource.constant(1.0), sigma=0.0, eta=0.0,
                                 half_width=4.0, y1_values=(1.0,),
                                 quad=QuadratureSpec(half_width=4.0, points_per_axis=64))

    @pytest.mark.parametrize("kwargs, message", [
        ({"sigma": -1.0, "y1_values": (1.0,)}, "sigma must be >= 0"),
        ({"sigma": 0.0, "y1_values": ()}, "at least one height"),
        ({"sigma": 0.0, "y1_values": (-1.0, 1.0)}, "nonnegative"),
    ])
    def test_parameter_validation(self, kwargs, message):
        with pytest.raises(PreconditionError, match=message):
            top_edge_decay_check(FunctionSource.constant(1.0), eta=0.5, half_width=4.0,
                                 quad=QuadratureSpec(half_width=4.0, points_per_axis=64),
                                 norm_value=1.0, **kwargs)


class TestContainmentVerdict:
    def _report(self, entries):
        return SpectrumReport(dim=1, entries=tuple(entries), threshold=0.05,
                              floor=0.01, quadrature=QuadratureSpec(half_width=200.0,
                                                                    points_per_axis=64),
                              method="closed_form")

    def test_empty_spectrum_is_contained(self):
        ok, worst = containment_verdict(self._report([]), sigma_hat=1.0, tol=0.1)
        assert ok
        assert worst == float("-inf")

    def test_synthetic_violation_detected(self):
        sigma_hat, tol = 1.5, 0.1
        inside = SpectrumEntry(frequency=np.array([1.0]), coefficient=1.0, magnitude=1.0)
        injected = SpectrumEntry(frequency=np.array([sigma_hat + 1.0]),
                                 coefficient=0.5, magnitude=0.5)
        ok, worst = containment_verdict(self._report([inside, injected]), sigma_hat, tol)
        assert not ok
        assert worst == pytest.approx(1.0 - tol, abs=1e-12)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(PreconditionError):
            containment_verdict(self._report([]), sigma_hat=1.0, tol=-0.1)


class TestDefaultCandidates:
    def test_polynomial_candidates_include_frequencies_and_decoys(self):
        p = generate_polynomial(seed=7001, dim=2, n_terms=3, radius=2.0, min_gap=0.5)
        cands = _default_candidates(FunctionSource.from_poly(p), sigma=2.0)
        assert cands.shape == (3 + 8, 2)
        radii = np.linalg.norm(cands[3:], axis=1)
        assert np.min(radii) == pytest.approx(3.0)


class TestVerifyConfig:
    @pytest.mark.parametrize("name", ["strip_s", "strip_half_widths", "y1_values"])
    def test_empty_ladders_rejected(self, name):
        with pytest.raises(PreconditionError, match=name):
            VerifyConfig(tol=0.1, **{name: ()})

    def test_takes_no_summation_policy(self):
        # compensated summation is the one policy; no config field selects it
        assert "summation" not in {f.name for f in dataclasses.fields(VerifyConfig)}
        with pytest.raises(TypeError):
            VerifyConfig(tol=0.1, summation="naive")


class TestVerify:
    def test_two_term_fixture_contained_at_recommended_tolerance(self):
        report = verify_spectral_containment(TWO_TERM, VerifyConfig(tol=0.1))
        assert report.containment
        assert report.all_passed()
        assert report.sigma_known == pytest.approx(2.0)
        assert len(report.spectrum.entries) == 2
        assert report.strip_results and report.decay_checks

    def test_two_term_fixture_fails_under_starved_tolerance(self):
        # the growth fit lands at 1.99964; a 1e-6 slack exposes the bias
        report = verify_spectral_containment(TWO_TERM, VerifyConfig(tol=1e-6))
        assert not report.containment
        assert report.max_violation == pytest.approx(3.541e-4, rel=0.05)

    def test_abort_carries_stage_and_partial_results(self):
        p = TrigPolynomial(dim=1, freqs=np.array([[1.0], [1.15]]),
                           coeffs=np.array([1.0 + 0j, 1.0 + 0j]))
        f = FunctionSource.from_poly(p)
        with pytest.raises(VerificationAborted) as exc_info:
            verify_spectral_containment(f, VerifyConfig(tol=0.1, threshold=0.05))
        err = exc_info.value
        assert err.stage == "spectrum_scan"
        assert "type_estimate" in err.partial

    def test_constant_source(self):
        report = verify_spectral_containment(FunctionSource.constant(1.0),
                                             VerifyConfig(tol=0.1))
        assert report.containment
        assert report.type_estimate.sigma_hat == pytest.approx(0.0, abs=1e-9)
        assert len(report.spectrum.entries) == 1
        assert np.allclose(report.spectrum.entries[0].frequency, 0.0)
