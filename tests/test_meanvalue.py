"""Box averages, the seminorm ladder, averaged coefficients, and spectra."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec import (
    BudgetExceededError,
    FunctionSource,
    LadderSpec,
    PreconditionError,
    QuadratureSpec,
    TrigPolynomial,
    besicovitch_seminorm,
    box_average_abs,
    crosstalk_floor,
    eval_complex,
    eval_real,
    fourier_coeff_closed_form,
    fourier_coeff_quadrature,
    generate_polynomial,
    rotation_invariance_check,
    spectrum_scan,
)
from apspec import meanvalue
from apspec.meanvalue import QUADRATURE_FIT_CONSTANT, quadrature_error_scale
from apspec.quadrature import (
    BUDGET_ENV_VAR,
    REDUCE_BLOCK,
    index_sum,
    midpoint_nodes,
    split_axis,
    symmetric_axes,
    tensor_sum,
)

TWO_OVER_PI = 2.0 / math.pi


def poly(dim, freqs, coeffs):
    return TrigPolynomial(dim=dim, freqs=np.asarray(freqs, dtype=np.float64),
                          coeffs=np.asarray(coeffs, dtype=np.complex128))


class TestBoxAverage:
    def test_abs_cosine_near_two_over_pi(self):
        # whole periods: T = 100 pi keeps the truncation error out of the way
        f = FunctionSource.cosine([1.0])
        q = QuadratureSpec(half_width=100 * math.pi, points_per_axis=100000)
        assert box_average_abs(f, q) == pytest.approx(TWO_OVER_PI, abs=1e-4)

    def test_unimodular_average_is_one(self):
        f = FunctionSource.from_poly(poly(1, [[math.sqrt(2)]], [1.0]))
        q = QuadratureSpec(half_width=50.0, points_per_axis=4096)
        assert box_average_abs(f, q) == pytest.approx(1.0, abs=1e-12)

    def test_zero_polynomial_average_is_zero(self):
        f = FunctionSource.from_poly(poly(1, [[1.0]], [0.0]))
        q = QuadratureSpec(half_width=50.0, points_per_axis=512)
        assert box_average_abs(f, q) == 0.0

    @pytest.mark.parametrize("dim,points", [(1, 4096), (1, 100003), (2, 300), (3, 41)])
    def test_polynomial_kernel_matches_pointwise_walk(self, dim, points):
        # per-axis tables and a matrix product against |f| evaluated node by
        # node on the same blocks.  100003 is prime, so its 317 x 317 coarse x
        # fine split is truncated; the 2-D 300 and 3-D 41 grids span two
        # blocks with a row straddling the block boundary
        for i, T in enumerate((50.0, 137.0, 400.0)):
            p = generate_polynomial(seed=8100 + 10 * dim + i, dim=dim, n_terms=1 + 2 * i,
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            q = QuadratureSpec(half_width=T, points_per_axis=points)
            ref = tensor_sum(lambda c: np.abs(eval_real(f, c)),
                             symmetric_axes(T, points, dim)) / points ** dim
            assert abs(box_average_abs(f, q) - ref) <= 1e-13 * p.coefficient_l1()

    @pytest.mark.parametrize("dim,points,T", [(1, 100003, 50.0), (1, 17, 400.0), (2, 300, 137.0),
                                              (2, 41, 400.0), (3, 41, 50.0)])
    def test_sinc_factor_sums_match_pointwise_walk(self, dim, points, T):
        # |A| prod_j sum_i |sinc(a x_i)| against |f| node by node (the walk
        # this route replaced); 17 and 41 nodes at T = 400 undersample and
        # put a node at x = 0.  Bound fixed beforehand: 4 eps |A| (p + 1 +
        # Phi + log2 N) with Phi = |a| p T, the addition formula's phase error
        for scale, amplitude in ((0.8, 1.5), (2.3, 0.7 - 0.4j)):
            f = FunctionSource.sinc_product(dim, scale=scale, amplitude=amplitude)
            q = QuadratureSpec(half_width=T, points_per_axis=points)
            ref = tensor_sum(lambda c: np.abs(eval_real(f, c)),
                             symmetric_axes(T, points, dim)) / points ** dim
            bound = 4 * np.finfo(float).eps * abs(amplitude) * (
                dim + 1 + scale * dim * T + math.log2(points ** dim))
            assert abs(box_average_abs(f, q) - ref) <= bound

    @pytest.mark.parametrize("dim,points", [(1, 10000), (2, 64)])
    def test_polynomial_kernel_rows_longer_than_block(self, monkeypatch, dim, points):
        # with a 50-node block the 100-node fine axis of 1-D 10000 and the
        # 64-node last axis of 2-D 64 are longer than a block, so each block
        # multiplies pieces of at most two rows; the reference walks the same
        # 50-node blocks
        monkeypatch.setattr(meanvalue, "REDUCE_BLOCK", 50)
        p = generate_polynomial(seed=8200 + dim, dim=dim, n_terms=4, radius=2.0,
                                min_gap=0.5)
        f = FunctionSource.from_poly(p)
        shift = np.zeros(dim)
        shift[0] = 0.5
        got = meanvalue.abs_grid_sum(f, [symmetric_axes(60.0, points, dim)], 0.5)[0]
        ref = tensor_sum(lambda c: np.abs(eval_complex(f, c + 1j * shift)),
                         symmetric_axes(60.0, points, dim), block=50)
        envelope = points ** dim * float(np.sum(np.abs(p.coeffs) * np.exp(-0.5 * p.freqs[:, 0])))
        assert abs(got - ref) <= 1e-13 * envelope

    @pytest.mark.parametrize("dim,points", [(1, 65536), (1, 98883), (2, 273), (2, 512),
                                            (3, 42), (3, 96)])
    def test_polynomial_kernel_row_groups_keep_the_bits(self, monkeypatch, dim, points):
        # the kernel multiplies groups of whole rows; any product of two or
        # more rows rounds each node as one Lead @ Last over the whole grid
        # does (a one-row product does not), so every block's magnitudes
        # equal that product's, bit for bit.  Every block here touches
        # several rows; in 1-D 98883 (a partial last row), 2-D 273 and 3-D 42
        # one block's rows leave a single row after whole groups
        p = generate_polynomial(seed=8300 + dim, dim=dim, n_terms=5, radius=2.0,
                                min_gap=0.5)
        s, T = 0.5, 60.0
        weights = p.coeffs * np.exp(-s * p.freqs[:, 0])
        if dim == 1:
            _, origins, offsets = split_axis((-T, T, points))
            lead = np.exp(1j * np.outer(origins, p.freqs[:, 0])) * weights
            last = np.exp(1j * np.outer(p.freqs[:, 0], offsets))
        else:
            nodes = midpoint_nodes(-T, T, points)
            lead = np.exp(1j * np.outer(nodes, p.freqs[:, 0])) * weights
            for j in range(1, dim - 1):
                factor = np.exp(1j * np.outer(nodes, p.freqs[:, j]))
                lead = (lead[:, None, :] * factor[None, :, :]).reshape(-1, p.n_terms)
            last = np.exp(1j * np.outer(p.freqs[:, -1], nodes))
        magnitudes = np.abs((lead @ last).ravel()[:points ** dim])
        blocks = []

        def recording_index_sum(fn, total, block):
            def record(start, stop):
                values = fn(start, stop)
                blocks.append(values.copy())
                return values

            return index_sum(record, total, block)

        monkeypatch.setattr(meanvalue, "index_sum", recording_index_sum)
        got, = meanvalue.abs_grid_sum(FunctionSource.from_poly(p),
                                      [symmetric_axes(T, points, dim)], s)
        assert np.concatenate(blocks).tobytes() == magnitudes.tobytes()
        ref = index_sum(lambda start, stop: magnitudes[start:stop], points ** dim)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestSeminormLadder:
    def test_cosine_ladder_value_frozen(self):
        f = FunctionSource.cosine([1.0])
        est = besicovitch_seminorm(f, LadderSpec(base=50.0, levels=4, tail_levels=2),
                                   QuadratureSpec(half_width=50.0, points_per_axis=100000))
        assert est.value == pytest.approx(0.6371272978988503, abs=1e-12)
        assert abs(est.value - TWO_OVER_PI) <= 1e-3

    def test_unimodular_ladder_is_one(self):
        f = FunctionSource.from_poly(poly(1, [[math.sqrt(2)]], [1.0]))
        est = besicovitch_seminorm(f, LadderSpec(),
                                   QuadratureSpec(half_width=50.0, points_per_axis=4096))
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_per_level_trace_has_all_levels(self):
        f = FunctionSource.constant(2.0)
        est = besicovitch_seminorm(f, LadderSpec(base=25.0, levels=3, tail_levels=1),
                                   QuadratureSpec(half_width=25.0, points_per_axis=128))
        assert [hw for hw, _ in est.per_level] == [25.0, 50.0, 100.0]
        assert est.value == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", ["poly", "sinc"])
    @pytest.mark.parametrize("dim,points", [(1, 4096), (1, 10007), (2, 64), (2, 300),
                                            (3, 16), (3, 41)])
    def test_levels_equal_one_grid_sums(self, dim, points, kind):
        # one abs_grid_sum call sums every level, from tables made once for
        # all of them; each level's sum is its one-grid sum, bit for bit,
        # unshifted as the ladder takes it and shifted as a strip would
        if kind == "poly":
            f = FunctionSource.from_poly(generate_polynomial(
                seed=8400 + dim, dim=dim, n_terms=5, radius=2.0, min_gap=0.5))
        else:
            f = FunctionSource.sinc_product(dim, scale=0.8, amplitude=1.5 - 0.3j)
        q = QuadratureSpec(half_width=50.0, points_per_axis=points)
        est = besicovitch_seminorm(f, LadderSpec(), q)
        grids = [symmetric_axes(half_width, points, dim) for half_width, _ in est.per_level]
        singles = [meanvalue.abs_grid_sum(f, [grid], 0.0)[0] for grid in grids]
        means = [mean for _, mean in est.per_level]
        assert np.array(means).tobytes() == (np.array(singles) / points ** dim).tobytes()
        shifted = [meanvalue.abs_grid_sum(f, [grid], 0.5)[0] for grid in grids]
        assert (np.array(meanvalue.abs_grid_sum(f, grids, 0.5)).tobytes()
                == np.array(shifted).tobytes())

    @pytest.mark.parametrize("dim,points", [(1, 10 ** 6), (2, 1000)])
    def test_ladder_memory(self, dim, points):
        # the one-grid walk's buffers (0.93 MB here) plus the four levels'
        # tables, about 0.64 MB at five terms; bound fixed at 2 MB
        f = FunctionSource.from_poly(generate_polynomial(
            seed=11, dim=dim, n_terms=5, radius=2.0, min_gap=0.5))
        tracemalloc.start()
        try:
            besicovitch_seminorm(f, LadderSpec(), QuadratureSpec(50.0, points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_triangle_inequality_and_homogeneity(self, seed):
        a = generate_polynomial(seed=seed, dim=1, n_terms=3, radius=2.0, min_gap=0.5)
        b = generate_polynomial(seed=seed + 1, dim=1, n_terms=2, radius=2.0, min_gap=0.5)
        lad = LadderSpec(base=25.0, levels=2, tail_levels=1)
        q = QuadratureSpec(half_width=25.0, points_per_axis=2048)
        na = besicovitch_seminorm(FunctionSource.from_poly(a), lad, q).value
        nb = besicovitch_seminorm(FunctionSource.from_poly(b), lad, q).value
        nsum = besicovitch_seminorm(FunctionSource.from_poly(a + b), lad, q).value
        assert nsum <= na + nb + 1e-12
        nscaled = besicovitch_seminorm(FunctionSource.from_poly(a.scale(-2.0j)), lad, q).value
        assert nscaled == pytest.approx(2.0 * na, rel=1e-12)


class TestClosedFormCoefficient:
    def test_on_spectrum_recovers_coefficient(self):
        p = poly(2, [[1.0, -0.5], [0.2, 0.9]], [2.0 + 1.0j, -0.3])
        a = fourier_coeff_closed_form(p, np.array([1.0, -0.5]), 200.0)
        gamma, T = 0.8, 200.0  # worst-axis gap between the two terms is 0.8
        assert abs(a - (2.0 + 1.0j)) <= 0.3 / (gamma * T)

    def test_off_spectrum_below_crosstalk_floor(self):
        p = poly(1, [[1.0], [1.6]], [1.0, 0.5])
        T = 200.0
        a = fourier_coeff_closed_form(p, np.array([3.0]), T)
        floor = (1.0 + 0.5) / (1.4 * T)  # nearest term sits 1.4 away
        assert abs(a) <= floor

    def test_exact_at_isolated_frequency(self):
        p = poly(1, [[1.0]], [2.0 + 1.0j])
        assert fourier_coeff_closed_form(p, np.array([1.0]), 50.0) == pytest.approx(2.0 + 1.0j)

    def test_invalid_half_width(self):
        p = poly(1, [[1.0]], [1.0])
        with pytest.raises(PreconditionError):
            fourier_coeff_closed_form(p, np.array([1.0]), 0.0)


class TestQuadratureCoefficient:
    def test_matches_closed_form_to_1e8(self):
        p = generate_polynomial(seed=5000, dim=1, n_terms=2, radius=2.0, min_gap=0.5)
        f = FunctionSource.from_poly(p)
        q = QuadratureSpec(half_width=200.0, points_per_axis=100000)
        lam = p.freqs[0]
        gap = abs(fourier_coeff_quadrature(f, lam, q) - fourier_coeff_closed_form(p, lam, 200.0))
        assert gap <= 1e-8

    def test_error_model_covers_observed_gap(self):
        p = generate_polynomial(seed=5017, dim=1, n_terms=4, radius=2.0, min_gap=0.5)
        f = FunctionSource.from_poly(p)
        T, n = 100.0, 8192
        q = QuadratureSpec(half_width=T, points_per_axis=n)
        lam = p.freqs[1]
        gap = abs(fourier_coeff_quadrature(f, lam, q) - fourier_coeff_closed_form(p, lam, T))
        lam_max = float(np.max(np.abs(p.freqs)))
        bound = QUADRATURE_FIT_CONSTANT * p.coefficient_l1() * quadrature_error_scale(T, lam_max, n)
        assert gap <= bound


def pointwise_coefficient(source, lam, T, points):
    """Grid mean of f(x) e^{-i<x, lam>}, evaluated node by node over the full grid."""
    return tensor_sum(lambda c: eval_real(source, c) * np.exp(-1j * (c @ lam)),
                      symmetric_axes(T, points, source.dim)) / points ** source.dim


# 100003 is prime and longer than REDUCE_BLOCK, so its coarse x fine split
# leaves a partial row and the pointwise walk spans two blocks; (2, 3) and
# (3, 2) are the smallest grids whose rest axes are factors of their own
REFERENCE_GRIDS = [(1, 100003), (1, 4096), (1, 2), (1, 3), (2, 300), (3, 41), (2, 3), (3, 2)]


class TestGridCoefficientRoutes:
    @pytest.mark.parametrize("dim,points", REFERENCE_GRIDS)
    def test_polynomial_matches_pointwise_walk(self, dim, points):
        rng = np.random.default_rng(8300 + 10 * dim + points % 97)
        for i, T in enumerate((50.0, 137.0, 400.0)):
            p = generate_polynomial(seed=8300 + 10 * dim + i, dim=dim, n_terms=1 + 2 * i,
                                    radius=2.0, min_gap=0.5)
            f = FunctionSource.from_poly(p)
            q = QuadratureSpec(half_width=T, points_per_axis=points)
            for lam in (p.freqs[-1], rng.uniform(-2.0, 2.0, dim)):
                ref = pointwise_coefficient(f, lam, T, points)
                got = fourier_coeff_quadrature(f, lam, q)
                assert abs(got - ref) <= 1e-13 * p.coefficient_l1()

    @pytest.mark.parametrize("dim,points", REFERENCE_GRIDS)
    def test_sinc_product_matches_pointwise_walk(self, dim, points):
        rng = np.random.default_rng(8400 + 10 * dim + points % 97)
        for T in (5.0, 50.0, 400.0):
            scale = float(rng.uniform(0.5, 1.0))
            amplitude = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            f = FunctionSource.sinc_product(dim, scale=scale, amplitude=amplitude)
            q = QuadratureSpec(half_width=T, points_per_axis=points)
            for lam in (np.zeros(dim), rng.uniform(-2.0 * scale, 2.0 * scale, dim)):
                ref = pointwise_coefficient(f, lam, T, points)
                got = fourier_coeff_quadrature(f, lam, q)
                assert abs(got - ref) <= 1e-13 * abs(amplitude)

    @pytest.mark.parametrize("dim,points,T", [(1, 100003, 50.0), (1, 4096, 50.0),
                                              (1, 2, 0.5), (1, 3, 0.5), (2, 300, 10.0),
                                              (3, 41, 5.0), (2, 3, 0.5), (3, 2, 0.5)])
    def test_sinc_scan_matches_pointwise_walk(self, dim, points, T):
        # T is small enough on coarse grids that the cross-talk floor leaves
        # some candidates detectable
        rng = np.random.default_rng(8500 + 10 * dim + points % 97)
        scale = float(rng.uniform(0.5, 1.0))
        amplitude = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        f = FunctionSource.sinc_product(dim, scale=scale, amplitude=amplitude)
        q = QuadratureSpec(half_width=T, points_per_axis=points)
        cands = np.zeros((5, dim))
        cands[1] = rng.uniform(-scale, scale, dim)
        cands[2, 0] = 0.5 * scale
        cands[3, 0] = scale * math.sqrt(dim) + 1.0
        cands[4, 0] = -cands[3, 0]
        threshold = 1.5 * crosstalk_floor(f, cands, q)
        report = spectrum_scan(f, cands, q, threshold)
        assert report.method == "quadrature"
        refs = [pointwise_coefficient(f, c, T, points) for c in cands]
        want = sorted(tuple(c) for c, r in zip(cands, refs) if abs(r) >= threshold)
        assert want
        assert sorted(tuple(e.frequency) for e in report.entries) == want
        for e in report.entries:
            ref = refs[[tuple(c) for c in cands].index(tuple(e.frequency))]
            assert abs(e.coefficient - ref) <= 1e-13 * abs(amplitude)

    @pytest.mark.parametrize("dim,points", [(1, 10 ** 12), (3, 10 ** 4)])
    def test_point_budget_checked_before_any_allocation(self, monkeypatch, dim, points):
        # the full grid is checked against the budget before any per-axis
        # table is built; 10**12 nodes on one axis would exhaust memory first
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        p = generate_polynomial(seed=8600 + dim, dim=dim, n_terms=3, radius=2.0,
                                min_gap=0.5)
        s = FunctionSource.sinc_product(dim, scale=0.8)
        q = QuadratureSpec(half_width=50.0, points_per_axis=points)
        lam = np.zeros(dim)
        with pytest.raises(BudgetExceededError):
            fourier_coeff_quadrature(FunctionSource.from_poly(p), lam, q)
        with pytest.raises(BudgetExceededError):
            fourier_coeff_quadrature(s, lam, q)
        with pytest.raises(BudgetExceededError):
            spectrum_scan(s, np.array([lam, lam + 3.0]), q, threshold=0.5)

    @pytest.mark.parametrize("kind", ["poly", "sinc"])
    def test_grid_never_materialised(self, monkeypatch, kind):
        # 10**9 nodes: only per-axis tables of 1000 entries may be built
        monkeypatch.setenv(BUDGET_ENV_VAR, str(10 ** 9))
        if kind == "poly":
            f = FunctionSource.from_poly(generate_polynomial(
                seed=8700, dim=3, n_terms=5, radius=2.0, min_gap=0.5))
        else:
            f = FunctionSource.sinc_product(3, scale=0.8, amplitude=1.5)
        q = QuadratureSpec(half_width=50.0, points_per_axis=1000)
        tracemalloc.start()
        try:
            fourier_coeff_quadrature(f, np.array([0.3, -0.2, 0.1]), q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sinc_scan_memory_independent_of_candidate_count(self):
        # two blocks of nodes on one axis and 32 candidates: one walk over
        # all 32 rows would hold 32 blocks of complex values (32 MB) at once
        f = FunctionSource.sinc_product(1, scale=0.8)
        q = QuadratureSpec(half_width=50.0, points_per_axis=2 * REDUCE_BLOCK)
        cands = np.linspace(-2.0, 2.0, 32)[:, None]
        tracemalloc.start()
        try:
            report = spectrum_scan(f, cands, q, threshold=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.method == "quadrature"
        assert peak < 8 << 20


class TestCrosstalkFloor:
    def test_matches_hand_formula_for_polynomials(self):
        p = poly(1, [[1.0], [2.0]], [1.0, 0.5])
        cands = np.array([[1.0], [4.0]])
        q = QuadratureSpec(half_width=100.0, points_per_axis=1024)
        floor = crosstalk_floor(FunctionSource.from_poly(p), cands, q)
        # tightest separation: candidate 1.0 vs term 2.0, one axis, gap 1.0
        assert floor == pytest.approx(1.5 / (1.0 * 100.0))


class TestSpectrumScan:
    def test_detects_generated_frequencies_and_rejects_decoys(self):
        p = generate_polynomial(seed=7000, dim=1, n_terms=2, radius=2.0, min_gap=0.5)
        f = FunctionSource.from_poly(p)
        decoys = np.array([[4.0], [-4.0]])
        cands = np.vstack([p.freqs, decoys])
        q = QuadratureSpec(half_width=200.0, points_per_axis=4096)
        report = spectrum_scan(f, cands, q, threshold=0.05)
        got = np.array(sorted(e.frequency[0] for e in report.entries))
        assert np.allclose(got, np.sort(p.freqs[:, 0]), atol=1e-12)
        for e in report.entries:
            m = int(np.argmin(np.abs(p.freqs[:, 0] - e.frequency[0])))
            assert abs(e.coefficient - p.coeffs[m]) <= report.floor + 1e-12

    def test_entries_sorted_by_descending_magnitude(self):
        p = poly(1, [[1.0], [2.0]], [0.2, 0.9])
        q = QuadratureSpec(half_width=200.0, points_per_axis=1024)
        report = spectrum_scan(FunctionSource.from_poly(p), p.freqs, q, threshold=0.05)
        mags = [e.magnitude for e in report.entries]
        assert mags == sorted(mags, reverse=True)
        assert report.entries[0].frequency[0] == pytest.approx(2.0)

    def test_threshold_below_floor_rejected(self):
        p = poly(1, [[1.0], [1.2]], [1.0, 1.0])
        q = QuadratureSpec(half_width=50.0, points_per_axis=1024)
        with pytest.raises(PreconditionError):
            spectrum_scan(FunctionSource.from_poly(p), p.freqs, q, threshold=0.05)

    def test_method_records_route(self):
        p = poly(1, [[1.0]], [1.0])
        q = QuadratureSpec(half_width=200.0, points_per_axis=1024)
        report = spectrum_scan(FunctionSource.from_poly(p), p.freqs, q, threshold=0.05)
        assert report.method == "closed_form"
        s = FunctionSource.sinc_product(1)
        report2 = spectrum_scan(s, np.array([[0.0]]), q, threshold=0.2)
        assert report2.method == "quadrature"


class TestRotationIdentity:
    def test_single_term_agreement_is_exact(self):
        rng = np.random.default_rng(777)
        for k in range(20):
            dim = 1 + k % 3
            q_mat, r_mat = np.linalg.qr(rng.standard_normal((dim, dim)))
            q_mat = q_mat * np.sign(np.diag(r_mat))
            lam0 = rng.uniform(-2, 2, dim)
            c = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = TrigPolynomial(dim=dim, freqs=lam0[None, :], coeffs=np.array([c]))
            res = rotation_invariance_check(p, q_mat, lam0, 200.0)
            assert res.gap <= 1e-12
            assert res.lhs == pytest.approx(c)
