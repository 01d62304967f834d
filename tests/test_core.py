"""Function representations, complex evaluation, and exact polynomial oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec import (
    ComplexPoint,
    DimensionMismatchError,
    EvaluationRangeError,
    FunctionSource,
    PreconditionError,
    TrigPolynomial,
    eval_complex,
    eval_real,
    exact_type,
    known_type,
    line_slice,
    rotate,
    sinc,
    sinc_multiplier,
)
from apspec.core import SINC_SERIES_THRESHOLD, half_plane_growth_rate


def poly(dim, freqs, coeffs):
    return TrigPolynomial(dim=dim, freqs=np.asarray(freqs, dtype=np.float64),
                          coeffs=np.asarray(coeffs, dtype=np.complex128))


class TestSinc:
    def test_zero_is_one(self):
        assert sinc(0.0) == 1.0

    def test_pi_is_zero(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_matches_ratio_away_from_zero(self):
        w = 0.7
        assert sinc(w) == pytest.approx(math.sin(w) / w, abs=1e-15)

    def test_series_regime_agrees_with_ratio(self):
        # crossover at 1e-4: both branches must agree to full precision there
        for w in (1e-5, 5e-5, 9.9e-5, 1.1e-4, 2e-4):
            assert sinc(w) == pytest.approx(math.sin(w) / w, rel=1e-15)

    def test_imaginary_argument_is_sinh_ratio(self):
        assert sinc(1j) == pytest.approx(complex(math.sinh(1.0)), abs=1e-15)

    def test_array_input_preserves_shape(self):
        w = np.array([[0.0, math.pi], [1.0, -1.0]])
        out = sinc(w)
        assert out.shape == (2, 2)
        assert out[0, 0] == 1.0

    def test_overflow_guard_raises(self):
        with pytest.raises(EvaluationRangeError):
            sinc(1j * 800.0)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bitwise_equal_to_masked_branches(self, kind):
        # reference: the series on the small entries and sin(w)/w on the
        # rest, each through its own boolean mask
        def masked(vals):
            out = np.empty_like(vals)
            small = np.abs(vals) < SINC_SERIES_THRESHOLD
            u = vals[small] ** 2
            out[small] = 1.0 + u * (-1.0 / 6.0 + u * (1.0 / 120.0 - u / 5040.0))
            out[~small] = np.sin(vals[~small]) / vals[~small]
            return out

        rng = np.random.default_rng(7)
        w = np.concatenate([
            rng.uniform(-50.0, 50.0, 4000),
            rng.uniform(-3e-4, 3e-4, 4000),
            [0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e-4, 0.0), 1e-300, math.pi],
        ])
        if kind == "complex":
            w = w + 1j * rng.uniform(-1e-4, 1e-4, w.size) * (rng.uniform(size=w.size) < 0.5)
            w[:3] = [0.0, 1e-4j, -1e-4 + 0j]
        got = sinc(w)
        assert got.tobytes() == masked(w).tobytes()
        # a transposed (non-contiguous) 2-D input gives the same bits per entry
        grid = w[:8000].reshape(80, 100).T
        assert sinc(grid).tobytes() == masked(np.ascontiguousarray(grid)).tobytes()
        for v in w[-7:]:
            assert np.asarray(sinc(v)).tobytes() == masked(np.array([v]))[0].tobytes()

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_real_values_bounded_by_one(self, w):
        assert abs(sinc(w)) <= 1.0 + 1e-15

    @given(st.floats(min_value=1e-7, max_value=10.0))
    def test_even_function(self, w):
        assert sinc(w) == pytest.approx(sinc(-w), rel=1e-15)


class TestComplexPoint:
    def test_z_combines_parts(self):
        pt = ComplexPoint(real=np.array([1.0, 2.0]), imag=np.array([0.5, -0.5]))
        assert np.allclose(pt.z, np.array([1.0 + 0.5j, 2.0 - 0.5j]))

    def test_mismatched_parts_raise(self):
        with pytest.raises(DimensionMismatchError):
            ComplexPoint(real=np.array([1.0, 2.0]), imag=np.array([0.5]))


class TestTrigPolynomial:
    def test_duplicate_frequencies_merge(self):
        p = poly(1, [[1.0], [1.0]], [1.0, 2.0])
        assert p.n_terms == 1
        assert p.coeffs[0] == pytest.approx(3.0)

    def test_terms_sorted_lexicographically(self):
        p = poly(2, [[1.0, 0.0], [-1.0, 2.0]], [1.0, 1.0])
        assert p.freqs[0, 0] == -1.0

    def test_add_merges_shared_frequency(self):
        a = poly(1, [[1.0]], [1.0])
        b = poly(1, [[1.0], [2.0]], [0.5, 1.0])
        c = a + b
        assert c.n_terms == 2
        assert c.coeffs[0] == pytest.approx(1.5)

    def test_scale_multiplies_coefficients(self):
        p = poly(1, [[1.0]], [2.0]).scale(0.5j)
        assert p.coeffs[0] == pytest.approx(1.0j)

    def test_coefficient_l1(self):
        p = poly(1, [[1.0], [2.0]], [3.0, -4.0j])
        assert p.coefficient_l1() == pytest.approx(7.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            poly(2, [[1.0]], [1.0])

    def test_from_terms(self):
        p = TrigPolynomial.from_terms(2, [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)])
        assert p.n_terms == 2

    def test_nonfinite_frequency_rejected(self):
        with pytest.raises((PreconditionError, ValueError)):
            poly(1, [[np.inf]], [1.0])


class TestExactType:
    def test_single_frequency_norm(self):
        assert exact_type(poly(2, [[3.0, 4.0]], [1.0])) == pytest.approx(5.0)

    def test_max_over_terms(self):
        p = poly(1, [[1.0], [-2.0]], [1.0, 1.0])
        assert exact_type(p) == pytest.approx(2.0)

    def test_constant_is_zero(self):
        assert exact_type(poly(1, [[0.0]], [1.0])) == 0.0

    def test_known_type_for_builtins(self):
        assert known_type(FunctionSource.sinc_product(2)) == pytest.approx(math.sqrt(2))
        assert known_type(FunctionSource.sinc_product(3, scale=0.7)) == pytest.approx(0.7 * math.sqrt(3))
        assert known_type(FunctionSource.cosine([0.6, 0.8])) == pytest.approx(1.0)
        assert known_type(FunctionSource.constant(4.0)) == 0.0


class TestEvaluation:
    def test_constant_term(self):
        f = FunctionSource.constant(1.0)
        assert eval_real(f, np.array([3.7])) == pytest.approx(1.0)

    def test_euler_identity(self):
        f = FunctionSource.from_poly(poly(1, [[1.0]], [1.0]))
        assert eval_real(f, np.array([math.pi])) == pytest.approx(-1.0, abs=1e-12)

    def test_vanishing_exponent(self):
        f = FunctionSource.from_poly(poly(2, [[1.0, 1.0]], [2.0]))
        assert eval_real(f, np.array([0.0, 0.0])) == pytest.approx(2.0)

    def test_entire_extension_decay(self):
        # e^{i * i} = e^{-1} exactly, through the complex path
        f = FunctionSource.from_poly(poly(1, [[1.0]], [1.0]))
        assert eval_complex(f, np.array([1j])) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_complex_point_input(self):
        f = FunctionSource.from_poly(poly(1, [[1.0]], [1.0]))
        pt = ComplexPoint(real=np.array([0.0]), imag=np.array([1.0]))
        assert eval_complex(f, pt) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_batched_rows(self):
        f = FunctionSource.from_poly(poly(1, [[1.0]], [1.0]))
        out = eval_real(f, np.array([[0.0], [math.pi]]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)

    def test_real_and_complex_paths_agree_on_reals(self):
        rng = np.random.default_rng(5)
        p = poly(2, rng.uniform(-2, 2, (3, 2)), rng.standard_normal(3) + 1j * rng.standard_normal(3))
        f = FunctionSource.from_poly(p)
        x = rng.uniform(-5, 5, (7, 2))
        assert np.allclose(eval_real(f, x), eval_complex(f, x.astype(np.complex128)), atol=1e-14)

    def test_sinc_product_values(self):
        f = FunctionSource.sinc_product(2, scale=0.5, amplitude=2.0)
        x = np.array([1.0, 2.0])
        expected = 2.0 * (math.sin(0.5) / 0.5) * (math.sin(1.0) / 1.0)
        assert eval_real(f, x) == pytest.approx(expected, abs=1e-14)

    def test_overflow_guard_names_term(self):
        f = FunctionSource.from_poly(poly(1, [[2.0]], [1.0]))
        with pytest.raises(EvaluationRangeError):
            eval_complex(f, np.array([500.0j]))

    def test_dimension_mismatch(self):
        f = FunctionSource.from_poly(poly(2, [[1.0, 0.0]], [1.0]))
        with pytest.raises(DimensionMismatchError):
            eval_real(f, np.array([1.0]))


class TestRotate:
    def test_identity_matrix_is_noop(self):
        p = poly(2, [[1.0, 2.0]], [1.0])
        q = rotate(p, np.eye(2))
        assert np.allclose(q.freqs, p.freqs)

    def test_rotated_values_match_composed_argument(self):
        rng = np.random.default_rng(11)
        p = poly(2, rng.uniform(-2, 2, (3, 2)), rng.standard_normal(3) + 0j)
        a, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        q = rotate(p, a)
        f, g = FunctionSource.from_poly(p), FunctionSource.from_poly(q)
        for x in rng.uniform(-3, 3, (5, 2)):
            assert eval_real(g, x) == pytest.approx(eval_real(f, a @ x), abs=1e-12)

    def test_type_preserved(self):
        rng = np.random.default_rng(12)
        p = poly(3, rng.uniform(-2, 2, (4, 3)), np.ones(4) + 0j)
        a, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert exact_type(rotate(p, a)) == pytest.approx(exact_type(p), abs=1e-12)

    def test_non_orthogonal_matrix_rejected(self):
        p = poly(2, [[1.0, 0.0]], [1.0])
        with pytest.raises(PreconditionError):
            rotate(p, np.array([[1.0, 0.0], [0.0, 2.0]]))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_composition_matches_product_matrix(self, seed):
        rng = np.random.default_rng(seed)
        p = poly(2, rng.uniform(-2, 2, (2, 2)), np.ones(2) + 0j)
        a, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        b, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        lhs = rotate(rotate(p, a), b)
        rhs = rotate(p, a @ b)
        # same multiset of terms up to float reordering
        assert np.allclose(np.sort(lhs.freqs, axis=0), np.sort(rhs.freqs, axis=0), atol=1e-12)


class TestSincMultiplier:
    def test_multiplies_pointwise(self):
        f = FunctionSource.constant(1.0)
        z = np.array([2.0 + 0.0j])
        assert sinc_multiplier(f, z) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-15)

    def test_power_squares_factor(self):
        f = FunctionSource.constant(1.0)
        z = np.array([2.0 + 0.0j])
        base = math.sin(2.0) / 2.0
        assert sinc_multiplier(f, z, power=2) == pytest.approx(base ** 2, abs=1e-15)

    def test_guard_on_large_imaginary_parts(self):
        f = FunctionSource.constant(1.0)
        with pytest.raises(EvaluationRangeError):
            sinc_multiplier(f, np.array([900.0j]))


class TestLineSlice:
    def test_poly_slice_matches_direct_evaluation(self):
        rng = np.random.default_rng(21)
        p = poly(3, rng.uniform(-2, 2, (4, 3)), rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f = FunctionSource.from_poly(p)
        rest = np.array([0.3, -1.2])
        g = line_slice(f, rest)
        assert g.dim == 1
        for w in (-2.0, 0.0, 1.5):
            full = eval_real(f, np.array([w, rest[0], rest[1]]))
            assert eval_real(g, np.array([w])) == pytest.approx(full, abs=1e-12)

    def test_sinc_slice_folds_tail_into_amplitude(self):
        f = FunctionSource.sinc_product(2, scale=1.0)
        g = line_slice(f, np.array([2.0]))
        expected = math.sin(2.0) / 2.0 * math.sin(0.5) / 0.5
        assert eval_real(g, np.array([0.5])) == pytest.approx(expected, abs=1e-14)

    def test_one_dim_source_returned_unchanged(self):
        f = FunctionSource.sinc_product(1)
        assert line_slice(f) is f

    def test_wrong_rest_shape_raises(self):
        f = FunctionSource.sinc_product(3)
        with pytest.raises(DimensionMismatchError):
            line_slice(f, np.array([1.0]))


class TestHalfPlaneGrowthRate:
    def test_poly_rate_is_largest_negated_first_frequency(self):
        p = poly(1, [[-1.5], [0.5]], [1.0, 1.0])
        assert half_plane_growth_rate(FunctionSource.from_poly(p)) == pytest.approx(1.5)

    def test_unimodular_exponential_rate_zero_upward(self):
        p = poly(1, [[1.0]], [1.0])
        # e^{iw} decays upward; growth rate on the upper half-plane is -1
        assert half_plane_growth_rate(FunctionSource.from_poly(p)) == pytest.approx(-1.0)

    def test_sinc_rate_close_to_scale(self):
        f = FunctionSource.sinc_product(1, scale=0.5)
        assert half_plane_growth_rate(f) == pytest.approx(0.5, abs=0.01)
