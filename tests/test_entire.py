"""Type estimation from imaginary-ray growth and the majorant inequalities."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspec import (
    BudgetExceededError,
    DimensionMismatchError,
    EvaluationRangeError,
    FunctionSource,
    PreconditionError,
    QuadratureSpec,
    TrigPolynomial,
    box_average_abs,
    estimate_type,
    eval_complex,
    eval_real,
    exact_type,
    generate_polynomial,
    growth_envelope_check,
    known_type,
    line_slice,
    logvinenko_check,
    phragmen_lindelof_check,
    poisson_majorant_check,
    strip_integral_bound,
)
from apspec import entire, meanvalue
from apspec.entire import (
    DEFAULT_RADII,
    UNIMODULAR_LOG_TOL,
    TypeEstimate,
    _direction_set,
    _grid_max,
    _lattice_axis,
    _linspace_axis,
    _weighted_log_integral,
    make_check,
)
from apspec.generate import MAX_TERMS
from apspec.meanvalue import abs_grid_sum, sinc_line
from apspec.quadrature import (
    BUDGET_ENV_VAR,
    REDUCE_BLOCK,
    KahanAccumulator,
    full_grid,
    index_sum,
    midpoint_nodes,
)

EPS = np.finfo(float).eps

# pointwise reference walks: every node evaluated by eval_real, in chunks
REF_CHUNK = 1 << 18


def ref_grid_values(source, axes, power=0, s=0.0):
    """|f(x1 + is, x')| / prod_j (1 + |x_j|)^power at every node of the grid, in C order."""
    pts = full_grid([midpoint_nodes(*axis) for axis in axes])
    shift = np.zeros(len(axes))
    shift[0] = s
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], REF_CHUNK):
        chunk = pts[start:start + REF_CHUNK]
        if s:
            vals = np.abs(eval_complex(source, chunk + 1j * shift))
        else:
            vals = np.abs(eval_real(source, chunk))
        if power:
            vals = vals / np.prod((1.0 + np.abs(chunk)) ** power, axis=1)
        out[start:start + chunk.shape[0]] = vals
    return out


def ref_weighted_log_integral(source, x0, s, t_half_width, n_points):
    """The Poisson walk node by node: (integral, log_peak, condition).

    condition = sum_i w_i / |g_i| is the factor by which log|g| magnifies an
    absolute error in g, summed with the Poisson weights w_i.
    """
    nodes = midpoint_nodes(-t_half_width, t_half_width, n_points)
    h = 2.0 * t_half_width / n_points
    acc = KahanAccumulator()
    log_peak, condition = 0.0, 0.0
    for start in range(0, n_points, REF_CHUNK):
        t = nodes[start:start + REF_CHUNK]
        vals = np.abs(eval_real(source, (x0 + t)[:, None]))
        logs = np.log(np.maximum(vals, 1e-300))
        log_peak = max(log_peak, float(np.max(np.abs(logs))))
        weights = h * (s / math.pi) / (t * t + s * s)
        acc.add(float(np.add.reduce(logs * weights)))
        condition += float(np.sum(weights / np.maximum(vals, 1e-300)))
    return acc.total, log_peak, condition


def source_scale(source):
    """(C, max|lam|): coefficient l1 norm (or |A|) and largest frequency magnitude."""
    if source.kind == "poly":
        return source.poly.coefficient_l1(), float(np.max(np.abs(source.poly.freqs)))
    return abs(source.amplitude), abs(source.scale)


def kernel_tolerance(source, axes, s=0.0, extra=0.0):
    """4 eps C (p + k + Phi + extra) for one node of |f(x1 + is, x')| on the grid.

    C bounds |f(x1 + is, x')|: the l1 norm of c_m e^{-s lam_m1}, or
    |A| cosh(a s) for a sinc product (k = 1).  Both routes round O(p + k)
    times per node relative to C, and they round each polynomial term's
    phase differently (one exp of the summed phase against a product of
    per-axis exps), which moves a term by up to eps * Phi * |c_m|, Phi the
    largest phase sum_j |lam_mj| max|x_j| on the grid.  Sinc maxima take
    core.sinc's own arguments in both routes, so Phi = 0 there; a caller
    that compares sinc tables passes sinc_phase in extra, and a sum over N
    nodes passes log2 N.
    """
    p = len(axes)
    if source.kind != "poly":
        c = abs(source.amplitude) * math.cosh(abs(source.scale) * s)
        return 4 * EPS * c * (p + 1 + extra)
    reach = np.array([max(abs(lo), abs(hi)) for (lo, hi, _) in axes])
    poly = source.poly
    c = float(np.sum(np.abs(poly.coeffs) * np.exp(-s * poly.freqs[:, 0])))
    phi = float(np.max(np.abs(poly.freqs) @ reach))
    return 4 * EPS * c * (p + poly.n_terms + phi + extra)


def sinc_phase(source, axes):
    """|a| sum_j max|x_j| for a sinc product, else 0.

    A sinc table takes sin(a(o + f)) by the addition formula where the
    walk takes sin(ax), so a node's phase moves by up to eps times this.
    """
    if source.kind == "poly":
        return 0.0
    return abs(source.scale) * sum(max(abs(lo), abs(hi)) for (lo, hi, _) in axes)


def single_exp(lam):
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    p = TrigPolynomial(dim=lam.shape[0], freqs=lam[None, :],
                       coeffs=np.array([1.0 + 0j]))
    return FunctionSource.from_poly(p)


class TestMakeCheck:
    def test_margin_and_verdict(self):
        c = make_check("demo", lhs=1.0, rhs=1.5, tolerance=1e-9)
        assert c.margin == pytest.approx(0.5)
        assert c.passed
        c2 = make_check("demo", lhs=2.0, rhs=1.5, tolerance=1e-9)
        assert not c2.passed


class TestEstimateType:
    def test_single_exponential_exact(self):
        est = estimate_type(single_exp([1.0]))
        assert est.sigma_hat == pytest.approx(1.0, abs=1e-9)
        assert est.residual < 1e-9

    def test_constant_is_zero(self):
        assert estimate_type(FunctionSource.constant(3.0)).sigma_hat == 0.0

    def test_two_dim_frequency_norm(self):
        est = estimate_type(single_exp([3.0, 4.0]))
        assert est.sigma_hat == pytest.approx(5.0, abs=1e-9)

    def test_random_polynomials_within_tolerance(self):
        worst = 0.0
        for i in range(10):
            dim = 1 + i % 3
            p = generate_polynomial(seed=3000 + i, dim=dim, n_terms=min(5, 2 + i % 4),
                                    radius=2.0, min_gap=0.5)
            est = estimate_type(FunctionSource.from_poly(p))
            worst = max(worst, abs(est.sigma_hat - exact_type(p)))
        assert worst <= 0.05

    def test_sinc_products_read_low_by_log_prefactor(self):
        # e^{ar}/(2ar) per factor biases the affine fit by about p/32 at the
        # default radii; frozen from measurement, scale-independent
        est2 = estimate_type(FunctionSource.sinc_product(2))
        assert math.sqrt(2) - 0.08 <= est2.sigma_hat <= math.sqrt(2)
        est3 = estimate_type(FunctionSource.sinc_product(3, scale=0.7))
        known = 0.7 * math.sqrt(3)
        assert known - 0.11 <= est3.sigma_hat <= known

    def test_overflowing_radii_are_dropped(self):
        est = estimate_type(single_exp([20.0]))
        assert max(est.radii) < 40.0
        assert est.sigma_hat == pytest.approx(20.0, abs=0.05)

    def test_too_few_radii_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_type(single_exp([1.0]), radii=(10.0,))

    def test_n_dirs_below_axis_count_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_type(single_exp([1.0, 0.0, 0.0]), n_dirs=4)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_any_single_exponential_is_recovered(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        lam = rng.uniform(-2.5, 2.5, dim)
        est = estimate_type(single_exp(lam))
        assert est.sigma_hat == pytest.approx(float(np.linalg.norm(lam)), abs=1e-6)


def ref_estimate_type(source, radii=DEFAULT_RADII):
    """The per-radius loop estimate_type replaced: one evaluation per radius."""
    radii = tuple(sorted(float(r) for r in radii))
    dirs = _direction_set(source, max(2 * source.dim, 8))
    used, log_max = [], []
    for r in radii:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.abs(eval_complex(source, 1j * r * dirs))
        except EvaluationRangeError:
            continue
        peak = float(np.max(vals))
        if not 0.0 < peak < math.inf:
            continue
        used.append(r)
        log_max.append(math.log(peak))
    if len(used) < 2:
        raise PreconditionError("fewer than two radii survived the overflow guard")
    half = max(2, (len(used) + 1) // 2)
    r_fit = np.array(used[-half:])
    y_fit = np.array(log_max[-half:])
    slope, intercept = np.polyfit(r_fit, y_fit, 1)
    residual = float(np.max(np.abs(slope * r_fit + intercept - y_fit)))
    return TypeEstimate(sigma_hat=float(max(slope, 0.0)), log_c0_hat=float(intercept),
                        radii=tuple(used), fit_radii=tuple(float(r) for r in r_fit),
                        n_directions=dirs.shape[0], residual=residual)


def type_fit_bits(fit, source):
    try:
        est = fit(source)
    except PreconditionError:
        return "PreconditionError"
    floats = (est.sigma_hat, est.log_c0_hat, est.residual) + est.radii + est.fit_radii
    return (np.array(floats).tobytes(), len(est.radii), len(est.fit_radii), est.n_directions)


@st.composite
def type_fit_sources(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    if draw(st.booleans()):
        # scales up to 30 put |Im(a z)| past the guard at the larger radii
        return FunctionSource.sinc_product(draw(st.integers(1, 4)), scale=rng.uniform(0.1, 30.0),
                                           amplitude=rng.uniform(0.5, 3.0))
    dim, n_terms = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    coeffs = rng.uniform(0.1, 1.0, n_terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_terms))
    return FunctionSource.from_poly(TrigPolynomial(
        dim=dim, freqs=rng.uniform(-1.0, 1.0, (n_terms, dim)) * rng.uniform(0.1, 30.0),
        coeffs=coeffs))


class TestTypeFitRoute:
    @given(type_fit_sources())
    # 40 * 17.5 = 700 exactly: the guard keeps r = 40, one ulp more drops it;
    # at 100 only r = 5 survives and at 200 none, so both routes refuse the fit
    @example(single_exp([17.5]))
    @example(single_exp([np.nextafter(17.5, np.inf)]))
    @example(single_exp([100.0]))
    @example(single_exp([200.0]))
    @example(FunctionSource.constant(0.0))
    @example(FunctionSource.sinc_product(4, scale=30.0))
    @settings(max_examples=120, deadline=None)
    def test_one_evaluation_matches_per_radius_loop(self, source):
        assert type_fit_bits(estimate_type, source) == type_fit_bits(ref_estimate_type, source)

    @pytest.mark.parametrize("dim,scale", [(2, 30.0), (4, 30.0), (4, 10.0), (2, 20.0),
                                           (3, 20.0), (3, 30.0), (4, 20.0), (5, 10.0),
                                           (5, 30.0)])
    def test_sinc_product_overflow_drops_the_radius(self, dim, scale):
        # each factor stays inside the guard, but at the larger radii their
        # product overflows to inf; those radii are dropped, not fitted.
        # From 1 of the 8 radii dropped at (4, 10) to 6 at scale 30 in 3 to 5 variables
        f = FunctionSource.sinc_product(dim, scale=scale)
        est = estimate_type(f)
        assert math.isfinite(est.sigma_hat) and math.isfinite(est.log_c0_hat)
        assert abs(est.sigma_hat - known_type(f)) <= 0.02 * known_type(f)

    def test_guard_edge(self):
        assert 40.0 in estimate_type(single_exp([17.5])).radii
        assert 40.0 not in estimate_type(single_exp([np.nextafter(17.5, np.inf)])).radii
        with pytest.raises(PreconditionError):
            estimate_type(single_exp([100.0]))


class TestLogvinenko:
    def test_cosine_net_bound(self):
        f = FunctionSource.cosine([1.0])
        c = logvinenko_check(f, sigma=1.0, delta=0.25, half_width=20.0)
        assert c.passed

    def test_constant_is_equality_case(self):
        f = FunctionSource.constant(1.0)
        c = logvinenko_check(f, sigma=0.0, delta=0.25, half_width=10.0)
        assert c.passed
        assert abs(c.margin) <= 1e-12

    def test_sinc_two_dim(self):
        f = FunctionSource.sinc_product(2)
        c = logvinenko_check(f, sigma=math.sqrt(2), delta=0.25, half_width=10.0,
                             dense_per_axis=801)
        assert c.passed

    def test_degenerate_net_constant_rejected(self):
        f = FunctionSource.cosine([3.0])
        with pytest.raises(PreconditionError):
            logvinenko_check(f, sigma=3.0, delta=0.25)

    def test_negative_sigma_rejected(self):
        with pytest.raises(PreconditionError):
            logvinenko_check(FunctionSource.constant(1.0), sigma=-1.0, delta=0.1)


class TestPoissonMajorant:
    def test_sinc_slice_passes_with_margin(self):
        f = FunctionSource.sinc_product(1)
        c = poisson_majorant_check(f, x0=0.0, s=1.0)
        assert c.passed
        assert c.margin > 0.5

    def test_unimodular_exponential_achieves_equality(self):
        for s in (0.5, 1.0, 2.0):
            c = poisson_majorant_check(single_exp([1.0]), x0=0.3, s=s)
            assert c.passed
            assert abs(c.margin) <= 1e-9

    def test_cosine_passes(self):
        c = poisson_majorant_check(FunctionSource.cosine([1.0]), x0=0.7, s=0.5)
        assert c.passed

    def test_requires_one_dim(self):
        with pytest.raises(DimensionMismatchError):
            poisson_majorant_check(FunctionSource.sinc_product(2), x0=0.0, s=1.0)

    def test_nonpositive_shift_rejected(self):
        with pytest.raises(PreconditionError):
            poisson_majorant_check(FunctionSource.constant(1.0), x0=0.0, s=0.0)

    def test_polynomial_slices_pass(self):
        rng = np.random.default_rng(99)
        for i in range(5):
            dim = 1 + i % 3
            p = generate_polynomial(seed=7000 + i, dim=dim, n_terms=min(5, 2 + i % 4),
                                    radius=2.0, min_gap=0.5)
            g = line_slice(FunctionSource.from_poly(p),
                           rng.uniform(-3, 3, dim - 1) if dim > 1 else None)
            for s in (0.5, 2.0):
                assert poisson_majorant_check(g, x0=0.3, s=s).passed


class TestPhragmenLindelof:
    def test_unimodular_exponential_achieves_equality(self):
        c = phragmen_lindelof_check(single_exp([1.0]), x=0.3, y=1.0)
        assert c.passed
        assert abs(c.margin) <= 1e-9

    def test_cosine_passes(self):
        assert phragmen_lindelof_check(FunctionSource.cosine([1.0]), x=0.0, y=2.0).passed

    def test_sinc_passes(self):
        assert phragmen_lindelof_check(FunctionSource.sinc_product(1), x=1.0, y=1.0).passed

    def test_requires_positive_height(self):
        with pytest.raises(PreconditionError):
            phragmen_lindelof_check(FunctionSource.constant(1.0), x=0.0, y=0.0)

    def test_requires_one_dim(self):
        with pytest.raises(DimensionMismatchError):
            phragmen_lindelof_check(FunctionSource.sinc_product(2), x=0.0, y=1.0)


class TestGrowthEnvelope:
    def test_bounded_functions_have_unit_constant(self):
        for f in (FunctionSource.sinc_product(1), FunctionSource.cosine([1.0])):
            est = growth_envelope_check(f, half_width=50.0, points_per_axis=2001)
            assert est.c1_hat == pytest.approx(1.0, abs=1e-9)
            assert est.check.passed

    def test_constant_stabilizes_under_box_growth(self):
        f = FunctionSource.cosine([0.6, 0.8])
        e1 = growth_envelope_check(f, half_width=50.0, points_per_axis=501)
        e2 = growth_envelope_check(f, half_width=100.0, points_per_axis=501)
        assert abs(e2.c1_hat - e1.c1_hat) / e1.c1_hat <= 0.01

    def test_scaled_constant(self):
        est = growth_envelope_check(FunctionSource.constant(2.5), half_width=20.0,
                                    points_per_axis=801)
        assert est.c1_hat == pytest.approx(2.5)
        assert np.allclose(est.argmax, 0.0, atol=0.05)


def random_source(rng, dim, n_terms, sinc_kind):
    if sinc_kind:
        return FunctionSource.sinc_product(
            dim, scale=rng.uniform(0.2, 2.0),
            amplitude=rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    coeffs = rng.uniform(0.1, 1.0, n_terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_terms))
    return FunctionSource.from_poly(TrigPolynomial(
        dim=dim, freqs=rng.uniform(-2.5, 2.5, (n_terms, dim)), coeffs=coeffs))


def one_axis_points(dim):
    # one variable: n is never a multiple of split_axis's row length
    if dim == 1:
        return st.integers(2, 20000).filter(lambda n: n % (math.isqrt(n - 1) + 1) != 0)
    return st.integers(2, {2: 150, 3: 30}[dim])


@st.composite
def grid_cases(draw):
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    # polynomials of two or more terms take the |f|^2 route, one term the per-axis one
    source = random_source(rng, dim, draw(st.integers(1, 6)), draw(st.booleans()))
    n = draw(one_axis_points(dim))
    half_width = draw(st.floats(1.0, 50.0))
    if draw(st.booleans()):
        axis = _linspace_axis(half_width, n)
    else:
        axis = _lattice_axis(-half_width, draw(st.floats(0.01, 1.0)), n)
    power = draw(st.sampled_from([0, dim]))
    block = draw(st.one_of(st.sampled_from([7, 64, 1000, REDUCE_BLOCK]),
                           st.integers(7, REDUCE_BLOCK)))
    s = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return source, [axis] * dim, power, block, s


# undersampled grids at T = 400, a node at x = 0 (odd linspace) and one
# 1e-13 from it: without the |a x| < 1 guard a sinc table divides the
# rounding of sin(a x) by a x there and loses every digit.  On the 56-node
# line the max lies past |a x| = 1, where table values miss it by ~3x the
# max kernel's bound, so the max must come from core.sinc there too
HARD_CASES = [
    (FunctionSource.sinc_product(1, scale=1.301), [_linspace_axis(400.0, 56)], 0, 7, 0.0),
    (FunctionSource.sinc_product(1, scale=1.7, amplitude=2.0 * np.exp(0.4j)),
     [_linspace_axis(400.0, 17)], 1, 7, 0.5),
    (random_source(np.random.default_rng(41), 1, 5, False), [_linspace_axis(400.0, 41)], 0, 64, 1.0),
    (random_source(np.random.default_rng(17), 2, 3, False), [_linspace_axis(400.0, 17)] * 2, 2, 7, 0.3),
    (FunctionSource.sinc_product(2, scale=0.9, amplitude=1.5),
     [_lattice_axis(-5.0 + 1e-13, 0.25, 41)] * 2, 2, 64, 0.0),
]


# the |f|^2 route's widest pair tables: 5 terms and the generator's most, in
# 1..3 variables, with and without the envelope weights
WIDE_CASES = [
    (random_source(np.random.default_rng(60 + 10 * dim + k), dim, k, False),
     [_linspace_axis(20.0, n)] * dim, power, block, 0.0)
    for dim, n, block in ((1, 20001, REDUCE_BLOCK), (2, 150, 1000), (3, 30, 64))
    for k in (5, MAX_TERMS) for power in (0, dim)
]


def with_hard_cases(test):
    for case in HARD_CASES:
        test = example(case)(test)
    return test


def assert_matches_reference(source, axes, power, best, index):
    ref = ref_grid_values(source, axes, power)
    tol = kernel_tolerance(source, axes)
    ref_index = int(np.argmax(ref))
    assert abs(best - ref[ref_index]) <= tol
    # the first maximal node in C order; a node within the rounding of the
    # two routes may stand in for it only when the max is not unique
    runner_up = np.partition(ref, -2)[-2] if ref.size > 1 else -np.inf
    if ref[ref_index] - runner_up > 2 * tol:
        assert index == ref_index
    else:
        assert ref[index] >= ref[ref_index] - 2 * tol
    # the reported node's own pointwise value is the reported max
    assert abs(ref[index] - best) <= tol


def with_wide_cases(test):
    for case in WIDE_CASES:
        test = example(case)(test)
    return test


class TestGridMaxKernel:
    @given(grid_cases())
    @with_hard_cases
    @with_wide_cases
    @settings(max_examples=80, deadline=None)
    def test_matches_pointwise_reference(self, case):
        source, axes, power, block, _ = case
        with mock.patch.object(entire, "REDUCE_BLOCK", block):
            best, index = _grid_max(source, axes, power)
        assert_matches_reference(source, axes, power, best, index)

    @given(grid_cases())
    @with_hard_cases
    @settings(max_examples=60, deadline=None)
    def test_sum_matches_pointwise_walk(self, case):
        # the shifted sum reducer of box means and strips against |f| node by
        # node, summed over the same blocks
        source, axes, _, block, s = case
        with mock.patch.object(meanvalue, "REDUCE_BLOCK", block):
            got = abs_grid_sum(source, [axes], s)[0]
        ref = ref_grid_values(source, axes, s=s)
        total = index_sum(lambda start, stop: ref[start:stop], ref.size, block)
        extra = sinc_phase(source, axes) + math.log2(ref.size)
        assert abs(got - total) <= ref.size * kernel_tolerance(source, axes, s, extra)

    @given(grid_cases())
    @with_hard_cases
    @settings(max_examples=60, deadline=None)
    def test_sinc_tables_match_pointwise_walk(self, case):
        # the first axis as a sinc line, node by node against core.sinc; a
        # polynomial case lends its largest frequency as the scale
        source, axes, _, block, s = case
        if source.kind == "poly":
            line_source = FunctionSource.sinc_product(
                1, scale=float(np.max(np.abs(source.poly.freqs))))
        else:
            line_source = FunctionSource.sinc_product(
                1, scale=source.scale, amplitude=source.amplitude)
        n = axes[0][2]
        line = sinc_line(line_source.scale, axes[0], s, abs(line_source.amplitude), block)
        got = np.concatenate([line(start, min(start + block, n)).copy()
                              for start in range(0, n, block)])
        ref = ref_grid_values(line_source, axes[:1], s=s)
        tol = kernel_tolerance(line_source, axes[:1], s, sinc_phase(line_source, axes[:1]))
        assert np.max(np.abs(got - ref)) <= tol

    @pytest.mark.parametrize("dim,n", [(1, 200001), (2, 300), (3, 50)])
    def test_default_blocks_match_reference(self, dim, n):
        rng = np.random.default_rng(40 + dim)
        source = random_source(rng, dim, 4, sinc_kind=False)
        axes = [_linspace_axis(20.0, n)] * dim
        for power in (0, dim):
            best, index = _grid_max(source, axes, power)
            assert_matches_reference(source, axes, power, best, index)

    def test_vanishing_source_reports_first_node(self):
        f = FunctionSource.constant(0.0, dim=2)
        assert _grid_max(f, [_linspace_axis(5.0, 11)] * 2, power=2) == (0.0, 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 2001])
    def test_linspace_axis_nodes(self, n):
        nodes = midpoint_nodes(*_linspace_axis(20.0, n))
        assert np.allclose(nodes, np.linspace(-20.0, 20.0, n), rtol=0, atol=1e-13)

    def test_net_lattice_nodes(self):
        spacing, steps = 0.2 / math.sqrt(3), 347
        nodes = midpoint_nodes(*_lattice_axis(-20.0, spacing, steps + 1))
        assert np.allclose(nodes, -20.0 + spacing * np.arange(steps + 1), rtol=0, atol=1e-13)


POISSON_CASES = [
    ("sinc", FunctionSource.sinc_product(1, scale=0.8, amplitude=1.5)),
    ("cosine", FunctionSource.cosine([1.3])),
    # a zero 1e-7 past x0 + t for x0 = 0.3 and the node t = 47.45 of the
    # s = 2, n = 400000 window, where log|g| magnifies the rounding of g
    ("cosine-near-zero", FunctionSource.cosine([15.5 * math.pi / (47.75 + 1e-7)])),
    ("exponential", single_exp([0.9])),
    ("unit-constant", FunctionSource.constant(1.0)),
] + [
    ("slice%d" % i, line_slice(
        FunctionSource.from_poly(generate_polynomial(
            seed=7000 + i, dim=1 + i % 3, n_terms=2 + i % 4, radius=2.0, min_gap=0.5)),
        np.random.default_rng(i).uniform(-3, 3, i % 3) if i % 3 else None))
    for i in range(6)
]


def poisson_walk_error(source, s, n_points):
    """(|route - pointwise walk|, tolerance, both log peaks) at x0 = 0.3, T = 1e4 s."""
    x0, t_half_width = 0.3, 1e4 * s
    integral, log_peak = _weighted_log_integral(source, x0, s, t_half_width, n_points)
    ref_integral, ref_peak, condition = ref_weighted_log_integral(
        source, x0, s, t_half_width, n_points)
    c, lam = source_scale(source)
    # the routes round phases up to (T + |x0|) max|lam| apart, an error of
    # eps (T + |x0|) max|lam| l1(c) in g, which log|g| magnifies by 1/|g|;
    # the blocks are also summed in another order
    tol = EPS * ((t_half_width + abs(x0)) * lam * c * condition
                 + math.log2(n_points) * ref_peak)
    return abs(integral - ref_integral), tol, log_peak, ref_peak


class TestPoissonIntegralRoute:
    @pytest.mark.parametrize("name,source", POISSON_CASES, ids=[c[0] for c in POISSON_CASES])
    @pytest.mark.parametrize("s,n_points", [(0.5, 400000), (2.0, 400000), (1.0, 99991)])
    def test_matches_pointwise_walk(self, name, source, s, n_points):
        error, tol, log_peak, ref_peak = poisson_walk_error(source, s, n_points)
        assert error <= tol
        assert (log_peak < UNIMODULAR_LOG_TOL) == (ref_peak < UNIMODULAR_LOG_TOL)

    def test_nodes_near_a_zero_need_the_complex_tables(self, monkeypatch):
        # with only non-positive squares recomputed, |g|^2's absolute rounding
        # ~eps T |d| sum |c_m|^2 next to the cosine's zero breaks the tolerance
        source = dict(POISSON_CASES)["cosine-near-zero"]
        monkeypatch.setattr(entire, "LOW_SQUARE_TOL", 0.0)
        error, tol, _, _ = poisson_walk_error(source, 2.0, 400000)
        assert error > tol

    def test_vanishing_polynomial_matches_the_pointwise_walk(self):
        # sum |c_m|^2 = 0: every node takes the clamped log from the term tables
        source = FunctionSource.from_poly(TrigPolynomial(
            dim=1, freqs=np.array([[0.5], [1.0]]), coeffs=np.zeros(2, dtype=complex)))
        integral, log_peak = _weighted_log_integral(source, 0.3, 1.0, 1e4, 99991)
        ref_integral, ref_peak, _ = ref_weighted_log_integral(source, 0.3, 1.0, 1e4, 99991)
        assert log_peak == ref_peak == -math.log(1e-300)
        assert integral == pytest.approx(ref_integral, rel=1e-12)

    def test_unimodular_sources_keep_zero_tail(self):
        for source in (single_exp([0.9]), line_slice(single_exp([0.7, -1.1]), [2.0])):
            _, log_peak = _weighted_log_integral(source, 0.3, 1.0, 1e4, 400000)
            _, ref_peak, _ = ref_weighted_log_integral(source, 0.3, 1.0, 1e4, 400000)
            assert log_peak < UNIMODULAR_LOG_TOL and ref_peak < UNIMODULAR_LOG_TOL


class TestPointBudget:
    def test_line_checks_refuse_before_allocating(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        g = FunctionSource.cosine([1.0])
        with pytest.raises(BudgetExceededError):
            poisson_majorant_check(g, x0=0.0, s=1.0)
        with pytest.raises(BudgetExceededError):
            phragmen_lindelof_check(g, x=0.0, y=1.0)
        # 10^12 nodes would exhaust memory if anything were built first
        with pytest.raises(BudgetExceededError):
            poisson_majorant_check(g, x0=0.0, s=1.0, n_points=10 ** 12)
        with pytest.raises(BudgetExceededError):
            phragmen_lindelof_check(g, x=0.0, y=1.0, sup_points=10 ** 12)

    def test_net_check_refuses_before_walking_either_grid(self, monkeypatch):
        # the 6-node net fits the budget and the 2001-node dense line does not
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
        monkeypatch.setattr(entire, "_grid_max", mock.Mock(side_effect=AssertionError("walked")))
        with pytest.raises(BudgetExceededError):
            logvinenko_check(FunctionSource.cosine([1.0]), sigma=1.0, delta=0.1,
                             half_width=0.5, dense_per_axis=2001)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMajorantMemory:
    @pytest.mark.parametrize("source", [
        FunctionSource.sinc_product(3, scale=0.7),
        FunctionSource.cosine([0.6, 0.8, 0.2]),
        # the |f|^2 route's tables over 10 pairs of terms
        FunctionSource.from_poly(generate_polynomial(
            seed=8803, dim=3, n_terms=5, radius=3.0, min_gap=0.5)),
    ], ids=["sinc", "cosine", "poly5"])
    def test_three_dim_net_check_near_budget(self, source):
        # dense grid 461^3 = 9.8e7 points, just under the 10^8 budget
        peak = traced_peak(lambda: logvinenko_check(
            source, sigma=1.0, delta=0.25, half_width=20.0, dense_per_axis=461))
        assert peak < 8 << 20

    @pytest.mark.parametrize("source", [
        FunctionSource.sinc_product(1, scale=0.8, amplitude=1.5),
        FunctionSource.constant(2.0),
        line_slice(FunctionSource.from_poly(generate_polynomial(
            seed=7003, dim=3, n_terms=5, radius=2.0, min_gap=0.5)), [0.4, -1.2]),
    ], ids=["sinc", "constant", "slice5"])
    def test_line_checks_hold_a_few_blocks(self, source):
        # 400000 Poisson nodes and 200001 sup nodes in one-block buffers made
        # once per call; fresh per-block temporaries peaked at 3.1-5.6 MB
        assert traced_peak(lambda: poisson_majorant_check(source, x0=0.3, s=1.0)) < 4 << 20
        assert traced_peak(lambda: phragmen_lindelof_check(source, x=0.3, y=1.0)) < 4 << 20

    @pytest.mark.parametrize("dim,n", [(1, 10 ** 7 + 1), (2, 10 ** 4), (3, 464)])
    def test_sinc_box_mean_and_strip_near_budget(self, dim, n):
        # 10^8 nodes in two and three variables (10^7 in one): one sinc line
        # per axis, walked in blocks, whatever the grid
        f = FunctionSource.sinc_product(dim, scale=0.7, amplitude=1.3)
        q = QuadratureSpec(half_width=100.0, points_per_axis=n)
        assert traced_peak(lambda: box_average_abs(f, q)) < 4 << 20
        assert traced_peak(lambda: strip_integral_bound(f, sigma=1.0, s=0.5, quad=q,
                                                        norm_value=1.0)) < 4 << 20

    def test_two_dim_polynomial_envelope(self):
        f = FunctionSource.from_poly(generate_polynomial(
            seed=8800, dim=2, n_terms=4, radius=2.0, min_gap=0.5))
        peak = traced_peak(lambda: growth_envelope_check(f, half_width=20.0, points_per_axis=2001))
        assert peak < 8 << 20

    def test_two_dim_five_term_envelope(self):
        f = FunctionSource.from_poly(generate_polynomial(
            seed=8800, dim=2, n_terms=5, radius=3.0, min_gap=0.5))
        peak = traced_peak(lambda: growth_envelope_check(f, half_width=20.0, points_per_axis=2001))
        assert peak < 8 << 20
