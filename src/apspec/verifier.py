"""End-to-end certification that detected spectra sit inside the type ball.

The pipeline estimates the exponential type, scans candidate frequencies,
and then exercises the quantitative steps that connect growth to spectrum:
a strip integral bound with an explicit constant, a rectangle contour
decomposition whose closure gap measures quadrature honesty, and the decay
of the top-edge integral as the rectangle rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import POLY, FunctionSource, guard_term_exponents, known_type, sinc
from .entire import (
    DEFAULT_RADII,
    InequalityCheck,
    TypeEstimate,
    estimate_type,
    make_check,
)
from .errors import ApspecError, PreconditionError
from .meanvalue import (
    SpectrumReport,
    abs_grid_sum,
    besicovitch_seminorm,
    spectrum_scan,
)
from .quadrature import (
    LadderSpec,
    QuadratureSpec,
    default_points_per_axis,
    grid_points,
    line_sums,
)

# ladder estimates enter the bound constant inflated by this safety factor
NORM_SAFETY = 1.1

# edge magnitudes below this fraction of their l1 term envelope are treated
# as cancellation-dominated and excluded from consecutive-ratio checks
CANCELLATION_GUARD = 0.05

# recommended containment slack: the growth-rate fit is only good to ~0.05
# and its residual does not see cross-term contamination, so auto-derived
# tolerances can undershoot; callers wanting a robust verdict pass this
RECOMMENDED_CONTAINMENT_TOL = 0.1


def strip_bound_constant(dim: int, norm_value: float) -> float:
    """Constant 2^{p+1} (1 + 2 * 3^p * norm) in the strip integral bound."""
    return 2.0 ** (dim + 1) * (1.0 + 2.0 * 3.0 ** dim * norm_value)


def _resolve_norm(source: FunctionSource, norm_value: float | None,
                  ladder: LadderSpec | None, quad: QuadratureSpec | None) -> float:
    """Seminorm to use inside the bound constant.

    An explicitly supplied value is trusted as-is; ladder estimates carry
    the safety inflation because a finite ladder can sit under the limsup.
    """
    if norm_value is not None:
        if norm_value < 0:
            raise PreconditionError("norm_value must be >= 0")
        return norm_value
    ladder = ladder or LadderSpec()
    if quad is None:
        quad = QuadratureSpec(half_width=ladder.base,
                              points_per_axis=default_points_per_axis(source.dim))
    return NORM_SAFETY * besicovitch_seminorm(source, ladder, quad).value


@dataclass(frozen=True)
class StripBoundResult:
    """Shifted strip integral against its mean-value bound."""

    lhs: float
    rhs: float
    bound_constant: float
    norm_estimate: float
    s: float
    half_width: float
    tolerance: float
    passed: bool

    def as_check(self) -> InequalityCheck:
        context = "strip_bound s=%.6g T=%.6g C=%.6g" % (self.s, self.half_width, self.bound_constant)
        return make_check(context, self.lhs, self.rhs, self.tolerance)


def strip_integral_bound(source: FunctionSource, sigma: float, s: float,
                         quad: QuadratureSpec, *,
                         s_max: float = 1.0,
                         min_half_width: float | None = None,
                         norm_value: float | None = None,
                         norm_ladder: LadderSpec | None = None,
                         norm_quad: QuadratureSpec | None = None,
                         tolerance: float | None = None) -> StripBoundResult:
    """Check int_{[-T,T]^p} |f(x1 + is, x')| e^{-s sigma} dx <= C * T^p.

    The constant is 2^{p+1} (1 + 2 * 3^p * ||f||_B) with the seminorm taken
    from a ladder estimate (inflated by the safety factor) unless supplied.
    """
    if sigma < 0:
        raise PreconditionError("sigma must be >= 0")
    if not 0 < s <= s_max:
        raise PreconditionError("s = %r outside (0, s_max = %r]" % (s, s_max))
    if min_half_width is None:
        min_half_width = max(50.0, 100.0 * s_max)
    if quad.half_width < min_half_width:
        raise PreconditionError(
            "half_width %.6g below the required %.6g for shifts up to s_max = %.6g"
            % (quad.half_width, min_half_width, s_max)
        )
    p = source.dim
    half_width = quad.half_width
    n = quad.points_per_axis
    axes = [(-half_width, half_width, n)] * p
    raw = abs_grid_sum(source, [axes], s)[0] * math.prod([2.0 * half_width / n] * p)
    lhs = float(raw) * math.exp(-s * sigma)
    norm = _resolve_norm(source, norm_value, norm_ladder, norm_quad)
    constant = strip_bound_constant(p, norm)
    rhs = constant * half_width ** p
    if tolerance is None:
        tolerance = 1e-9 * (1.0 + abs(rhs))
    return StripBoundResult(lhs=lhs, rhs=rhs, bound_constant=constant,
                            norm_estimate=norm, s=s, half_width=half_width,
                            tolerance=tolerance, passed=bool(lhs <= rhs + tolerance))


@dataclass(frozen=True)
class ContourDecomposition:
    """Rectangle contour pieces for int f(x) e^{i x1 (sigma+eta)} dx.

    real_axis is the bottom edge of the rectangle [-T, T] x [0, y1] in the
    first complex coordinate (the remaining coordinates stay real and are
    integrated over the same box in every piece).  Analyticity makes
    real_axis = left_edge + top_edge - right_edge exactly; closure_gap is
    the quadrature's failure to reproduce that identity.
    """

    real_axis: complex
    left_edge: complex
    top_edge: complex
    right_edge: complex
    closure_gap: float
    sigma: float
    eta: float
    half_width: float
    y1: float
    x1_points: int
    side_points: int
    rest_points: int


def _line_integrals(fn, rows: np.ndarray, axis) -> np.ndarray:
    """Midpoint integrals over one axis, one per row: line_sums times the cell."""
    return line_sums(fn, rows, axis) * ((axis[1] - axis[0]) / axis[2])


def _term_box_integrals(exponents: np.ndarray, axes) -> np.ndarray:
    """Per-term midpoint integrals prod_j int e^{a_mj t_j} dt_j over a box.

    exponents is a (k, p) complex matrix with one column per axis.  Each
    term's integrand factors over the axes, so its sum over the tensor grid
    is the product of its p one-axis sums on the same nodes, one row per term.
    """
    result = np.ones(exponents.shape[0], dtype=np.complex128)
    for a, axis in zip(exponents.T, axes):
        result = result * _line_integrals(
            lambda a, x, out: np.exp(np.multiply.outer(a, x, out=out), out=out), a, axis)
    return result


def _sinc_rest(source: FunctionSource, rest) -> complex:
    """A prod_{j>1} int sinc(a x_j) dx_j over p - 1 copies of the rest axis."""
    line = _line_integrals(lambda _, x, out: np.copyto(out, sinc(source.scale * x)),
                           np.zeros(1), rest)[0]
    return source.amplitude * line ** (source.dim - 1)


def _horizontal_edges(source: FunctionSource, omega: float, half_width: float,
                      heights, x1_points: int, rest_points: int) -> np.ndarray:
    """int f(x1 + iy, x') e^{i omega (x1 + iy)} dx over the box, at each height y.

    For a polynomial the integrand is sum_m c_m e^{-(lam_m1 + omega) y}
    e^{i <x, lam_m> + i omega x1}; the box integrals of the height-free
    factors are computed once and each height is a weighted sum of them.
    A sinc product's edge is A e^{-omega y} int sinc(a(x1 + iy)) e^{i omega x1}
    dx1 prod_{j>1} int sinc(a x_j) dx_j, one row per height.  The full grid is
    held to the point budget, never built.
    """
    rest = (-half_width, half_width, rest_points)
    axes = [(-half_width, half_width, x1_points)] + [rest] * (source.dim - 1)
    grid_points([n for (_, _, n) in axes])
    heights = np.asarray(heights, dtype=np.float64)
    if source.kind == POLY:
        poly = source.poly
        guard_term_exponents(np.outer(heights, poly.freqs[:, 0]))
        shifted = poly.freqs.copy()
        shifted[:, 0] += omega
        sums = _term_box_integrals(1j * shifted, axes)
        weights = np.exp(-np.outer(heights, shifted[:, 0])) * (poly.coeffs * sums)
        return weights.sum(axis=1)

    def x1_rows(ys: np.ndarray, x: np.ndarray, out: np.ndarray):
        np.multiply(sinc(source.scale * (x + 1j * ys[:, None])), np.exp(1j * omega * x), out=out)

    edges = _line_integrals(x1_rows, heights, axes[0]) * np.exp(-omega * heights)
    return edges * _sinc_rest(source, rest)


def _side_integrals(source: FunctionSource, omega: float, half_width: float,
                    y1: float, side_points: int, rest_points: int) -> list[complex]:
    """i int_0^{y1} f(x1 + is, x') e^{i x1 omega - s omega} dx' ds at x1 = -T and x1 = T.

    For a polynomial the integrand is sum_m c_m e^{i lam_m1 x1}
    e^{-(lam_m1 + omega) s} e^{i <x', lam_m'>} times the phase, and its box
    integral comes from per-term axis sums, shared by both sides.  A sinc
    product's is A int sinc(a(x1 + is)) e^{-omega s} ds prod_{j>1} int
    sinc(a x_j) dx_j times the phase, one row per side.
    """
    if y1 == 0.0:
        return [0.0 + 0.0j] * 2
    rest = (-half_width, half_width, rest_points)
    axes = [(0.0, y1, side_points)] + [rest] * (source.dim - 1)
    grid_points([n for (_, _, n) in axes])
    x1s = (-half_width, half_width)
    phases = [1j * math.cos(omega * x1) - math.sin(omega * x1) for x1 in x1s]  # i e^{i omega x1}
    if source.kind == POLY:
        poly = source.poly
        # with omega > 0, |lam_m1 + omega| s <= y1 |lam_m1| whenever the
        # factor grows, so this guard covers e^{-(lam_m1 + omega) s} too
        guard_term_exponents(y1 * poly.freqs[:, 0])
        exponents = 1j * poly.freqs
        exponents[:, 0] = -(poly.freqs[:, 0] + omega)
        sums = _term_box_integrals(exponents, axes)
        return [complex((poly.coeffs * np.exp(1j * x1 * poly.freqs[:, 0]) * sums).sum() * phase)
                for x1, phase in zip(x1s, phases)]

    def s_rows(x1: np.ndarray, t: np.ndarray, out: np.ndarray):
        np.multiply(sinc(source.scale * (x1[:, None] + 1j * t)), np.exp(-omega * t), out=out)

    sides = _line_integrals(s_rows, np.array(x1s), axes[0]) * _sinc_rest(source, rest)
    return [complex(side * phase) for side, phase in zip(sides, phases)]


def contour_decomposition(source: FunctionSource, sigma: float, eta: float,
                          half_width: float, y1: float, quad: QuadratureSpec, *,
                          side_points: int = 2048,
                          rest_points: int | None = None) -> ContourDecomposition:
    """Quadrature of all four rectangle edges of the shifted contour.

    The first coordinate is resolved with quad.points_per_axis on the
    horizontal edges and side_points on the vertical ones; the remaining
    coordinates share one rest_points grid across all four pieces, so their
    discretization error cancels exactly in the closure gap.
    """
    if eta <= 0:
        raise PreconditionError("eta must be positive")
    if y1 < 0:
        raise PreconditionError("y1 must be >= 0")
    if sigma < 0:
        raise PreconditionError("sigma must be >= 0")
    p = source.dim
    if rest_points is None:
        rest_points = min(64, quad.points_per_axis) if p > 1 else 1
    omega = sigma + eta
    bottom, top = map(complex, _horizontal_edges(
        source, omega, half_width, (0.0, y1), quad.points_per_axis, rest_points))
    left, right = _side_integrals(source, omega, half_width, y1, side_points, rest_points)
    gap = abs(bottom - (left + top - right))
    return ContourDecomposition(real_axis=bottom, left_edge=left, top_edge=top,
                                right_edge=right, closure_gap=gap, sigma=sigma,
                                eta=eta, half_width=half_width, y1=y1,
                                x1_points=quad.points_per_axis,
                                side_points=side_points, rest_points=rest_points)


def top_edge_decay_check(source: FunctionSource, sigma: float, eta: float,
                         half_width: float, y1_values, quad: QuadratureSpec, *,
                         rest_points: int | None = None,
                         norm_value: float | None = None,
                         norm_ladder: LadderSpec | None = None,
                         norm_quad: QuadratureSpec | None = None,
                         tolerance: float | None = None,
                         ratio_slack: float = 1.05) -> list[InequalityCheck]:
    """Check |top edge| <= C T^p e^{-eta y1} along a ladder of heights.

    For polynomial sources whose first-coordinate frequencies stay clear of
    the critical value -sigma, consecutive magnitudes must also decay at
    least at rate e^{-eta dy} up to the ratio slack.
    """
    if eta <= 0:
        raise PreconditionError("eta must be positive")
    if sigma < 0:
        raise PreconditionError("sigma must be >= 0")
    y1s = sorted(float(y) for y in y1_values)
    if not y1s:
        raise PreconditionError("y1_values must name at least one height")
    if y1s[0] < 0:
        raise PreconditionError("y1 values must be nonnegative")
    p = source.dim
    if rest_points is None:
        rest_points = min(64, quad.points_per_axis) if p > 1 else 1
    omega = sigma + eta
    norm = _resolve_norm(source, norm_value, norm_ladder, norm_quad)
    constant = strip_bound_constant(p, norm)
    scale = constant * half_width ** p
    checks: list[InequalityCheck] = []
    magnitudes = np.abs(_horizontal_edges(
        source, omega, half_width, y1s, quad.points_per_axis, rest_points)).tolist()
    for y1, mag in zip(y1s, magnitudes):
        rhs = scale * math.exp(-eta * y1)
        tol = tolerance if tolerance is not None else 1e-9 * (1.0 + rhs)
        checks.append(make_check("top_edge_decay y1=%.6g eta=%.6g T=%.6g"
                                 % (y1, eta, half_width), mag, rhs, tol))
    ratio_ok = source.kind == POLY and float(np.min(source.poly.freqs[:, 0])) > -sigma + 0.01
    if ratio_ok:
        # Term-wise the edge integral is sum_m A_m e^{-(lam_m1 + omega) y}, each
        # exponent >= eta, so consecutive magnitudes obey the e^{-eta dy} rate
        # unless terms cancel; skip heights sitting far below the l1 envelope.
        coeff_abs = np.abs(source.poly.coeffs)
        rates = source.poly.freqs[:, 0] + omega
        box = (2.0 * half_width) ** p
        for (y_a, m_a), (y_b, m_b) in zip(zip(y1s, magnitudes), zip(y1s[1:], magnitudes[1:])):
            envelope = box * float(np.sum(coeff_abs * np.exp(-rates * y_a)))
            if m_a <= CANCELLATION_GUARD * envelope:
                continue
            bound = math.exp(-eta * (y_b - y_a)) * ratio_slack
            checks.append(make_check("top_edge_ratio y1=%.6g->%.6g" % (y_a, y_b),
                                     m_b / m_a, bound, 1e-9))
    return checks


def containment_verdict(spectrum: SpectrumReport, sigma_hat: float,
                        tol: float) -> tuple[bool, float]:
    """Verdict on sp f inside the closed ball of radius sigma_hat + tol.

    Returns (containment, max_violation) where max_violation is the largest
    |lam| - sigma_hat - tol over detected frequencies, -inf when nothing
    was detected.
    """
    if tol < 0:
        raise PreconditionError("tol must be >= 0")
    if not spectrum.entries:
        return True, float("-inf")
    violations = [float(np.linalg.norm(e.frequency)) - sigma_hat - tol
                  for e in spectrum.entries]
    worst = max(violations)
    return worst <= 0.0, worst


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the end-to-end containment run; defaults suit p <= 3."""

    radii: tuple[float, ...] = DEFAULT_RADII
    n_dirs: int | None = None
    candidates: tuple[tuple[float, ...], ...] | None = None
    candidate_step: float = 0.0
    scan_half_width: float = 200.0
    scan_points: int | None = None
    threshold: float = 0.05
    tol: float | None = None
    strip_s: tuple[float, ...] = (0.5,)
    strip_half_widths: tuple[float, ...] = (50.0,)
    strip_points: int | None = None
    strip_min_half_width: float = 50.0
    eta: float = 0.5
    y1_values: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    decay_x1_points: int = 1024
    rest_points: int = 16
    norm_ladder: LadderSpec = field(default_factory=LadderSpec)
    norm_points: int | None = None

    def __post_init__(self):
        # every stage after the scan indexes or loops over these ladders; an
        # empty one would crash the run or drop its checks from the verdict
        for name in ("strip_s", "strip_half_widths", "y1_values"):
            if len(getattr(self, name)) == 0:
                raise PreconditionError("VerifyConfig.%s must not be empty" % name)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Everything the containment run measured, plus the verdict."""

    label: str
    dim: int
    sigma_known: float
    type_estimate: TypeEstimate
    spectrum: SpectrumReport
    tol: float
    containment: bool
    max_violation: float
    norm_estimate: float
    strip_results: tuple[StripBoundResult, ...]
    decay_checks: tuple[InequalityCheck, ...]
    config: VerifyConfig

    def all_passed(self) -> bool:
        return (self.containment
                and all(r.passed for r in self.strip_results)
                and all(c.passed for c in self.decay_checks))


class VerificationAborted(ApspecError):
    """A sub-operation failed; carries whatever part of the report exists."""

    def __init__(self, stage: str, cause: Exception, partial: dict):
        super().__init__("verification aborted during %s: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause
        self.partial = partial


def _default_candidates(source: FunctionSource, sigma: float) -> np.ndarray:
    """True frequencies (for polynomials) plus an off-spectrum decoy ladder.

    Decoys sit on the first axis at radii sigma + 1, sigma + 1.8, ...; that
    keeps them at per-axis distance >= 1 from any frequency inside the type
    ball, so they cannot drag the cross-talk floor up.
    """
    p = source.dim
    decoys = []
    for i in range(4):
        radius = sigma + 1.0 + 0.8 * i
        for sign in (+1.0, -1.0):
            vec = np.zeros(p)
            vec[0] = sign * radius
            decoys.append(vec)
    if source.kind == POLY:
        return np.vstack([source.poly.freqs, np.array(decoys)])
    return np.vstack([np.zeros((1, p)), np.array(decoys)])


def verify_spectral_containment(source: FunctionSource,
                                config: VerifyConfig | None = None) -> VerificationReport:
    """Run the full desk-scale certificate for sp f inside B(0, sigma).

    Stages: type fit, spectrum scan, containment verdict, strip integral
    bounds, and top-edge decay.  Any stage error aborts with the partial
    report attached to the exception.
    """
    config = config or VerifyConfig()
    partial: dict = {}
    stage = "type_estimate"
    try:
        estimate = estimate_type(source, radii=config.radii, n_dirs=config.n_dirs)
        partial["type_estimate"] = estimate
        sigma_known = known_type(source)
        partial["sigma_known"] = sigma_known

        stage = "spectrum_scan"
        if config.candidates is not None:
            candidates = np.array(config.candidates, dtype=np.float64)
        else:
            candidates = _default_candidates(source, sigma_known)
        scan_points = config.scan_points or default_points_per_axis(source.dim)
        scan_quad = QuadratureSpec(half_width=config.scan_half_width,
                                   points_per_axis=scan_points)
        spectrum = spectrum_scan(source, candidates, scan_quad, config.threshold)
        partial["spectrum"] = spectrum

        stage = "containment"
        tol = config.tol if config.tol is not None else (2.0 * estimate.residual
                                                         + config.candidate_step)
        containment, max_violation = containment_verdict(spectrum, estimate.sigma_hat, tol)
        partial["containment"] = containment

        stage = "seminorm"
        norm_points = config.norm_points or default_points_per_axis(source.dim)
        norm_quad = QuadratureSpec(half_width=config.norm_ladder.base,
                                   points_per_axis=norm_points)
        norm = NORM_SAFETY * besicovitch_seminorm(source, config.norm_ladder, norm_quad).value
        partial["norm_estimate"] = norm

        stage = "strip_bound"
        strip_points = config.strip_points or default_points_per_axis(source.dim)
        strips = []
        for half_width in config.strip_half_widths:
            for s in config.strip_s:
                strip_quad = QuadratureSpec(half_width=half_width, points_per_axis=strip_points)
                strips.append(strip_integral_bound(
                    source, sigma_known, s, strip_quad,
                    s_max=max(config.strip_s),
                    min_half_width=config.strip_min_half_width,
                    norm_value=norm))
        partial["strip_results"] = tuple(strips)

        stage = "top_edge_decay"
        decay_quad = QuadratureSpec(half_width=config.strip_half_widths[0],
                                    points_per_axis=config.decay_x1_points)
        decay = top_edge_decay_check(
            source, sigma_known, config.eta, config.strip_half_widths[0],
            config.y1_values, decay_quad,
            rest_points=config.rest_points if source.dim > 1 else 1,
            norm_value=norm)
        partial["decay_checks"] = tuple(decay)
    except ApspecError as exc:
        raise VerificationAborted(stage, exc, partial) from exc

    return VerificationReport(
        label=source.label or source.kind,
        dim=source.dim,
        sigma_known=sigma_known,
        type_estimate=estimate,
        spectrum=spectrum,
        tol=tol,
        containment=containment,
        max_violation=max_violation,
        norm_estimate=norm,
        strip_results=tuple(strips),
        decay_checks=tuple(decay),
        config=config,
    )
