"""Box means, the Besicovitch seminorm, and averaged Fourier coefficients.

The seminorm is limsup_{T->inf} of the normalized box mean of |f|; at desk
scale the limsup is replaced by the max over the top levels of a doubling
ladder.  Averaged coefficients at a frequency lam are the same box means
of f(x) * exp(-i<x, lam>).  For trigonometric polynomials the finite-T
average has the closed form

    a_T(lam) = sum_m c_m * prod_j sinc((lam_mj - lam_j) * T)

which serves both as the fast path and as the oracle for the grid route.
The grid route is the midpoint rule on the box, summed per axis: both
source kinds factor over the coordinates, so each grid mean is a product
of 1-D midpoint means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DUPLICATE_FREQ_TOL,
    POLY,
    FunctionSource,
    TrigPolynomial,
    coefficient_l1_bound,
    eval_real,
    guard_term_exponents,
    rotate,
    sinc,
)
from .errors import DimensionMismatchError, PreconditionError
from .quadrature import (
    COMPENSATED,
    REDUCE_BLOCK,
    LadderSpec,
    QuadratureSpec,
    exp_axis_sums,
    grid_points,
    index_sum,
    midpoint_nodes,
    split_axis,
    symmetric_axes,
    tensor_mean,
    tensor_sum,
)

# Error model for the midpoint grid route against the closed form:
#   |quadrature - closed_form| <= FIT * l1(c) * T^2 * (1 + max|lam|)^2 / n^2
# Fitted once on a reference family (T in [50, 200], n >= 512, |lam| <= 2.5,
# up to 5 terms) where the worst observed ratio was 0.0049; frozen at twice
# that.  Grids must stay well under the Nyquist limit n > 2 |lam| T / pi.
QUADRATURE_FIT_CONSTANT = 0.01

# safety factor applied to the threshold floor for non-polynomial sources
NONPOLY_FLOOR_FACTOR = 10.0

# nodes of whole rows per Lead @ Last product in poly_abs_grid_sum; a
# quarter block keeps its complex scratch well below a block's
_ABS_ROW_GROUP = REDUCE_BLOCK // 4


@dataclass(frozen=True)
class SeminormEstimate:
    """Ladder surrogate for the Besicovitch seminorm.

    value is the max over the top tail levels; per_level keeps the full
    (half_width, box mean) trace for convergence inspection.
    """

    value: float
    per_level: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class SpectrumEntry:
    frequency: np.ndarray
    coefficient: complex
    magnitude: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Detected frequencies with averaged coefficients, largest first."""

    dim: int
    entries: tuple[SpectrumEntry, ...]
    threshold: float
    floor: float
    quadrature: QuadratureSpec
    method: str


@dataclass(frozen=True)
class RotationIdentityResult:
    """Both sides of a(lam, f) = a(A^{-1} lam, f(Ax)) at finite T."""

    lhs: complex
    rhs: complex
    gap: float


def poly_abs_grid_sum(poly: TrigPolynomial, s: float, half_width: float, n: int,
                      summation: str = COMPENSATED) -> float:
    """Plain sum of |f(x1 + is, x')| over the n^p midpoint grid of [-T, T]^p.

    Each term factors over the axes as c_m e^{-s lam_m1} prod_j e^{i x_j lam_mj}.
    With Lead[r, m] the product of the leading-axis factors at row r of the
    grid and Last[m, c] = e^{i x_p lam_mp}, the node values are the matrix
    product Lead @ Last, so only k x n exponentials per axis are computed.
    One variable is split into coarse x fine nodes by split_axis, and the
    walk stops after n nodes.  The walk keeps index_sum's blocks and
    summation: each block's magnitudes fill one block-sized buffer, built
    from products over groups of whole rows of about _ABS_ROW_GROUP nodes (a
    row longer than a block is multiplied in pieces of at most two).  All
    scratch buffers are made once per call.
    """
    p = poly.dim
    total = grid_points([n] * p)
    damp = s * poly.freqs[:, 0]
    guard_term_exponents(damp)
    weights = poly.coeffs * np.exp(-damp)
    if p == 1:
        cols, origins, offsets = split_axis((-half_width, half_width, n))
        row_shape = [origins.size]
        row_tables = [np.exp(1j * np.outer(origins, poly.freqs[:, 0]))]
        last = np.exp(1j * np.outer(poly.freqs[:, 0], offsets))
    else:
        cols = n
        row_shape = [n] * (p - 1)
        nodes = midpoint_nodes(-half_width, half_width, n)
        row_tables = [np.exp(1j * np.outer(nodes, poly.freqs[:, j])) for j in range(p - 1)]
        last = np.exp(1j * np.outer(poly.freqs[:, -1], nodes))
    row_tables[0] = row_tables[0] * weights
    block = min(REDUCE_BLOCK, total)
    # at least two rows per product: a one-row product takes numpy's
    # vector-matrix route, whose rounding differs from the matrix product's
    group = max(2, _ABS_ROW_GROUP // cols)
    # a block touches at most (block - 1) // cols + 2 rows
    span = min(group + 1, (block - 1) // cols + 2, math.prod(row_shape))
    values = np.empty(span * cols if cols <= block else block, dtype=np.complex128)
    magnitudes = np.empty(block)
    lead = np.empty((span, poly.n_terms), dtype=np.complex128)
    factor = np.empty_like(lead)

    def lead_rows(r0: int, r1: int) -> np.ndarray:
        if p <= 2:
            return row_tables[0][r0:r1]
        ix = np.unravel_index(np.arange(r0, r1), row_shape)
        m = r1 - r0
        # mode="clip" writes straight into out; the indices are in range
        np.take(row_tables[0], ix[0], axis=0, out=lead[:m], mode="clip")
        for table, i in zip(row_tables[1:], ix[1:]):
            np.take(table, i, axis=0, out=factor[:m], mode="clip")
            np.multiply(lead[:m], factor[:m], out=lead[:m])
        return lead[:m]

    def fn(start: int, stop: int) -> np.ndarray:
        if cols <= block:
            r, r_end = start // cols, (stop - 1) // cols + 1
            pos = start
            while r < r_end:
                r1 = min(r + group, r_end)
                if r_end - r1 == 1:
                    r1 = r_end  # never leave one row for a product of its own
                rows = values[:(r1 - r) * cols]
                np.matmul(lead_rows(r, r1), last, out=rows.reshape(r1 - r, cols))
                end = min(stop, r1 * cols)
                np.abs(rows[pos - r * cols:end - r * cols], out=magnitudes[pos - start:end - start])
                pos, r = end, r1
        else:
            # rows longer than a block: each block covers pieces of at most two
            pos = start
            while pos < stop:
                r, c = divmod(pos, cols)
                width = min(cols - c, stop - pos)
                piece = values[:width]
                np.matmul(lead_rows(r, r + 1), last[:, c:c + width], out=piece.reshape(1, width))
                np.abs(piece, out=magnitudes[pos - start:pos - start + width])
                pos += width
        # the next block overwrites the buffer; index_sum has reduced it by then
        return magnitudes[:stop - start]

    return float(index_sum(fn, total, summation, REDUCE_BLOCK))


def box_average_abs(source: FunctionSource, quad: QuadratureSpec) -> float:
    """Normalized mean of |f| over [-T, T]^p on the midpoint grid.

    Polynomials take poly_abs_grid_sum (per-axis tables and a matrix
    product); sinc products are evaluated node by node.
    """
    n = quad.points_per_axis
    if source.kind == POLY:
        return poly_abs_grid_sum(source.poly, 0.0, quad.half_width, n,
                                 quad.summation) / n ** source.dim
    axes = symmetric_axes(quad.half_width, n, source.dim)

    def fn(coords: np.ndarray) -> np.ndarray:
        return np.abs(eval_real(source, coords))

    return float(tensor_mean(fn, axes, quad.summation))


def besicovitch_seminorm(source: FunctionSource, ladder: LadderSpec,
                         quad: QuadratureSpec) -> SeminormEstimate:
    """Ladder estimate of the Besicovitch seminorm of f.

    quad supplies the per-axis resolution and summation policy; its
    half_width is replaced by each ladder level in turn.
    """
    trace = []
    for half_width in ladder.half_widths():
        level_quad = QuadratureSpec(
            half_width=float(half_width),
            points_per_axis=quad.points_per_axis,
            summation=quad.summation,
        )
        trace.append((float(half_width), box_average_abs(source, level_quad)))
    tail = trace[-ladder.tail_levels:]
    return SeminormEstimate(value=max(v for _, v in tail), per_level=tuple(trace))


def _check_frequency(lam, dim: int) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam.shape != (dim,):
        raise DimensionMismatchError("frequency has shape %r, expected (%d,)" % (lam.shape, dim))
    return lam


def fourier_coeff_closed_form(poly: TrigPolynomial, lam, half_width: float) -> complex:
    """Exact finite-T averaged coefficient of a trigonometric polynomial.

    (1/2T)^p int_{[-T,T]^p} P(x) e^{-i<x,lam>} dx
        = sum_m c_m prod_j sinc((lam_mj - lam_j) T)
    """
    if not half_width > 0:
        raise PreconditionError("half_width must be positive")
    lam = _check_frequency(lam, poly.dim)
    offsets = poly.freqs - lam[None, :]
    factors = np.prod(sinc(offsets * half_width), axis=1)
    return complex(np.dot(factors, poly.coeffs))


def _grid_coefficients(source: FunctionSource, candidates: np.ndarray,
                       quad: QuadratureSpec) -> np.ndarray:
    """Midpoint-rule averaged coefficients at each candidate, from per-axis sums.

    Both source kinds factor over the axes, so each grid mean is a product
    of 1-D means over the shared axis: for a polynomial
    sum_m c_m prod_j mean_i e^{i (lam_mj - lam_j) x_i}, for a sinc product
    A prod_j mean_i sinc(a x_i) e^{-i lam_j x_i}.  The full grid is checked
    against the point budget before anything is built.
    """
    n = quad.points_per_axis
    grid_points([n] * source.dim)
    axis = (-quad.half_width, quad.half_width, n)
    if source.kind == POLY:
        poly = source.poly
        offsets = poly.freqs[None, :, :] - candidates[:, None, :]
        means = exp_axis_sums(1j * offsets.ravel(), axis, quad.summation) / n
        return np.prod(means.reshape(offsets.shape), axis=2) @ poly.coeffs
    # one row per (candidate, axis) pair, sinc evaluated once per node of a
    # walk; rows are taken in groups so a block of values stays near
    # REDUCE_BLOCK entries however many candidates there are
    lams = candidates.ravel()
    group = max(1, REDUCE_BLOCK // min(n, REDUCE_BLOCK))
    sums = np.empty(lams.shape[0], dtype=np.complex128)
    for start in range(0, lams.shape[0], group):
        rows = lams[start:start + group]

        def fn(coords: np.ndarray, rows=rows) -> np.ndarray:
            x = coords[:, 0]
            return sinc(source.scale * x) * np.exp(-1j * np.outer(rows, x))

        sums[start:start + group] = tensor_sum(fn, [axis], quad.summation)
    means = sums / n
    return source.amplitude * np.prod(means.reshape(candidates.shape), axis=1)


def fourier_coeff_quadrature(source: FunctionSource, lam, quad: QuadratureSpec) -> complex:
    """Averaged coefficient by the midpoint rule on the box, summed per axis.

    The integrand of either source kind factors over the axes, so the grid
    mean is a product of 1-D midpoint means (see _grid_coefficients); the
    p-dimensional grid is never walked.
    """
    lam = _check_frequency(lam, source.dim)
    return complex(_grid_coefficients(source, lam[None, :], quad)[0])


def _closed_form_batch(poly: TrigPolynomial, candidates: np.ndarray, half_width: float) -> np.ndarray:
    offsets = poly.freqs[None, :, :] - candidates[:, None, :]
    factors = np.prod(sinc(offsets * half_width), axis=2)
    return factors @ poly.coeffs


def quadrature_error_scale(half_width: float, lam_max: float, points_per_axis: int) -> float:
    return half_width ** 2 * (1.0 + lam_max) ** 2 / points_per_axis ** 2


def crosstalk_floor(source: FunctionSource, candidates: np.ndarray, quad: QuadratureSpec) -> float:
    """Largest coefficient magnitude a spurious candidate could register.

    For polynomials this uses |sinc(u T)| <= 1/(|u| T) on the best-separated
    axis of each (candidate, term) pair.  For other sources it falls back on
    the fitted grid error model with a safety factor.
    """
    if source.kind == POLY:
        poly = source.poly
        diffs = np.abs(poly.freqs[None, :, :] - candidates[:, None, :])
        worst_axis = np.max(diffs, axis=2)
        distinct = worst_axis > DUPLICATE_FREQ_TOL
        if not np.any(distinct):
            return 0.0
        gamma_min = float(np.min(worst_axis[distinct]))
        return poly.coefficient_l1() / (gamma_min * quad.half_width)
    lam_max = float(np.max(np.linalg.norm(candidates, axis=1))) if candidates.size else 0.0
    scale = quadrature_error_scale(quad.half_width, lam_max, quad.points_per_axis)
    return NONPOLY_FLOOR_FACTOR * QUADRATURE_FIT_CONSTANT * coefficient_l1_bound(source) * scale


def spectrum_scan(source: FunctionSource, candidates, quad: QuadratureSpec,
                  threshold: float) -> SpectrumReport:
    """Averaged coefficients at candidate frequencies, filtered by threshold.

    Polynomial sources use the closed form at T = quad.half_width; other
    sources run the grid quadrature.  The threshold must exceed the
    cross-talk floor, otherwise detections would be indistinguishable from
    leakage between candidates.
    """
    cands = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if cands.ndim != 2 or cands.shape[1] != source.dim:
        raise DimensionMismatchError(
            "candidate array has shape %r, expected (m, %d)" % (cands.shape, source.dim)
        )
    if cands.shape[0] == 0:
        raise PreconditionError("need at least one candidate frequency")
    floor = crosstalk_floor(source, cands, quad)
    if not threshold > floor:
        raise PreconditionError(
            "threshold %.6g does not exceed the cross-talk floor %.6g; "
            "raise the threshold or enlarge T" % (threshold, floor)
        )
    if source.kind == POLY:
        coeffs = _closed_form_batch(source.poly, cands, quad.half_width)
        method = "closed_form"
    else:
        coeffs = _grid_coefficients(source, cands, quad)
        method = "quadrature"
    mags = np.abs(coeffs)
    keep = mags >= threshold
    order = np.lexsort(tuple(cands[keep].T[::-1]) + (-mags[keep],))
    entries = tuple(
        SpectrumEntry(frequency=cands[keep][i].copy(), coefficient=complex(coeffs[keep][i]),
                      magnitude=float(mags[keep][i]))
        for i in order
    )
    return SpectrumReport(dim=source.dim, entries=entries, threshold=threshold,
                          floor=floor, quadrature=quad, method=method)


def rotation_invariance_check(poly: TrigPolynomial, matrix, lam,
                              half_width: float) -> RotationIdentityResult:
    """Check a(lam, f) = a(A^T lam, f(Ax)) via closed forms at finite T."""
    lam = _check_frequency(lam, poly.dim)
    a = np.asarray(matrix, dtype=np.float64)
    rotated = rotate(poly, a)
    lhs = fourier_coeff_closed_form(poly, lam, half_width)
    rhs = fourier_coeff_closed_form(rotated, a.T @ lam, half_width)
    return RotationIdentityResult(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))
