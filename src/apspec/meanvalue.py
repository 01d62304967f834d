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
of 1-D midpoint means.  |f| has no such product: one Lead @ Last block kernel
gives |f| for sums and, over difference frequencies, |f|^2 for entire's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (
    DUPLICATE_FREQ_TOL,
    POLY,
    FunctionSource,
    TrigPolynomial,
    coefficient_l1_bound,
    guard_term_exponents,
    rotate,
    sinc,
)
from .errors import DimensionMismatchError, PreconditionError
from .quadrature import (
    REDUCE_BLOCK,
    Axis,
    LadderSpec,
    QuadratureSpec,
    exp_axis_sums,
    grid_points,
    index_sum,
    line_sums,
    midpoint_nodes,
    ramp,
    split_axis,
    symmetric_axes,
)

# Error model for the midpoint grid route against the closed form:
#   |quadrature - closed_form| <= FIT * l1(c) * T^2 * (1 + max|lam|)^2 / n^2
# Fitted once on a reference family (T in [50, 200], n >= 512, |lam| <= 2.5,
# up to 5 terms) where the worst observed ratio was 0.0049; frozen at twice
# that.  Grids must stay well under the Nyquist limit n > 2 |lam| T / pi.
QUADRATURE_FIT_CONSTANT = 0.01

# safety factor applied to the threshold floor for non-polynomial sources
NONPOLY_FLOOR_FACTOR = 10.0

# complex nodes of whole rows per Lead @ Last product in _row_products (real
# products take twice as many); a quarter block keeps scratch below a block's
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


def _row_products(tables, last: np.ndarray, total: int, block: int, finish) -> list:
    """Per grid g, fn(start, stop), stop - start <= block: its nodes in buffers all share.

    Row r (C order) of grid g is the product of one row of each (grids, n_j, k) table's
    [g], times last[g] (k, cols, or 2k real rows against (Re, Im) of complex tables), for
    total nodes in all; finish(values, pos, out) maps the products at nodes pos, ... to
    out.  Every buffer is made here, once."""
    row_shape = [table.shape[1] for table in tables]
    cols = last.shape[2]
    # at least two rows per product: a one-row product takes numpy's
    # vector-matrix route, whose rounding differs from the matrix product's
    group = max(2, _ABS_ROW_GROUP * 16 // last.dtype.itemsize // cols)
    # a block touches at most (block - 1) // cols + 2 rows
    span = min(group + 1, (block - 1) // cols + 2, math.prod(row_shape))
    dtype = last.dtype
    size = (span * cols if cols <= block else block) * dtype.itemsize // 8
    # one allocation: buffers spread over several fault in again on every call
    scratch = np.empty(size + block)
    values, out = scratch[:size].view(dtype), scratch[size:]
    if len(tables) > 1:
        lead, factor = np.empty((2, span, tables[0].shape[2]), dtype=tables[0].dtype)

    def lead_rows(tables, r0: int, r1: int) -> np.ndarray:
        if len(tables) == 1:
            return tables[0][r0:r1]
        ix = np.unravel_index(np.arange(r0, r1), row_shape)
        m = r1 - r0
        # mode="clip" writes straight into out; the indices are in range
        np.take(tables[0], ix[0], axis=0, out=lead[:m], mode="clip")
        for table, i in zip(tables[1:], ix[1:]):
            np.take(table, i, axis=0, out=factor[:m], mode="clip")
            np.multiply(lead[:m], factor[:m], out=lead[:m])
        return lead[:m]

    def fn(tables, last, start: int, stop: int) -> np.ndarray:
        pos, r_end = start, (stop - 1) // cols + 1
        while pos < stop:
            r, c0 = divmod(pos, cols)
            if cols <= block:
                r1, c0, c1 = min(r + group, r_end), 0, cols
                if r_end - r1 == 1:
                    r1 = r_end  # never leave one row for a product of its own
            else:
                r1, c1 = r + 1, min(cols, c0 + stop - pos)  # part of a row longer than a block
            rows = values[:(r1 - r) * (c1 - c0)]
            np.matmul(lead_rows(tables, r, r1).view(dtype), last[:, c0:c1], out=rows.reshape(r1 - r, c1 - c0))
            end, first = min(stop, (r1 - 1) * cols + c1), pos - r * cols - c0
            finish(rows[first:first + end - pos], pos, out[pos - start:end - start])
            pos = end
        return out[:stop - start]

    return [partial(fn, [table[g] for table in tables], last[g]) for g in range(last.shape[0])]


def _cis(u, v) -> np.ndarray:
    """e^{i u v} for broadcast u, v, in place: np.exp(1j * (u * v)) up to signs of zero."""
    out = np.zeros(np.broadcast(u, v).shape, dtype=np.complex128)
    np.multiply(u, v, out=out.imag)
    return np.exp(out, out=out)


def sinc_line(a: float, axis: Axis, s: float = 0.0, amp: float = 1.0,
              block: int = REDUCE_BLOCK, guard: float = 1.0):
    """amp |sinc(a (x + is))| at the midpoints x of one axis, as _row_products.

    Over split_axis's rows o and offsets f, sin(a(o + f)) = sin(ao) cos(af)
    + cos(ao) sin(af) is a two-term Lead @ Last, about 4 sqrt(n) sines in
    place of n; |sin(a(x + is))| = hypot(sin(ax), sinh(as)).  Near x + is =
    0 the quotient by |a| hypot(x, s) loses the accuracy of sin(ax), so
    nodes with |a(x + is)| < guard (at least 1) take core.sinc.
    """
    lo, hi, n = axis
    h = (hi - lo) / n
    guard_term_exponents(np.array([a * s]))
    _, origins, offsets = split_axis(axis)
    lead = np.stack([np.sin(a * origins), np.cos(a * origins)], axis=1)
    last = amp * np.stack([np.cos(a * offsets), np.sin(a * offsets)])
    # |a(x + is)| < guard where |x| < reach
    reach = math.sqrt(max(0.0, (guard / a) * (guard / a) - s * s)) if a else math.inf
    block = min(block, int(n))

    def finish(values: np.ndarray, pos: int, out: np.ndarray):
        np.add(ramp(out), pos - 0.5, out=out)
        out *= h
        out += lo  # the midpoints, rounded as midpoint_nodes rounds them
        i0 = int(out.searchsorted(-reach, "right"))
        i1 = max(i0, int(out.searchsorted(reach, "left")))
        if i1 > i0:
            near = amp * np.abs(sinc(a * out[i0:i1] + 1j * (a * s) if s else a * out[i0:i1]))
        if s:
            np.hypot(out, s, out=out)
            np.hypot(values, amp * math.sinh(a * s), out=values)
        else:
            np.abs(out, out=out)
            np.abs(values, out=values)
        out *= abs(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(values, out, out=out)
        if i1 > i0:
            out[i0:i1] = near

    return _row_products([lead[None]], last[None], int(n), block, finish)[0]


def _term_tables(freqs: np.ndarray, weights: np.ndarray, grids):
    """Tables e^{i x_j f_mj} of the leading axes for all grids (weights in the first), and
    the last axis' nodes per grid; one variable is split by split_axis, both parts against f_m1."""
    if len(grids[0]) == 1:
        _, *row_nodes, col_nodes = zip(*[split_axis(axes[0]) for axes in grids])
    else:
        nodes = {axis: midpoint_nodes(*axis) for axis in set().union(*grids)}
        *row_nodes, col_nodes = zip(*[[nodes[axis] for axis in axes] for axes in grids])
    tables = [_cis(np.array(x)[:, :, None], freqs[:, j]) for j, x in enumerate(row_nodes)]
    tables[0] *= weights
    return tables, np.array(col_nodes)


def poly_abs_blocks(poly: TrigPolynomial, grids, s: float = 0.0, block: int = REDUCE_BLOCK):
    """|f(x1 + is, x')| on grids (lists of axes) of one shape, as _row_products gives it.

    Term m is c_m e^{-s lam_m1} prod_j e^{i x_j lam_mj}: the leading axes' tables (weights
    in the first) times Last[m, c] = e^{i x_p lam_mp}, each made for all grids by one
    exponential; one variable is split by split_axis.  Callers check the point budget.
    """
    total = math.prod(int(n) for (_, _, n) in grids[0])
    damp = s * poly.freqs[:, 0]
    guard_term_exponents(damp)
    tables, cols = _term_tables(poly.freqs, poly.coeffs * np.exp(-damp), grids)
    last = _cis(poly.freqs[:, -1, None], cols[:, None, :])
    return _row_products(tables, last, total, min(block, total),
                         lambda values, pos, out: np.abs(values, out=out))


_pairs = cache(partial(np.triu_indices, k=1))  # term count -> the pairs m < m', once per count


def poly_square_blocks(poly: TrigPolynomial, axes, block: int = REDUCE_BLOCK,
                       low: float | None = None):
    """|f|^2 = S + 2 Re sum_{m<m'} c_m conj(c_m') e^{i<d, x>} on one grid, as _row_products.

    S = sum |c_m|^2, d = lam_m - lam_m': a real gemm k(k-1) wide, lead rows 2 c_m conj(c_m') read
    as (Re, Im) times Last rows (cos, -sin)(d_p x_p).  Its error ~eps |d| |x| S swamps |f|^2 near a
    zero, so with a float low out is log|f|^2, and nodes with |f|^2 <= low S take |f| from terms."""
    i, j = _pairs(poly.n_terms)
    d = poly.freqs[i] - poly.freqs[j]
    tables, cols = _term_tables(d, 2.0 * poly.coeffs[i] * poly.coeffs[j].conj(), [axes])
    phase = np.multiply.outer(d[:, -1], -cols[0])
    last = np.concatenate([np.cos(phase), np.sin(phase)], axis=1).reshape(1, 2 * len(i), -1)
    norm = float(np.vdot(poly.coeffs, poly.coeffs).real)
    if low is not None:  # c_m e^{i lam_m x} per axis, as poly_abs_blocks' tables
        terms, cols = _term_tables(poly.freqs, poly.coeffs, [axes])
        terms = [t[0] for t in terms] + [_cis(cols[0][:, None], poly.freqs[:, -1])]

    def finish(values: np.ndarray, pos: int, out: np.ndarray):
        np.add(values, norm, out=out)
        if low is not None:
            near = np.flatnonzero(out <= low * norm)
            out[near] = 1.0
            np.log(out, out=out)
            if near.size:
                ix = np.unravel_index(near + pos, [len(t) for t in terms])
                g = np.abs(np.add.reduce(math.prod(t[r] for t, r in zip(terms, ix)), axis=1))
                out[near] = 2.0 * np.log(np.maximum(g, 1e-300))

    total = math.prod(int(n) for (_, _, n) in axes)
    return _row_products(tables, last, total, min(block, total), finish)[0]


def abs_grid_sum(source: FunctionSource, grids, s: float = 0.0) -> list[float]:
    """Plain sums of |f(x1 + is, x')| over midpoint grids (lists of axes) of one shape.

    Polynomials sum poly_abs_blocks by index_sum.  A sinc product's sum is
    |A| prod_j sum_i |sinc(a x_ji)|, x_1i + is in the first factor, each line summed once.
    """
    total = grid_points([n for (_, _, n) in grids[0]])
    if source.kind == POLY:
        return [float(index_sum(fn, total, REDUCE_BLOCK))
                for fn in poly_abs_blocks(source.poly, grids, s, REDUCE_BLOCK)]
    lines = [[(axis, s if j == 0 else 0.0) for j, axis in enumerate(axes)] for axes in grids]
    sums = {line: index_sum(sinc_line(source.scale, *line, block=REDUCE_BLOCK), int(line[0][2]),
                            REDUCE_BLOCK) for line in set().union(*lines)}
    return [float(abs(source.amplitude) * math.prod(map(sums.get, grid))) for grid in lines]


def box_average_abs(source: FunctionSource, quad: QuadratureSpec) -> float:
    """Normalized mean of |f| over [-T, T]^p on the midpoint grid (abs_grid_sum)."""
    n, p = quad.points_per_axis, source.dim
    return abs_grid_sum(source, [symmetric_axes(quad.half_width, n, p)])[0] / n ** p


def besicovitch_seminorm(source: FunctionSource, ladder: LadderSpec,
                         quad: QuadratureSpec) -> SeminormEstimate:
    """Ladder estimate of the Besicovitch seminorm of f.

    quad supplies the per-axis resolution; its half_width is replaced by
    the ladder's levels, summed in one call.
    """
    n, widths = quad.points_per_axis, [float(t) for t in ladder.half_widths()]
    sums = abs_grid_sum(source, [symmetric_axes(t, n, source.dim) for t in widths])
    trace = tuple((t, v / n ** source.dim) for t, v in zip(widths, sums))
    return SeminormEstimate(value=max(v for _, v in trace[-ladder.tail_levels:]), per_level=trace)


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
        means = exp_axis_sums(1j * offsets.ravel(), axis) / n
        return np.prod(means.reshape(offsets.shape), axis=2) @ poly.coeffs

    # one row per (candidate, axis) pair; rows hold -lam, so the phase of
    # sinc(a x) e^{-i lam x} is written straight into out's imaginary part
    def fn(rows: np.ndarray, x: np.ndarray, out: np.ndarray):
        out.real.fill(0.0)
        np.multiply.outer(rows, x, out=out.imag)
        np.exp(out, out=out)
        np.multiply(sinc(source.scale * x), out, out=out)

    means = line_sums(fn, -candidates.ravel(), axis) / n
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
