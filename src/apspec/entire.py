"""Exponential-type estimation and growth inequality checks.

Every check is reported as an InequalityCheck record carrying both sides,
the signed margin, and the tolerance that was in force, so a report reader
can re-derive the verdict.  Suprema over R^p are desk-scale surrogates:
they are maxima over finite boxes whose parameters are embedded in the
context string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EXP_GUARD,
    POLY,
    SINC_PRODUCT,
    FunctionSource,
    eval_complex,
    eval_real,
    guard_exponents,
    half_plane_growth_rate,
    sinc,
)
from .errors import DimensionMismatchError, PreconditionError
from .meanvalue import poly_abs_blocks, sinc_line
from .quadrature import (
    REDUCE_BLOCK,
    Axis,
    KahanAccumulator,
    check_budget,
    grid_points,
    midpoint_nodes,
)

# imaginary shifts below keep sigma * delta at or under this bound;
# past it the net inequality's constant (1 - sigma*delta)^{-1} degenerates
MAX_TYPE_NET_PRODUCT = 0.5

# tail of the truncated Poisson integral, covered by a fixed log 2 allowance
POISSON_TAIL_ALLOWANCE = math.log(2.0)

# if every sample of log|g| on the window is this close to zero the source
# is treated as unimodular on R and the positive tail vanishes exactly
UNIMODULAR_LOG_TOL = 1e-9

_DIRECTION_SEED = 1815


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality lhs <= rhs with its slack and verdict."""

    context: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool


def make_check(context: str, lhs: float, rhs: float, tolerance: float) -> InequalityCheck:
    if tolerance < 0:
        raise PreconditionError("tolerance must be >= 0, got %r" % (tolerance,))
    margin = rhs - lhs
    return InequalityCheck(context=context, lhs=float(lhs), rhs=float(rhs),
                           margin=float(margin), tolerance=float(tolerance),
                           passed=bool(margin >= -tolerance))


@dataclass(frozen=True)
class TypeEstimate:
    """Least-squares fit of log max_{|z|=r, z imaginary} |f| against r."""

    sigma_hat: float
    log_c0_hat: float
    radii: tuple[float, ...]
    fit_radii: tuple[float, ...]
    n_directions: int
    residual: float


DEFAULT_RADII = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def _direction_set(source: FunctionSource, n_dirs: int) -> np.ndarray:
    p = source.dim
    dirs = [np.eye(p), -np.eye(p)]
    if source.kind == POLY:
        norms = np.linalg.norm(source.poly.freqs, axis=1)
        nonzero = norms > 0
        if np.any(nonzero):
            # |f(i r u)| peaks along u = -lambda/|lambda|; keep both signs.
            unit = source.poly.freqs[nonzero] / norms[nonzero, None]
            dirs.append(unit)
            dirs.append(-unit)
    elif source.kind == SINC_PRODUCT and 1 < p <= 10:
        # Growth of a sinc product peaks on the diagonals (+-1,..,+-1)/sqrt(p).
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
        dirs.append(signs / math.sqrt(p))
    stacked = np.vstack(dirs)
    if stacked.shape[0] < n_dirs:
        rng = np.random.default_rng(_DIRECTION_SEED)
        extra = rng.standard_normal((n_dirs - stacked.shape[0], p))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        stacked = np.vstack([stacked, extra])
    return stacked


def estimate_type(source: FunctionSource, radii=DEFAULT_RADII,
                  n_dirs: int | None = None) -> TypeEstimate:
    """Estimate the exponential type from growth along imaginary rays.

    Samples z = i * r * u over unit directions u (coordinate axes both
    ways, frequency directions for polynomials, plus seeded fill), then
    fits log M(r) ~ log C0 + sigma * r by least squares on the top half
    of the radii.  Radii past the guard are dropped, and so are radii whose
    peak |f| is 0 or overflows (sinc factors each within the guard can).
    """
    if n_dirs is None:
        n_dirs = max(2 * source.dim, 8)
    if n_dirs < 2 * source.dim:
        raise PreconditionError("n_dirs must be at least 2p = %d" % (2 * source.dim))
    radii = tuple(sorted(float(r) for r in radii))
    if len(radii) < 2 or radii[0] <= 0:
        raise PreconditionError("need at least two positive radii")
    dirs = _direction_set(source, n_dirs)
    # every radius in one evaluation; a radius is dropped where eval_complex
    # would refuse it alone (by the guard's own test) or where |f| is 0 or inf
    z = 1j * (np.array(radii)[:, None, None] * dirs)
    guard = guard_exponents(source, z.reshape(-1, source.dim)).reshape(len(radii), -1)
    kept = ~(np.max(guard, axis=1) > EXP_GUARD)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(eval_complex(source, z[kept].reshape(-1, source.dim)))
    peaks = np.max(values.reshape(-1, dirs.shape[0]), axis=1)
    fit = [(r, math.log(peak)) for r, peak in zip(itertools.compress(radii, kept), peaks)
           if 0.0 < peak < math.inf]
    if len(fit) < 2:
        raise PreconditionError("fewer than two radii survived the overflow guard")
    half = max(2, (len(fit) + 1) // 2)
    r_fit, y_fit = np.array(fit[-half:]).T
    slope, intercept = np.polyfit(r_fit, y_fit, 1)
    residual = float(np.max(np.abs(slope * r_fit + intercept - y_fit)))
    return TypeEstimate(
        sigma_hat=float(max(slope, 0.0)),
        log_c0_hat=float(intercept),
        radii=tuple(r for r, _ in fit),
        fit_radii=tuple(float(r) for r in r_fit),
        n_directions=dirs.shape[0],
        residual=residual,
    )


def _lattice_axis(start: float, step: float, n: int) -> Axis:
    """The n nodes start + i * step, up to rounding, as a midpoint axis (lo, hi, n)."""
    return (start - 0.5 * step, start + (n - 0.5) * step, n)


def _linspace_axis(half_width: float, n: int) -> Axis:
    """np.linspace(-half_width, half_width, n) as a midpoint axis."""
    return _lattice_axis(-half_width, 2.0 * half_width / (n - 1) if n > 1 else 0.0, n)


def _block_max(fn, axes, power: int) -> tuple[float, int]:
    """Max of fn's grid values / prod_j (1 + |x_j|)^power, and its first flat index.

    fn gives the values as poly_abs_blocks does; (0.0, 0) if all are 0.
    """
    shape = [int(n) for (_, _, n) in axes]
    total = math.prod(shape)
    weights = [(1.0 + np.abs(midpoint_nodes(*axis))) ** power for axis in axes] if power else None
    best, index = 0.0, 0
    for start in range(0, total, REDUCE_BLOCK):
        values = fn(start, min(start + REDUCE_BLOCK, total))
        if weights:
            ix = np.unravel_index(np.arange(start, start + values.size), shape)
            values = values / math.prod(w[i] for w, i in zip(weights, ix))
        i = int(np.argmax(values))
        if values[i] > best:
            best, index = float(values[i]), start + i
    return best, index


def _sinc_axis_max(scale: float, axis: Axis, power: int) -> tuple[float, int]:
    """First max of |sinc(a x)| / (1 + |x|)^power over one axis's midpoints.

    A line within one block takes core.sinc at every node.  A longer one
    takes sinc_line, exact (core.sinc) where |a x| < guard and from its
    tables, up to their phase rounding, elsewhere.  With M the value at the
    node nearest 0, guard = 2/M: past it |sinc(a x)| <= M/2, so the max and
    its first index are the pointwise walk's.
    """
    lo, hi, n = axis
    if n <= REDUCE_BLOCK:
        return _block_max(lambda start, stop: np.abs(sinc(scale * midpoint_nodes(*axis))), [axis], power)
    h = (hi - lo) / n
    x = lo + (min(n - 1, max(0, round(-lo / h - 0.5))) + 0.5) * h if h else lo
    m = abs(float(sinc(scale * x))) / (1.0 + abs(x)) ** power
    guard = 2.0 / m if m > 0 else math.inf
    return _block_max(sinc_line(scale, axis, guard=guard, block=REDUCE_BLOCK), [axis], power)


def _grid_max(source: FunctionSource, axes, power: int = 0) -> tuple[float, int]:
    """Max of |f(x)| / prod_j (1 + |x_j|)^power over a tensor midpoint grid.

    Returns the max and its first flat index in C order (0 when f vanishes
    on the grid).  Sinc products and one-term polynomials factor into
    non-negative per-axis factors, so the max is |A| times one per-axis max
    per distinct axis; other polynomials reduce poly_abs_blocks.
    """
    shape = [int(n) for (_, _, n) in axes]
    grid_points(shape)
    if source.kind == POLY and source.poly.n_terms > 1:
        return _block_max(poly_abs_blocks(source.poly, [axes], block=REDUCE_BLOCK)[0], axes, power)
    if source.kind == POLY:
        amp = abs(source.poly.coeffs[0])
        maxima = {axis: _block_max(lambda start, stop: np.broadcast_to(1.0, stop - start),
                                   [axis], power) for axis in set(axes)}
    else:
        amp = abs(source.amplitude)
        maxima = {axis: _sinc_axis_max(source.scale, axis, power) for axis in set(axes)}
    best = amp * math.prod(maxima[axis][0] for axis in axes)
    index = int(np.ravel_multi_index([maxima[axis][1] for axis in axes], shape))
    return (best, index) if best > 0 else (0.0, 0)


def logvinenko_check(source: FunctionSource, sigma: float, delta: float,
                     half_width: float = 20.0, dense_per_axis: int = 2001,
                     tolerance: float = 1e-9) -> InequalityCheck:
    """Net-sampling bound: sup |f| <= (1 - sigma*delta)^{-1} sup over a delta-net.

    The net is an axis-aligned lattice with spacing 2*delta/sqrt(p), which
    covers the box within distance delta.  Both suprema are box surrogates;
    the box half width rides along in the context string.
    """
    if sigma < 0 or delta <= 0:
        raise PreconditionError("need sigma >= 0 and delta > 0")
    product = sigma * delta
    if product > MAX_TYPE_NET_PRODUCT:
        raise PreconditionError(
            "sigma * delta = %.3g exceeds %.2g; the net constant degenerates"
            % (product, MAX_TYPE_NET_PRODUCT)
        )
    p = source.dim
    spacing = 2.0 * delta / math.sqrt(p)
    steps = int(math.ceil(2.0 * half_width / spacing))
    check_budget((steps + 1) ** p)
    check_budget(dense_per_axis ** p)
    net_max, _ = _grid_max(source, [_lattice_axis(-half_width, spacing, steps + 1)] * p)
    dense_max, _ = _grid_max(source, [_linspace_axis(half_width, dense_per_axis)] * p)
    factor = 1.0 / (1.0 - product)
    context = ("logvinenko sigma=%.6g delta=%.6g L=%.6g net_spacing=%.6g"
               % (sigma, delta, half_width, spacing))
    return make_check(context, dense_max, factor * net_max, tolerance)


def _weighted_log_integral(source: FunctionSource, x0: float, s: float,
                           t_half_width: float, n_points: int) -> tuple[float, float]:
    """Truncated Poisson integral of log|g| and the largest |log| sample.

    |g(x0 + t)| comes from sinc_line, a constant or poly_abs_blocks; each
    block's clamped log, t and sum of log / (t^2 + s^2) go through buffers
    made once per call, and the block sums are added with compensation.
    """
    h = 2.0 * t_half_width / n_points
    block = min(REDUCE_BLOCK, n_points)
    axes = [(x0 - t_half_width, x0 + t_half_width, n_points)]
    if source.kind != POLY:
        values = sinc_line(source.scale, axes[0], amp=abs(source.amplitude), block=block)
    elif source.poly.n_terms == 1:
        values = lambda start, stop: np.broadcast_to(abs(source.poly.coeffs[0]), stop - start)
    else:
        values = poly_abs_blocks(source.poly, [axes], block=block)[0]
    offsets, logs, weight = np.empty((3, block))  # one allocation, as in _row_products
    offsets.fill(1.0)
    np.cumsum(offsets, out=offsets)  # 1, 2, ... exactly, with no temporary
    offsets *= h
    acc = KahanAccumulator()
    log_peak = 0.0
    for start in range(0, n_points, block):
        vals = values(start, min(start + block, n_points))
        lb, wb = logs[:vals.size], weight[:vals.size]
        np.log(np.maximum(vals, 1e-300, out=lb), out=lb)
        log_peak = max(log_peak, float(lb.max()), -float(lb.min()))
        np.add(offsets[:wb.size], (start - 0.5) * h - t_half_width, out=wb)  # t
        np.multiply(wb, wb, out=wb)
        wb += s * s
        np.divide(lb, wb, out=wb)
        acc.add(float(np.add.reduce(wb)))
    return acc.total * (h * s / math.pi), log_peak


def poisson_majorant_check(source: FunctionSource, x0: float, s: float,
                           t_half_width: float | None = None,
                           n_points: int = 400000,
                           tolerance: float = 1e-6) -> InequalityCheck:
    """Harmonic majorant bound for a one-variable slice on the upper half-plane.

    log|g(x0 + is)| <= (s/pi) int log|g(x0+t)| / (t^2 + s^2) dt
                         + tail allowance + h * s

    The integral is truncated to |t| <= t_half_width and the discarded
    positive tail is covered by a log 2 allowance, except when every sample
    of log|g| vanishes (unimodular sources), where the tail is exactly zero
    and the bound becomes the equality case.
    """
    if source.dim != 1:
        raise DimensionMismatchError("poisson check needs a one-variable source")
    if s <= 0:
        raise PreconditionError("s must be positive")
    grid_points([n_points])
    if t_half_width is None:
        t_half_width = 1e4 * s
    if t_half_width < max(50.0, 100.0 * s):
        raise PreconditionError(
            "integration window %.3g is below the required max(50, 100 s) = %.3g"
            % (t_half_width, max(50.0, 100.0 * s))
        )
    integral, log_peak = _weighted_log_integral(source, x0, s, t_half_width, n_points)
    tail = 0.0 if log_peak < UNIMODULAR_LOG_TOL else POISSON_TAIL_ALLOWANCE
    rate = half_plane_growth_rate(source)
    val = abs(eval_complex(source, np.array([x0 + 1j * s])))
    lhs = math.log(val) if val > 0 else float("-inf")
    rhs = integral + tail + rate * s
    context = ("poisson x0=%.6g s=%.6g T_int=%.6g n=%d tail=%.6g h=%.6g"
               % (x0, s, t_half_width, n_points, tail, rate))
    return make_check(context, lhs, rhs, tolerance)


def phragmen_lindelof_check(source: FunctionSource, x: float, y: float,
                            sup_half_width: float = 200.0,
                            sup_points: int = 200001,
                            tolerance: float = 1e-6) -> InequalityCheck:
    """Half-plane maximum principle: |g(x+iy)| <= sup_R |g| * e^{h y}."""
    if source.dim != 1:
        raise DimensionMismatchError("phragmen-lindelof check needs a one-variable source")
    if y <= 0:
        raise PreconditionError("y must be positive")
    sup_line, _ = _grid_max(source, [_linspace_axis(sup_half_width, sup_points)])
    rate = half_plane_growth_rate(source)
    lhs = abs(eval_complex(source, np.array([x + 1j * y])))
    rhs = sup_line * math.exp(rate * y)
    context = ("phragmen_lindelof x=%.6g y=%.6g sup_L=%.6g h=%.6g"
               % (x, y, sup_half_width, rate))
    return make_check(context, lhs, rhs, tolerance)


@dataclass(frozen=True, eq=False)
class EnvelopeEstimate:
    """Fitted constant for the polynomial growth envelope on a box."""

    c1_hat: float
    argmax: np.ndarray
    check: InequalityCheck


def growth_envelope_check(source: FunctionSource, half_width: float = 20.0,
                          points_per_axis: int = 2001,
                          tolerance: float = 1e-12) -> EnvelopeEstimate:
    """Fit the smallest C1 with |f(x)| <= C1 * prod_j (1 + |x_j|)^p on a box.

    The returned check restates the envelope at the maximizing grid point,
    so it passes by construction; its value is the fitted constant and the
    trace it leaves in reports.
    """
    p = source.dim
    axes = [_linspace_axis(half_width, points_per_axis)] * p
    best_ratio, index = _grid_max(source, axes, power=p)
    best_point = midpoint_nodes(*axes[0])[list(np.unravel_index(index, [points_per_axis] * p))]
    envelope = best_ratio * float(np.prod((1.0 + np.abs(best_point)) ** p))
    value = float(abs(eval_real(source, best_point)))
    context = "growth_envelope L=%.6g n=%d c1_hat=%.6g" % (half_width, points_per_axis, best_ratio)
    check = make_check(context, value, envelope, tolerance)
    return EnvelopeEstimate(c1_hat=best_ratio, argmax=best_point, check=check)
