"""Tensor-grid midpoint quadrature with deterministic summation.

The engine walks the flattened grid in fixed-size blocks.  Each block is
reduced with numpy's pairwise sum and the block partials are combined in
index order with Kahan compensation, the one policy.  Because the partition
depends only on the block size, serial and parallel schedules produce
bitwise identical results; a parallel driver could evaluate blocks out of
order and still combine partials in order.  Both source kinds factor over
the coordinates, so the library sums one axis at a time (line_sums,
exp_axis_sums); tensor_sum's whole-grid walk is the tests' reference.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError

DEFAULT_POINT_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "APSPEC_MAX_POINTS"

# flattened-grid block size; fixed so the reduction order never changes
REDUCE_BLOCK = 1 << 16

COMPENSATED = "compensated"


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint rule on [-half_width, half_width]^p with n points per axis."""

    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise PreconditionError("half_width must be positive, got %r" % (self.half_width,))
        if self.points_per_axis < 2:
            raise PreconditionError("points_per_axis must be >= 2, got %r" % (self.points_per_axis,))


@dataclass(frozen=True)
class LadderSpec:
    """Doubling ladder T_k = base * 2^k, k = 0 .. levels-1.

    The limsup surrogate takes the max over the top tail_levels entries.
    """

    base: float = 50.0
    levels: int = 4
    tail_levels: int = 2

    def __post_init__(self):
        if not self.base > 0:
            raise PreconditionError("ladder base must be positive")
        if self.levels < 1:
            raise PreconditionError("ladder needs at least one level")
        if not 1 <= self.tail_levels <= self.levels:
            raise PreconditionError(
                "tail_levels must lie in [1, levels], got %d with %d levels"
                % (self.tail_levels, self.levels)
            )

    def half_widths(self) -> np.ndarray:
        return self.base * np.exp2(np.arange(self.levels))


def point_budget() -> int:
    """Maximum grid size, overridable via the APSPEC_MAX_POINTS variable."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_POINT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionError("%s must be an integer, got %r" % (BUDGET_ENV_VAR, raw))
    if value < 1:
        raise PreconditionError("%s must be positive, got %d" % (BUDGET_ENV_VAR, value))
    return value


def check_budget(total_points: int):
    budget = point_budget()
    if total_points > budget:
        raise BudgetExceededError(
            "grid of %d points exceeds the budget of %d (set %s to raise it)"
            % (total_points, budget, BUDGET_ENV_VAR)
        )


def midpoint_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell midpoints of the uniform n-cell partition of [lo, hi]."""
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


class KahanAccumulator:
    """Compensated accumulator; works for float and complex, scalar or array.

    Uses the swing-safe variant: the carry collects whichever operand was
    truncated, so alternating large and small addends survive.  Array
    addends are compensated elementwise, each element exactly as a scalar
    accumulator would treat it.
    """

    def __init__(self, zero=0.0):
        self._sum = zero
        self._carry = zero

    def add(self, value):
        t = self._sum + value
        if np.ndim(t):
            sum_kept = np.abs(self._sum) >= np.abs(value)
            self._carry = self._carry + np.where(sum_kept, (self._sum - t) + value,
                                                 (value - t) + self._sum)
        elif abs(self._sum) >= abs(value):
            self._carry += (self._sum - t) + value
        else:
            self._carry += (value - t) + self._sum
        self._sum = t

    @property
    def total(self):
        return self._sum + self._carry


def reduce_in_blocks(partials: Sequence):
    """Combine partial sums in order with Kahan compensation.

    Partials may be scalars or equal-shape arrays; arrays combine
    elementwise.
    """
    acc = KahanAccumulator(zero=partials[0] * 0)
    for p in partials:
        acc.add(p)
    return acc.total


Axis = tuple[float, float, int]


def grid_points(shape: Sequence[int]) -> int:
    """Node count of a grid, after checking its axes and the point budget.

    Grid walks call this before they allocate anything for the grid.
    """
    total = 1
    for n in shape:
        if int(n) < 1:
            raise PreconditionError("axis point counts must be >= 1")
        total *= int(n)
    check_budget(total)
    return total


def index_sum(fn: Callable[[int, int], np.ndarray], total: int, block: int = REDUCE_BLOCK):
    """Sum fn over the flat indices 0 .. total-1 of a grid checked by grid_points.

    The indices are walked in blocks of `block`, the last one partial:
    fn(start, stop) returns the values of the nodes start .. stop-1 in flat
    C order, with the same output forms as tensor_sum.  Each block is
    reduced with numpy's pairwise sum and the partials are combined in
    order; tensor_sum walks its grid through here.
    """
    partials = [np.add.reduce(fn(start, min(start + block, total)), axis=-1)
                for start in range(0, total, block)]
    return reduce_in_blocks(partials)


def tensor_sum(fn: Callable[[np.ndarray], np.ndarray], axes: Sequence[Axis],
               block: int = REDUCE_BLOCK):
    """Sum fn over the tensor midpoint grid defined by axes.

    fn maps an (m, p) coordinate block to m values, or to a C-contiguous
    (k, m) array of k integrands sharing the grid.  Returns the plain sum
    of the n_1*...*n_p node values (a k-vector in the second case, each
    entry bitwise equal to the scalar sum of its row); multiply by the cell
    volume for an integral or divide by the node count for a mean.  The
    grid is walked in index_sum's blocks, and each block's coordinates are
    unravelled from its bounds and rounded as midpoint_nodes rounds them.
    """
    ns = [int(n) for (_, _, n) in axes]
    total = grid_points(ns)

    def fn_of_bounds(start: int, stop: int):
        coords = np.empty((stop - start, len(axes)), dtype=np.float64)
        for j, ix in enumerate(np.unravel_index(np.arange(start, stop), ns)):
            lo, hi, n = axes[j]
            coords[:, j] = lo + (ix + 0.5) * ((hi - lo) / n)
        return fn(coords)

    return index_sum(fn_of_bounds, total, block)


def line_sums(fn: Callable[[np.ndarray, np.ndarray, np.ndarray], object], rows: np.ndarray,
              axis: Axis) -> np.ndarray:
    """Plain sums of one line of values per entry of rows over the midpoints x of one axis.

    fn(rows, x, out) writes some rows' values at nodes x into out, a complex (len(rows),
    len(x)) C-order view of one buffer made once per call.  Groups of rows keep a block
    near REDUCE_BLOCK values, one one-axis tensor_sum each; a row's sum is its one-row sum.
    """
    width = min(int(axis[2]), REDUCE_BLOCK)
    group = max(1, REDUCE_BLOCK // width)
    buffer = np.empty(min(group, len(rows)) * width, dtype=np.complex128)

    def block(coords: np.ndarray, part: np.ndarray) -> np.ndarray:
        out = buffer[:len(part) * len(coords)].reshape(len(part), -1)
        fn(part, coords[:, 0], out)
        return out

    return np.concatenate([tensor_sum(lambda c, part=rows[start:start + group]: block(c, part),
                                      [axis]) for start in range(0, len(rows), group)])


def split_axis(axis: Axis) -> tuple[int, np.ndarray, np.ndarray]:
    """Coarse x fine split of the n midpoints of one axis (lo, hi, n).

    Returns (n_f, origins, offsets) with n_f = ceil(sqrt(n)) fine nodes per
    row: midpoint b n_f + j is origins[b] + offsets[j], where origins[b] =
    lo + b n_f h and offsets[j] = (j + 1/2) h.  There are ceil(n / n_f)
    origins; the last row is partial when n_f does not divide n.
    """
    lo, hi, n = axis
    n = int(n)
    h = (hi - lo) / n
    cols = math.isqrt(n - 1) + 1
    origins = lo + np.arange(-(-n // cols)) * (cols * h)
    return cols, origins, (np.arange(cols) + 0.5) * h


def exp_axis_sums(a: np.ndarray, axis: Axis) -> np.ndarray:
    """Plain sums sum_i e^{a_m x_i} over the midpoints x_i of one axis.

    a is a vector of complex (or real) exponents; the axis (lo, hi, n) is
    split into coarse x fine nodes by split_axis.  Each sum is (sum_b E_b)(sum_j F_j) over the full
    coarse rows plus E_b sum_{j < r} F_j for the partial last row, so a term
    costs about 2 sqrt(n) exponentials instead of n.  The partial sums go
    through index_sum; callers check their full grid against the point
    budget first.
    """
    a = np.asarray(a, dtype=np.complex128)
    cols, origins, offsets = split_axis(axis)
    rows, rest = divmod(int(axis[2]), cols)
    fine = np.exp(np.outer(a, offsets))

    def fine_sum(count: int) -> np.ndarray:
        return index_sum(lambda start, stop: fine[:, start:stop], count)

    coarse = index_sum(lambda start, stop: np.exp(np.outer(a, origins[start:stop])), rows)
    total = coarse * fine_sum(cols)
    if rest:
        total = total + np.exp(a * origins[rows]) * fine_sum(rest)
    return total


def symmetric_axes(half_width: float, points_per_axis: int, dim: int) -> list[Axis]:
    return [(-half_width, half_width, points_per_axis)] * dim


def full_grid(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """All coordinate combinations of the given 1-D arrays, shape (N, p)."""
    mesh = np.meshgrid(*arrays, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def default_points_per_axis(dim: int, target: int = 4096) -> int:
    """Per-axis resolution that keeps the total grid near the 1-D target."""
    return max(8, int(round(target ** (1.0 / dim))))
