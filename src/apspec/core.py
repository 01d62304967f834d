"""Function sources: trigonometric polynomials and catalog builtins.

The objects here are evaluable on real points and on complex points with
moderate imaginary part.  A trigonometric polynomial

    P(x) = sum_m c_m * exp(i <x, lam_m>)

extends to an entire function of exponential type equal to the largest
frequency norm.  The builtin catalog adds a product-of-sinc family and
helpers for constants and cosines, which are themselves polynomials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EvaluationRangeError, PreconditionError

# exp() overflows double precision near 709.78; stay clear of it
EXP_GUARD = 700.0

# below this magnitude sin(w)/w switches to its Taylor series
SINC_SERIES_THRESHOLD = 1e-4

# frequencies closer than this in every coordinate are merged
DUPLICATE_FREQ_TOL = 1e-12

# rotation matrices must satisfy ||A^T A - I||_max <= this
ORTHOGONALITY_TOL = 1e-10


def sinc(w):
    """Stable sin(w)/w for real or complex input, elementwise.

    Uses the Taylor series 1 - u/6 + u^2/120 - u^3/5040 in u = w^2 when
    |w| < 1e-4, which keeps the relative error at the 1e-16 level across
    the switch point.  The ratio is taken over the whole array and only the
    series entries are overwritten.
    """
    arr = np.asarray(w)
    scalar = arr.ndim == 0
    if np.iscomplexobj(arr):
        vals = np.atleast_1d(arr).astype(np.complex128, order="C")
        worst = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
        if worst > EXP_GUARD:
            raise EvaluationRangeError(
                "sinc argument has |Im w| = %.3g > %g; sin(w) would overflow" % (worst, EXP_GUARD),
                exponent=worst,
            )
    else:
        vals = np.atleast_1d(arr).astype(np.float64, order="C")
    # C order, so reshape(-1) below is a view of out
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(vals)
        np.divide(out, vals, out=out)
    small = np.flatnonzero(np.abs(vals) < SINC_SERIES_THRESHOLD)
    if small.size:
        u = vals.reshape(-1)[small] ** 2
        out.reshape(-1)[small] = 1.0 + u * (-1.0 / 6.0 + u * (1.0 / 120.0 - u / 5040.0))
    return out[0] if scalar else out


@dataclass(frozen=True)
class ComplexPoint:
    """A point z = x + iy in C^p, stored as two real vectors."""

    real: np.ndarray
    imag: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.real, dtype=np.float64))
        y = np.atleast_1d(np.asarray(self.imag, dtype=np.float64))
        if x.shape != y.shape or x.ndim != 1:
            raise DimensionMismatchError(
                "real and imag parts must be vectors of equal length, got %r and %r"
                % (x.shape, y.shape)
            )
        object.__setattr__(self, "real", x)
        object.__setattr__(self, "imag", y)

    @property
    def dim(self) -> int:
        return self.real.shape[0]

    @property
    def z(self) -> np.ndarray:
        return self.real + 1j * self.imag


def _canonical_terms(dim: int, freqs: np.ndarray, coeffs: np.ndarray):
    """Sort terms lexicographically and merge duplicate frequencies."""
    order = np.lexsort(freqs.T[::-1])
    freqs = freqs[order]
    coeffs = coeffs[order]
    keep_f = [freqs[0]]
    keep_c = [coeffs[0]]
    for row, c in zip(freqs[1:], coeffs[1:]):
        if np.all(np.abs(row - keep_f[-1]) <= DUPLICATE_FREQ_TOL):
            keep_c[-1] = keep_c[-1] + c
        else:
            keep_f.append(row)
            keep_c.append(c)
    return np.array(keep_f, dtype=np.float64), np.array(keep_c, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Finite sum of complex exponentials with real frequency vectors.

    Terms are stored in a canonical lexicographic order; frequencies that
    coincide within 1e-12 in every coordinate are merged by summing their
    coefficients.
    """

    dim: int
    freqs: np.ndarray   # shape (k, dim)
    coeffs: np.ndarray  # shape (k,)

    def __post_init__(self):
        freqs = np.atleast_2d(np.asarray(self.freqs, dtype=np.float64))
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if self.dim < 1:
            raise DimensionMismatchError("dim must be >= 1, got %d" % self.dim)
        if freqs.ndim != 2 or freqs.shape[1] != self.dim:
            raise DimensionMismatchError(
                "frequency array has shape %r, expected (k, %d)" % (freqs.shape, self.dim)
            )
        if coeffs.shape != (freqs.shape[0],):
            raise DimensionMismatchError(
                "got %d coefficients for %d frequencies" % (coeffs.shape[0], freqs.shape[0])
            )
        if freqs.shape[0] == 0:
            raise PreconditionError("a trigonometric polynomial needs at least one term")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(coeffs))):
            raise PreconditionError("frequencies and coefficients must be finite")
        freqs, coeffs = _canonical_terms(self.dim, freqs, coeffs)
        freqs.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[tuple[Sequence[float], complex]]) -> "TrigPolynomial":
        pairs = list(terms)
        freqs = np.array([f for f, _ in pairs], dtype=np.float64)
        coeffs = np.array([c for _, c in pairs], dtype=np.complex128)
        return cls(dim=dim, freqs=freqs, coeffs=coeffs)

    @property
    def n_terms(self) -> int:
        return self.freqs.shape[0]

    def coefficient_l1(self) -> float:
        """Sum of coefficient magnitudes; a global bound for |P| on R^p."""
        return float(np.sum(np.abs(self.coeffs)))

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError("cannot add polynomials of dims %d and %d" % (self.dim, other.dim))
        return TrigPolynomial(
            dim=self.dim,
            freqs=np.vstack([self.freqs, other.freqs]),
            coeffs=np.concatenate([self.coeffs, other.coeffs]),
        )

    def scale(self, factor: complex) -> "TrigPolynomial":
        return TrigPolynomial(dim=self.dim, freqs=self.freqs, coeffs=self.coeffs * factor)


def exact_type(poly: TrigPolynomial) -> float:
    """Exponential type of a trigonometric polynomial: max |lam_m|."""
    return float(np.max(np.linalg.norm(poly.freqs, axis=1)))


POLY = "poly"
SINC_PRODUCT = "sinc_product"


@dataclass(frozen=True, eq=False)
class FunctionSource:
    """An evaluable function: a trig polynomial or a catalog builtin.

    Builtins carry closed-form evaluators and a known exponential type so
    they can anchor tests.  The only non-polynomial builtin is the
    product-of-sinc family amplitude * prod_j sinc(scale * z_j); constants
    and cosines are represented as polynomials directly.
    """

    dim: int
    kind: str
    poly: TrigPolynomial | None = None
    scale: float = 1.0
    amplitude: complex = 1.0 + 0.0j
    declared_type: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in (POLY, SINC_PRODUCT):
            raise PreconditionError("unknown function kind %r" % (self.kind,))
        if not (math.isfinite(self.scale) and cmath.isfinite(self.amplitude)):
            raise PreconditionError("scale and amplitude must be finite, got %r and %r"
                                    % (self.scale, self.amplitude))
        if self.kind == POLY:
            if self.poly is None:
                raise PreconditionError("poly sources need a TrigPolynomial")
            if self.poly.dim != self.dim:
                raise DimensionMismatchError(
                    "polynomial has dim %d, source declares %d" % (self.poly.dim, self.dim)
                )

    @classmethod
    def from_poly(cls, poly: TrigPolynomial, label: str = "") -> "FunctionSource":
        return cls(dim=poly.dim, kind=POLY, poly=poly, label=label or "poly")

    @classmethod
    def constant(cls, value: complex, dim: int = 1) -> "FunctionSource":
        poly = TrigPolynomial(dim=dim, freqs=np.zeros((1, dim)), coeffs=np.array([value]))
        return cls(dim=dim, kind=POLY, poly=poly, label="constant")

    @classmethod
    def cosine(cls, lam: Sequence[float]) -> "FunctionSource":
        """cos<x, lam> as the two-term polynomial (e^{i<x,lam>} + e^{-i<x,lam>})/2."""
        lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
        poly = TrigPolynomial(
            dim=lam.shape[0],
            freqs=np.vstack([lam, -lam]),
            coeffs=np.array([0.5, 0.5], dtype=np.complex128),
        )
        return cls(dim=lam.shape[0], kind=POLY, poly=poly, label="cosine")

    @classmethod
    def sinc_product(cls, dim: int, scale: float = 1.0, amplitude: complex = 1.0) -> "FunctionSource":
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1, got %d" % dim)
        return cls(dim=dim, kind=SINC_PRODUCT, scale=float(scale),
                   amplitude=complex(amplitude), label="sinc_product")


def known_type(source: FunctionSource) -> float:
    """Exponential type of a source, exact for polynomials and builtins."""
    if source.declared_type is not None:
        return source.declared_type
    if source.kind == POLY:
        return exact_type(source.poly)
    # |sinc(a z_j)| grows like e^{|a||Im z_j|}/(2|a z_j|); the max of
    # sum_j |y_j| on the sphere |z| = r is r*sqrt(p)
    return abs(source.scale) * float(np.sqrt(source.dim))


def coefficient_l1_bound(source: FunctionSource) -> float:
    """A constant C0 with |f(z)| <= C0 * exp(type * |z|)."""
    if source.kind == POLY:
        return source.poly.coefficient_l1()
    return abs(source.amplitude)


def _as_points(x, dim: int, dtype=np.float64) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=dtype)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DimensionMismatchError("point has dim %d, expected %d" % (pts.shape[0], dim))
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError("point batch has shape %r, expected (n, %d)" % (pts.shape, dim))
    return pts, False


def guard_term_exponents(damp: np.ndarray):
    """Raise EvaluationRangeError when any |<y, lam_m>| entry passes EXP_GUARD.

    damp holds the real exponents <y, lam_m> with terms along the last
    axis, one row per point or height; the error names the offending term.
    """
    worst = float(np.max(np.abs(damp))) if damp.size else 0.0
    if worst > EXP_GUARD:
        flat = np.argmax(np.abs(damp))
        term = int(np.unravel_index(flat, damp.shape)[-1])
        raise EvaluationRangeError(
            "term %d drives |<y, lam>| = %.3g past the exp() guard %g" % (term, worst, EXP_GUARD),
            exponent=worst,
        )


def guard_exponents(source: "FunctionSource", z: np.ndarray) -> np.ndarray:
    """Per point of z, |<y, lam_m>| per term or |Im(a z_j)| per axis: eval_complex's guard."""
    return np.abs(z.imag @ source.poly.freqs.T if source.kind == POLY else (source.scale * z).imag)


def _poly_values(poly: TrigPolynomial, x: np.ndarray, y: np.ndarray | None) -> np.ndarray:
    """Batched evaluation of sum_m c_m exp(i<z, lam_m>) at z = x + iy."""
    phase = x @ poly.freqs.T
    if y is None:
        return np.exp(1j * phase) @ poly.coeffs
    damp = y @ poly.freqs.T
    guard_term_exponents(damp)
    return np.exp(1j * phase - damp) @ poly.coeffs


def _sinc_product_values(source: FunctionSource, z: np.ndarray) -> np.ndarray:
    vals = sinc(source.scale * z)
    if vals.ndim == 1:
        vals = vals[None, :]
    return source.amplitude * np.prod(vals, axis=1)


def eval_real(source: FunctionSource, x) -> complex | np.ndarray:
    """Evaluate a source at a real point (shape (p,)) or batch (shape (n, p))."""
    pts, single = _as_points(x, source.dim)
    if source.kind == POLY:
        out = _poly_values(source.poly, pts, None)
    else:
        out = _sinc_product_values(source, pts.astype(np.complex128))
    return complex(out[0]) if single else out


def eval_complex(source: FunctionSource, z) -> complex | np.ndarray:
    """Evaluate a source at a complex point.

    Accepts a ComplexPoint, a complex vector of shape (p,), or a batch of
    shape (n, p).  Raises EvaluationRangeError when any term's exponent
    magnitude would exceed the exp() overflow guard.
    """
    zz, single = _as_points(z.z if isinstance(z, ComplexPoint) else z, source.dim, np.complex128)
    if source.kind == POLY:
        out = _poly_values(source.poly, zz.real, zz.imag)
    else:
        out = _sinc_product_values(source, zz)
    return complex(out[0]) if single else out


def rotate(poly: TrigPolynomial, matrix) -> TrigPolynomial:
    """Pull back a polynomial along an orthogonal change of variables.

    The result Q satisfies Q(x) = P(Ax); its frequencies are A^T lam_m.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.shape != (poly.dim, poly.dim):
        raise DimensionMismatchError("matrix has shape %r, expected (%d, %d)" % (a.shape, poly.dim, poly.dim))
    defect = float(np.max(np.abs(a.T @ a - np.eye(poly.dim))))
    if defect > ORTHOGONALITY_TOL:
        raise PreconditionError(
            "matrix is not orthogonal: ||A^T A - I||_max = %.3g > %g" % (defect, ORTHOGONALITY_TOL)
        )
    return TrigPolynomial(dim=poly.dim, freqs=poly.freqs @ a, coeffs=poly.coeffs)


def sinc_multiplier(source: FunctionSource, z, power: int = 1) -> complex | np.ndarray:
    """Evaluate f(z) * prod_j (sin z_j / z_j)^power.

    The multiplier adds at most power * sum_j |Im z_j| to the growth
    exponent, so the product has exponential type at most
    known_type(f) + power * p on C^p.
    """
    if power < 0:
        raise PreconditionError("power must be >= 0, got %d" % power)
    if isinstance(z, ComplexPoint):
        zz = z.z
    else:
        zz = np.asarray(z, dtype=np.complex128)
    base = eval_complex(source, z)
    single = np.ndim(base) == 0
    pts = zz[None, :] if zz.ndim == 1 else zz
    if power == 0:
        return base
    worst = power * float(np.max(np.abs(pts.imag))) if pts.size else 0.0
    if worst > EXP_GUARD:
        raise EvaluationRangeError(
            "sinc multiplier exponent %.3g exceeds the exp() guard %g" % (worst, EXP_GUARD),
            exponent=worst,
        )
    factors = np.prod(sinc(pts) ** power, axis=1)
    out = np.atleast_1d(base) * factors
    return complex(out[0]) if single else out


def line_slice(source: FunctionSource, rest: Sequence[float] | None = None) -> FunctionSource:
    """Restrict a source to the first coordinate axis: g(w) = f(w, rest).

    The slice of a polynomial is a one-variable polynomial with frequencies
    lam_m1 and coefficients c_m * exp(i<rest, lam_m'>); the slice of a sinc
    product folds the fixed coordinates into the amplitude.
    """
    if rest is None:
        rest = np.zeros(source.dim - 1)
    rest = np.atleast_1d(np.asarray(rest, dtype=np.float64)) if source.dim > 1 else np.zeros(0)
    if rest.shape != (source.dim - 1,):
        raise DimensionMismatchError("rest has shape %r, expected (%d,)" % (rest.shape, source.dim - 1))
    if source.dim == 1:
        return source
    if source.kind == POLY:
        poly = source.poly
        coeffs = poly.coeffs * np.exp(1j * (poly.freqs[:, 1:] @ rest))
        sliced = TrigPolynomial(dim=1, freqs=poly.freqs[:, :1], coeffs=coeffs)
        return FunctionSource.from_poly(sliced, label=source.label + "|slice")
    tail = np.prod(sinc(source.scale * rest.astype(np.complex128)))
    return FunctionSource(dim=1, kind=SINC_PRODUCT, scale=source.scale,
                          amplitude=source.amplitude * tail, label=source.label + "|slice")


def half_plane_growth_rate(source: FunctionSource, t_max: float | None = None) -> float:
    """Growth rate h = limsup_{t -> +inf} log|g(it)| / t for a one-variable source.

    Exact for polynomials (max_m of -lam_m) and known analytically for the
    sinc family; other one-variable sources would use a finite-difference
    slope at the largest evaluation-safe t.
    """
    if source.dim != 1:
        raise DimensionMismatchError("growth rate is defined for one-variable sources")
    if source.kind == POLY:
        return float(np.max(-source.poly.freqs[:, 0]))
    # numeric fallback: slope of log|g(it)| at the largest safe ordinate
    scale = abs(source.scale)
    safe = EXP_GUARD / max(scale, 1e-9) * 0.9
    t_hi = min(t_max, safe) if t_max is not None else safe
    t_lo = 0.5 * t_hi
    g_hi = eval_complex(source, np.array([1j * t_hi]))
    g_lo = eval_complex(source, np.array([1j * t_lo]))
    if g_hi == 0 or g_lo == 0:
        return 0.0
    return float((np.log(abs(g_hi)) - np.log(abs(g_lo))) / (t_hi - t_lo))
