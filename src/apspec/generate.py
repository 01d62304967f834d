"""Deterministic random polynomial generator for corpus tests.

Frequencies are drawn uniformly from the ball of radius sigma and kept
only if they differ from every accepted frequency by at least min_gap in
every coordinate, which guarantees the closed-form cross-talk bound.
Coefficient magnitudes stay inside [0.1, 0.9] so a detection threshold of
0.05 separates true coefficients from the cross-talk floor at T = 200.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TrigPolynomial
from .errors import PreconditionError

MAX_TERMS = 20
AMPLITUDE_RANGE = (0.1, 0.9)


def generate_polynomial(seed: int, dim: int = 1, n_terms: int = 5,
                        radius: float = 2.0, min_gap: float = 0.5,
                        max_tries: int = 100000) -> TrigPolynomial:
    """Seeded random polynomial with well-separated frequencies.

    The same seed and parameters always produce the same terms, so JSON
    dumps of the result are byte-identical across runs.  Frequencies at
    per-axis gap min_gap inside the ball have distinct first coordinates in
    [-radius, radius], so a request for more than floor(2 radius / min_gap)
    + 1 terms is refused before any draw.
    """
    if dim < 1:
        raise PreconditionError("dim must be >= 1")
    if not 1 <= n_terms <= MAX_TERMS:
        raise PreconditionError("n_terms must be in [1, %d], got %d" % (MAX_TERMS, n_terms))
    if radius <= 0 or min_gap < 0:
        raise PreconditionError("radius must be positive and min_gap nonnegative")
    if min_gap > 0:
        most = math.floor(2.0 * radius / min_gap) + 1
        if n_terms > most:
            raise PreconditionError(
                "%d frequencies with per-axis gap %g cannot fit inside radius %g (at most %d)"
                % (n_terms, min_gap, radius, most))
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    tries = 0
    since_last = 0
    while len(accepted) < n_terms:
        tries += 1
        if tries > max_tries:
            raise PreconditionError(
                "could not place %d frequencies with per-axis gap %g inside radius %g"
                % (n_terms, min_gap, radius))
        if since_last > 200:
            # a partial placement can block every remaining slot; start over
            accepted.clear()
            since_last = 0
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / dim)
        lam = (r / norm) * direction
        if all(np.all(np.abs(lam - mu) >= min_gap) for mu in accepted):
            accepted.append(lam)
            since_last = 0
        else:
            since_last += 1
    lo, hi = AMPLITUDE_RANGE
    mags = rng.uniform(lo, hi, size=n_terms)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
    coeffs = mags * np.exp(1j * phases)
    return TrigPolynomial(dim=dim, freqs=np.array(accepted), coeffs=coeffs)
