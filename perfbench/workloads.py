"""Seeded inputs, operations and correctness oracles for each workload.

A workload is a list of operations that one closed-loop caller runs in
order, again and again.  Every operation carries the oracle that checks its
result and a fingerprint used to compare a traced and an untraced run.
Inputs come only from the seed; apspec sees nothing but the generated
sources and parameters.

Library functions are always looked up through their module at call time
(`ap.verify_spectral_containment`, `reports.dumps_canonical`), so the
tracer's patches of those namespaces see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

import apspec as ap
from apspec import reports
from apspec.quadrature import default_points_per_axis

# gate05: containment slack and sigma_hat tolerance
VERIFY_TOL = 0.1
TYPE_TOL = 0.05
# gate02: grid coefficient against closed form (plus the midpoint rule's bias)
COEFF_TOL = 1e-8
# gate03: unimodular seminorm reference
UNIMODULAR_TOL = 1e-6
# gate09: single-exponential equality margin
EQUALITY_TOL = 1e-6
# a sinc-product grid mean against the product of its 1-variable grid means;
# the two differ only in summation order
FACTOR_REL_TOL = 1e-9
FACTOR_ABS_TOL = 1e-13

# gate06 resolutions: seminorm ladder (cached_seminorm) and strip integrals
SEMINORM_POINTS = {1: 65536, 2: 512, 3: 64}
STRIP_POINTS = {1: 32768, 2: 512, 3: 96}

# 1-variable grid coefficients and line slices share one term count so that
# their costs are alike and the median latency sits inside their cluster
FIXED_TERMS = 3

SIZES = {
    "full": {
        "verify-mixed": {"polys": 30},
        "meanvalue-grid": {"polys": 3, "coeff_polys": 16, "coeff_points": 100000,
                           "seminorm_points": SEMINORM_POINTS, "strip_points": STRIP_POINTS,
                           "sinc_points": {1: 8192, 2: 160, 3: 40}, "sinc_dims": [1, 2, 3]},
        "majorant-slices": {"slices": 10, "net_dims": [1, 2, 3],
                            "dense_per_axis": {1: 2001, 2: 1001, 3: 161}},
    },
    "smoke": {
        "verify-mixed": {"polys": 2},
        "meanvalue-grid": {"polys": 2, "coeff_polys": 1, "coeff_points": 100000,
                           "seminorm_points": {1: 4096, 2: 64}, "strip_points": {1: 4096, 2: 64},
                           "sinc_points": {1: 1024, 2: 32}, "sinc_dims": [1, 2]},
        "majorant-slices": {"slices": 1, "net_dims": [1, 2],
                            "dense_per_axis": {1: 401, 2: 101}},
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclasses.dataclass
class Op:
    """One closed-loop request: run() is timed, check() and fingerprint() are not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]
    # later operations read this one's result, so it opens every pass
    leads: bool = False


def _seeds(seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    return rng, lambda: int(rng.integers(0, 2 ** 31))


def _corpus_poly(next_seed, i: int, dims=(1, 2, 3), n_terms=None):
    """gate05 recipe: dims cycle through 1-3, term counts through 2-5."""
    return ap.generate_polynomial(seed=next_seed(), dim=dims[i % len(dims)],
                                  n_terms=n_terms or 2 + i % 4, radius=2.0, min_gap=0.5)


def _floats(*values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _check_fp(check) -> str:
    return check.context + "|" + _floats(check.lhs, check.rhs, check.margin)


# ------------------------------------------------------------------ verify-mixed

def _verify_ops(seed: int, sizes: dict) -> list[Op]:
    _, next_seed = _seeds(seed, 1)
    config = ap.VerifyConfig(tol=VERIFY_TOL)
    ops = []
    for i in range(sizes["polys"]):
        poly = _corpus_poly(next_seed, i)
        source = ap.FunctionSource.from_poly(poly, label="poly%d" % i)

        def run(source=source):
            report = ap.verify_spectral_containment(source, config)
            text = reports.dumps_canonical({
                "source": reports.source_to_dict(source),
                "verification": reports.verification_to_dict(report),
            })
            return report, text, reports.verification_summary_rows(report)

        def check(result, poly=poly):
            report = result[0]
            errors = []
            if not report.all_passed():
                errors.append("all_passed() is false")
            gap = abs(report.type_estimate.sigma_hat - ap.exact_type(poly))
            if gap > TYPE_TOL:
                errors.append("|sigma_hat - exact_type| = %.3g > %g" % (gap, TYPE_TOL))
            found = sorted(tuple(e.frequency) for e in report.spectrum.entries)
            if found != sorted(tuple(f) for f in poly.freqs):
                errors.append("detected %r, true spectrum %r" % (found, poly.freqs.tolist()))
            return errors

        def fingerprint(result):
            return result[1] + "\n".join(",".join(row) for row in result[2])

        ops.append(Op("verify/d%d" % poly.dim, run, check, fingerprint))
    return ops


# ---------------------------------------------------------------- meanvalue-grid

def _sinc_factor_means(scale: float, lam, quad) -> np.ndarray:
    """1-variable grid means of sinc(scale x) e^{-i lam_j x}, one per coordinate."""
    factor = ap.FunctionSource.sinc_product(1, scale=scale)
    return np.array([ap.fourier_coeff_quadrature(factor, [mu], quad) for mu in lam])


def _midpoint_bias(poly, lam, quad) -> complex:
    """Exact gap between the midpoint-rule mean and the continuous mean, 1 variable.

    For e^{iux} on n cells of [-T, T] the grid mean is sin(uT) / (n sin(uT/n))
    and the continuous mean sin(uT) / (uT); their gap reaches ~1e-8 at gate02's
    resolution for some polynomials, so gate02's tolerance applies after it.
    """
    u = poly.freqs[:, 0] - lam[0]
    x = u * (quad.half_width / quad.points_per_axis)
    ratio = np.ones_like(x)
    nonzero = x != 0
    ratio[nonzero] = x[nonzero] / np.sin(x[nonzero])
    return complex(np.dot(poly.coeffs * ap.sinc(u * quad.half_width), ratio - 1.0))


def _factor_mismatch(value: complex, expected: complex) -> bool:
    return abs(value - expected) > FACTOR_ABS_TOL + FACTOR_REL_TOL * abs(expected)


def _meanvalue_ops(seed: int, sizes: dict) -> list[Op]:
    rng, next_seed = _seeds(seed, 2)
    ops = []
    for i in range(sizes["polys"]):
        poly = _corpus_poly(next_seed, i)
        source = ap.FunctionSource.from_poly(poly)
        dim, sigma, l1 = poly.dim, ap.exact_type(poly), poly.coefficient_l1()
        norm = {}
        semi_quad = ap.QuadratureSpec(half_width=50.0,
                                      points_per_axis=sizes["seminorm_points"][dim])

        def run_norm(source=source, quad=semi_quad, norm=norm):
            est = ap.besicovitch_seminorm(source, ap.LadderSpec(), quad)
            norm["value"] = 1.1 * est.value
            return est

        def check_norm(est, l1=l1):
            # |P| <= l1 pointwise, so every box mean is at most l1
            if all(0.0 < v <= l1 * (1.0 + 1e-12) for _, v in est.per_level):
                return []
            return ["box means %r outside (0, l1 = %.6g]" % (est.per_level, l1)]

        ops.append(Op("seminorm/d%d" % dim, run_norm, check_norm,
                      lambda est: _floats(est.value, *(v for _, v in est.per_level)),
                      leads=True))
        for half_width in (50.0, 100.0):
            for s in (0.25, 0.5, 1.0):
                quad = ap.QuadratureSpec(half_width=half_width,
                                         points_per_axis=sizes["strip_points"][dim])

                def run_strip(source=source, sigma=sigma, s=s, quad=quad, norm=norm):
                    return ap.strip_integral_bound(source, sigma=sigma, s=s, quad=quad,
                                                   norm_value=norm["value"],
                                                   min_half_width=50.0)

                ops.append(Op("strip/d%d" % dim, run_strip,
                              lambda r: [] if r.passed else ["strip bound failed: %r" % (r,)],
                              lambda r: _floats(r.lhs, r.rhs)))

    coeff_quad = ap.QuadratureSpec(half_width=200.0, points_per_axis=sizes["coeff_points"])
    for i in range(sizes["coeff_polys"]):
        poly = _corpus_poly(next_seed, i, dims=(1,), n_terms=FIXED_TERMS)
        source = ap.FunctionSource.from_poly(poly)
        lam = poly.freqs[i % poly.n_terms]
        exact = ap.fourier_coeff_closed_form(poly, lam, coeff_quad.half_width)
        bias = _midpoint_bias(poly, lam, coeff_quad)

        def check_coeff(value, exact=exact, bias=bias):
            if abs(value - exact - bias) <= COEFF_TOL:
                return []
            return ["grid coefficient %r, closed form %r + midpoint bias %r"
                    % (value, exact, bias)]

        ops.append(Op("coeff/poly", lambda source=source, lam=lam:
                      ap.fourier_coeff_quadrature(source, lam, coeff_quad),
                      check_coeff, lambda value: _floats(value.real, value.imag)))

    wave = ap.FunctionSource.from_poly(ap.TrigPolynomial(
        dim=1, freqs=np.array([[rng.uniform(0.5, 2.0)]]),
        coeffs=np.array([np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))])))
    ops.append(Op("seminorm/unimodular",
                  lambda: ap.besicovitch_seminorm(wave, ap.LadderSpec(),
                                                  ap.QuadratureSpec(50.0, 4096)),
                  lambda est: [] if abs(est.value - 1.0) <= UNIMODULAR_TOL
                  else ["unimodular seminorm %r" % est.value],
                  lambda est: _floats(est.value)))

    for dim in sizes["sinc_dims"]:
        scale = float(rng.uniform(0.5, 1.0))
        source = ap.FunctionSource.sinc_product(dim, scale=scale)
        quad = ap.QuadratureSpec(half_width=50.0, points_per_axis=sizes["sinc_points"][dim])
        lam = rng.uniform(-scale, scale, dim)

        def check_coeff(value, scale=scale, lam=lam, quad=quad):
            expected = complex(np.prod(_sinc_factor_means(scale, lam, quad)))
            if _factor_mismatch(value, expected):
                return ["grid mean %r, product of 1-variable means %r" % (value, expected)]
            return []

        ops.append(Op("coeff/sinc-d%d" % dim,
                      lambda source=source, lam=lam, quad=quad:
                      ap.fourier_coeff_quadrature(source, lam, quad),
                      check_coeff, lambda value: _floats(value.real, value.imag)))

        sigma = ap.known_type(source)
        cands = np.zeros((5, dim))
        cands[1] = lam
        cands[2, 0] = 0.5 * scale
        cands[3, 0] = sigma + 1.0
        cands[4, 0] = -(sigma + 1.0)
        threshold = 2.0 * ap.crosstalk_floor(source, cands, quad)

        def run_scan(source=source, cands=cands, quad=quad, threshold=threshold):
            return ap.spectrum_scan(source, cands, quad, threshold)

        def check_scan(report, scale=scale, cands=cands, quad=quad, threshold=threshold):
            expected = {tuple(c): complex(np.prod(_sinc_factor_means(scale, c, quad)))
                        for c in cands}
            want = sorted(c for c, v in expected.items() if abs(v) >= threshold)
            got = sorted(tuple(e.frequency) for e in report.entries)
            errors = [] if got == want else ["detected %r, expected %r" % (got, want)]
            for e in report.entries:
                if _factor_mismatch(e.coefficient, expected[tuple(e.frequency)]):
                    errors.append("coefficient at %r is %r, factor product %r"
                                  % (tuple(e.frequency), e.coefficient,
                                     expected[tuple(e.frequency)]))
            return errors

        ops.append(Op("scan/sinc-d%d" % dim, run_scan, check_scan,
                      lambda report: report.method + ";" + ";".join(
                          _floats(*e.frequency, e.coefficient.real, e.coefficient.imag)
                          for e in report.entries)))
    return ops


# --------------------------------------------------------------- majorant-slices

def _majorant_ops(seed: int, sizes: dict) -> list[Op]:
    rng, next_seed = _seeds(seed, 3)
    ops = []

    def passed(check):
        return [] if check.passed else ["%s: margin %.3g" % (check.context, check.margin)]

    def equal(check):
        if abs(check.margin) <= EQUALITY_TOL:
            return []
        return ["%s: equality margin %.3g > %g" % (check.context, check.margin, EQUALITY_TOL)]

    def add_half_plane(source, x0, kind, equality=False):
        for s in (0.5, 1.0, 2.0):
            for name, run in (("poisson", lambda s=s: ap.poisson_majorant_check(source, x0=x0, s=s)),
                              ("phragmen", lambda s=s: ap.phragmen_lindelof_check(source, x=x0, y=s))):
                ops.append(Op("%s/%s" % (name, kind), run, equal if equality else passed,
                              _check_fp))

    def add_net(source, sigma, kind, combos):
        dense = sizes["dense_per_axis"][source.dim]
        for delta, half_width in combos:
            ops.append(Op("logvinenko/%s" % kind,
                          lambda delta=delta, half_width=half_width: ap.logvinenko_check(
                              source, sigma=sigma, delta=delta, half_width=half_width,
                              dense_per_axis=dense),
                          passed, _check_fp))

    full_combos = [(0.1, 10.0), (0.1, 20.0), (0.25, 10.0), (0.25, 20.0)]
    # catalog: constants, cosines and sinc products with known types; scales
    # keep sigma * delta under the net bound's 0.5 limit
    for dim in sizes["net_dims"]:
        omega = rng.uniform(0.5, 1.5)
        direction = rng.standard_normal(dim)
        scale = rng.uniform(0.4, 1.0)
        catalog = [
            (ap.FunctionSource.constant(rng.uniform(0.5, 3.0), dim=dim), 0.0),
            (ap.FunctionSource.cosine(omega * direction / np.linalg.norm(direction)), omega),
            (ap.FunctionSource.sinc_product(dim, scale=scale), scale * math.sqrt(dim)),
        ]
        combos = full_combos
        if dim == 3:
            # one 3-variable net check, on the costliest source: its dense grid
            # is materialised whole and sets the peak memory.  Its cost stands
            # alone above the four 2-variable sinc checks, which then hold the
            # tail latency whether a run makes three, four or five passes.
            catalog, combos = catalog[2:], [(0.25, 10.0)]
        for source, sigma in catalog:
            kind = "%s-d%d" % (source.label, dim)
            add_net(source, sigma, kind, combos)
            if dim == 1:
                add_half_plane(source, float(rng.uniform(-2.0, 2.0)), kind)

    # single exponential: both majorants hold with equality
    wave = ap.FunctionSource.from_poly(ap.TrigPolynomial(
        dim=1, freqs=np.array([[rng.uniform(0.5, 1.5)]]), coeffs=np.array([1.0 + 0j])))
    add_half_plane(wave, float(rng.uniform(-2.0, 2.0)), "exponential", equality=True)

    # random polynomial line slices
    for i in range(sizes["slices"]):
        poly = _corpus_poly(next_seed, i, n_terms=FIXED_TERMS)
        rest = rng.uniform(-3.0, 3.0, poly.dim - 1) if poly.dim > 1 else None
        g = ap.line_slice(ap.FunctionSource.from_poly(poly), rest=rest)
        kind = "slice-d%d" % poly.dim
        add_half_plane(g, float(rng.uniform(-2.0, 2.0)), kind)
        add_net(g, ap.exact_type(g.poly), kind, full_combos)
    return ops


def parameters(workload: str, size: str) -> dict:
    """Every resolved size and tolerance of a workload, for the report."""
    out = {"sizes": SIZES[size][workload], "fixed_terms": FIXED_TERMS}
    if workload == "verify-mixed":
        # the config's None sizes resolve to apspec's per-dimension default
        out.update(verify_config=dataclasses.asdict(ap.VerifyConfig(tol=VERIFY_TOL)),
                   default_points_per_axis={d: default_points_per_axis(d) for d in (1, 2, 3)},
                   type_tol=TYPE_TOL)
    elif workload == "meanvalue-grid":
        out.update(coeff_tol=COEFF_TOL, unimodular_tol=UNIMODULAR_TOL,
                   factor_tol=[FACTOR_REL_TOL, FACTOR_ABS_TOL])
    else:
        out.update(equality_tol=EQUALITY_TOL)
    return out


OPS_BY_WORKLOAD = {
    "verify-mixed": _verify_ops,
    "meanvalue-grid": _meanvalue_ops,
    "majorant-slices": _majorant_ops,
}


def build_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    """One pass of the workload in a seeded order.

    Operation types are interleaved so that a slow phase of the machine
    falls on a mix of them rather than on one type's block.
    """
    ops = OPS_BY_WORKLOAD[workload](seed, SIZES[size][workload])
    order = np.random.default_rng([seed, 0]).permutation(len(ops))
    shuffled = [ops[i] for i in order]
    return [op for op in ops if op.leads] + [op for op in shuffled if not op.leads]
