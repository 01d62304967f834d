"""Desk-scale release gates: ten frozen-seed sweeps over the public API.

Each gate rebuilds its corpus from pinned seeds, runs at pinned parameters,
and emits exactly one PASS/FAIL line (visible with `pytest -s`) before
asserting.  Gates with a runtime budget assert the elapsed wall time too.
"""

import math
import time

import numpy as np
import pytest

import apspec as ap
from apspec.meanvalue import SpectrumEntry, SpectrumReport


def gate(name: str, ok: bool, detail: str):
    print("%s  %s  [%s]" % ("PASS" if ok else "FAIL", name, detail), flush=True)
    assert ok, "%s: %s" % (name, detail)


def corpus(count, seed_base, dims=(1, 2, 3)):
    for i in range(count):
        dim = dims[i % len(dims)]
        yield i, ap.generate_polynomial(seed=seed_base + i, dim=dim,
                                        n_terms=min(5, 2 + i % 4),
                                        radius=2.0, min_gap=0.5)


def cached_seminorm(f, dim):
    npts = {1: 65536, 2: 512, 3: 64}[dim]
    quad = ap.QuadratureSpec(half_width=50.0, points_per_axis=npts)
    return 1.1 * ap.besicovitch_seminorm(f, ap.LadderSpec(), quad).value


def test_gate_01_averaged_coefficients_match_exactly():
    # closed-form box averages at T = 200 recover each coefficient within the
    # cross-talk floor sum_{m != n} |c_m| / (0.5 T); far candidates stay below
    # the all-terms floor
    t0 = time.time()
    T = 200.0
    violations = 0
    worst_on = worst_off = 0.0
    for i, poly in corpus(100, 7000):
        absc = np.abs(poly.coeffs)
        for m in range(poly.n_terms):
            err = abs(ap.fourier_coeff_closed_form(poly, poly.freqs[m], T)
                      - poly.coeffs[m])
            floor = float(np.sum(absc) - absc[m]) / (0.5 * T)
            if floor > 0:
                worst_on = max(worst_on, err / floor)
            if err > floor + 1e-15:
                violations += 1
        sigma = ap.exact_type(poly)
        floor_all = float(np.sum(absc)) / (0.5 * T)
        for r in (sigma + 1.0, sigma + 1.8):
            lam = np.zeros(poly.dim)
            lam[0] = r
            mag = abs(ap.fourier_coeff_closed_form(poly, lam, T))
            worst_off = max(worst_off, mag / floor_all)
            if mag > floor_all:
                violations += 1
    elapsed = time.time() - t0
    gate("gate01 averaged coefficients",
         violations == 0 and elapsed <= 10.0,
         "violations=%d worst_on=%.3f worst_off=%.3f %.1fs/10s"
         % (violations, worst_on, worst_off, elapsed))


def test_gate_02_quadrature_agrees_with_closed_form():
    t0 = time.time()
    worst = 0.0
    for i, poly in corpus(50, 5000, dims=(1,)):
        f = ap.FunctionSource.from_poly(poly)
        quad = ap.QuadratureSpec(half_width=200.0, points_per_axis=100000)
        lam = poly.freqs[i % poly.n_terms]
        diff = abs(ap.fourier_coeff_quadrature(f, lam, quad)
                   - ap.fourier_coeff_closed_form(poly, lam, 200.0))
        worst = max(worst, diff)
    elapsed = time.time() - t0
    gate("gate02 quadrature vs closed form",
         worst <= 1e-8 and elapsed <= 30.0,
         "worst=%.2e tol=1e-8 %.1fs/30s" % (worst, elapsed))


def test_gate_03_besicovitch_seminorm_references():
    t0 = time.time()
    cos_est = ap.besicovitch_seminorm(
        ap.FunctionSource.cosine([1.0]),
        ap.LadderSpec(base=50.0, levels=4, tail_levels=2),
        ap.QuadratureSpec(half_width=50.0, points_per_axis=100000)).value
    cos_err = abs(cos_est - 2.0 / math.pi)
    uni = ap.TrigPolynomial(dim=1, freqs=np.array([[math.sqrt(2.0)]]),
                            coeffs=np.array([1.0 + 0j]))
    uni_est = ap.besicovitch_seminorm(
        ap.FunctionSource.from_poly(uni), ap.LadderSpec(),
        ap.QuadratureSpec(half_width=50.0, points_per_axis=4096)).value
    uni_err = abs(uni_est - 1.0)
    elapsed = time.time() - t0
    gate("gate03 seminorm references",
         cos_err <= 1e-3 and uni_err <= 1e-6 and elapsed <= 5.0,
         "|cos|err=%.2e/1e-3 |unimodular|err=%.2e/1e-6 %.1fs/5s"
         % (cos_err, uni_err, elapsed))


def test_gate_04_growth_type_recovery():
    t0 = time.time()
    worst = 0.0
    for i, poly in corpus(50, 3000):
        est = ap.estimate_type(ap.FunctionSource.from_poly(poly))
        worst = max(worst, abs(est.sigma_hat - ap.exact_type(poly)))
    elapsed = time.time() - t0
    gate("gate04 growth type recovery",
         worst <= 0.05 and elapsed <= 10.0,
         "worst=%.4f tol=0.05 %.1fs/10s" % (worst, elapsed))


def test_gate_05_full_verification_corpus_and_negative_control():
    t0 = time.time()
    config = ap.VerifyConfig(tol=0.1)
    contained = passed = 0
    last = None
    for i, poly in corpus(100, 7000):
        report = ap.verify_spectral_containment(
            ap.FunctionSource.from_poly(poly), config)
        contained += bool(report.containment)
        passed += bool(report.all_passed())
        last = report
    # negative control: a synthetic frequency outside the fitted ball must
    # flip the verdict
    injected = SpectrumEntry(
        frequency=np.append(last.type_estimate.sigma_hat + 1.0,
                            np.zeros(last.dim - 1)) if last.dim > 1
        else np.array([last.type_estimate.sigma_hat + 1.0]),
        coefficient=0.5, magnitude=0.5)
    doctored = SpectrumReport(
        dim=last.dim, entries=last.spectrum.entries + (injected,),
        threshold=last.spectrum.threshold, floor=last.spectrum.floor,
        quadrature=last.spectrum.quadrature, method=last.spectrum.method)
    control_ok, control_violation = ap.containment_verdict(
        doctored, last.type_estimate.sigma_hat, tol=0.1)
    elapsed = time.time() - t0
    gate("gate05 verification corpus",
         contained == 100 and passed == 100 and not control_ok
         and control_violation > 0.5 and elapsed <= 120.0,
         "contained=%d/100 all_passed=%d/100 control=%s %.1fs/120s"
         % (contained, passed, control_ok, elapsed))


def test_gate_06_shifted_strip_bound():
    t0 = time.time()
    npts = {1: 32768, 2: 512, 3: 96}
    worst_ratio = 0.0
    fails = 0
    for i, poly in corpus(100, 7000):
        f = ap.FunctionSource.from_poly(poly)
        sigma = ap.exact_type(poly)
        norm = cached_seminorm(f, poly.dim)
        for T in (50.0, 100.0):
            quad = ap.QuadratureSpec(half_width=T, points_per_axis=npts[poly.dim])
            for s in (0.25, 0.5, 1.0):
                r = ap.strip_integral_bound(f, sigma=sigma, s=s, quad=quad,
                                            norm_value=norm, min_half_width=50.0)
                fails += not r.passed
                worst_ratio = max(worst_ratio, r.lhs / r.rhs)
    # closed forms: the unit constant integrates to 2T; e^{ix} shifted by is
    # integrates to 2T e^{-2s}
    worst_closed = 0.0
    for T in (50.0, 100.0):
        quad = ap.QuadratureSpec(half_width=T, points_per_axis=65536)
        r = ap.strip_integral_bound(ap.FunctionSource.constant(1.0), sigma=0.0,
                                    s=0.5, quad=quad, norm_value=1.0,
                                    min_half_width=50.0)
        worst_closed = max(worst_closed, abs(r.lhs - 2.0 * T))
        wave = ap.FunctionSource.from_poly(ap.TrigPolynomial(
            dim=1, freqs=np.array([[1.0]]), coeffs=np.array([1.0 + 0j])))
        for s in (0.25, 0.5, 1.0):
            r = ap.strip_integral_bound(wave, sigma=1.0, s=s, quad=quad,
                                        norm_value=1.0, min_half_width=50.0)
            worst_closed = max(worst_closed,
                               abs(r.lhs - 2.0 * T * math.exp(-2.0 * s)))
    elapsed = time.time() - t0
    gate("gate06 shifted strip bound",
         fails == 0 and worst_closed <= 1e-8 and elapsed <= 120.0,
         "fails=%d/600 worst_lhs/rhs=%.3f closed_form_err=%.2e/1e-8 %.1fs/120s"
         % (fails, worst_ratio, worst_closed, elapsed))


def test_gate_07_contour_closure_and_refinement():
    t0 = time.time()
    T_by_dim = {1: 4.0, 2: 3.0, 3: 2.0}
    worst_fine = 0.0
    worst_order = float("inf")
    for i, poly in corpus(20, 4200):
        f = ap.FunctionSource.from_poly(poly)
        sigma = ap.exact_type(poly)
        T = T_by_dim[poly.dim]
        gaps = []
        for n in (16384, 32768, 65536):
            quad = ap.QuadratureSpec(half_width=T, points_per_axis=n)
            d = ap.contour_decomposition(f, sigma=sigma, eta=0.5, half_width=T,
                                         y1=1.0, quad=quad, side_points=n // 2,
                                         rest_points=4)
            gaps.append(abs(d.closure_gap))
        worst_fine = max(worst_fine, gaps[2])
        worst_order = min(worst_order,
                          math.log(gaps[0] / gaps[2]) / math.log(4.0)
                          if gaps[2] > 0 else float("inf"))
    # unit-constant identity: every edge has an elementary antiderivative
    T, omega, y1 = 4.0, 0.5, 1.0
    quad = ap.QuadratureSpec(half_width=T, points_per_axis=2 ** 19)
    d = ap.contour_decomposition(ap.FunctionSource.constant(1.0), sigma=0.0,
                                 eta=omega, half_width=T, y1=y1, quad=quad,
                                 side_points=2 ** 17, rest_points=4)
    i0 = 2.0 * math.sin(T * omega) / omega
    side = (1.0 - math.exp(-omega * y1)) / omega
    const_err = max(
        abs(d.real_axis - i0),
        abs(d.top_edge - math.exp(-omega * y1) * i0),
        abs(d.left_edge - 1j * np.exp(-1j * omega * T) * side),
        abs(d.right_edge - 1j * np.exp(1j * omega * T) * side),
        d.closure_gap)
    elapsed = time.time() - t0
    gate("gate07 contour closure",
         worst_fine <= 1e-6 and worst_order >= 1.8 and const_err <= 1e-10,
         "finest_gap=%.2e/1e-6 order=%.2f>=1.8 const_err=%.2e/1e-10 %.1fs"
         % (worst_fine, worst_order, const_err, elapsed))


def test_gate_08_top_edge_decay():
    t0 = time.time()
    T_by_dim = {1: 4.0, 2: 3.0, 3: 2.0}
    n_checks = fails = 0
    worst_margin = float("inf")
    for i, poly in corpus(100, 7000):
        f = ap.FunctionSource.from_poly(poly)
        sigma = ap.exact_type(poly)
        norm = cached_seminorm(f, poly.dim)
        quad = ap.QuadratureSpec(half_width=T_by_dim[poly.dim],
                                 points_per_axis=1024)
        checks = ap.top_edge_decay_check(f, sigma=sigma, eta=0.5,
                                         half_width=T_by_dim[poly.dim],
                                         y1_values=(1.0, 2.0, 4.0, 8.0),
                                         quad=quad, rest_points=16,
                                         norm_value=norm)
        for c in checks:
            n_checks += 1
            fails += not c.passed
            if c.rhs != 0:
                worst_margin = min(worst_margin, (c.rhs - c.lhs) / abs(c.rhs))
    elapsed = time.time() - t0
    gate("gate08 top edge decay",
         fails == 0 and n_checks >= 400,
         "fails=%d/%d worst_rel_margin=%.4f %.1fs"
         % (fails, n_checks, worst_margin, elapsed))


def test_gate_09_majorant_inequalities():
    t0 = time.time()
    fails = []
    # catalog: constants, cosines, and sinc products with known growth rates
    catalog = [
        (ap.FunctionSource.constant(1.0), 0.0),
        (ap.FunctionSource.constant(2.5), 0.0),
        (ap.FunctionSource.cosine([1.0]), 1.0),
        (ap.FunctionSource.cosine([0.6, 0.8]), 1.0),
        (ap.FunctionSource.sinc_product(1), 1.0),
        (ap.FunctionSource.sinc_product(1, scale=0.5), 0.5),
        (ap.FunctionSource.sinc_product(2), math.sqrt(2.0)),
        (ap.FunctionSource.sinc_product(3, scale=0.7), 0.7 * math.sqrt(3.0)),
    ]
    wave = ap.FunctionSource.from_poly(ap.TrigPolynomial(
        dim=1, freqs=np.array([[1.0]]), coeffs=np.array([1.0 + 0j])))
    n_checks = 0
    for f, sigma in catalog:
        for delta in (0.1, 0.25):
            for L in (10.0, 20.0):
                dense = {1: 2001, 2: 1001, 3: 401}[f.dim]
                c = ap.logvinenko_check(f, sigma=sigma, delta=delta,
                                        half_width=L, dense_per_axis=dense)
                n_checks += 1
                if not c.passed:
                    fails.append(("logvinenko", f.label, delta, L))
        if f.dim == 1:
            for s in (0.5, 1.0, 2.0):
                for check in (ap.poisson_majorant_check(f, x0=0.3, s=s),
                              ap.phragmen_lindelof_check(f, x=0.3, y=s)):
                    n_checks += 1
                    if not check.passed:
                        fails.append((check.context.split()[0], f.label, s))
    # single exponential: both majorants become equalities
    worst_eq = 0.0
    for s in (0.5, 1.0, 2.0):
        for check in (ap.poisson_majorant_check(wave, x0=0.3, s=s),
                      ap.phragmen_lindelof_check(wave, x=0.3, y=s)):
            n_checks += 1
            worst_eq = max(worst_eq, abs(check.margin))
    # 100 random polynomial slices
    rng = np.random.default_rng(99)
    for i, poly in corpus(100, 7000):
        f = ap.FunctionSource.from_poly(poly)
        g = ap.line_slice(f, rest=rng.uniform(-3, 3, poly.dim - 1)
                          if poly.dim > 1 else None)
        x0 = float(rng.uniform(-2, 2))
        sigma_g = ap.exact_type(g.poly)
        for s in (0.5, 1.0, 2.0):
            for check in (ap.poisson_majorant_check(g, x0=x0, s=s),
                          ap.phragmen_lindelof_check(g, x=x0, y=s)):
                n_checks += 1
                if not check.passed:
                    fails.append((check.context.split()[0], i, s))
        for delta in (0.1, 0.25):
            for L in (10.0, 20.0):
                c = ap.logvinenko_check(g, sigma=sigma_g, delta=delta,
                                        half_width=L)
                n_checks += 1
                if not c.passed:
                    fails.append(("logvinenko-slice", i, delta, L))
    elapsed = time.time() - t0
    gate("gate09 majorant inequalities",
         not fails and worst_eq <= 1e-6,
         "fails=%d/%d equality_margin=%.2e/1e-6 %.1fs"
         % (len(fails), n_checks, worst_eq, elapsed))


def test_gate_10_rotation_identity():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for k in range(20):
        dim = 1 + k % 3
        q_mat, r_mat = np.linalg.qr(rng.standard_normal((dim, dim)))
        q_mat = q_mat * np.sign(np.diag(r_mat))
        lam = rng.uniform(-2, 2, dim)
        coeff = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        poly = ap.TrigPolynomial(dim=dim, freqs=lam[None, :],
                                 coeffs=np.array([coeff]))
        res = ap.rotation_invariance_check(poly, q_mat, lam, 200.0)
        worst = max(worst, res.gap)
    elapsed = time.time() - t0
    gate("gate10 rotation identity",
         worst <= 1e-12,
         "worst_gap=%.2e/1e-12 %.1fs" % (worst, elapsed))
