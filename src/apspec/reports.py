"""Serialization of inputs and result records.

Polynomial wire format:

    {"dim": 2, "terms": [{"lambda": [1.0, 0.5], "re": 1.0, "im": 0.0}]}

Reports are written as a JSON document plus a flat CSV summary.  JSON has
json.dumps's bytes with sorted keys and a fixed indent, so identical inputs
produce byte-identical files; one walk writes it, as json encodes in pure
Python once indent is set.  Non-finite floats become "inf", "-inf", "nan".
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .core import POLY, FunctionSource, TrigPolynomial, known_type
from .entire import EnvelopeEstimate, InequalityCheck, TypeEstimate
from .errors import DimensionMismatchError, PreconditionError
from .meanvalue import SeminormEstimate, SpectrumReport
from .quadrature import COMPENSATED, LadderSpec, QuadratureSpec
from .verifier import ContourDecomposition, StripBoundResult, VerificationReport

CHECK_CSV_HEADER = ["context", "lhs", "rhs", "margin", "tolerance", "passed"]
SUMMARY_CSV_HEADER = ["check", "lhs", "rhs", "margin", "passed"]


def _json_safe(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# json's text for the strings _json_safe puts in place of non-finite floats
_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _render(value, newline: str, out: list):
    """Append value, indented by newline, as json.dumps(_json_safe(value), ...) writes it."""
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif kind is dict and value and type(next(iter(value))) is str:
        inner, sep = newline + "  ", "{"
        for key in sorted(value):  # on other keys as well, json raises the same TypeError
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _render(value[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif (kind is list or kind is tuple) and value:
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _render(item, inner, out)
            sep = ","
        out.append(newline + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append(_CONSTANTS[value])
    else:  # a subclass, a numpy scalar, keys other than str: json's own text, re-indented
        out.append(json.dumps(_json_safe(value), sort_keys=True, indent=2).replace("\n", newline))


def dumps_canonical(obj) -> str:
    """json.dumps(_json_safe(obj), sort_keys=True, indent=2) + "\\n", in one walk of obj."""
    out: list = []
    _render(obj, "\n", out)
    return "".join(out) + "\n"


def write_json(path: str, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- polynomials

def poly_to_dict(poly: TrigPolynomial) -> dict:
    return {
        "dim": poly.dim,
        "terms": [
            {"lambda": [float(v) for v in freq], "re": float(c.real), "im": float(c.imag)}
            for freq, c in zip(poly.freqs, poly.coeffs)
        ],
    }


def poly_from_dict(obj: dict) -> TrigPolynomial:
    if not isinstance(obj, dict):
        raise PreconditionError("polynomial document must be a JSON object")
    try:
        dim = int(obj["dim"])
        terms = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError("polynomial document needs integer 'dim' and a 'terms' list") from exc
    if not isinstance(terms, list) or not terms:
        raise PreconditionError("'terms' must be a nonempty list")
    freqs, coeffs = [], []
    for i, term in enumerate(terms):
        try:
            lam = [float(v) for v in term["lambda"]]
            re = float(term["re"])
            im = float(term["im"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError("term %d must carry 'lambda', 're', 'im'" % i) from exc
        if len(lam) != dim:
            raise DimensionMismatchError(
                "term %d frequency has %d coordinates, expected %d" % (i, len(lam), dim))
        freqs.append(lam)
        coeffs.append(complex(re, im))
    return TrigPolynomial(dim=dim, freqs=np.array(freqs), coeffs=np.array(coeffs))


def dump_poly_json(poly: TrigPolynomial, path: str):
    write_json(path, poly_to_dict(poly))


def load_poly_json(path: str) -> TrigPolynomial:
    with open(path) as fh:
        return poly_from_dict(json.load(fh))


def parse_source(spec: str) -> FunctionSource:
    """Build a source from a file path or a builtin:... designator.

    Builtins: builtin:sinc<p>[:scale] for the p-variable sinc product,
    builtin:cos:a,b,... for a cosine, builtin:const:re[,im] for a constant.
    """
    if not spec.startswith("builtin:"):
        return FunctionSource.from_poly(load_poly_json(spec), label=spec)
    parts = spec.split(":")
    name = parts[1] if len(parts) > 1 else ""
    if name.startswith("sinc"):
        try:
            dim = int(name[4:] or "1")
        except ValueError:
            raise PreconditionError("bad sinc builtin %r; use builtin:sinc2 or builtin:sinc2:0.5" % spec)
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        return FunctionSource.sinc_product(dim=dim, scale=scale)
    if name == "cos":
        if len(parts) < 3:
            raise PreconditionError("builtin:cos needs frequencies, e.g. builtin:cos:1.0,0.5")
        lam = [float(v) for v in parts[2].split(",")]
        return FunctionSource.cosine(lam)
    if name == "const":
        if len(parts) < 3:
            raise PreconditionError("builtin:const needs a value, e.g. builtin:const:2.0")
        vals = [float(v) for v in parts[2].split(",")]
        value = complex(vals[0], vals[1] if len(vals) > 1 else 0.0)
        return FunctionSource.constant(value)
    raise PreconditionError("unknown builtin %r; expected sinc<p>, cos, or const" % spec)


def source_to_dict(source: FunctionSource) -> dict:
    base = {"dim": source.dim, "kind": source.kind, "label": source.label,
            "type": known_type(source)}
    if source.kind == POLY:
        base["poly"] = poly_to_dict(source.poly)
    else:
        base["scale"] = source.scale
        base["amplitude"] = [source.amplitude.real, source.amplitude.imag]
    return base


# -------------------------------------------------------------------- records

def quadrature_to_dict(quad: QuadratureSpec) -> dict:
    return {"half_width": quad.half_width, "points_per_axis": quad.points_per_axis,
            "summation": COMPENSATED}


def ladder_to_dict(ladder: LadderSpec) -> dict:
    return {"base": ladder.base, "levels": ladder.levels, "tail_levels": ladder.tail_levels}


def spectrum_to_dict(report: SpectrumReport) -> dict:
    return {
        "dim": report.dim,
        "threshold": report.threshold,
        "floor": report.floor,
        "method": report.method,
        "quadrature": quadrature_to_dict(report.quadrature),
        "entries": [
            {"lambda": [float(v) for v in e.frequency],
             "coeff_re": e.coefficient.real, "coeff_im": e.coefficient.imag,
             "magnitude": e.magnitude}
            for e in report.entries
        ],
    }


def spectrum_csv_rows(report: SpectrumReport) -> tuple[list[str], list[list[str]]]:
    header = ["lambda_%d" % (j + 1) for j in range(report.dim)]
    header += ["coeff_re", "coeff_im", "magnitude"]
    rows = []
    for e in report.entries:
        row = [_fmt(v) for v in e.frequency]
        row += [_fmt(e.coefficient.real), _fmt(e.coefficient.imag), _fmt(e.magnitude)]
        rows.append(row)
    return header, rows


def seminorm_to_dict(est: SeminormEstimate, ladder: LadderSpec) -> dict:
    return {
        "value": est.value,
        "ladder": ladder_to_dict(ladder),
        "per_level": [{"half_width": t, "box_mean": v} for t, v in est.per_level],
    }


def type_estimate_to_dict(est: TypeEstimate) -> dict:
    return {
        "sigma_hat": est.sigma_hat,
        "log_c0_hat": est.log_c0_hat,
        "radii": list(est.radii),
        "fit_radii": list(est.fit_radii),
        "n_directions": est.n_directions,
        "residual": est.residual,
    }


def check_to_dict(check: InequalityCheck) -> dict:
    return {"context": check.context, "lhs": check.lhs, "rhs": check.rhs,
            "margin": check.margin, "tolerance": check.tolerance, "passed": check.passed}


def checks_csv_rows(checks: Sequence[InequalityCheck]) -> list[list[str]]:
    return [
        [c.context, _fmt(c.lhs), _fmt(c.rhs), _fmt(c.margin), _fmt(c.tolerance),
         "true" if c.passed else "false"]
        for c in checks
    ]


def strip_result_to_dict(result: StripBoundResult) -> dict:
    return {
        "lhs": result.lhs, "rhs": result.rhs,
        "bound_constant": result.bound_constant,
        "norm_estimate": result.norm_estimate,
        "s": result.s, "half_width": result.half_width,
        "tolerance": result.tolerance, "passed": result.passed,
    }


def contour_to_dict(result: ContourDecomposition) -> dict:
    def c2l(z: complex) -> list[float]:
        return [z.real, z.imag]
    return {
        "real_axis": c2l(result.real_axis),
        "left_edge": c2l(result.left_edge),
        "top_edge": c2l(result.top_edge),
        "right_edge": c2l(result.right_edge),
        "closure_gap": result.closure_gap,
        "sigma": result.sigma, "eta": result.eta,
        "half_width": result.half_width, "y1": result.y1,
        "x1_points": result.x1_points, "side_points": result.side_points,
        "rest_points": result.rest_points,
    }


def envelope_to_dict(est: EnvelopeEstimate) -> dict:
    return {"c1_hat": est.c1_hat, "argmax": [float(v) for v in est.argmax],
            "check": check_to_dict(est.check)}


def verification_to_dict(report: VerificationReport) -> dict:
    return {
        "label": report.label,
        "dim": report.dim,
        "sigma_known": report.sigma_known,
        "type_estimate": type_estimate_to_dict(report.type_estimate),
        "spectrum": spectrum_to_dict(report.spectrum),
        "tol": report.tol,
        "containment": report.containment,
        "max_violation": report.max_violation,
        "norm_estimate": report.norm_estimate,
        "strip_bounds": [strip_result_to_dict(r) for r in report.strip_results],
        "decay_checks": [check_to_dict(c) for c in report.decay_checks],
        "all_passed": report.all_passed(),
    }


def verification_summary_rows(report: VerificationReport) -> list[list[str]]:
    """Flat summary: one row per check, columns check,lhs,rhs,margin,passed."""
    rows = []
    if report.spectrum.entries:
        worst = max(float(np.linalg.norm(e.frequency)) for e in report.spectrum.entries)
    else:
        worst = float("-inf")
    rhs = report.type_estimate.sigma_hat + report.tol
    rows.append(["containment", _fmt(worst), _fmt(rhs), _fmt(rhs - worst),
                 "true" if report.containment else "false"])
    for r in report.strip_results:
        rows.append(["strip_bound s=%g T=%g" % (r.s, r.half_width),
                     _fmt(r.lhs), _fmt(r.rhs), _fmt(r.rhs - r.lhs),
                     "true" if r.passed else "false"])
    for c in report.decay_checks:
        rows.append([c.context, _fmt(c.lhs), _fmt(c.rhs), _fmt(c.margin),
                     "true" if c.passed else "false"])
    return rows
