"""Command line front end.

Exit status: 0 when the run's checks pass, 1 when any reported check
fails, 2 on usage, parse, or parameter errors.  Reports go to
<output>.json and <output>.csv when --output is given, otherwise the JSON
payload is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import known_type
from .entire import estimate_type, growth_envelope_check
from .errors import ApspecError
from .generate import generate_polynomial
from .meanvalue import besicovitch_seminorm, spectrum_scan
from .quadrature import LadderSpec, QuadratureSpec, default_points_per_axis
from .reports import (
    CHECK_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    check_to_dict,
    checks_csv_rows,
    contour_to_dict,
    dumps_canonical,
    envelope_to_dict,
    ladder_to_dict,
    parse_source,
    poly_to_dict,
    quadrature_to_dict,
    seminorm_to_dict,
    source_to_dict,
    spectrum_csv_rows,
    spectrum_to_dict,
    strip_result_to_dict,
    type_estimate_to_dict,
    verification_summary_rows,
    verification_to_dict,
    write_csv,
    write_json,
)
from .verifier import (
    RECOMMENDED_CONTAINMENT_TOL,
    VerificationAborted,
    VerifyConfig,
    _default_candidates,
    contour_decomposition,
    strip_integral_bound,
    verify_spectral_containment,
)

# Single documented defaults block; every report echoes the resolved values.
DEFAULTS = {
    "T0": 50.0,             # ladder base and box half width
    "levels": 4,            # ladder levels
    "tail_levels": 2,       # levels entering the limsup surrogate
    "points_target": 4096,  # per-axis points at p = 1, scaled down by dimension
    "threshold": 0.05,      # spectrum detection threshold
    "scan_half_width": 200.0,
    "s": 0.5,               # imaginary shift for the strip bound
    "eta": 0.5,             # contour decay rate offset
    "y1": 1.0,              # rectangle height
    "delta": 0.25,          # net spacing parameter
    "contour_tol": 1e-3,    # closure gap allowance for the contour command
    "verify_tol": RECOMMENDED_CONTAINMENT_TOL,  # containment slack
    "seed": 0,
}


def _resolve_points(args, dim: int) -> int:
    if args.points is not None:
        return args.points
    return default_points_per_axis(dim, DEFAULTS["points_target"])


def _echo(args, command: str, resolved: dict) -> dict:
    return {"command": command, "parameters": resolved, "defaults": DEFAULTS}


def _emit(args, payload: dict, header=None, rows=None) -> None:
    if args.output:
        base = args.output[:-5] if args.output.endswith(".json") else args.output
        write_json(base + ".json", payload)
        if header is not None:
            write_csv(base + ".csv", header, rows or [])
    else:
        sys.stdout.write(dumps_canonical(payload))


def cmd_spectrum(args) -> int:
    source = parse_source(args.input)
    points = _resolve_points(args, source.dim)
    quad = QuadratureSpec(half_width=args.T0, points_per_axis=points)
    candidates = _default_candidates(source, known_type(source))
    report = spectrum_scan(source, candidates, quad, args.threshold)
    payload = {
        "run": _echo(args, "spectrum", {"T0": args.T0, "points": points,
                                        "threshold": args.threshold}),
        "source": source_to_dict(source),
        "spectrum": spectrum_to_dict(report),
    }
    header, rows = spectrum_csv_rows(report)
    _emit(args, payload, header, rows)
    return 0


def cmd_type(args) -> int:
    source = parse_source(args.input)
    estimate = estimate_type(source)
    payload = {
        "run": _echo(args, "type", {}),
        "source": source_to_dict(source),
        "type_estimate": type_estimate_to_dict(estimate),
    }
    header = ["sigma_hat", "log_c0_hat", "residual", "n_directions"]
    rows = [["%.17g" % estimate.sigma_hat, "%.17g" % estimate.log_c0_hat,
             "%.17g" % estimate.residual, str(estimate.n_directions)]]
    _emit(args, payload, header, rows)
    return 0


def cmd_norm(args) -> int:
    source = parse_source(args.input)
    ladder = LadderSpec(base=args.T0, levels=args.levels,
                        tail_levels=min(DEFAULTS["tail_levels"], args.levels))
    points = _resolve_points(args, source.dim)
    quad = QuadratureSpec(half_width=args.T0, points_per_axis=points)
    estimate = besicovitch_seminorm(source, ladder, quad)
    payload = {
        "run": _echo(args, "norm", {"T0": args.T0, "levels": args.levels,
                                    "points": points}),
        "source": source_to_dict(source),
        "seminorm": seminorm_to_dict(estimate, ladder),
    }
    rows = [["%.17g" % t, "%.17g" % v] for t, v in estimate.per_level]
    _emit(args, payload, ["half_width", "box_mean"], rows)
    return 0


def cmd_lemma(args) -> int:
    source = parse_source(args.input)
    sigma = known_type(source)
    points = _resolve_points(args, source.dim)
    quad = QuadratureSpec(half_width=args.T0, points_per_axis=points)
    result = strip_integral_bound(source, sigma, args.s, quad, s_max=args.s)
    payload = {
        "run": _echo(args, "lemma", {"T0": args.T0, "points": points, "s": args.s}),
        "source": source_to_dict(source),
        "strip_bound": strip_result_to_dict(result),
    }
    check = result.as_check()
    _emit(args, payload, CHECK_CSV_HEADER, checks_csv_rows([check]))
    return 0 if result.passed else 1


def cmd_contour(args) -> int:
    source = parse_source(args.input)
    sigma = known_type(source)
    points = _resolve_points(args, source.dim)
    quad = QuadratureSpec(half_width=args.T0, points_per_axis=points)
    result = contour_decomposition(source, sigma, args.eta, args.T0, args.y1, quad)
    tol = args.tol if args.tol is not None else DEFAULTS["contour_tol"]
    passed = result.closure_gap <= tol
    payload = {
        "run": _echo(args, "contour", {"T0": args.T0, "points": points,
                                       "eta": args.eta, "y1": args.y1, "tol": tol}),
        "source": source_to_dict(source),
        "contour": contour_to_dict(result),
        "passed": passed,
    }
    rows = [["contour_closure", "%.17g" % result.closure_gap, "%.17g" % tol,
             "%.17g" % (tol - result.closure_gap), "true" if passed else "false"]]
    _emit(args, payload, SUMMARY_CSV_HEADER, rows)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    source = parse_source(args.input)
    points = _resolve_points(args, source.dim)
    strip_half_width = max(50.0, args.T0)
    config = VerifyConfig(
        scan_half_width=DEFAULTS["scan_half_width"],
        scan_points=points,
        threshold=args.threshold,
        tol=args.tol,
        strip_s=(args.s,),
        strip_half_widths=(strip_half_width,),
        strip_points=points,
        norm_points=points,
        eta=args.eta,
        y1_values=tuple(args.y1 * 2 ** k for k in range(4)),
    )
    report = verify_spectral_containment(source, config)
    payload = {
        "run": _echo(args, "verify", {"T0": args.T0, "points": points,
                                      "strip_half_width": strip_half_width,
                                      "threshold": args.threshold,
                                      "tol": report.tol, "s": args.s,
                                      "eta": args.eta, "y1": args.y1}),
        "source": source_to_dict(source),
        "verification": verification_to_dict(report),
    }
    _emit(args, payload, SUMMARY_CSV_HEADER, verification_summary_rows(report))
    return 0 if report.all_passed() else 1


def cmd_envelope(args) -> int:
    source = parse_source(args.input)
    points = args.points if args.points is not None else 2001
    estimate = growth_envelope_check(source, half_width=args.T0, points_per_axis=points)
    payload = {
        "run": _echo(args, "envelope", {"T0": args.T0, "points": points}),
        "source": source_to_dict(source),
        "envelope": envelope_to_dict(estimate),
    }
    _emit(args, payload, CHECK_CSV_HEADER, checks_csv_rows([estimate.check]))
    return 0 if estimate.check.passed else 1


def cmd_generate(args) -> int:
    poly = generate_polynomial(seed=args.seed, dim=args.dim, n_terms=args.terms,
                               radius=args.radius, min_gap=args.gap)
    doc = poly_to_dict(poly)
    if args.output:
        path = args.output if args.output.endswith(".json") else args.output + ".json"
        write_json(path, doc)
    else:
        sys.stdout.write(dumps_canonical(doc))
    return 0


def _add_io(sub, input_required=True):
    if input_required:
        sub.add_argument("--input", required=True,
                         help="polynomial JSON path or builtin:<name> designator")
    sub.add_argument("--output", default=None,
                     help="report base path; writes <output>.json and <output>.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apspec",
        description="Mean values, spectra, and growth certificates for "
                    "almost periodic functions of exponential type.")
    commands = parser.add_subparsers(dest="command", required=True)

    sp = commands.add_parser("spectrum", help="averaged coefficients at candidate frequencies")
    _add_io(sp)
    sp.add_argument("--T0", type=float, default=DEFAULTS["scan_half_width"],
                    help="box half width; wide boxes shrink the cross-talk floor")
    sp.add_argument("--points", type=int, default=None, help="points per axis")
    sp.add_argument("--threshold", type=float, default=DEFAULTS["threshold"])
    sp.set_defaults(func=cmd_spectrum)

    ty = commands.add_parser("type", help="exponential type from imaginary-ray growth")
    _add_io(ty)
    ty.set_defaults(func=cmd_type)

    no = commands.add_parser("norm", help="Besicovitch seminorm ladder estimate")
    _add_io(no)
    no.add_argument("--T0", type=float, default=DEFAULTS["T0"], help="ladder base half width")
    no.add_argument("--levels", type=int, default=DEFAULTS["levels"])
    no.add_argument("--points", type=int, default=None)
    no.set_defaults(func=cmd_norm)

    le = commands.add_parser("lemma", help="shifted strip integral against its bound")
    _add_io(le)
    le.add_argument("--T0", type=float, default=DEFAULTS["T0"], help="box half width")
    le.add_argument("--points", type=int, default=None)
    le.add_argument("--s", type=float, default=DEFAULTS["s"], help="imaginary shift")
    le.set_defaults(func=cmd_lemma)

    co = commands.add_parser("contour", help="rectangle contour closure at one height")
    _add_io(co)
    co.add_argument("--T0", type=float, default=DEFAULTS["T0"], help="box half width")
    co.add_argument("--points", type=int, default=None)
    co.add_argument("--eta", type=float, default=DEFAULTS["eta"])
    co.add_argument("--y1", type=float, default=DEFAULTS["y1"], help="rectangle height")
    co.add_argument("--tol", type=float, default=None, help="closure gap allowance")
    co.set_defaults(func=cmd_contour)

    ve = commands.add_parser("verify", help="full spectral containment certificate")
    _add_io(ve)
    ve.add_argument("--T0", type=float, default=DEFAULTS["T0"], help="strip box half width")
    ve.add_argument("--points", type=int, default=None)
    ve.add_argument("--threshold", type=float, default=DEFAULTS["threshold"])
    ve.add_argument("--tol", type=float, default=DEFAULTS["verify_tol"],
                    help="containment slack around the fitted type")
    ve.add_argument("--s", type=float, default=DEFAULTS["s"])
    ve.add_argument("--eta", type=float, default=DEFAULTS["eta"])
    ve.add_argument("--y1", type=float, default=DEFAULTS["y1"])
    ve.set_defaults(func=cmd_verify)

    en = commands.add_parser("envelope", help="polynomial growth envelope constant")
    _add_io(en)
    en.add_argument("--T0", type=float, default=DEFAULTS["T0"], help="box half width")
    en.add_argument("--points", type=int, default=None)
    en.set_defaults(func=cmd_envelope)

    ge = commands.add_parser("generate", help="seeded random polynomial JSON")
    ge.add_argument("--output", default=None)
    ge.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    ge.add_argument("--dim", type=int, default=1)
    ge.add_argument("--terms", type=int, default=5)
    ge.add_argument("--radius", type=float, default=2.0)
    ge.add_argument("--gap", type=float, default=0.5, help="per-axis frequency gap")
    ge.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print("error: input is not valid JSON: line %d column %d: %s"
              % (exc.lineno, exc.colno, exc.msg), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except VerificationAborted as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ApspecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
