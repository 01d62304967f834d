"""Span tracing of apspec's public layer functions, installed from outside.

The library is not edited: each traced function is replaced, in the
namespace of every loaded module that bound it by name, with a wrapper
that records a span (name, start, end, parent) and a few work counters.
`from .core import eval_real` in meanvalue.py gives meanvalue its own
reference, so patching apspec.core alone would miss most calls.

Spans live in memory and are written out when the run ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def _n_points(arr) -> int:
    shape = np.shape(getattr(arr, "real", arr))
    return 1 if len(shape) < 2 else int(shape[0])


def _eval_counts(args, result):
    source, pts = args[0], args[1]
    n = _n_points(pts)
    per_point = source.poly.n_terms if source.kind == "poly" else source.dim
    return {"points": n, "term_evals": n * per_point}


def _tensor_sum_counts(args, result):
    nodes = 1
    for (_, _, n) in args[1]:
        nodes *= int(n)
    return {"nodes": nodes}


def _rows_bytes(rows):
    return sum(len(",".join(row)) + 1 for row in rows)


PACKAGE = "apspec"

# (module, function, counter hook); the hook maps (args, result) to counts
LAYER_FUNCTIONS = [
    ("core", "eval_real", _eval_counts),
    ("core", "eval_complex", _eval_counts),
    ("core", "sinc", None),
    ("quadrature", "tensor_sum", _tensor_sum_counts),
    ("quadrature", "full_grid", lambda args, result: {"bytes": int(result.nbytes)}),
    ("meanvalue", "besicovitch_seminorm", None),
    ("meanvalue", "spectrum_scan", None),
    ("meanvalue", "fourier_coeff_quadrature", None),
    ("entire", "estimate_type", None),
    ("entire", "logvinenko_check", None),
    ("entire", "poisson_majorant_check", None),
    ("entire", "phragmen_lindelof_check", None),
    ("verifier", "verify_spectral_containment", None),
    ("verifier", "strip_integral_bound", None),
    ("verifier", "top_edge_decay_check",
     lambda args, result: {"heights": sum(c.context.startswith("top_edge_decay ") for c in result)}),
    ("reports", "source_to_dict", None),
    ("reports", "verification_to_dict", None),
    ("reports", "dumps_canonical", lambda args, result: {"bytes": len(result.encode())}),
    ("reports", "verification_summary_rows", lambda args, result: {"bytes": _rows_bytes(result)}),
    ("generate", "generate_polynomial", None),
]

# the traced call each stage of verify_spectral_containment makes
STAGES = {
    "entire.estimate_type": "type_estimate",
    "meanvalue.spectrum_scan": "spectrum_scan",
    "meanvalue.besicovitch_seminorm": "seminorm",
    "verifier.strip_integral_bound": "strip_bound",
    "verifier.top_edge_decay_check": "top_edge_decay",
}

RENDER_SPANS = ("reports.source_to_dict", "reports.verification_to_dict",
                "reports.dumps_canonical", "reports.verification_summary_rows")


class Tracer:
    """Records spans while installed and enabled; restores the originals on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name_id, start_ns, end_ns, parent, counts]
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name_id, perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter_ns()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, fn_name, hook in LAYER_FUNCTIONS:
            original = getattr(sys.modules["%s.%s" % (PACKAGE, mod_name)], fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path: str):
        """Write one JSON object per span: name, start and end in ns, parent index, counts."""
        with open(path, "w") as fh:
            for name_id, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": self.names[name_id], "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, self times and ratios over every recorded span, as (value, unit)."""
    names = tracer.names
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_ns = defaultdict(int)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            child_ns[span[3]] += dur[idx]

    def name_of(idx):
        return names[spans[idx][0]]

    def has_ancestor(idx, ancestor):
        parent = spans[idx][3]
        while parent >= 0:
            if name_of(parent) == ancestor:
                return True
            parent = spans[parent][3]
        return False

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    counts = defaultdict(int)
    stage_ns = defaultdict(int)
    top_edge_integrals = 0
    scan_quadrature_ns = 0
    eval_ns = 0
    logvinenko_bytes = 0
    for idx in range(len(spans)):
        name = name_of(idx)
        calls[name] += 1
        self_ns[name] += dur[idx] - child_ns[idx]
        incl_ns[name] += dur[idx]
        for key, value in (spans[idx][4] or {}).items():
            counts[name + "." + key] += value
        parent = spans[idx][3]
        parent_name = name_of(parent) if parent >= 0 else None
        if name.startswith("core.eval_"):
            # inclusive: a sinc product's sinc() call is part of its evaluation
            eval_ns += dur[idx]
        if parent_name == "verifier.verify_spectral_containment" and name in STAGES:
            stage_ns[STAGES[name]] += dur[idx]
        if name == "quadrature.tensor_sum":
            if has_ancestor(idx, "verifier.top_edge_decay_check"):
                top_edge_integrals += 1
            if has_ancestor(idx, "meanvalue.spectrum_scan"):
                scan_quadrature_ns += dur[idx]
        if name == "quadrature.full_grid" and has_ancestor(idx, "entire.logvinenko_check"):
            logvinenko_bytes += spans[idx][4]["bytes"]

    def secs(ns):
        return ns / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for fn in ("eval_real", "eval_complex"):
        put("core.%s.calls" % fn, calls["core." + fn], "count")
        put("core.%s.points" % fn, counts["core.%s.points" % fn], "count")
        put("core.%s.self_s" % fn, secs(self_ns["core." + fn]), "s")
    put("core.sinc.calls", calls["core.sinc"], "count")
    put("core.sinc.self_s", secs(self_ns["core.sinc"]), "s")
    term_evals = counts["core.eval_real.term_evals"] + counts["core.eval_complex.term_evals"]
    put("core.term_evals", term_evals, "count")
    put("core.term_evals_per_s", ratio(term_evals, secs(eval_ns)), "1/s")
    put("quadrature.tensor_sum.calls", calls["quadrature.tensor_sum"], "count")
    put("quadrature.tensor_sum.nodes", counts["quadrature.tensor_sum.nodes"], "count")
    put("quadrature.tensor_sum.self_s", secs(self_ns["quadrature.tensor_sum"]), "s")
    put("quadrature.nodes_per_s", ratio(counts["quadrature.tensor_sum.nodes"],
                                        secs(incl_ns["quadrature.tensor_sum"])), "1/s")
    put("verifier.pipeline.self_s", secs(self_ns["verifier.verify_spectral_containment"]), "s")
    for stage in STAGES.values():
        put("verifier.stage.%s.s" % stage, secs(stage_ns[stage]), "s")
    heights = counts["verifier.top_edge_decay_check.heights"]
    put("verifier.top_edge.heights", heights, "count")
    put("verifier.top_edge.edge_integrals", top_edge_integrals, "count")
    put("verifier.top_edge.useful_ratio", ratio(heights, top_edge_integrals), "ratio")
    for fn in ("estimate_type", "logvinenko_check", "poisson_majorant_check",
               "phragmen_lindelof_check"):
        put("entire.%s.calls" % fn, calls["entire." + fn], "count")
        put("entire.%s.self_s" % fn, secs(self_ns["entire." + fn]), "s")
    put("entire.logvinenko.grid_bytes_computed", logvinenko_bytes, "B")
    for fn in ("besicovitch_seminorm", "spectrum_scan", "fourier_coeff_quadrature"):
        put("meanvalue.%s.calls" % fn, calls["meanvalue." + fn], "count")
        put("meanvalue.%s.self_s" % fn, secs(self_ns["meanvalue." + fn]), "s")
    put("meanvalue.spectrum_scan.quadrature_share",
        ratio(scan_quadrature_ns, incl_ns["meanvalue.spectrum_scan"]), "ratio")
    put("reports.render.self_s", secs(sum(self_ns[n] for n in RENDER_SPANS)), "s")
    put("reports.render.bytes", counts["reports.dumps_canonical.bytes"]
        + counts["reports.verification_summary_rows.bytes"], "B")
    put("generate.calls", calls["generate.generate_polynomial"], "count")
    put("generate.self_s", secs(self_ns["generate.generate_polynomial"]), "s")
    put("trace.spans", len(spans), "count")
    return out
