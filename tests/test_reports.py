"""Wire formats: polynomial JSON, builtin designators, canonical dumps, CSV."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspec import (
    FunctionSource,
    PreconditionError,
    TrigPolynomial,
    VerifyConfig,
    generate_polynomial,
    verify_spectral_containment,
)
from apspec.core import POLY, SINC_PRODUCT
from apspec.errors import DimensionMismatchError
from apspec.reports import (
    CHECK_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    _json_safe,
    checks_csv_rows,
    dump_poly_json,
    dumps_canonical,
    load_poly_json,
    parse_source,
    poly_from_dict,
    poly_to_dict,
    source_to_dict,
    spectrum_csv_rows,
    verification_summary_rows,
    verification_to_dict,
    write_csv,
    write_json,
)


class TestPolyDict:
    def test_round_trip(self):
        p = generate_polynomial(seed=11, dim=3, n_terms=4, radius=2.0, min_gap=0.5)
        q = poly_from_dict(poly_to_dict(p))
        assert q.dim == p.dim
        np.testing.assert_allclose(q.freqs, p.freqs)
        np.testing.assert_allclose(q.coeffs, p.coeffs)

    def test_file_round_trip(self, tmp_path):
        p = generate_polynomial(seed=12, dim=2, n_terms=3, radius=2.0, min_gap=0.5)
        path = str(tmp_path / "poly.json")
        dump_poly_json(p, path)
        q = load_poly_json(path)
        np.testing.assert_allclose(q.freqs, p.freqs)
        np.testing.assert_allclose(q.coeffs, p.coeffs)

    def test_rejects_non_object(self):
        with pytest.raises(PreconditionError):
            poly_from_dict([1, 2, 3])

    def test_rejects_missing_keys(self):
        with pytest.raises(PreconditionError):
            poly_from_dict({"dim": 1})

    def test_rejects_empty_terms(self):
        with pytest.raises(PreconditionError):
            poly_from_dict({"dim": 1, "terms": []})

    def test_rejects_term_without_fields(self):
        with pytest.raises(PreconditionError):
            poly_from_dict({"dim": 1, "terms": [{"lambda": [1.0]}]})

    def test_rejects_frequency_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            poly_from_dict({"dim": 2,
                            "terms": [{"lambda": [1.0], "re": 1.0, "im": 0.0}]})


class TestParseSource:
    def test_sinc_with_scale(self):
        f = parse_source("builtin:sinc2:0.5")
        assert f.kind == SINC_PRODUCT
        assert f.dim == 2
        assert f.scale == pytest.approx(0.5)

    def test_bare_sinc_defaults(self):
        f = parse_source("builtin:sinc")
        assert f.dim == 1 and f.scale == pytest.approx(1.0)

    def test_cosine(self):
        f = parse_source("builtin:cos:1.0,0.5")
        assert f.kind == POLY
        assert f.dim == 2
        assert f.poly.n_terms == 2

    def test_constant_complex(self):
        f = parse_source("builtin:const:0,1")
        from apspec import eval_real
        assert eval_real(f, np.zeros(1)) == pytest.approx(1j)

    def test_file_path(self, tmp_path):
        p = generate_polynomial(seed=13, dim=1, n_terms=2, radius=2.0, min_gap=0.5)
        path = str(tmp_path / "p.json")
        dump_poly_json(p, path)
        f = parse_source(path)
        assert f.kind == POLY
        assert f.label == path

    def test_unknown_builtin(self):
        with pytest.raises(PreconditionError):
            parse_source("builtin:gauss")

    def test_cos_without_frequencies(self):
        with pytest.raises(PreconditionError):
            parse_source("builtin:cos")

    def test_malformed_sinc_suffix(self):
        with pytest.raises(PreconditionError):
            parse_source("builtin:sincX")


class TestCanonicalJson:
    def test_key_order_independent(self):
        a = dumps_canonical({"b": 1, "a": [2, 3]})
        b = dumps_canonical({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_nonfinite_mapped_to_strings(self):
        doc = json.loads(dumps_canonical(
            {"pos": math.inf, "neg": -math.inf, "bad": math.nan, "ok": 1.5}))
        assert doc == {"pos": "inf", "neg": "-inf", "bad": "nan", "ok": 1.5}

    def test_tuples_become_lists(self):
        assert json.loads(dumps_canonical({"t": (1, 2)})) == {"t": [1, 2]}

    def test_write_json(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json(path, {"x": 1})
        with open(path) as fh:
            assert json.load(fh) == {"x": 1}


def reference_dumps(obj):
    """What dumps_canonical must write: json's own encoder on the _json_safe tree."""
    return json.dumps(_json_safe(obj), sort_keys=True, indent=2) + "\n"


def rendered_or_error(dumps, obj):
    try:
        return dumps(obj)
    except TypeError:
        return TypeError


# quotes, backslashes, control characters, non-ASCII and lone surrogates
AWKWARD_CHARS = '"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\uffff\ud800\udfff'
strings = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD_CHARS)), max_size=8)
json_leaves = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.integers(-2 ** 100, 2 ** 100), st.booleans(), st.none(), strings)
json_trees = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(strings, children, max_size=4)), max_leaves=40)
# keys json must convert or refuse, and leaves it refuses, all handed to json
odd_trees = st.recursive(
    st.one_of(json_leaves, st.integers(-5, 5).map(np.int64)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(strings, st.integers(-3, 3), st.floats(), st.booleans()),
                        children, max_size=3)), max_leaves=12)


class TestRendererMatchesJson:
    @given(json_trees)
    @example({"b": [1, 2.5, -0.0, np.float64(0.1), True, None, 2 ** 70],
              "a": {"": [], "z": {}, "\ud800": ("\x00\"", (math.nan, -math.inf))}})
    @example([])
    @example(5e-324)
    @settings(max_examples=150, deadline=None)
    def test_any_tree(self, obj):
        assert dumps_canonical(obj) == reference_dumps(obj)

    @given(odd_trees)
    @example({1: [2], 3: {"x": 1.5}})
    @example({1: 1, "a": 2})
    @example([np.int64(3)])
    @settings(max_examples=200, deadline=None)
    def test_other_types_go_to_json(self, obj):
        assert rendered_or_error(dumps_canonical, obj) == rendered_or_error(reference_dumps, obj)

    def test_verification_reports(self):
        sources = [FunctionSource.from_poly(generate_polynomial(
            seed=9100 + dim, dim=dim, n_terms=1 + dim, radius=2.0, min_gap=0.5))
            for dim in (1, 2, 3)]
        configs = [VerifyConfig(tol=0.1)] * 3
        sources.append(FunctionSource.sinc_product(1, scale=0.8, amplitude=1.5))
        configs.append(VerifyConfig(tol=0.1, threshold=0.5, scan_points=2048))
        for source, config in zip(sources, configs):
            doc = {"source": source_to_dict(source),
                   "verification": verification_to_dict(verify_spectral_containment(source, config))}
            assert dumps_canonical(doc) == reference_dumps(doc)


class TestCsv:
    def test_headers(self):
        assert CHECK_CSV_HEADER == ["context", "lhs", "rhs", "margin", "tolerance", "passed"]
        assert SUMMARY_CSV_HEADER == ["check", "lhs", "rhs", "margin", "passed"]

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [["1", "2"], ["3", "4"]])
        with open(path) as fh:
            assert fh.read().splitlines() == ["a,b", "1,2", "3,4"]

    def test_spectrum_rows_round_trip_full_precision(self):
        p = TrigPolynomial(dim=2, freqs=np.array([[1.0, 1.0 / 3.0]]),
                           coeffs=np.array([0.1 + 0.2j]))
        f = FunctionSource.from_poly(p)
        report = verify_spectral_containment(f, VerifyConfig(tol=0.1)).spectrum
        header, rows = spectrum_csv_rows(report)
        assert header == ["lambda_1", "lambda_2", "coeff_re", "coeff_im", "magnitude"]
        assert float(rows[0][1]) == 1.0 / 3.0


@pytest.fixture(scope="module")
def report():
    return verify_spectral_containment(FunctionSource.constant(2.0),
                                       VerifyConfig(tol=0.1))


class TestVerificationRecords:
    def test_dict_shape(self, report):
        doc = verification_to_dict(report)
        assert doc["containment"] is True
        assert doc["all_passed"] is True
        assert doc["sigma_known"] == pytest.approx(0.0)
        assert len(doc["strip_bounds"]) == len(report.strip_results)
        assert len(doc["decay_checks"]) == len(report.decay_checks)
        # must survive strict canonical serialization (max_violation is -inf here)
        json.loads(dumps_canonical(doc))

    def test_quadrature_record_names_the_one_policy(self, report):
        # the spec no longer carries a summation field; the record keeps the
        # key, so reports render byte for byte as before the knob went
        doc = verification_to_dict(report)["spectrum"]["quadrature"]
        quad = report.spectrum.quadrature
        assert doc == {"half_width": quad.half_width, "points_per_axis": quad.points_per_axis,
                       "summation": "compensated"}

    def test_summary_rows(self, report):
        rows = verification_summary_rows(report)
        assert rows[0][0] == "containment"
        assert rows[0][4] == "true"
        assert len(rows) == 1 + len(report.strip_results) + len(report.decay_checks)

    def test_checks_rows_format(self, report):
        rows = checks_csv_rows(report.decay_checks)
        assert all(len(r) == len(CHECK_CSV_HEADER) for r in rows)
        assert all(r[5] in ("true", "false") for r in rows)


class TestSourceDict:
    def test_poly_source(self):
        p = generate_polynomial(seed=14, dim=1, n_terms=2, radius=2.0, min_gap=0.5)
        doc = source_to_dict(FunctionSource.from_poly(p, label="unit"))
        assert doc["kind"] == POLY and doc["label"] == "unit"
        assert len(doc["poly"]["terms"]) == 2

    def test_sinc_source(self):
        doc = source_to_dict(FunctionSource.sinc_product(dim=3, scale=0.7))
        assert doc["kind"] == SINC_PRODUCT
        assert doc["scale"] == pytest.approx(0.7)
        assert doc["type"] == pytest.approx(0.7 * math.sqrt(3.0))
