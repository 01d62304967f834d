"""End-to-end command line checks through subprocess: exit codes and files."""

import json
import os
import subprocess
import sys

import pytest

import apspec
from apspec.quadrature import default_points_per_axis
from apspec.verifier import NORM_SAFETY

# the CLI subprocess imports the same apspec tree as this test process,
# installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(apspec.__file__)))

TWO_TERM_DOC = {"dim": 1, "terms": [
    {"lambda": [1.8], "re": 0.6, "im": 0.0},
    {"lambda": [2.0], "re": 0.7, "im": 0.0},
]}


def run_cli(*argv, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "apspec.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture()
def two_term(tmp_path):
    path = tmp_path / "two_term.json"
    path.write_text(json.dumps(TWO_TERM_DOC))
    return str(path)


class TestGenerate:
    def test_deterministic_bytes(self):
        a = run_cli("generate", "--seed", "42", "--dim", "2", "--terms", "3")
        b = run_cli("generate", "--seed", "42", "--dim", "2", "--terms", "3")
        c = run_cli("generate", "--seed", "43", "--dim", "2", "--terms", "3")
        assert a.returncode == b.returncode == c.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_output_file_round_trips(self, tmp_path):
        out = tmp_path / "poly"
        r = run_cli("generate", "--seed", "7", "--output", str(out))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "poly.json").read_text())
        assert doc["dim"] == 1 and len(doc["terms"]) == 5

    def test_bad_dim_is_a_usage_error(self):
        r = run_cli("generate", "--dim", "0")
        assert r.returncode == 2
        assert "error:" in r.stderr


class TestHappyPaths:
    def test_type_recovers_cosine(self):
        r = run_cli("type", "--input", "builtin:cos:1.0")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert abs(doc["type_estimate"]["sigma_hat"] - 1.0) < 1e-6
        assert doc["run"]["defaults"]["threshold"] == 0.05

    def test_norm_reports_ladder(self):
        r = run_cli("norm", "--input", "builtin:cos:1.0", "--levels", "3",
                    "--points", "4096")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["seminorm"]["per_level"]) == 3

    def test_lemma_constant(self):
        r = run_cli("lemma", "--input", "builtin:const:1.0", "--T0", "100",
                    "--points", "4096")
        assert r.returncode == 0
        assert json.loads(r.stdout)["strip_bound"]["passed"] is True

    def test_contour_default_tolerance(self):
        r = run_cli("contour", "--input", "builtin:cos:1.0", "--T0", "4",
                    "--points", "16384")
        assert r.returncode == 0
        assert json.loads(r.stdout)["passed"] is True

    def test_envelope(self):
        r = run_cli("envelope", "--input", "builtin:cos:1.0", "--T0", "50")
        assert r.returncode == 0

    def test_verify_two_term_default_tolerance(self, two_term, tmp_path):
        out = tmp_path / "report"
        r = run_cli("verify", "--input", two_term, "--output", str(out))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verification"]["containment"] is True
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "check,lhs,rhs,margin,passed"
        assert csv_lines[1].startswith("containment,")


    def test_verify_echoes_resolved_strip_parameters(self, two_term):
        # the strip box is widened to 50 and the grid follows the dimension
        r = run_cli("verify", "--input", two_term, "--T0", "10")
        assert r.returncode == 0
        params = json.loads(r.stdout)["run"]["parameters"]
        assert params["T0"] == 10.0
        assert params["strip_half_width"] == 50.0
        assert params["points"] == default_points_per_axis(1)

    def test_verify_norm_estimate_follows_points(self, two_term):
        # --points also sets the seminorm grid, so the reported estimate is the
        # safety-inflated ladder value at the echoed resolution
        source = apspec.FunctionSource.from_poly(apspec.TrigPolynomial.from_terms(
            1, [([1.8], 0.6), ([2.0], 0.7)]))
        estimates = []
        for points in (2048, 8192):
            r = run_cli("verify", "--input", two_term, "--points", str(points))
            assert r.returncode == 0
            doc = json.loads(r.stdout)
            assert doc["run"]["parameters"]["points"] == points
            ladder = apspec.LadderSpec()
            quad = apspec.QuadratureSpec(half_width=ladder.base, points_per_axis=points)
            expected = NORM_SAFETY * apspec.besicovitch_seminorm(source, ladder, quad).value
            estimates.append(doc["verification"]["norm_estimate"])
            assert estimates[-1] == pytest.approx(expected, rel=1e-12)
        assert estimates[0] != estimates[1]


class TestSpectrumValues:
    def test_two_term_magnitudes(self, two_term, tmp_path):
        out = tmp_path / "spec"
        r = run_cli("spectrum", "--input", two_term, "--output", str(out))
        assert r.returncode == 0
        lines = (tmp_path / "spec.csv").read_text().splitlines()
        assert lines[0] == "lambda_1,coeff_re,coeff_im,magnitude"
        first = lines[1].split(",")
        second = lines[2].split(",")
        # sorted by magnitude: the 0.7 term at frequency 2.0 leads
        assert float(first[0]) == 2.0
        assert float(first[3]) == pytest.approx(0.71117669740719025, abs=1e-12)
        assert float(second[3]) == pytest.approx(0.61303948030838862, abs=1e-12)

    def test_threshold_below_crosstalk_floor(self, two_term):
        r = run_cli("spectrum", "--input", two_term, "--threshold", "0.01")
        assert r.returncode == 2
        assert "floor" in r.stderr


class TestFailingChecks:
    def test_contour_starved_tolerance(self):
        r = run_cli("contour", "--input", "builtin:cos:1.0", "--T0", "4",
                    "--points", "1024", "--tol", "1e-12")
        assert r.returncode == 1
        assert json.loads(r.stdout)["passed"] is False

    def test_verify_starved_tolerance(self, two_term):
        r = run_cli("verify", "--input", two_term, "--tol", "1e-6")
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["verification"]["containment"] is False
        assert doc["verification"]["max_violation"] > 0


class TestUsageErrors:
    def test_missing_input_file(self):
        r = run_cli("type", "--input", "/nonexistent/poly.json")
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "terms": [')
        r = run_cli("type", "--input", str(bad))
        assert r.returncode == 2
        assert "line" in r.stderr and "column" in r.stderr

    def test_unknown_builtin(self):
        r = run_cli("type", "--input", "builtin:gauss")
        assert r.returncode == 2

    def test_bad_points(self, two_term):
        r = run_cli("spectrum", "--input", two_term, "--points", "-5")
        assert r.returncode == 2

    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2
