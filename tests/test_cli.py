"""Command-line interface: subcommands, exit codes, report routing."""
import json
from pathlib import Path

import pytest

from mahlerlab import bounds, cli, measure, rootfind, structure
from mahlerlab.bounds import verify_all
from mahlerlab.cli import _analyze_one, main
from mahlerlab.polycore import Polynomial

LEHMER_LINE = "lehmer: 1 1 0 -1 -1 -1 -1 -1 0 1 1\n"


@pytest.fixture
def lehmer_file(tmp_path):
    f = tmp_path / "lehmer.txt"
    f.write_text(LEHMER_LINE)
    return str(f)


class TestAnalyze:
    def test_measure_in_output(self, lehmer_file, capsys):
        assert main(["analyze", lehmer_file, "--precision", "256"]) == 0
        payload = json.loads(capsys.readouterr().out)
        m = payload["polynomials"][0]["measure"]
        assert abs(m["rootProduct"] - 1.176280) < 1e-5
        assert abs(m["graeffe"] - 1.176280) < 1e-5

    def test_empty_corpus(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n")
        assert main(["analyze", str(f)]) == 0
        assert json.loads(capsys.readouterr().out) == {"polynomials": []}

    def test_parse_error_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1 oops 1\n")
        assert main(["analyze", str(f)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_1(self):
        assert main(["analyze", "/nonexistent/corpus.txt"]) == 1

    def test_bad_precision_exit_1(self, lehmer_file):
        assert main(["analyze", lehmer_file, "--precision", "32"]) == 1

    def test_env_precision(self, lehmer_file, monkeypatch, capsys):
        monkeypatch.setenv("MAHLERLAB_PRECISION", "192")
        assert main(["analyze", lehmer_file]) == 0
        json.loads(capsys.readouterr().out)

    def test_out_file(self, lehmer_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", lehmer_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["polynomials"]


class TestVerify:
    def test_lehmer_exit_0(self, lehmer_file, capsys):
        assert main(["verify", lehmer_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {b["verdict"] for b in payload["polynomials"][0]["bounds"]}
        assert "Violated" not in verdicts

    def test_cyclotomic_corpus(self, tmp_path, capsys):
        f = tmp_path / "phi5.txt"
        f.write_text("phi5: 1 1 1 1 1\n")
        assert main(["verify", str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = [b["verdict"] for b in payload["polynomials"][0]["bounds"]]
        assert "NotApplicable" in verdicts
        assert "Violated" not in verdicts

    def test_csv_format(self, lehmer_file, capsys):
        assert main(["verify", lehmer_file, "--format", "csv"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "id,degree,theoremId,applicable,lhs,rhs,margin,verdict"


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_jobs_reports_identical(tmp_path, command):
    corpus = tmp_path / "six.txt"
    corpus.write_text(
        LEHMER_LINE
        + "phi5: 1 1 1 1 1\n"
        + "phi3sq: 1 2 3 2 1\n"
        + "r7: 3 -1 4 1 -5 9 2\n"
        + "r4: -2 0 7 1 1\n"
        + "smyth: -1 -1 0 1\n"
    )
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"{command}-{jobs}.json"
        assert main([command, str(corpus), "--jobs", jobs, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


class TestSearch:
    def test_lehmer_top(self, capsys):
        assert main(["search", "--degree", "10", "--height", "1", "--theta", "1.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "1.176280" in lines[1]

    def test_empty(self, capsys):
        assert main(["search", "--degree", "2", "--height", "1", "--theta", "1.3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_bad_params(self):
        assert main(["search", "--degree", "3", "--height", "1"]) == 1
        assert main(["search", "--degree", "4", "--height", "1", "--theta", "1.5"]) == 1


class TestPlotAndConstants:
    def test_plot_deterministic(self, lehmer_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", lehmer_file, "--out", str(a)]) == 0
        assert main(["plot", lehmer_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "1.324717" in out  # theta0
        assert "0.655" in out  # A
        assert "0.984" in out  # B
        assert "3.591" in out and "3.594" in out  # solved and printed c


class TestOneRootFinding:
    """analyze and verify find the roots of each polynomial once and hand
    the same RootSet to every consumer."""

    LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    PHI15 = [1, -1, 0, 1, -1, 1, 0, -1, 1]
    PHI3_SQUARED = [1, 2, 3, 2, 1]
    PALINDROME10 = [1, 0, 1, -1, 1, 1, 1, -1, 1, 0, 1]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Precision of every `roots` call, and the number of
        `mahler_graeffe` calls, made through any module namespace."""
        made = {"roots": [], "graeffe": 0}
        real_roots, real_graeffe = rootfind.roots, measure.mahler_graeffe

        def counted_roots(p, precision_bits=128):
            made["roots"].append(precision_bits)
            return real_roots(p, precision_bits)

        def counted_graeffe(*args, **kwargs):
            made["graeffe"] += 1
            return real_graeffe(*args, **kwargs)

        for mod in (cli, measure, structure, bounds, rootfind):
            monkeypatch.setattr(mod, "roots", counted_roots)
        for mod in (measure, bounds):
            monkeypatch.setattr(mod, "mahler_graeffe", counted_graeffe, raising=False)
        return made

    @pytest.mark.parametrize("coeffs", [LEHMER, PHI15], ids=["lehmer", "phi15"])
    def test_analyze_simple_roots(self, calls, coeffs):
        rec = _analyze_one(("p", coeffs, 128, 1.3))
        assert calls["roots"] == [128]
        if coeffs == self.LEHMER:
            assert rec.etheta["member"] and rec.etheta["propertyAudit"]

    def test_analyze_repeated_unit_circle_roots(self, calls):
        _analyze_one(("p", self.PHI3_SQUARED, 128, 1.3))
        # the double roots straddle |x| = 1 at 128 bits: one escalation
        assert calls["roots"] == [128, 256]

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize(
        "coeffs", [LEHMER, PALINDROME10], ids=["lehmer", "palindrome10"]
    )
    def test_verify_all(self, calls, coeffs, bits):
        report = verify_all(Polynomial(coeffs), precision_bits=bits)
        assert calls["roots"] == [bits]
        assert calls["graeffe"] == 0
        assert any(
            e.theorem_id == "zhang_zagier" and e.verdict.value == "Holds"
            for e in report.entries
        )


class TestGoldenReport:
    """`verify` over a fixed 20-polynomial corpus (Lehmer, palindromes of
    degree 10 including ones with undecided unit-circle roots and with
    P(+-1) = 0, random integer polynomials of degree <= 30, monic or not)
    prints exactly the committed report."""

    DATA = Path(__file__).parent / "data"

    def test_verify_json_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        corpus = self.DATA / "verify_golden_corpus.txt"
        assert main(["verify", str(corpus), "--precision", "128", "--out", str(out)]) == 0
        assert out.read_bytes() == (self.DATA / "verify_golden.json").read_bytes()
