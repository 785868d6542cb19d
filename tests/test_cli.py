"""Command-line interface: subcommands, exit codes, report routing."""
import json
import time
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

    def test_out_file(self, lehmer_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", lehmer_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["polynomials"]


class TestParser:
    ARGVS = [
        ["constants"],
        ["search", "--degree", "6", "--height", "1"],
        ["analyze", "LEHMER"],
        ["verify", "LEHMER", "--format", "csv"],
        ["search", "--degree", "5", "--height", "1"],
        ["analyze", "LEHMER", "--precision", "32"],
        ["search", "--degree", "4", "--height", "1", "--theta", "1.2"],
    ]

    def _run(self, argvs, lehmer_file, capsys, fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            rc = main([lehmer_file if a == "LEHMER" else a for a in argv])
            out.append((rc, *capsys.readouterr()))
        return out

    def test_reused_parser_matches_fresh(self, lehmer_file, capsys):
        cli._build_parser.cache_clear()
        # twice through on one parser, so every subcommand follows another
        reused = self._run(self.ARGVS * 2, lehmer_file, capsys, fresh=False)
        fresh = self._run(self.ARGVS * 2, lehmer_file, capsys, fresh=True)
        assert reused == fresh
        assert [rc for rc, _, _ in reused[:len(self.ARGVS)]] == [0, 0, 0, 0, 1, 1, 0]

    @pytest.mark.parametrize("argv", [["--help"], ["search", "--help"], ["verify", "--help"]])
    def test_help_unchanged(self, argv, capsys):
        cli._build_parser.cache_clear()
        main(["constants"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        reused = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(argv)
        assert reused == capsys.readouterr().out
        assert reused.startswith("usage: mahlerlab")

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [["verify", "x", "--bogus"], ["analyze"]],
                             ids=["unknown-option", "missing-file"])
    def test_usage_error_is_input_error(self, argv, capsys):
        # argparse itself exits 2, which this CLI keeps for numeric failure
        assert main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("usage: mahlerlab")


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

    def test_precision_error_is_numeric_failure(self, lehmer_file, monkeypatch, capsys):
        def undecided(rs):
            raise rootfind.PrecisionError("undecided")

        monkeypatch.setattr(bounds, "count_real", undecided)
        assert main(["verify", lehmer_file]) == 2
        assert "numeric failure: undecided" in capsys.readouterr().err

    def test_csv_format(self, lehmer_file, capsys):
        assert main(["verify", lehmer_file, "--format", "csv"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "id,degree,theoremId,applicable,lhs,rhs,margin,verdict"


class TestMignotte:
    """x^k - 2 (a x - 1)^2 has two real roots near 1/a, about 1.4e-22 apart
    at (k, a) = (20, 100) and 1.4e-63 at (40, 1000), where their disks
    overlap below 512 bits; its exact real-zero counts are (m, n) = (4, 3)."""

    DATA = Path(__file__).parent / "data"

    def _realzero_com(self, capsys):
        (poly,) = json.loads(capsys.readouterr().out)["polynomials"]
        return next(b for b in poly["bounds"] if b["theoremId"] == "realzero_com")

    def test_degree_20_verifies(self, capsys):
        # the disks about the pair, 1.4e-22 apart, are only disjoint when
        # they include the rounding of the fixed-point Horner evaluation
        assert main(["verify", str(self.DATA / "mignotte_close_pair_20.txt")]) == 0
        assert self._realzero_com(capsys)["lhs"] == 4

    @pytest.mark.parametrize("bits", [128, 256])
    def test_degree_40_overlap_is_numeric_failure(self, bits, capsys):
        corpus = str(self.DATA / "mignotte_close_pair_40.txt")
        assert main(["verify", corpus, "--precision", str(bits)]) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_degree_40_verifies_at_512_bits(self, capsys):
        corpus = str(self.DATA / "mignotte_close_pair_40.txt")
        assert main(["verify", corpus, "--precision", "512"]) == 0
        assert self._realzero_com(capsys)["lhs"] == 4


def test_roots_beyond_float_range_verify(capsys):
    # x^30 + 2^40 x^29 + 1 and x^40 + 2^30 x^39 + 1: at the root near -2^40
    # (-2^30) the float Horner evaluation overflows, and the NaN step spread
    # to every machine seed, so `verify` exited 2 on both
    corpus = Path(__file__).parent / "data" / "float_overflow_seeds.txt"
    assert main(["verify", str(corpus)]) == 0
    report = json.loads(capsys.readouterr().out)["polynomials"]
    assert [p["id"] for p in report] == ["x30_2e40", "x40_2e30"]
    assert all(b["verdict"] != "Violated" for p in report for b in p["bounds"])


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


@pytest.mark.parametrize("command", ["analyze", "verify", "search"])
def test_unwritable_out_is_input_error(lehmer_file, tmp_path, command, capsys):
    # a report that cannot be written is an input error, like a corpus that
    # cannot be read, not a traceback after the run
    out = tmp_path / "missing" / "r.json"
    args = [command, lehmer_file]
    if command == "search":
        args = [command, "--degree", "2", "--height", "1"]
    assert main(args + ["--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")


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

    def test_out_gets_the_records(self, tmp_path, capsys):
        # the table goes to stdout and the JSON records to --out; search has
        # no CSV form, so --format is a usage error
        out = tmp_path / "records.json"
        argv = ["search", "--degree", "10", "--height", "1", "--out", str(out)]
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        records = json.loads(out.read_text())["records"]
        assert len(records) == len(table) - 1 > 0
        assert records[0]["coefficients"] == [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
        assert main(argv + ["--format", "csv"]) == cli.EXIT_INPUT

    def test_jobs_other_than_one_is_refused(self, capsys):
        # search has no worker pool: --jobs 8 must not run serially unsaid
        argv = ["search", "--degree", "10", "--height", "1"]
        assert main(argv + ["--jobs", "8"]) == cli.EXIT_INPUT
        out = capsys.readouterr()
        assert "search runs in one process" in out.err and out.out == ""
        assert main(argv + ["--jobs", "1"]) == 0
        assert "1.176280" in capsys.readouterr().out.splitlines()[1]
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "search runs in one process" in " ".join(capsys.readouterr().out.split())

    def test_over_cap_fails_before_searching(self, capsys):
        # 21^7 rows at degree 14 exceed the cap: the search stops before it
        # enumerates the smaller degrees, 86 million rows at degree 12 alone
        start = time.perf_counter()
        assert main(["search", "--degree", "14", "--height", "10"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "exceeds cap" in err
        assert "size_cap" not in err


class TestPlotAndConstants:
    def test_plot_deterministic(self, lehmer_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", lehmer_file, "--out", str(a)]) == 0
        assert main(["plot", lehmer_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")

    @pytest.mark.parametrize("flag", [["--theta", "1.2"], ["--format", "csv"], ["--jobs", "3"]])
    def test_plot_takes_no_unread_option(self, lehmer_file, tmp_path, flag):
        out = tmp_path / "z.svg"
        assert main(["plot", lehmer_file, "--out", str(out), *flag]) == cli.EXIT_INPUT
        assert not out.exists()

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

    def test_analyze_squarefree_once(self, monkeypatch):
        # the irreducibility probe reads squarefreeness from the roots'
        # multiplicities, so the one squarefree decomposition is in `roots`;
        # counted through every namespace that bound it at some time
        made = []
        real = rootfind.squarefree_parts

        def counted(a):
            made.append(a)
            return real(a)

        for mod in (rootfind, structure):
            monkeypatch.setattr(mod, "squarefree_parts", counted, raising=False)
        rec = _analyze_one(("p", self.LEHMER, 128, 1.3))
        assert made == [self.LEHMER]
        assert rec.etheta["member"]

    def test_analyze_repeated_unit_circle_roots(self, calls):
        _analyze_one(("p", self.PHI3_SQUARED, 128, 1.3))
        # exact multiplicities: the double roots on |x| = 1 come with radii
        # near 2^-152, and M = 1 lies far from theta, so the roots are found once
        assert calls["roots"] == [128]

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
    prints exactly the committed report.  `analyze` over another 20
    (cyclotomic, repeated unit-circle, reducible, irreducible and E_theta
    members, drawn from the benchmark's pools) matches its committed report
    field by field."""

    DATA = Path(__file__).parent / "data"
    # the Graeffe bracket may move by a few units in its last place: its
    # width is a difference of two nearby values
    GRAEFFE_REL = {"graeffe": 1e-14, "graeffeError": 1e-8}

    def _assert_matches(self, got, want, key=None):
        if isinstance(want, dict):
            assert list(got) == list(want)
            for k in want:
                self._assert_matches(got[k], want[k], k)
        elif isinstance(want, list):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                self._assert_matches(g, w, key)
        elif key in self.GRAEFFE_REL:
            assert abs(got - want) <= self.GRAEFFE_REL[key] * abs(want), key
        else:
            assert got == want and type(got) is type(want), key

    def test_analyze_json_matches(self, tmp_path):
        out = tmp_path / "report.json"
        corpus = self.DATA / "analyze_golden_corpus.txt"
        assert main(["analyze", str(corpus), "--precision", "128", "--out", str(out)]) == 0
        want = json.loads((self.DATA / "analyze_golden.json").read_text())
        self._assert_matches(json.loads(out.read_text()), want)

    def test_verify_json_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        corpus = self.DATA / "verify_golden_corpus.txt"
        assert main(["verify", str(corpus), "--precision", "128", "--out", str(out)]) == 0
        assert out.read_bytes() == (self.DATA / "verify_golden.json").read_bytes()
