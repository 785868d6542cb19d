"""Corpus parsing, report emission, and zero-plot determinism."""
import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import corpusio
from mahlerlab.corpusio import (
    CorpusEntry,
    CorpusFormatError,
    PolynomialRecord,
    emit_report,
    emit_zero_plot,
    parse_corpus,
    serialize_corpus,
)
from mahlerlab.polycore import Polynomial
from mahlerlab.reporting import entry_from_inequality, entry_not_applicable
from mahlerlab.rootfind import roots


class TestParsing:
    def test_basic(self):
        entries = parse_corpus("lehmer: 1 1 0 -1 -1 -1 -1 -1 0 1 1\n")
        assert entries[0].id == "lehmer"
        assert entries[0].polynomial.degree == 10

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1 1   # x + 1\n  \nsec: -1 0 1\n"
        entries = parse_corpus(text)
        assert [e.id for e in entries] == ["0", "sec"]
        assert entries[0].polynomial == Polynomial([1, 1])

    def test_descending(self):
        entries = parse_corpus("1 0 -2\n", descending=True)
        assert entries[0].polynomial == Polynomial([-2, 0, 1])

    def test_error_reports_location(self):
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus("1 1\n1 x 1\n")
        assert exc.value.line == 2
        assert exc.value.column == 3
        # the column is the bad token's own, not that of an earlier token
        # (or id) that spells the same text
        for text, column in (("x: 1 x", 6), ("ab: 1 b", 7)):
            with pytest.raises(CorpusFormatError) as exc:
                parse_corpus(text)
            assert (exc.value.line, exc.value.column) == (1, column), text

    @pytest.mark.parametrize("text", ["z: 0 0 0\n", "0\n", "1 1\n0 0 # zero\n"])
    def test_zero_polynomial_is_an_error(self, text):
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(text)
        assert str(exc.value).endswith(": zero polynomial")
        assert (exc.value.line, exc.value.column) == (text.count("\n"), None)

    def test_roundtrip(self):
        text = "a: 1 2 3\nb: -1 0 1\n"
        entries = parse_corpus(text)
        assert parse_corpus(serialize_corpus(entries)) == entries

    def test_serialize_rejects_rational_coefficients(self):
        # written as "0 1", 1/2 + x would parse back as x
        entry = CorpusEntry("half", Polynomial([Fraction(1, 2), 1]), 1)
        with pytest.raises(ValueError, match="half"):
            serialize_corpus([entry])


class TestReports:
    def _records(self):
        p = Polynomial([1, 1])
        rec = PolynomialRecord("p0", p)
        rec.norms = {"H": 1.0, "L": 2.0, "L2": 2 ** 0.5}
        rec.bounds = [
            entry_from_inequality("chain_M_le_L2", 1.0, 1.4142),
            entry_not_applicable("zhang_zagier", "excluded"),
        ]
        return [rec]

    def test_json_schema(self):
        payload = json.loads(emit_report(self._records(), "json"))
        poly = payload["polynomials"][0]
        assert poly["id"] == "p0"
        assert poly["degree"] == 1
        assert poly["coefficients"] == [1, 1]
        bound = poly["bounds"][0]
        assert set(bound) == {"theoremId", "applicable", "lhs", "rhs", "margin", "verdict"}
        assert bound["verdict"] == "Holds"
        na = poly["bounds"][1]
        assert na["applicable"] is False and na["lhs"] is None

    def test_csv_header_and_rows(self):
        out = emit_report(self._records(), "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "degree", "theoremId", "applicable", "lhs", "rhs", "margin", "verdict"]
        assert rows[1][0] == "p0"
        assert rows[1][-1] == "Holds"
        assert rows[2][-1] == "NotApplicable"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


def _json(obj) -> str:
    out = []
    corpusio._write_json(obj, out, "\n")
    return "".join(out)


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([float("nan"), math.inf, -math.inf, -0.0, 5e-324, 1e16,
                       1 << 64, -(1 << 70), "caf\u00e9 \u2211", "\x00\x1f\"\\\n\t\x7f"])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """The report writer against json.dumps(obj, indent=2)."""

    @settings(max_examples=300)
    @given(_VALUES)
    def test_matches_json_dumps(self, obj):
        assert _json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], {"a": {}}, [True, 1, False, 0, 1.0], float("nan"), [math.inf, -math.inf],
        -0.0, 5e-324, 1e16, 1 << 64, {"\u00e9\x01": "\u2211\ud83d\ude00"}, (1, "x"),
    ], ids=repr)
    def test_edge_values(self, obj):
        assert _json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [{1: 2}, {"a": object()}, b"bytes"], ids=repr)
    def test_rejects_what_reports_never_hold(self, obj):
        with pytest.raises(TypeError):
            _json(obj)


class TestPlots:
    def test_byte_stable(self):
        p = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
        a = emit_zero_plot([roots(p, 128)])
        b = emit_zero_plot([roots(p, 128)])
        assert a == b
        assert a.startswith("<svg")
        assert a.count("crimson") == 10

    def test_unit_circle_drawn(self):
        # one unfilled circle for |z| = 1 beside the two root markers; the
        # viewport reaches 1.1, so its radius is 300 / 1.1 pixels
        p = Polynomial([1, 0, 1])
        svg = emit_zero_plot([roots(p, 128)])
        assert svg.count("<circle") == 3
        assert svg.count('fill="crimson"') == 2
        assert '<circle cx="300.000" cy="300.000" r="272.727" fill="none" stroke="black"' in svg
