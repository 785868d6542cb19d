"""Corpus parsing, report serialization (JSON/CSV) and zero-set SVG plots.

Corpus line format: optional leading `id:` token, then ascending integer
coefficients a0 a1 ... ad separated by spaces.  `#` starts a comment, blank
lines are skipped.  The paper-style descending order is accepted behind a
flag since published lists print the leading coefficient first.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str

from .polycore import Polynomial
from .reporting import BoundEntry
from .rootfind import RootSet

__all__ = [
    "CorpusEntry",
    "CorpusFormatError",
    "PolynomialRecord",
    "parse_corpus",
    "serialize_corpus",
    "emit_report",
    "emit_zero_plot",
]


class CorpusFormatError(ValueError):
    def __init__(self, message, line, column=None):
        loc = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    polynomial: Polynomial
    source_line: int


def parse_corpus(text: str, descending: bool = False) -> list[CorpusEntry]:
    entries = []
    index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        ident = None
        if tokens[0].endswith(":"):
            ident = tokens[0][:-1]
            tokens = tokens[1:]
        if not tokens:
            raise CorpusFormatError("no coefficients after id", lineno)
        coeffs = []
        for k, tok in enumerate(tokens, start=0 if ident is None else 1):
            try:
                coeffs.append(int(tok))
            except ValueError:
                # the column of the k-th token, not of the first token with
                # the same text
                col = [m.start() for m in re.finditer(r"\S+", line)][k] + 1
                raise CorpusFormatError(
                    f"non-integer token {tok!r}", lineno, col
                ) from None
        if not any(coeffs):
            raise CorpusFormatError("zero polynomial", lineno)
        if descending:
            coeffs.reverse()
        if ident is None:
            ident = str(index)
        index += 1
        entries.append(CorpusEntry(ident, Polynomial(coeffs), lineno))
    return entries


def serialize_corpus(entries: list[CorpusEntry]) -> str:
    lines = []
    for e in entries:
        if not e.polynomial.is_integer():
            raise ValueError(f"{e.id}: a corpus holds integer coefficients only")
        coeffs = " ".join(map(str, e.polynomial.coeffs))
        lines.append(f"{e.id}: {coeffs}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# reports


def _num(x):
    """15-significant-digit float serialization; None passes through."""
    if x is None:
        return None
    return float(f"{float(x):.15g}")


@dataclass
class PolynomialRecord:
    """One polynomial's aggregated analysis, the JSON serialization unit."""

    id: str
    polynomial: Polynomial
    norms: dict = field(default_factory=dict)
    measure: dict = field(default_factory=dict)
    etheta: dict = field(default_factory=dict)
    bounds: list[BoundEntry] = field(default_factory=list)
    roots: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)


def _write_json(o, out: list[str], nl: str) -> None:
    """Append ``o``, nested dicts with str keys and lists of str, int, float,
    bool and None, to ``out`` as the pieces of `json.dumps(o, indent=2)`;
    ``nl`` is the newline and indent of its level.  (On Python 3.11 the C
    encoder does not indent, and the pure-Python one is slower than this.)"""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif isinstance(o, float):
        out.append(
            float.__repr__(o) if o - o == 0 else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
        )
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def emit_report(records: list[PolynomialRecord], fmt: str = "json") -> str:
    fmt = fmt.lower()
    if fmt == "json":
        payload = {"polynomials": []}
        for r in records:
            payload["polynomials"].append(
                {
                    "id": r.id,
                    "degree": r.polynomial.degree,
                    "coefficients": [
                        c if isinstance(c, int) else str(c) for c in r.polynomial.coeffs
                    ],
                    "norms": {k: _num(v) for k, v in r.norms.items()},
                    "measure": {
                        k: (_num(v) if isinstance(v, float) else v)
                        for k, v in r.measure.items()
                    },
                    "etheta": r.etheta,
                    "flags": r.flags,
                    "roots": r.roots,
                    "bounds": [
                        {
                            "theoremId": e.theorem_id,
                            "applicable": e.applicable,
                            "lhs": _num(e.lhs),
                            "rhs": _num(e.rhs),
                            "margin": _num(e.margin),
                            "verdict": e.verdict.value,
                        }
                        for e in r.bounds
                    ],
                }
            )
        out: list[str] = []
        _write_json(payload, out, "\n")
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "degree", "theoremId", "applicable", "lhs", "rhs", "margin", "verdict"])
        for r in records:
            for e in r.bounds:
                w.writerow(
                    [
                        r.id,
                        r.polynomial.degree,
                        e.theorem_id,
                        e.applicable,
                        "" if e.lhs is None else f"{e.lhs:.15g}",
                        "" if e.rhs is None else f"{e.rhs:.15g}",
                        "" if e.margin is None else f"{e.margin:.15g}",
                        e.verdict.value,
                    ]
                )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# zero-set plots


def emit_zero_plot(rootsets: list[RootSet]) -> str:
    """Deterministic 600 x 600 SVG scatter of all roots over the unit circle;
    viewport scaled to the largest modulus times 1.1 (at least the unit
    circle)."""
    width = height = 600
    pts = []
    for rs in rootsets:
        for r in rs.roots:
            pts.append((r.z.real, r.z.imag))
    reach = 1.0
    for x, y in pts:
        reach = max(reach, math.hypot(x, y))
    reach *= 1.1

    def sx(x):
        return (x / reach + 1.0) * width / 2.0

    def sy(y):
        return (1.0 - y / reach) * height / 2.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<circle cx="{sx(0):.3f}" cy="{sy(0):.3f}" r="{width / 2.0 / reach:.3f}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for x, y in sorted(pts):
        out.append(
            f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="1.5" fill="crimson"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
