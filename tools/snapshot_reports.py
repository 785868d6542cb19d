"""Write the reports of the benchmark's pool polynomials and a few search
tables to a directory, so that two checkouts can be compared with ``diff -r``.

    python3 tools/snapshot_reports.py OUTDIR

For every polynomial in the pools of ``perfbench/reference.json``, which it
only reads, the script runs ``verify`` and ``analyze`` and writes one file per
pool and command. It also writes the ``search`` tables of ``SEARCHES``. Every
call is an in-process ``cli.main`` call on the ``mahlerlab`` of the checkout
that holds this script, at 128 bits with theta = 1.3 and one job.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mahlerlab import cli  # noqa: E402

COMMON = ["--precision", "128", "--theta", "1.3", "--jobs", "1"]
COMMANDS = ("verify", "analyze")
# (degree, height) of each search table
SEARCHES = ((12, 1), (14, 1), (16, 1), (10, 2))


def pool_polynomials(reference: dict) -> dict[str, list[tuple[int, ...]]]:
    """The distinct coefficient tuples of each pool, in pool order."""
    out = {}
    for workload, kinds in reference["pools"].items():
        seen = {}
        for groups in kinds.values():
            for group in groups:
                for coeffs in group:
                    seen.setdefault(tuple(coeffs), None)
        out[workload] = list(seen)
    return out


def _call(argv: list[str]) -> str:
    """The exit code, stdout and stderr of one ``cli.main`` call as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = f"## exit {rc}\n{out.getvalue()}"
    if err.getvalue():
        text += f"## stderr\n{err.getvalue()}"
    return text


def write_snapshot(outdir: Path, pools: dict, searches=SEARCHES) -> None:
    """One file per pool and command, one per search table."""
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.txt"
        for workload, polys in pools.items():
            for command in COMMANDS:
                parts = []
                for coeffs in polys:
                    line = " ".join(map(str, coeffs))
                    corpus.write_text(f"p: {line}\n")
                    parts.append(f"## {line}\n" + _call([command, str(corpus), *COMMON]))
                (outdir / f"{workload}.{command}.txt").write_text("".join(parts))
    for degree, height in searches:
        text = _call(["search", "--degree", str(degree), "--height", str(height), *COMMON])
        (outdir / f"search-d{degree}-h{height}.txt").write_text(text)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/snapshot_reports.py OUTDIR", file=sys.stderr)
        return 1
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    write_snapshot(Path(args[0]), pool_polynomials(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
