"""Write the reports of the benchmark's pool polynomials and a few search
tables to a directory, so that two checkouts can be compared; or compare two
such directories leaf by leaf.

    python3 tools/snapshot_reports.py OUTDIR
    python3 tools/snapshot_reports.py --compare OLD NEW

For every polynomial in the pools of ``perfbench/reference.json``, which it
only reads, the script runs ``verify`` and ``analyze`` and writes one file per
pool and command, and it plots the zeros of each whole pool with ``plot``,
one SVG per pool. It also writes the ``search`` tables of ``SEARCHES``. Every
call is an in-process ``cli.main`` call on the ``mahlerlab`` of the checkout
that holds this script, at 128 bits with theta = 1.3 and one job, and the
output of ``constants``.  Last, it writes three JSON files of what no report
prints: ``probe.json``, the status and witness of ``irreducibility_probe`` for
every pool polynomial of degree >= 1 and content 1; ``probe_edge.json``, the
same at 128 bits for each input of ``EDGE_INPUTS``, at the edges of the float
range and of the root finder or with cyclotomic factors, or the type and
message of what ``roots`` or the probe raised; and ``graeffe.json``, the value and error bound of
``mahler_graeffe`` at the depths of ``GRAEFFE_DEPTHS`` for every pool
polynomial.

``--compare`` prints one line per changed JSON leaf: the file, the
polynomial, the leaf's path (a bound row by its theoremId), the old value and
the new one; a report that is not JSON is compared line by line.  Then it
counts the changed leaves per field, and exits 0 when the two directories
hold the same files with the same bytes, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import re
import sys
from collections import Counter
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mahlerlab import cli  # noqa: E402
from mahlerlab.measure import mahler_graeffe  # noqa: E402
from mahlerlab.polycore import Polynomial  # noqa: E402
from mahlerlab.rootfind import roots  # noqa: E402
from mahlerlab.structure import cyclotomic, cyclotomic_factor, irreducibility_probe  # noqa: E402

COMMON = ["--precision", "128", "--theta", "1.3", "--jobs", "1"]
COMMANDS = ("verify", "analyze")
# (degree, height) of each search table
SEARCHES = ((12, 1), (14, 1), (16, 1), (10, 2), (18, 1), (20, 1))
# Graeffe depths of graeffe.json; analyze prints the bracket at depth 20
GRAEFFE_DEPTHS = (12, 16)
# the inputs of probe_edge.json by name: a lead, roots and coefficients past
# the float range, inputs whose inclusion disks overlap at 128 bits, and
# inputs whose cyclotomic factors root finding writes in closed form: alone,
# squared beside another, and beside coefficients past 2^53
EDGE_INPUTS = (
    ("2^1100 x^2 + 3", Polynomial([3, 0, 2 ** 1100])),
    ("x^2 - (2^2201 + 1)", Polynomial([-(2 ** 2201) - 1, 0, 1])),
    ("(x^2 - 2^2201)(x^2 - 3)", Polynomial([-(2 ** 2201), 0, 1]) * Polynomial([-3, 0, 1])),
    ("x^20 + 2(100x - 1)^2", Polynomial([2, -400, 20000] + [0] * 17 + [1])),
    ("x^20 + 2^60 x^19 + 1", Polynomial([1] + [0] * 18 + [2 ** 60, 1])),
    ("(2^200 x - 3)(x - 5 2^300)(x^2 + x + 1)",
     Polynomial([-3, 2 ** 200]) * Polynomial([-5 * 2 ** 300, 1]) * Polynomial([1, 1, 1])),
    ("Phi_105", cyclotomic(105)),
    ("Phi_3^2 Phi_5 (x - 3)", cyclotomic(3) * cyclotomic(3) * cyclotomic(5) * Polynomial([-3, 1])),
    ("(2^60 x - 1) Phi_7", Polynomial([-1, 2 ** 60]) * cyclotomic(7)),
)


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


def _probe(p: Polynomial):
    """`irreducibility_probe` of P at 128 bits.  The report diff runs this
    script on the base commit too, where the probe may still take the
    caller's `cyclotomic_factor` as the keyword ``cyc``."""
    extra = {}
    if "cyc" in inspect.signature(irreducibility_probe).parameters:
        extra["cyc"] = cyclotomic_factor(p)
    return irreducibility_probe(p, rs=roots(p, 128), **extra)


def probe_verdicts(pools: dict) -> dict[str, dict[str, str]]:
    """The probe's status and witness for each distinct integer polynomial of
    degree >= 1 and content 1 in the pools, by its coefficient line."""
    out = {}
    for polys in pools.values():
        for coeffs in polys:
            p, line = Polynomial(list(coeffs)), " ".join(map(str, coeffs))
            if line in out or p.degree < 1 or not p.is_integer() or p.content() != 1:
                continue
            v = _probe(p)
            out[line] = {"status": v.status.value, "witness": v.witness}
    return out


def probe_edge() -> dict[str, dict[str, str]]:
    """The probe's status and witness at 128 bits for each input of
    ``EDGE_INPUTS`` by name, or the type and message of what `roots` or the
    probe raised."""
    out = {}
    for name, p in EDGE_INPUTS:
        try:
            v = _probe(p)
            out[name] = {"status": v.status.value, "witness": v.witness}
        except Exception as exc:  # what is raised is the record
            out[name] = {"raised": type(exc).__name__, "message": str(exc)}
    return out


def graeffe_brackets(pools: dict) -> dict[str, dict[str, float]]:
    """`mahler_graeffe`'s value and error bound at 128 bits and each depth of
    ``GRAEFFE_DEPTHS`` for each distinct pool polynomial, by its coefficient
    line."""
    out = {}
    for polys in pools.values():
        for coeffs in polys:
            line = " ".join(map(str, coeffs))
            if line in out:
                continue
            out[line] = {}
            for k in GRAEFFE_DEPTHS:
                g = mahler_graeffe(Polynomial(list(coeffs)), k, 128)
                out[line].update({f"k{k}_value": g.value, f"k{k}_error": g.error_bound})
    return out


def write_snapshot(outdir: Path, pools: dict, searches=SEARCHES) -> None:
    """One file per pool and command, one plot per pool, one file per search
    table, the constants, the probe's verdicts on the pools and on
    ``EDGE_INPUTS`` and the Graeffe brackets."""
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.txt"
        for workload, polys in pools.items():
            lines = [" ".join(map(str, coeffs)) for coeffs in polys]
            for command in COMMANDS:
                parts = []
                for line in lines:
                    corpus.write_text(f"p: {line}\n")
                    parts.append(f"## {line}\n" + _call([command, str(corpus), *COMMON]))
                (outdir / f"{workload}.{command}.txt").write_text("".join(parts))
            corpus.write_text("".join(f"p: {line}\n" for line in lines))
            plot = _call(["plot", str(corpus), "--precision", "128"])
            (outdir / f"{workload}.plot.txt").write_text(plot)
    for degree, height in searches:
        text = _call(["search", "--degree", str(degree), "--height", str(height), *COMMON])
        (outdir / f"search-d{degree}-h{height}.txt").write_text(text)
    (outdir / "constants.txt").write_text(_call(["constants"]))
    probe = json.dumps(probe_verdicts(pools), indent=2) + "\n"
    (outdir / "probe.json").write_text(probe)
    (outdir / "probe_edge.json").write_text(json.dumps(probe_edge(), indent=2) + "\n")
    graeffe = json.dumps(graeffe_brackets(pools), indent=2) + "\n"
    (outdir / "graeffe.json").write_text(graeffe)


def _calls(text: str) -> dict[str, dict[str, str]]:
    """The calls of one snapshot file by polynomial line ("" in a search
    table), each as its exit code, stdout and stderr."""
    out, key, stream = {}, "", "stdout"
    for line in text.splitlines(keepends=True):
        if line.startswith("## exit "):
            out[key] = {"exit": line[8:].strip(), "stdout": "", "stderr": ""}
            stream = "stdout"
        elif line == "## stderr\n":
            stream = "stderr"
        elif line.startswith("## "):
            key = line[3:].rstrip("\n")
        else:
            out[key][stream] += line
    return out


def _leaves(node, path="") -> dict[str, object]:
    """Every leaf of a JSON value by path; a list element that has a
    theoremId or an id is named by it."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = (
            (f"{path}[{v.get('theoremId', v.get('id', i)) if isinstance(v, dict) else i}]", v)
            for i, v in enumerate(node)
        )
    else:
        return {path: node}
    out = {}
    for sub, v in items:
        out.update(_leaves(v, sub))
    return out


def _call_leaves(call: dict[str, str] | None) -> dict[str, object]:
    """Exit code, stderr and the leaves of a JSON report, or its lines when
    it is not JSON."""
    if call is None:
        return {"call": "(absent)"}
    try:
        report = _leaves(json.loads(call["stdout"]))
    except ValueError:
        report = {f"line {i}": line for i, line in enumerate(call["stdout"].splitlines(), 1)}
    return {"exit": call["exit"], "stderr": call["stderr"], **report}


def _record_leaves(record: dict[str, object] | None) -> dict[str, object]:
    """The fields of a probe verdict or a Graeffe bracket, or its absence."""
    return {"record": "(absent)"} if record is None else record


def compare(old: Path, new: Path) -> int:
    """Print the changed leaves of two snapshot directories and a count per
    field; 0 when the directories are identical, 1 otherwise."""
    changed = Counter()
    for name in sorted({f.name for f in old.iterdir()} | {f.name for f in new.iterdir()}):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {old if a.exists() else new}")
            changed["(file)"] += 1
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if name.endswith(".json"):
            ca, cb = json.loads(a.read_text()), json.loads(b.read_text())
            leaves = _record_leaves
        else:
            ca, cb = _calls(a.read_text()), _calls(b.read_text())
            leaves = _call_leaves
        for poly in {**ca, **cb}:
            la, lb = leaves(ca.get(poly)), leaves(cb.get(poly))
            for path in {**la, **lb}:
                va, vb = la.get(path, "(absent)"), lb.get(path, "(absent)")
                if va != vb or type(va) is not type(vb):
                    print(f"{name}  [{poly}]  {path}  {va!r} -> {vb!r}")
                    changed[re.sub(r"^polynomials\[[^]]*\]\.", "", path)] += 1
    if changed:
        print("changed leaves per field:")
        for field, count in sorted(changed.items()):
            print(f"  {count:6d}  {field}")
    return 1 if changed else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
    if len(args) != 1:
        print("usage: python3 tools/snapshot_reports.py OUTDIR\n"
              "       python3 tools/snapshot_reports.py --compare OLD NEW", file=sys.stderr)
        return 1
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    write_snapshot(Path(args[0]), pool_polynomials(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
