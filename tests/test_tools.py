"""`tools/snapshot_reports.py` on small subsets of the benchmark pools: the
snapshot it writes, and its comparison of two snapshots."""
import importlib.util
import json
import math
from pathlib import Path

from mahlerlab.measure import mahler_graeffe
from mahlerlab.polycore import Polynomial
from mahlerlab.rootfind import roots

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    path = ROOT / "tools" / "snapshot_reports.py"
    spec = importlib.util.spec_from_file_location("snapshot_reports", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_snapshot_subset_is_reproducible(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "EDGE_INPUTS", tool.EDGE_INPUTS[:1])
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    pools = tool.pool_polynomials(reference)
    assert sorted(pools) == ["analyze-structured", "verify-mixed"]
    subset = {"verify-mixed": pools["verify-mixed"][:2],
              "analyze-structured": pools["analyze-structured"][:1]}
    for run in ("a", "b"):
        tool.write_snapshot(tmp_path / run, subset, searches=[(4, 1)])
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert names == [
        "analyze-structured.analyze.txt", "analyze-structured.plot.txt",
        "analyze-structured.verify.txt", "constants.txt", "graeffe.json", "probe.json",
        "probe_edge.json", "search-d4-h1.txt", "verify-mixed.analyze.txt",
        "verify-mixed.plot.txt", "verify-mixed.verify.txt",
    ]
    edge = json.loads((tmp_path / "a" / "probe_edge.json").read_text())
    assert edge == {"2^1100 x^2 + 3": {"status": "Irreducible", "witness": "irreducible mod 5"}}
    for name in names:
        text = (tmp_path / "a" / name).read_text()
        assert text == (tmp_path / "b" / name).read_text()
        if name.endswith(".json"):
            continue
        one = name.startswith(("search", "constants")) or name.endswith(".plot.txt")
        calls = 1 if one else len(subset[name.split(".")[0]])
        assert text.count("## exit 0\n") == calls
    # one plot per pool: a point for each root of each pool member
    for workload, polys in subset.items():
        svg = (tmp_path / "a" / f"{workload}.plot.txt").read_text().split("## exit 0\n")[1]
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")
        points = sum(len(roots(Polynomial(list(c)), 128).roots) for c in polys)
        assert svg.count('fill="crimson"') == points
    probe = json.loads((tmp_path / "a" / "probe.json").read_text())
    content_1 = {" ".join(map(str, c)) for ps in subset.values() for c in ps
                 if len(c) > 1 and math.gcd(*c) == 1}
    assert set(probe) == content_1
    assert all(set(v) == {"status", "witness"} for v in probe.values())
    graeffe = json.loads((tmp_path / "a" / "graeffe.json").read_text())
    assert list(graeffe) == [" ".join(map(str, c)) for ps in subset.values() for c in ps]
    for coeffs, bracket in zip([c for ps in subset.values() for c in ps], graeffe.values()):
        g = mahler_graeffe(Polynomial(list(coeffs)), 16, 128)
        assert bracket["k16_value"] == g.value and bracket["k16_error"] == g.error_bound
        assert sorted(bracket) == ["k12_error", "k12_value", "k16_error", "k16_value"]
    verify = (tmp_path / "a" / "verify-mixed.verify.txt").read_text()
    first = verify.split("## exit 0\n")[1].split("\n## ")[0]
    assert json.loads(first)["polynomials"][0]["bounds"]


def test_compare_lists_the_changed_leaf(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "EDGE_INPUTS", ())
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    old, new = tmp_path / "old", tmp_path / "new"
    for out in (old, new):
        tool.write_snapshot(out, {"verify-mixed": [lehmer]}, searches=[(4, 1)])
    assert tool.main(["--compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""

    # the sup norm of one bound row moves
    report = new / "verify-mixed.verify.txt"
    head, body = report.read_text().split("## exit 0\n")
    body = json.loads(body)
    row = next(b for b in body["polynomials"][0]["bounds"] if b["theoremId"] == "chain_sup_le_L")
    was, row["lhs"] = row["lhs"], 7.5
    report.write_text(head + "## exit 0\n" + json.dumps(body, indent=2) + "\n")
    assert tool.main(["--compare", str(old), str(new)]) == 1
    poly = " ".join(map(str, lehmer))
    assert capsys.readouterr().out.splitlines() == [
        f"verify-mixed.verify.txt  [{poly}]  polynomials[p].bounds[chain_sup_le_L].lhs  {was!r} -> 7.5",
        "changed leaves per field:",
        "       1  bounds[chain_sup_le_L].lhs",
    ]


def test_compare_lists_a_changed_witness(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "EDGE_INPUTS", ())
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    old, new = tmp_path / "old", tmp_path / "new"
    for out in (old, new):
        tool.write_snapshot(out, {"verify-mixed": [lehmer]}, searches=[])
    probe = json.loads((new / "probe.json").read_text())
    poly = " ".join(map(str, lehmer))
    was = probe[poly]["witness"]
    probe[poly]["witness"] = "full rational factorization"
    (new / "probe.json").write_text(json.dumps(probe, indent=2) + "\n")
    assert tool.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"probe.json  [{poly}]  witness  {was!r} -> 'full rational factorization'",
        "changed leaves per field:",
        "       1  witness",
    ]


def test_probe_edge_records_each_input():
    # each input by its name, with the probe's verdict or what was raised
    tool = _load_tool()
    edge = tool.probe_edge()
    assert list(edge) == [name for name, _ in tool.EDGE_INPUTS]
    assert all(p.content() == 1 for _, p in tool.EDGE_INPUTS)
    assert edge["2^1100 x^2 + 3"] == {"status": "Irreducible", "witness": "irreducible mod 5"}
    assert edge["(x^2 - 2^2201)(x^2 - 3)"] == {"status": "Reducible", "witness": "rational factorization"}
    overlap = {"raised": "RootFindError", "message": "inclusion disks overlap"}
    assert edge["x^20 + 2^60 x^19 + 1"] == overlap
    # its roots of unity in closed form, Aberth separates the two wide roots
    peeled = {"status": "Reducible", "witness": "cyclotomic factor Phi_3"}
    assert edge["(2^200 x - 3)(x - 5 2^300)(x^2 + x + 1)"] == peeled
    assert edge["Phi_105"] == {"status": "Irreducible", "witness": "cyclotomic Phi_105"}
    assert all(set(v) in ({"status", "witness"}, {"raised", "message"}) for v in edge.values())
    # the names spell the polynomials
    line = Polynomial([-1, 100])
    want = Polynomial([0] * 20 + [1]) + Polynomial([2]) * line * line
    assert dict(tool.EDGE_INPUTS)["x^20 + 2(100x - 1)^2"] == want
