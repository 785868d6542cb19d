"""`tools/snapshot_reports.py` on a three-polynomial subset of the
benchmark pools."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    path = ROOT / "tools" / "snapshot_reports.py"
    spec = importlib.util.spec_from_file_location("snapshot_reports", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_snapshot_subset_is_reproducible(tmp_path):
    tool = _load_tool()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    pools = tool.pool_polynomials(reference)
    assert sorted(pools) == ["analyze-structured", "verify-mixed"]
    subset = {"verify-mixed": pools["verify-mixed"][:2],
              "analyze-structured": pools["analyze-structured"][:1]}
    for run in ("a", "b"):
        tool.write_snapshot(tmp_path / run, subset, searches=[(4, 1)])
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert names == [
        "analyze-structured.analyze.txt", "analyze-structured.verify.txt",
        "search-d4-h1.txt", "verify-mixed.analyze.txt", "verify-mixed.verify.txt",
    ]
    for name in names:
        text = (tmp_path / "a" / name).read_text()
        assert text == (tmp_path / "b" / name).read_text()
        calls = 1 if name.startswith("search") else len(subset[name.split(".")[0]])
        assert text.count("## exit 0\n") == calls
    verify = (tmp_path / "a" / "verify-mixed.verify.txt").read_text()
    first = verify.split("## exit 0\n")[1].split("\n## ")[0]
    assert json.loads(first)["polynomials"][0]["bounds"]
