"""Tests of the benchmark itself: seeded corpora, planted wrong answers, and
the tracer's wrapping and restoring of mahlerlab's bindings.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import mahlerlab  # noqa: E402
import mahlerlab.cli  # noqa: E402
from mahlerlab.polycore import Polynomial  # noqa: E402
from mahlerlab.reporting import Verdict  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import layer_metrics, metric_units  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = wl.load_reference(BENCH / "reference.json")
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
CORPUS_WORKLOADS = ("verify-mixed", "analyze-structured")


def _session(workload, tmp_path):
    return wl.Session(workload, wl.DEFAULT_SEED, REFERENCE, tmp_path / workload)


def _index(session, kind):
    return next(i for i, item in enumerate(session.items) if item.kind == kind)


def _failed_ratio(session, index):
    tally = run.Tally(session)
    _, failure, _ = session.run(index)
    tally.add(index, failure)
    return tally.failed / tally.attempted


def _bindings():
    """Every function-valued binding in every mahlerlab namespace."""
    out = {("Polynomial", "divmod"): Polynomial.__dict__["divmod"]}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "mahlerlab" or name.startswith("mahlerlab.")):
            for attr, obj in vars(module).items():
                if callable(obj) and not isinstance(obj, type):
                    out[name, attr] = obj
    return out


@pytest.mark.parametrize("workload", CORPUS_WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload):
    first = wl.corpus(workload, 7, REFERENCE)
    assert first == wl.corpus(workload, 7, REFERENCE)
    assert first != wl.corpus(workload, 8, REFERENCE)
    assert wl.corpus(workload, wl.DEFAULT_SEED, REFERENCE) != wl.corpus(
        workload, wl.HELD_OUT_SEED, REFERENCE)


@pytest.mark.parametrize("workload", CORPUS_WORKLOADS)
def test_every_drawable_item_has_a_reference(workload):
    expected = REFERENCE["expected"][workload]
    for groups in REFERENCE["pools"][workload].values():
        for group in groups:
            for coeffs in group:
                assert wl.key(coeffs) in expected


def test_corpus_mix():
    verify = wl.corpus("verify-mixed", wl.DEFAULT_SEED, REFERENCE)
    assert len(verify) == 131
    assert sum(item.coeffs == wl.LEHMER for item in verify) >= 1
    assert max(len(item.coeffs) - 1 for item in verify) <= 30
    analyze = wl.corpus("analyze-structured", wl.DEFAULT_SEED, REFERENCE)
    assert len(analyze) == 103
    assert 10 * sum(item.kind == "repeated" for item in analyze) >= len(analyze)
    expected = REFERENCE["expected"]["analyze-structured"]
    assert any(expected[wl.key(item.coeffs)]["member"] for item in analyze)
    assert wl.SEARCH_CANDIDATES == 1092


@pytest.mark.parametrize("flip_to", [Verdict.NOT_APPLICABLE, Verdict.VIOLATED])
def test_flipped_verdict_is_a_failure(tmp_path, monkeypatch, flip_to):
    session = _session("verify-mixed", tmp_path)
    index = _index(session, "palindrome")
    assert _failed_ratio(session, index) == 0.0
    original = mahlerlab.cli.verify_all

    def flipped(*args, **kwargs):
        report = original(*args, **kwargs)
        i = next(i for i, e in enumerate(report.entries) if e.verdict is Verdict.HOLDS)
        report.entries[i] = dataclasses.replace(report.entries[i], verdict=flip_to)
        return report

    monkeypatch.setattr(mahlerlab.cli, "verify_all", flipped)
    assert _failed_ratio(session, index) > 0.0


def test_raising_item_is_a_failure(tmp_path, monkeypatch):
    session = _session("verify-mixed", tmp_path)
    index = _index(session, "lehmer")

    def broken(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(mahlerlab.cli, "verify_all", broken)
    _, failure, _ = session.run(index)
    assert "planted" in failure


@pytest.mark.parametrize("kind", ["reducible", "cyclotomic"])
def test_perturbed_measure_is_a_failure(tmp_path, monkeypatch, kind):
    session = _session("analyze-structured", tmp_path)
    index = _index(session, kind)
    assert _failed_ratio(session, index) == 0.0
    original = mahlerlab.cli.mahler_from_roots

    def perturbed(*args, **kwargs):
        m = original(*args, **kwargs)
        return dataclasses.replace(m, value=m.value * (1 + 1e-8))

    monkeypatch.setattr(mahlerlab.cli, "mahler_from_roots", perturbed)
    assert _failed_ratio(session, index) > 0.0


def test_search_check():
    ref = REFERENCE["search"]
    records = [(list(c), m) for c, m in ref["records"]]
    assert wl.check_search(records, ref) is None
    head = [m for _, m in records[:len(wl.PUBLISHED_HEAD)]]
    assert head == pytest.approx(wl.PUBLISHED_HEAD, abs=1e-9)
    assert wl.check_search(records[1:], ref) is not None
    assert wl.check_search([records[1], records[0], *records[2:]], ref) is not None
    bumped = [(records[0][0], records[0][1] + 1e-6), *records[1:]]
    assert wl.check_search(bumped, ref) is not None


def test_search_output_is_parsed():
    out = ("rank  measure               coefficients (ascending)\n"
           "   1  1.176280818259918     1 1 0 -1 -1 -1 -1 -1 0 1 1\n")
    assert wl.observe_search(out) == [(list(wl.LEHMER), 1.176280818259918)]


def test_traced_run_restores_every_binding(tmp_path):
    session = _session("analyze-structured", tmp_path)
    index = _index(session, "etheta")
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert mahlerlab.cli.roots is not before["mahlerlab.cli", "roots"]
        assert mahlerlab.roots is not before["mahlerlab", "roots"]
        with tracer.span("item"):
            _, failure, _ = session.run(index)
        assert failure is None
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.names.count("rootfind.roots") >= 1
    callers = {c for n, c in zip(tracer.names, tracer.callers) if n == "rootfind.roots"}
    assert "cli" in callers


def test_bindings_restored_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    session = _session("verify-mixed", tmp_path)
    indices = [_index(session, "palindrome"), _index(session, "lehmer")]
    for i in indices:  # fill the program's caches first, as the untraced pass does
        session.run(i)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            for i in indices:
                tracer.item = i
                with tracer.span("item"):
                    session.run(i)
        metrics, _ = layer_metrics(tracer, len(indices), 0, 1.0)
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        total = sum(e - s for e, s, p in zip(tracer.ends, tracer.starts, tracer.parents) if p < 0)
        assert sum(tracer.self_times()) == pytest.approx(total, rel=1e-9)
        assert min(tracer.self_times()) >= -1e-9
    assert counts[0] == counts[1]
    assert counts[0]["rootfind.roots.calls"] > 0


def test_traced_metrics_match_the_contract():
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == metric_units()


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    session = wl.Session("search-h1", wl.DEFAULT_SEED, REFERENCE, tmp_path / "search")
    tally, metrics, _ = run.timed_run(session, 0.0)
    assert tally.failed == 0 and tally.attempted == wl.SEARCH_CANDIDATES
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())
