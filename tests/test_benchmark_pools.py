"""Every pool polynomial of the benchmark, run through `cli.main` and judged
by the benchmark's own output checks.

A seeded benchmark corpus draws only a part of each pool, so a run on one
seed can miss a polynomial whose verdicts or measure changed; this test runs
all of them.  `perfbench/workloads.py` and `perfbench/reference.json` are only
read.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from mahlerlab import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
REFERENCE = wl.load_reference(BENCH / "reference.json")


def _pool(workload):
    """(kind, coefficients) of every member of every group of the pool."""
    return [
        (kind, tuple(coeffs))
        for kind, groups in REFERENCE["pools"][workload].items()
        for group in groups
        for coeffs in group
    ]


def _failures(workload, tmp_path, capsys):
    command = wl.COMMAND[workload]
    expected = REFERENCE["expected"][workload]
    path = tmp_path / "corpus.txt"
    failures = []
    for kind, coeffs in _pool(workload):
        key = wl.key(coeffs)
        path.write_text(f"p: {key}\n")
        rc = cli.main(wl.corpus_argv(command, path))
        out = capsys.readouterr().out
        if rc != 0:
            failures.append(f"{key}: exit code {rc}")
            continue
        if command == "verify":
            failure = wl.check_verify(wl.observe_verify(out), expected[key], REFERENCE)
        else:
            failure = wl.check_analyze(wl.observe_analyze(out), expected[key], kind)
        if failure:
            failures.append(f"{key}: {failure}")
    return failures


@pytest.mark.parametrize("workload, size", [("verify-mixed", 575), ("analyze-structured", 285)])
def test_pool_outputs_pass_the_benchmark_check(workload, size, tmp_path, capsys):
    assert len(_pool(workload)) == size
    assert _failures(workload, tmp_path, capsys) == []
