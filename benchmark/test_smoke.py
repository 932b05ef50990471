"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest benchmark/test_smoke.py -q

Every workload must emit every metric named in BENCHMARK.json with its
unit, and a wrong answer injected into the program must be reported as a
failure rather than measured.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"fraction": 0.006, "queries": 40}

run.load_program()


def _tiny(name, seed=3):
    return run.make_workload(name, seed, **TINY)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric(name):
    workload = _tiny(name)
    try:
        attempted, failed, metrics, _ = run.measure(workload, 0, setup_repeats=1, import_repeats=1)
    finally:
        workload.cleanup()
    assert attempted > 0 and failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_per_layer_metric(name):
    workload = _tiny(name)
    try:
        attempted, failed, metrics, info = run.measure_traced(workload)
    finally:
        workload.cleanup()
    assert attempted > 0 and failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert (run.ROOT / info["span_file"]).is_file()
    # module self times plus the benchmark's own share make up the traced pass
    modules = sum(metrics[f"{m}.self_s"][0] for m in run.MODULES)
    total = modules + metrics["trace.unattributed_s"][0]
    assert total == pytest.approx(metrics["trace.wall_s"][0], abs=1e-3)


def test_same_seed_same_inputs_and_counts():
    a, b = _tiny("class_sweep"), _tiny("class_sweep")
    for w in (a, b):
        w.setup()
        w.make_inputs()
    assert [i for i, _ in a.items] == [i for i, _ in b.items]
    assert a.run_pass()[1] == b.run_pass()[1]


def test_wrong_rank_in_a_sweep_fails(monkeypatch):
    engine = sys.modules["divgraph.rank"]._RankEngine
    honest = engine.rank

    def wrong(self, coeffs):
        value = honest(self, coeffs)
        return value + 1 if sum(coeffs) == 2 else value

    monkeypatch.setattr(engine, "rank", wrong)
    workload = _tiny("rank_sweep")
    attempted, failed, _, info = run.measure(workload, 0, setup_repeats=1, import_repeats=1)
    assert failed > 0 and info["problems"]


def test_wrong_cli_answer_fails(monkeypatch):
    cli = sys.modules["divgraph.cli"]
    honest = cli.rank

    def wrong(*args, **kwargs):
        result = honest(*args, **kwargs)
        return type(result)(result.value + 1, result.witness)

    monkeypatch.setattr(cli, "rank", wrong)
    workload = _tiny("cli_queries")
    try:
        attempted, failed, _, info = run.measure(workload, 0, setup_repeats=1, import_repeats=1)
    finally:
        workload.cleanup()
    assert failed > 0 and any("rank" in p for p in info["problems"])


def test_consistently_wrong_rank_in_rr_check_and_clifford_fails(monkeypatch):
    # off by one on d and K - d alike, so the reported identity still holds
    cli = sys.modules["divgraph.cli"]
    honest = cli.rank

    def wrong(*args, **kwargs):
        result = honest(*args, **kwargs)
        return type(result)(result.value + 1, result.witness)

    monkeypatch.setattr(cli, "rank", wrong)
    workload = _tiny("cli_queries")
    try:
        workload.make_inputs()
        workload.queries = [q for q in workload.queries
                            if q["command"] in ("rr-check", "clifford")]
        attempted, failed, problems = workload.verdict([workload.run_pass()])
    finally:
        workload.cleanup()
    assert attempted > 0 and failed == attempted
    assert all("recomputed" in p for p in problems)


def test_without_the_program_it_exits_nonzero():
    bare = run.OUT / "bare"  # inside the checkout, ignored by git
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "rank_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
