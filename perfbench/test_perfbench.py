"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Plan, Sample, _roundtrip_check, cli_call  # noqa: E402


def _inputs(workload: str, seed: int, workdir: Path) -> dict[str, bytes]:
    _, plan = run.set_up(WORKLOADS[workload], seed, workdir)
    return {p.name: p.read_bytes() for p in plan.files if p.exists()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generation_is_deterministic(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    again = _inputs(workload, 5, tmp_path / "b")
    other = _inputs(workload, 6, tmp_path / "c")
    assert first and first == again
    assert other != first


def test_onevertex_inputs_are_cold(tmp_path):
    pkg, plan = run.set_up(WORKLOADS["onevertex-cold"], 5, tmp_path)
    dims = set()
    for ops in plan.rounds:
        types = [op.info["type"] for op in ops]
        assert len(set(types)) == len(types)
        dims.update(op.info["dim"] for op in ops)
    assert min(dims) <= 8 < max(dims), "both decomposition routes carry load"


def _mixed_plan(tmp_path):
    """A good operation, one with a deliberately wrong expected answer and
    one that raises."""
    pkg, plan = run.set_up(WORKLOADS["labels-translate"], 5, tmp_path)
    good = next(op for op in plan.rounds[0] if op.kind == "enumerate-orbits")
    wrong_label = pkg.enumerate_orbit_labels(2, 2)[0].to_json()
    wrong = Op("decompose", lambda: pkg.decompose_enhanced(pkg.build_label_rep(
        pkg.enumerate_orbit_labels(2, 2)[1])).label().to_json(), lambda got: got == wrong_label)
    missing = str(tmp_path / "missing.json")
    raising = Op("decompose", lambda: cli_call(pkg, ["decompose", "--input", missing]), _roundtrip_check({}))
    return Plan([[good, wrong, raising]])


def test_wrong_answers_count_as_failures(tmp_path):
    speed = run.Speed()
    samples, _ = run.run_rounds(_mixed_plan(tmp_path), [0], speed=speed)
    assert [s.ok for s in samples] == [True, False, False]
    metrics = run.end_to_end(samples, speed, 0.1, 95.0)
    assert metrics["success_ratio"]["value"] == pytest.approx(1 / 3)


def test_times_are_in_probes_around_the_operation():
    speed = run.Speed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.seconds = [0.001, 0.001, 0.002, 0.002, 0.004, 0.004]
    # Probes at 0, 1 (before) and 2, 3 (after): median 1.5 ms.
    assert speed.ref_ms(1.5, 0.003) == pytest.approx(2.0)
    # A spell at half speed slows operation and probe alike.
    assert speed.ref_ms(4.5, 0.008) == pytest.approx(2.0)


def _traced(plan: Plan, pkg) -> Tracer:
    tracer = Tracer()
    tracer.install(pkg)
    run.run_rounds(plan, [0], tracer=tracer)
    return tracer


def _subset(workload: str, tmp_path: Path, pick) -> tuple:
    pkg, plan = run.set_up(WORKLOADS[workload], 5, tmp_path)
    return pkg, Plan([[op for op in plan.rounds[0] if pick(op)]], before_round=plan.before_round)


def test_self_times_are_consistent(tmp_path):
    pkg, plan = _subset("cyclic-shared", tmp_path, lambda op: True)
    tracer = _traced(plan, pkg)
    own = tracer.self_times()
    assert tracer.spans and min(own) >= -1e-9
    roots = sum(s[4] - s[3] for s in tracer.spans if s[1] < 0)
    inclusive = sum(s[4] - s[3] for s in tracer.spans)
    assert sum(own) <= roots + 1e-6 and roots <= inclusive


def test_labels_translate_never_reaches_linalg(tmp_path):
    pkg, plan = _subset("labels-translate", tmp_path, lambda op: op.info["cone"][1] <= 4)
    metrics = _traced(plan, pkg).layer_metrics(1.0, 0.0)
    assert metrics["cli.main.calls"] == len(plan.rounds[0])
    assert metrics["orbit_maps.johnson_inverse_attempts"] > 0
    for name in ("linalg.rank.calls", "linalg.rref.calls", "linalg.matmul.calls", "decomposer.decompose.calls"):
        assert metrics[name] == 0, name


@pytest.mark.parametrize("workload", ["onevertex-cold", "cyclic-shared"])
def test_decompose_workloads_never_enumerate_striped(workload, tmp_path):
    if workload == "onevertex-cold":
        pick = lambda op: op.info["dim"] <= 5 or op.info["type"] == (1,) * 9  # noqa: E731
    else:
        pick = lambda op: True  # noqa: E731
    pkg, plan = _subset(workload, tmp_path, pick)
    metrics = _traced(plan, pkg).layer_metrics(1.0, 0.0)
    assert metrics["decomposer.decompose.calls"] == len(plan.rounds[0])
    assert metrics["linalg.rank.calls"] > 0
    assert metrics["orbit_maps.enumerate_striped.calls"] == 0
    assert metrics["decomposer.reference_builds"] > 0


def test_missing_public_name_is_reported_absent(tmp_path):
    pkg, plan = _subset("labels-translate", tmp_path, lambda op: op.info["cone"] == (1, 8))
    del pkg.orbit_maps.striped_from_label
    tracer = Tracer()
    tracer.install(pkg)
    metrics = tracer.layer_metrics(1.0, 0.0)
    assert "orbit_maps.striped_from_label.self_pct" not in metrics
    assert "orbit_maps.johnson_inverse_hit_ratio" not in metrics
    assert "orbit_maps.label_to_bipartition.self_pct" in metrics


def test_matrix_scans_stay_out_of_self_times_and_unreadable_entries_are_absent():
    class IntegerMatrix:  # entries no longer stored as Fractions
        nrows, ncols, rows = 2, 3, ((1, 2, 3), (4, 5, 6))

    tracer = Tracer()
    rank = tracer._wrap("linalg.rank", lambda m: 2)
    tracer._wrap("decomposer.decompose", rank)(IntegerMatrix())
    parent, child = tracer.spans
    assert parent[5] == tracer.scan_s > 0 and child[5] == 0
    assert tracer.self_times()[0] == pytest.approx(parent[4] - parent[3] - (child[4] - child[3]) - parent[5])
    metrics = tracer.layer_metrics(1.0, 0.0)
    assert metrics["linalg.max_cells"] == 6
    assert "linalg.max_entry_bits" not in metrics


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "labels-translate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    from tracing import LAYER_METRICS

    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in LAYER_METRICS]
    speed = run.Speed()
    speed.probe()
    sample = Sample(Op("decompose", lambda: None, lambda _: True), speed.starts[0], 0.01, True)
    printed = run.end_to_end([sample], speed, 0.1, 95.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in printed.items()}
