"""Tests of the benchmark itself: exact counters, bindings, result contract.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _counters(setup, run_pass, tmp_path):
    state = setup(7, str(tmp_path / "setup"))
    out = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            _, created = run.tensors_created(lambda: run_pass(state, str(tmp_path)))
        layers = tracer.layer_metrics(t.spans)
        layers["tensors_created"] = created
        out.append({m: layers.get(key, 0) for m, key, _ in run.PER_LAYER if m in run.EXACT})
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_across_passes(workload, tmp_path):
    first, second = _counters(*workloads.WORKLOADS[workload], tmp_path)
    assert first == second
    assert first["tensor.tensors_created"] > 0
    assert first["models.forward.calls"] > 0


def test_tracer_restores_every_binding():
    bound = [(mod, attr, getattr(mod, attr))
             for _, mods, attr, _ in tracer.TARGETS for mod in mods if hasattr(mod, attr)]
    t = tracer.Tracer()
    with t.installed():
        assert all(getattr(mod, attr) is not fn for mod, attr, fn in bound)
    assert all(getattr(mod, attr) is fn for mod, attr, fn in bound)


def test_self_time_subtracts_direct_children():
    spans = [["tuner.train", 0.0, 10.0, -1, 100],
             ["models.forward", 1.0, 3.0, 0, 64],
             ["tensor.backward", 3.0, 7.0, 0, 0],
             ["models.forward", 8.0, 9.0, -1, 32]]
    m = tracer.layer_metrics(spans)
    assert m["tuner.train.self_s"] == pytest.approx(4.0)
    assert m["models.forward.train_s"] == pytest.approx(2.0)
    assert m["models.forward.infer_s"] == pytest.approx(1.0)
    assert m["models.forward.amount"] == 96


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, u) for m, _, u in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(workloads.QUALITY_FLOOR) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_pipeline",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
