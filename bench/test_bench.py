"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run_bench
import workloads
from tracer import TARGETS, dt_halvings

ROOT = str(run_bench.ROOT)


@pytest.fixture(scope="module", autouse=True)
def layout():
    run_bench.check_layout()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_repeat_for_a_seed_and_differ_across_seeds(name):
    assert workloads.plan(name, 3, ROOT) == workloads.plan(name, 3, ROOT)
    assert workloads.plan(name, 3, ROOT) != workloads.plan(name, 4, ROOT)
    json.dumps(workloads.plan(name, 3, ROOT))  # plain data only


def test_ensemble_layout_is_fixed_by_design():
    members = workloads.plan("ensemble_small", 5, ROOT)
    assert len(members) == 40
    assert sum(m["blows_up"] for m in members) == 4
    for m in members:
        if m["blows_up"]:
            assert m["spec"]["N"] % 2 == 0 and not m["spec"]["signed_power"]
    cells = {(m["spec"]["grid_points"], m["spec"]["boundary"]) for m in members}
    assert len(cells) == 9


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(name):
    record = run_bench.measure(name, seed=1, seconds=0, trace=False, tiny=True,
                               with_setup=False)
    assert record["passes"] == 1
    assert record["attempted"] >= 1
    assert record["correct"], record["check_failures"]
    # the only failures tolerated are the power iteration's, counted per op
    assert set(record["failures"]) <= {"unstable_direction: PowerIterationError"}
    assert record["end_to_end"]["wall_s"]["value"] > 0


def _bindings():
    """Every module attribute and traced class attribute of the package."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "gradflow1d" or name.startswith("gradflow1d."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
    for t in TARGETS:
        *outer, attr = t.path.split(".")
        if outer:
            owner = getattr(sys.modules[t.module], outer[0])
            seen[(t.module, t.path)] = owner.__dict__[attr]
    return seen


@pytest.mark.parametrize("name", ["ensemble_small", "catalog_varcoef"])
def test_traced_run_restores_every_original(name):
    for t in TARGETS:
        importlib.import_module(t.module)
    before = _bindings()
    record = run_bench.measure(name, seed=1, seconds=0, trace=True, tiny=True)
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
        assert not getattr(value, "_bench_wrapper", False), key
    layers = record["per_layer"]
    assert layers["grid.Field.calls"]["value"] > 0
    for metric in layers.values():
        if metric["unit"] == "count":
            assert isinstance(metric["value"], int)


def test_dt_halvings_counts_power_of_two_drops_only():
    # 1e-3 -> 2.5e-4 is two halvings; 5e-4 -> 3e-4 is a step clipped to t_max
    assert dt_halvings([0.0, 1e-3, 1e-3, 2.5e-4, 5e-4, 3e-4]) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert run_bench.tail_percentile(list(range(15))) == (None, None)
    p, value = run_bench.tail_percentile([float(i) for i in range(1, 81)])
    assert p == 75.0 and value == 60.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run_bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.SPEC_FILE, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "ensemble_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".bench_work").exists()
