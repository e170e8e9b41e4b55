"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_program()

from bench_workloads import Size  # noqa: E402

TINY = Size(setup_reps=1, train_iters=2, tau=3, batch=1, loc_trajectories=1,
            corridors=1, nav_trials=1, nav_time_limit=5)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    res = bench.run(workload, seed=3, seconds=0.01, trace=bool(trace), size=TINY)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


class OutOfRangeLocalizer:
    """Returns a node id one past the end of the map on every step."""
    name = "out_of_range"

    def start(self, topo):
        self.n = topo.n

    def step(self, observation, gt_pose=None):
        return self.n


@pytest.mark.parametrize("workload", ["localize", "navigate"])
def test_out_of_range_node_counts_as_failed(workload):
    res = bench.run(workload, seed=3, seconds=0.01, trace=False, size=TINY,
                    make_localizer=lambda model: OutOfRangeLocalizer())
    assert res["failed"] > 0 and res["failed_ratio"] > 0
    assert not res["correct"]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
