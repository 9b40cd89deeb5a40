"""Tests of the benchmark harness in its smoke mode (tiny sizes, about a
second per run). Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 21  # case 5


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def copy_benchmark(dest):
    """The benchmark's own files, as a checkout without the program holds
    them."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# one fact per workload, changed beyond any stated tolerance
TAMPER = {
    "train-demesh": lambda g: g["op"]["loss_trace"][0].__setitem__(
        0, g["op"]["loss_trace"][0][0] * (1 + 1e-6)),
    "prep": lambda g: g["op"].__setitem__("dataset", "0" * 64),
    "eval-gallery": lambda g: g["op"]["roc"]["sample"][0].__setitem__(
        2, g["op"]["roc"]["sample"][0][2] + 1e-8),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_golden_is_reported_as_failure(workload, tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    TAMPER[workload](goldens["smoke"][workload][str(SEED % 16)])
    path.write_text(json.dumps(goldens))
    result = result_of(run(workload, 0, cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_grades_bitwise_tolerance_and_mismatch():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    def roc(threshold, total):
        return {"sha256": str(threshold), "points": 2,
                "sample": [[0.0, 0.5, threshold], [1.0, 1.0, -1.0]],
                "sums": [1.0, 1.5, total]}

    golden = {"loss_trace": [[1.0, 2.0]], "validation": [[19.0, 13.5, 4.5]],
              "report_row": "psi\t0.500000\t0.000000\t0.000000\t13.5\t5.25",
              "checkpoint": {"sha256": "a", "norms": [2.0]},
              "roc": roc(0.25, -0.75)}
    near = {"loss_trace": [[1.0 + 1e-10, 2.0]],
            "validation": [[19.0, 13.500001, 4.5]],
            "report_row": "psi\t0.500001\t0.000000\t0.000000\t13.5\t5.25",
            "checkpoint": {"sha256": "b", "norms": [2.0 * (1 + 1e-11)]},
            "roc": roc(0.25 + 1e-9, -0.75 + 1e-9)}
    far = {"loss_trace": [[1.0 + 1e-8, 2.0]],
           "validation": [[19.0, 13.500003, 4.5]],
           "report_row": "psi\t0.500003\t0.000000\t0.000000\t13.5\t5.25",
           "checkpoint": {"sha256": "b", "norms": [2.0 * (1 + 1e-9)]},
           "roc": roc(0.25 + 1e-8, -0.75 + 1e-8)}
    assert set(workloads.compare(golden, golden).values()) == {"bitwise"}
    assert set(workloads.compare(near, golden).values()) == {"tolerance"}
    assert set(workloads.compare(far, golden).values()) == {"mismatch"}
    fewer_points = {**golden["roc"], "points": 3, "sha256": "c"}
    assert workloads.compare({"roc": fewer_points}, golden)["roc"] == \
        "mismatch"
    assert workloads.compare({}, golden)["roc"] == "mismatch"
