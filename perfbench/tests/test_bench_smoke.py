import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

TINY = workloads.Sizes(pool=12, test=8, budget=3)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_declared_metric(tmp_path, name, trace):
    result = workloads.run(name, seed=5, seconds=0, trace=trace, work=tmp_path / "work",
                           sizes=TINY, trace_dir=tmp_path / "traces")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        assert (tmp_path / "traces" / f"{name}-seed5.json").is_file()
    else:
        assert result["metrics"]["f1"] == 1.0
        assert all(value > 0 for value in result["metrics"].values())
    if name == "replay-sweep":
        assert result["summary"]["llm_calls"] == 0


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "test-batch",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
