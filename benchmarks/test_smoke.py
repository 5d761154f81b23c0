"""Smoke test of the benchmark: one op of each workload, untraced and traced.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from tracing import per_layer_metrics  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_prints_every_metric_with_its_unit(workload, trace):
    # with --seconds 0 the run stops after its first op, or its first pair when traced
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1)
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if trace == "0":
            assert printed["value"] > 0, m["name"]


def test_per_layer_list_matches_the_traced_functions():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == {name: unit for name, (unit, _) in per_layer_metrics().items()}


def test_fails_without_the_package_source():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
