"""Tests of the benchmark's own code: generators, output checks, metric names.

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402
from workloads import UWDiscover  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def normalized(path: str, out: str) -> bytes:
    """File bytes with the output directory replaced, for path-bearing files."""
    with open(path, "rb") as fh:
        return fh.read().replace(out.encode(), b"OUT")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first, second, other = (str(tmp_path / name) for name in ("a", "b", "c"))
    generate(workload, 7, first)
    generate(workload, 7, second)
    generate(workload, 8, other)
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert normalized(os.path.join(first, name), first) == normalized(os.path.join(second, name), second), name
    differing = [n for n in names if not filecmp.cmp(os.path.join(first, n), os.path.join(other, n), shallow=False)]
    assert differing, "a different seed gave identical inputs"


def test_golden_check_rejects_a_corrupted_transcript():
    with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seed"] == run.GOLDEN_SEED

    corrupted = json.loads(json.dumps(golden))
    nbest = corrupted["decode_32k"]["utterances"][0]["he_on"]
    nbest[0] = nbest[0][::-1] + "x"
    hyps = corrupted["ladder"]["variants"]["lm_he_uw"]["hypotheses"]
    hyps[0] = hyps[0][:-1]
    pairs = corrupted["uw_discover"]["pairs"]
    pairs[0] = pairs[0][::-1]

    for workload, cls in WORKLOAD_CLASSES.items():
        checker = cls({"files": {}}, golden[workload])
        assert checker.golden_mismatch(golden[workload]) is None
        assert checker.golden_mismatch(corrupted[workload]) is not None


def test_a_golden_mismatch_fails_the_operation(tmp_path):
    info = generate("uw_discover", run.GOLDEN_SEED, str(tmp_path))
    with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["uw_discover"]
    workload = UWDiscover(info, golden)
    workload.setup()
    assert workload.run_pass().failed == 0

    golden["pairs"][0] = [golden["pairs"][0][0], "x"]
    outcome = workload.run_pass()
    assert outcome.failed == 1
    assert "golden" in outcome.ops[0].error


def test_declared_metrics_match_benchmark_json():
    bench = load_benchmark()
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer_units == run.metric_units(1)
    assert set(PER_LAYER) | {run.OVERHEAD_METRIC[0]} == set(layer_units)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "uw_discover", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in load_benchmark()[section]}
    detail = json.loads(done.stdout.strip().splitlines()[-2])
    assert {"nproc", "python", "numpy", "git_commit", "compare_workers"} <= set(detail["env"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
    samples = [float(i) for i in range(1, 41)]
    value, percentile, n = run.tail(samples)
    assert n == 40
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(100.0 * 29 / 39)
