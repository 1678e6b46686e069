"""Smoke test of the benchmark: every workload once at reduced size, both
untraced and traced, checking metric names, units and the JSON shape.

    python3 -m pytest perfbench/test_smoke.py
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

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# End-to-end metrics a single workload reports in its table and result file.
HEADLINE = {"extk-ladder": ("ext_k3_member_s", "ext_k3_nonmember_s"),
            "eb-corpus": ("eb_k4_s",)}
TRACE_TABLE = (tuple(f"{n}.self_s" for n in SPAN_NAMES)
               + ("hierarchy.ext_k_membership.witness_lp_s", "trace.layer_sum_s",
                  "trace.untraced_wall_s", "trace.coverage"))


def bench(*args, python=(sys.executable,), cwd=ROOT):
    return subprocess.run([*python, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def smoke(workload, trace, seed=3):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")


def table(stdout):
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            rows[name] = (float(value), unit)
    return rows


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = dict(END_TO_END if trace == 0 else PER_LAYER)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if trace == 0 or m["unit"] == "s" and name != "trace.overhead_s":
            assert m["value"] > 0, name
    rows = table(proc.stdout)
    assert rows["failed_ratio"] == (0.0, "ratio")
    for name in (HEADLINE.get(workload, ()) if trace == 0 else TRACE_TABLE):
        assert rows[name][1] in ("s", "ratio"), name


def test_counters_repeat_across_runs():
    counters = []
    for _ in range(2):
        proc = smoke("random-queries", 1, seed=5)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads((HERE / "out" / "random-queries-seed5-trace1.json").read_text())
        counters.append(result["counts"]["deterministic"])
    assert counters[0] == counters[1]
    assert counters[0]["lp.solve.calls"] > 0


def test_refuses_optimized_python():
    proc = bench("--workload", "eb-corpus", "--scale", "smoke", python=(sys.executable, "-O"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "extk-ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
