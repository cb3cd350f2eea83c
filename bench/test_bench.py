"""Smoke test of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest bench/test_bench.py
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run

sys.path.insert(0, run.SRC)

import affgraph.cli  # noqa: E402,F401  (load every module the tracer wraps)
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "embed-60": workloads.SceneWorkload(counts=(1, 1, 1, 1), train={"epochs": 2},
                                        gated=False),
    "cluster-300": workloads.MixtureWorkload(n=40, dim=16),
}


def test_every_workload_has_a_tiny_version():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY) == list(workloads.WORKLOADS)


def _run(monkeypatch, name: str, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(monkeypatch, name, trace):
    before = tracer.module_state()
    result = _run(monkeypatch, name, trace)
    assert tracer.changed_attributes(before, tracer.module_state()) == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS  # the byte-identity check compares ops
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_tracer_restores_on_error():
    before = tracer.module_state()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert tracer.changed_attributes(before, tracer.module_state())
            raise RuntimeError("op failed")
    assert tracer.changed_attributes(before, tracer.module_state()) == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cluster-300", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
