"""The benchmark's own checks: tracer arithmetic, deterministic counts, and
that traced and untraced runs produce the same outputs.

    PYTHONPATH=src python3 -m pytest e2ebench/test_e2ebench.py

Each run test drives ``run.py`` in a subprocess for a single pass
(``--seconds 0``), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import SpanTracer  # noqa: E402

RECORDED_SEED = 7


def _run(workload: str, trace: int, seed: int = RECORDED_SEED, cwd: str = ROOT,
         script: str = os.path.join(HERE, "run.py")) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess[str]) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


class _Pipeline:
    def outer(self) -> int:
        return self.inner() + self.inner()

    def inner(self) -> int:
        return sum(range(2000))


def test_self_times_add_up_to_the_independently_timed_total() -> None:
    tracer = SpanTracer()
    tracer.wrap_method(_Pipeline, "outer", "outer")
    tracer.wrap_method(_Pipeline, "inner", "inner")
    timed = 0.0
    try:
        pipeline = _Pipeline()
        pipeline.inner()  # outside any operation: not recorded
        for call in (pipeline.outer, pipeline.inner):
            with tracer.operation():
                start = time.perf_counter()
                call()
                timed += time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert not hasattr(vars(_Pipeline)["inner"], "__wrapped__")  # uninstalled
    assert tracer.counts == {
        f"{__name__}._Pipeline.outer": 1, f"{__name__}._Pipeline.inner": 3,
    }
    assert len(tracer) == 2 + 4  # two operation spans, four wrapped calls
    assert list(tracer.op) == [0, 0, 0, 0, 1, 1]
    assert tracer.parent[1] == 0 and tracer.parent[2] == 1 and tracer.parent[3] == 1
    selfs = tracer.self_times()
    assert all(value >= 0 for value in selfs.values())
    # The root spans hold the timed calls plus only the tracer's own overhead.
    assert timed <= sum(selfs.values()) == pytest.approx(tracer.root_total(), rel=1e-9)
    assert tracer.root_total() - timed < 0.1 * timed + 1e-3


def test_outside_the_package_exits_nonzero_without_a_result(tmp_path: str) -> None:
    shutil.copytree(HERE, os.path.join(tmp_path, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("plan-large", 0, cwd=str(tmp_path),
                script=os.path.join(tmp_path, "e2ebench", "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["plan-large", "study-small"])
def test_counts_repeat_and_traced_outputs_match_untraced(workload: str) -> None:
    first_record, first = _result(_run(workload, 1))
    second_record, second = _result(_run(workload, 1))
    untraced_record, untraced = _result(_run(workload, 0))
    for result in (first, second, untraced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert first_record["count_digest"] == second_record["count_digest"]
    assert first_record["output_digest"] == first_record["untraced_output_digest"]
    assert first_record["output_digest"] == untraced_record["output_digest"]
