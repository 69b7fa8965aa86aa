"""Self-test of the benchmark harness at a tiny simulated duration.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

or collect it with pytest: ``python -m pytest perfbench/selftest.py``.
It checks the output contract of ``run.py`` against ``BENCHMARK.json``:
every end-to-end metric on an untraced run and every per-layer metric
on a traced one, with their units; that each per-layer count repeats
exactly across two traced runs; that cold and warm runs produce the
same artifact digest; and that without the program's source the
benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "2007", "--seconds", "1", "--sim-duration", "2"]


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0) -> tuple[dict, str]:
    """The result object and the full stdout of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, *TINY,
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _workloads() -> list[str]:
    return [w["name"] for w in SPEC["workloads"]]


def test_end_to_end_metrics_present() -> None:
    expected = _names("end_to_end")
    for workload in _workloads():
        result, _ = run(workload, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["failed"] == 0 and result["attempted"] >= 1, workload
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_per_layer_metrics_present() -> None:
    expected = _names("per_layer")
    for workload in _workloads():
        result, _ = run(workload, 1)
        assert result["correct"] is True, workload
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, workload


def test_counts_repeat_exactly() -> None:
    counts = [n for n, unit in _names("per_layer").items() if unit == "count"]
    for workload in _workloads():
        first, _ = run(workload, 1)
        second, _ = run(workload, 1, repeat=1)
        for name in counts:
            assert (
                first["metrics"][name]["value"] == second["metrics"][name]["value"]
            ), (workload, name)


def test_cold_and_warm_artifacts_identical() -> None:
    digests = [
        re.search(r"digest ([0-9a-f]{64})", run(workload, 0)[1]).group(1)
        for workload in ("quick_cold", "quick_warm")
    ]
    assert digests[0] == digests[1]


def test_fails_without_the_program() -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             _workloads()[0], *TINY[:4], "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
