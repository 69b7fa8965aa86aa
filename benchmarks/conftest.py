"""Shared fixtures for the benchmark suite.

Every figure/table benchmark draws on the same cached capacity runs,
exactly like the paper post-processing one trace set per load point.
The first benchmark touching a load point pays its simulation cost;
the cache makes the full suite affordable.
"""

from __future__ import annotations

import time
from typing import Callable

import pytest

from repro.experiments.common import RunCache

BENCH_DURATION_S = 30.0
BENCH_SEED = 2007


@pytest.fixture(scope="session")
def shared_runs() -> RunCache:
    """Session-wide capacity-run cache for the figure benchmarks."""
    return RunCache(duration_s=BENCH_DURATION_S, seed=BENCH_SEED)


def assert_and_report(result):
    """Common epilogue: print the reproduction and gate on its checks."""
    print()
    print(result.summary())
    assert result.all_passed, (
        f"shape checks failed for {result.experiment_id}:\n"
        + result.summary()
    )
    return result


def interleaved_min_times(
    *fns: Callable[[], object], repeats: int = 5
) -> list[float]:
    """Fastest wall time of each callable over ``repeats`` rounds.

    The callables run in turn within every round (a, b, a, b, ...),
    so a slow spell of a shared host falls on all of them alike, and
    each keeps its fastest run: other load only ever slows a run down.
    Speed-ratio gates compare these minima instead of one sample a
    side.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best
