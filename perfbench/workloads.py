"""The benchmark's workloads: one timed pass of each, plus its checks.

Every pass goes through the program's public entry points only:

* ``quick_cold`` — ``run_experiments(<all ids>, duration_s=15, jobs=1)``
  against an empty :class:`RunStore`: every layer works.
* ``quick_warm`` — the same call against a store that a cold run
  already filled, so nothing is simulated: post-processing and store
  reads only.
* ``load_sweep`` — ``sweep(load=(3500, 6900, 13800), seed=(s, s+1,
  s+2), carrier_sense=False)`` through ``RunCache(jobs=2)``, each
  point evaluated with ``labelled_evaluations`` and
  ``mean_delivery_rate``: simulation-heavy, and the only workload that
  fans out to worker processes.

A pass reports its wall and CPU time, the receptions it simulated or
evaluated, and a digest of its outputs; the caller compares digests
across passes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.exec import SweepExecutionError
from repro.experiments import registry
from repro.experiments.common import (
    RunCache,
    labelled_evaluations,
    mean_delivery_rate,
    sweep,
)
from repro.experiments.runner import run_experiments, write_artifacts
from repro.store import RunStore

#: simulated seconds per point: the runner's ``--quick``
QUICK_DURATION_S = 15.0
#: the offered loads of the sweep, bits/s per node
SWEEP_LOADS = (3500.0, 6900.0, 13800.0)
SWEEP_JOBS = 2


@dataclass
class PassResult:
    """What one timed pass did."""

    wall_s: float
    cpu_s: float
    receptions: int
    #: operations run: experiments, or sweep points
    attempted: int
    #: experiment id or sweep point label -> SHA-256 of its output
    digests: dict[str, str]
    #: operations that failed to execute or failed a shape check
    failed: list[str] = field(default_factory=list)
    #: observable counts the pass must reproduce (store traffic, ...)
    counts: dict[str, int] = field(default_factory=dict)
    #: each failed shape check, as ``<experiment id>: <check> (<detail>)``
    shape_failures: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return _sha256(json.dumps(self.digests, sort_keys=True).encode())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cpu_s() -> float:
    """CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class CountingStore(RunStore):
    """A :class:`RunStore` that tallies the receptions it writes and reads."""

    def __init__(self, root: Path | str) -> None:
        super().__init__(root)
        self.receptions = 0

    def get(self, config):
        result = super().get(config)
        if result is not None:
            self.receptions += len(result.records)
        return result

    def put(self, config, result):
        self.receptions += len(result.records)
        return super().put(config, result)


def experiment_ids() -> list[str]:
    return [spec.experiment_id for spec in registry.all_specs()]


def quick_configs(seed: int, duration_s: float) -> set:
    """The distinct simulation points every experiment declares."""
    base = RunCache(duration_s=duration_s, seed=seed).base
    return {c for spec in registry.all_specs() for c in spec.configs(base)}


def run_quick(
    store_root: Path, seed: int, duration_s: float, scratch: Path
) -> PassResult:
    """One ``run_experiments`` pass over every experiment; artifacts digested.

    The artifacts are written without store counters, so a cold and
    a warm pass of the same code must produce identical bytes.
    """
    store = CountingStore(store_root)
    ids = experiment_ids()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    outcome = run_experiments(
        ids, duration_s=duration_s, seed=seed, jobs=1, store=store
    )
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    out = Path(tempfile.mkdtemp(prefix="artifacts-", dir=scratch))
    try:
        write_artifacts(
            out,
            outcome.results,
            failures=outcome.failures,
            exec_counters=outcome.exec_counters,
        )
        digests = {
            path.stem: _sha256(path.read_bytes())
            for path in sorted(out.iterdir())
        }
    finally:
        shutil.rmtree(out)
    failed = [f.experiment_id for f in outcome.failures]
    failed += [r.experiment_id for r in outcome.results if not r.all_passed]
    counts = dict(store.counters.as_dict())
    counts["receptions"] = store.receptions
    counts["execution_failures"] = len(ids) - len(outcome.results)
    counts["shape_checks"] = sum(len(r.shape_checks) for r in outcome.results)
    return PassResult(
        wall_s=wall,
        cpu_s=cpu,
        receptions=store.receptions,
        attempted=len(ids),
        digests=digests,
        failed=failed,
        counts=counts,
        shape_failures=[
            f"{r.experiment_id}: {c}"
            for r in outcome.results
            for c in r.shape_checks
            if not c.passed
        ],
    )


def fill_store(store_root: str, seed: int, duration_s: float, scratch: str) -> dict:
    """Cold-run every experiment into ``store_root`` (for ``quick_warm``).

    Run in a child process, so that the parent's peak memory is the
    warm passes' own.  Returns the cold run's digests and counts.
    """
    cold = run_quick(Path(store_root), seed, duration_s, Path(scratch))
    return {"digests": cold.digests, "counts": cold.counts}


def run_sweep(seed: int, duration_s: float, jobs: int = SWEEP_JOBS) -> PassResult:
    """One sharded load sweep, every point evaluated; results digested."""
    cache = RunCache(duration_s=duration_s, jobs=jobs)
    points = sweep(
        load=SWEEP_LOADS, seed=(seed, seed + 1, seed + 2), carrier_sense=False
    )
    cpu0 = _cpu_s()
    start = time.perf_counter()
    configs = points.configs(cache.base)
    broken: set = set()
    try:
        cache.prefetch(configs)
    except SweepExecutionError as exc:
        # every other point completed and stays cached
        broken = {f.task.payload for f in exc.failures}
    pairs = [
        (scenario, cache.get(config))
        for scenario, config in zip(points.scenarios, configs, strict=True)
        if config not in broken
    ]
    failed = [
        scenario.label()
        for scenario, config in zip(points.scenarios, configs, strict=True)
        if config in broken
    ]
    rates = [
        {
            label: mean_delivery_rate(evaluation)
            for label, evaluation in labelled_evaluations(result).items()
        }
        for _, result in pairs
    ]
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    summaries = {
        scenario.label(): {
            "receptions": len(result.records),
            "transmissions": len(result.transmissions),
            "acquired_preamble": sum(r.acquired_preamble for r in result.records),
            "acquired": sum(r.acquired(True) for r in result.records),
            "rates": point_rates,
        }
        for (scenario, result), point_rates in zip(pairs, rates, strict=True)
    }
    digests = {
        label: _sha256(json.dumps(summary, sort_keys=True).encode())
        for label, summary in summaries.items()
    }
    receptions = sum(s["receptions"] for s in summaries.values())
    counts = {
        "sim.points": len(summaries),
        "sim.transmissions": sum(s["transmissions"] for s in summaries.values()),
        "sim.receptions": receptions,
        "sim.acquired_preamble": sum(
            s["acquired_preamble"] for s in summaries.values()
        ),
        "sim.acquired_postamble_only": sum(
            s["acquired"] - s["acquired_preamble"] for s in summaries.values()
        ),
        "exec.retries": cache.exec_counters.retries,
        "execution_failures": len(failed),
    }
    return PassResult(
        wall_s=wall,
        cpu_s=cpu,
        receptions=receptions,
        attempted=len(points.scenarios),
        digests=digests,
        failed=failed,
        counts=counts,
    )


def repeat(
    one_pass: Callable[[], PassResult],
    seconds: float,
    between: Callable[[], None] = lambda: None,
) -> list[PassResult]:
    """Run passes until ``seconds`` are spent, at least one.

    A further pass starts only if a pass as long as the median so far
    still fits, so a run ends near ``seconds`` whatever the pass size.
    ``between`` runs before every pass but the first.  Garbage from
    the previous pass is collected first, so that each pass starts
    from the same memory.
    """
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if passes:
            between()
        gc.collect()
        passes.append(one_pass())
        walls = sorted(p.wall_s for p in passes)
        typical = walls[len(walls) // 2]
        if time.perf_counter() - start + typical > seconds:
            return passes
