"""One benchmark run: a workload's passes, their checks and metrics.

``Run.measure`` gives the end-to-end metrics (nothing wrapped) and
``Run.trace`` the per-layer ones (one untraced and one traced pass).
Both count every operation and check every output on the way.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout; traces stay in WORK / "traces"
WORK = ROOT / ".perfbench"
#: what a user waits for before the runner does any work
SETUP_CODE = "from repro.experiments import registry, runner; registry.all_specs()"
#: set-up samples taken before the passes and again after them; one
#: more is taken between every two passes
SETUP_SAMPLES = 4
FILL_CODE = (
    "import json, signal, sys, workloads\n"
    # on SIGTERM, exit normally so the sweep's daemon workers are reaped
    "signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))\n"
    "print(json.dumps(workloads.fill_store("
    "sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])))"
)


def host_probe() -> float:
    """A fixed pure-Python-plus-numpy loop: the host's speed right now."""
    data = np.random.default_rng(0).random(20000)
    times = []
    for _ in range(25):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(50):
            np.sort(data)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_time() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One invocation: a workload's passes, their checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, duration_s: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.duration_s = duration_s
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def account(self, result) -> None:
        """Count a pass's operations and check its outputs.

        An operation fails when it does not execute, fails a shape
        check, or its digest differs from the reference pass.  Outputs
        are incorrect when anything failed to execute or a digest
        differs; a failed shape check is the program's reproducible
        result for that seed, so it fails the operation only.
        """
        if self.reference is None:
            self.reference = dict(result.digests)
        differ = {
            name
            for name in set(self.reference) | set(result.digests)
            if self.reference.get(name) != result.digests.get(name)
        }
        self.check(not differ, f"digests differ from the reference: {sorted(differ)}")
        executions = result.counts["execution_failures"]
        self.check(executions == 0, f"{executions} operation(s) failed to execute")
        for failure in result.shape_failures:
            print(f"shape check failed: {failure}")
        self.attempted += result.attempted
        self.failed += len((set(result.failed) | differ) - {"manifest"})

    def check_store(self, result, *, cold: bool) -> None:
        points = len(workloads.quick_configs(self.seed, self.duration_s))
        expected = (
            {"hits": 0, "misses": points, "writes": points}
            if cold
            else {"hits": points, "misses": 0, "writes": 0}
        )
        for key, value in expected.items():
            got = result.counts[key]
            self.check(got == value, f"store {key}: expected {value}, got {got}")

    # -- passes ------------------------------------------------------------

    def fresh_store(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))

    def cold_pass(self):
        store = self.fresh_store()
        try:
            result = workloads.run_quick(store, self.seed, self.duration_s, self.scratch)
        finally:
            shutil.rmtree(store)
        self.check_store(result, cold=True)
        return result

    def fill(self) -> Path:
        """A cold run in a child process fills the store warm passes read."""
        store = self.fresh_store()
        args = [sys.executable, "-c", FILL_CODE, str(store), str(self.seed),
                str(self.duration_s), str(self.scratch)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
        with subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        ) as child:
            try:
                stdout, _ = child.communicate(timeout=170)
            except BaseException:
                # SIGTERM, not SIGKILL, lets the child stop its own workers
                child.terminate()
                child.wait()
                raise
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, args)
        cold = json.loads(stdout.splitlines()[-1])
        executions = cold["counts"]["execution_failures"]
        self.check(executions == 0, f"{executions} operation(s) failed to execute")
        # warm passes must reproduce the cold run's artifacts byte for byte
        self.reference = cold["digests"]
        return store

    def warm_pass(self, store: Path):
        result = workloads.run_quick(store, self.seed, self.duration_s, self.scratch)
        self.check_store(result, cold=False)
        return result

    def sweep_pass(self, jobs: int = workloads.SWEEP_JOBS):
        return workloads.run_sweep(self.seed, self.duration_s, jobs=jobs)

    def one_pass(self):
        """The workload's pass function, after any preparation."""
        if self.workload == "quick_cold":
            return self.cold_pass
        if self.workload == "quick_warm":
            store = self.fill()
            return lambda: self.warm_pass(store)
        return self.sweep_pass

    # -- the two modes -----------------------------------------------------

    def measure(self) -> dict[str, tuple[float, str]]:
        print(f"host.probe_s {host_probe():.6f}")
        # set-up is sampled through the whole run and the fastest sample
        # kept: other tenants only ever slow a sample down
        setup = [setup_time() for _ in range(SETUP_SAMPLES)]
        passes = workloads.repeat(
            self.one_pass(), self.seconds, between=lambda: setup.append(setup_time())
        )
        setup += [setup_time() for _ in range(SETUP_SAMPLES)]
        for result in passes:
            self.account(result)
        walls = " ".join(f"{p.wall_s:.3f}" for p in passes)
        print(
            f"{self.workload}: {len(passes)} pass(es), wall s {walls}, "
            f"{passes[0].receptions} receptions, digest {passes[0].digest}"
        )
        print("setup s " + " ".join(f"{t:.3f}" for t in setup))
        return {
            "receptions_per_s": (max(p.receptions / p.wall_s for p in passes), "1/s"),
            "setup_s": (min(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "cpu_ms_per_reception": (
                min(1000.0 * p.cpu_s / p.receptions for p in passes),
                "ms",
            ),
        }

    def trace(self) -> dict[str, tuple[float, str]]:
        one_pass = self.one_pass()
        untraced = one_pass()
        self.account(untraced)
        spans = tracing.Tracer()
        with tracing.instrument(spans):
            traced = one_pass()
        self.account(traced)
        self.check(
            traced.counts == untraced.counts,
            f"traced counts {traced.counts} != untraced {untraced.counts}",
        )
        metrics = tracing.layer_metrics(spans)
        if self.workload == "load_sweep":
            # forked workers record no spans: simulate the same sweep
            # serially under the tracer for the sim and phy layers, and
            # check its counts against what the workers returned
            serial = tracing.Tracer()
            with tracing.instrument(serial):
                self.account(self.sweep_pass(jobs=1))
            serial_metrics = tracing.layer_metrics(serial)
            for name, value in serial_metrics.items():
                if name.startswith(("sim.", "phy.")):
                    metrics[name] = value
            for name, value in traced.counts.items():
                if name.startswith("sim."):
                    self.check(
                        serial_metrics[name] == value,
                        f"{name}: serial trace {serial_metrics[name]} != "
                        f"jobs={workloads.SWEEP_JOBS} results {value}",
                    )
        # load_sweep has no store: its StoreCounters are absent, read 0
        metrics["store.hits"] = float(traced.counts.get("hits", 0))
        metrics["store.misses"] = float(traced.counts.get("misses", 0))
        metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
        metrics["host.probe_s"] = host_probe()
        spans.dump(WORK / "traces" / f"{self.workload}-seed{self.seed}.json")
        print(
            f"{self.workload} traced: untraced {untraced.wall_s:.3f} s, traced "
            f"{traced.wall_s:.3f} s, {len(spans.spans)} spans, digest {traced.digest}"
        )
        return {name: (value, tracing.unit_of(name)) for name, value in metrics.items()}
