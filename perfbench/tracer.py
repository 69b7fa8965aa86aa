"""In-memory span tracer that wraps the public entry points of each layer.

Nothing under ``src/`` knows about it: :func:`instrument` rebinds the
entry points listed in :data:`ENTRY_POINTS` (class methods on their
class, module functions in every ``repro`` module that imported them
by name) for the duration of a ``with`` block and restores them on
exit.  Each call becomes a :class:`Span` with a parent link; counts
are taken at the same boundaries.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Only the process that created the tracer records anything: forked
sweep workers inherit the wrappers but call straight through, so what
a traced ``jobs > 1`` run reports is what the parent sees.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exec.supervisor import Supervisor
from repro.experiments import registry


@dataclass
class Span:
    """One call across a layer boundary."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans with parent links plus named counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[Span] = []
        self._pid = os.getpid()

    @property
    def active(self) -> bool:
        """False in forked children, which must not record."""
        return os.getpid() == self._pid

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        opened = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(s.name == name for s in self._stack)

    def add_distinct(self, name: str, key: Any) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def dump(self, path: Path) -> None:
        """Write every span and count as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        path.write_text(json.dumps(document) + "\n")


# -- span arithmetic ---------------------------------------------------------


def _children(spans: list[Span]) -> dict[int | None, list[Span]]:
    kids: dict[int | None, list[Span]] = {}
    for span in spans:
        kids.setdefault(span.parent_id, []).append(span)
    return kids


def self_time(span: Span, kids: dict[int | None, list[Span]]) -> float:
    """Duration minus the time its child spans cover.

    Spans nest as a stack in one thread, so a span's children never
    overlap and the time they cover is the sum of their durations.
    """
    return span.duration - sum(c.duration for c in kids.get(span.span_id, ()))


def _ancestors(spans: list[Span], span: Span) -> Iterator[Span]:
    # a span's id is its index in the tracer's list
    parent = span.parent_id
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent_id


def has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    return any(a.name == name for a in _ancestors(spans, span))


def outermost_time(spans: list[Span], names: set[str]) -> float:
    """Total time under spans named in ``names``, counted once.

    A span whose ancestor is also in ``names`` (``receive_frames``
    inside ``receive_collision_pair``) is already covered.
    """
    return sum(
        s.duration
        for s in spans
        if s.name in names and not any(a.name in names for a in _ancestors(spans, s))
    )


# -- the entry points --------------------------------------------------------


def _count_sim(tracer: Tracer, args: tuple, result: Any) -> None:
    records = result.records
    preamble = sum(1 for r in records if r.acquired_preamble)
    either = sum(1 for r in records if r.acquired(True))
    tracer.counts["sim.points"] += 1
    tracer.counts["sim.transmissions"] += len(result.transmissions)
    tracer.counts["sim.receptions"] += len(records)
    tracer.counts["sim.acquired_preamble"] += preamble
    tracer.counts["sim.acquired_postamble_only"] += either - preamble


def _count_transit(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["phy.transit_codewords"] += int(result.size)


def _count_decode(tracer: Tracer, args: tuple, result: Any) -> None:
    if tracer.inside("sim.run"):
        words = sum(int(symbols.size) for symbols, _ in result)
        tracer.counts["phy.decode_codewords"] += words


def _count_mask(tracer: Tracer, args: tuple, result: Any) -> None:
    codec, data_ok, repair_ok = args[:3]
    tracer.counts["coding.recoverable_mask_calls"] += 1
    tracer.add_distinct(
        "coding.recoverable_mask_distinct",
        (
            codec.n_segments,
            codec.n_repair,
            codec.field,
            codec.seed,
            bytes(memoryview(data_ok.astype(bool))),
            bytes(memoryview(repair_ok.astype(bool))),
        ),
    )


def _count_trace_deliver(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["metrics.trace_deliver_calls"] += 1


def _count_store_get(tracer: Tracer, args: tuple, result: Any) -> None:
    store, config = args[:2]
    if result is not None:
        tracer.counts["store.bytes_read"] += store.path_for(config).stat().st_size


def _count_store_put(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["store.bytes_written"] += result.stat().st_size


@dataclass(frozen=True)
class EntryPoint:
    """A public callable to wrap: ``module:Class.method`` or ``module:func``."""

    target: str
    span: str | None
    count: Callable[[Tracer, tuple, Any], None] | None = None

    def resolve(self) -> tuple[Any, str]:
        module_name, _, attr = self.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


ENTRY_POINTS = (
    EntryPoint("repro.sim.network:NetworkSimulation.run", "sim.run", _count_sim),
    EntryPoint("repro.sim.core:EventScheduler.run", "sim.traffic_mac"),
    EntryPoint(
        "repro.phy.chipchannel:transmit_chipwords_batch",
        "phy.transit",
        _count_transit,
    ),
    EntryPoint(
        "repro.phy.batch:BatchReceptionEngine.decode_hard_ragged",
        "phy.decode",
        _count_decode,
    ),
    EntryPoint("repro.phy.batch:WaveformBatchEngine.receive_frames", "phy.waveform"),
    EntryPoint(
        "repro.phy.batch:WaveformBatchEngine.receive_collision_pair",
        "phy.waveform",
    ),
    EntryPoint("repro.recovery.sic:SicDecoder.decode_pair", "recovery.sic"),
    EntryPoint("repro.sim.metrics:evaluate_schemes", "metrics.evaluate"),
    # ~90k calls a quick run: counted, not spanned
    EntryPoint("repro.sim.metrics:trace_deliver", None, _count_trace_deliver),
    EntryPoint(
        "repro.coding.rlnc:SegmentedRlncCodec.recoverable_mask",
        "coding.recoverable_mask",
        _count_mask,
    ),
    EntryPoint("repro.store.core:RunStore.get", "store.get", _count_store_get),
    EntryPoint("repro.store.core:RunStore.put", "store.put", _count_store_put),
)


def _wrap(
    tracer: Tracer,
    fn: Callable,
    name: str | None,
    count: Callable[[Tracer, tuple, Any], None] | None = None,
) -> Callable:
    """``fn`` as a span called ``name`` (none if ``None``), then counted."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


def _wrap_supervisor(tracer: Tracer, fn: Callable) -> Callable:
    """``Supervisor.run``: wall, worker CPU, tasks and retries.

    Worker CPU is what joined child processes used (``RUSAGE_CHILDREN``)
    when the supervisor fans out, and this process's own CPU when it
    runs the tasks in-process.
    """

    def wrapper(supervisor: Any, tasks: Any, *args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(supervisor, tasks, *args, **kwargs)
        tasks = list(tasks)
        retries = supervisor.counters.retries
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        own = time.process_time()
        with tracer.span("exec.supervisor") as span:
            result = fn(supervisor, tasks, *args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu = (after.ru_utime + after.ru_stime) - (
            children.ru_utime + children.ru_stime
        )
        if worker_cpu == 0.0:
            worker_cpu = time.process_time() - own
        span.attrs.update(jobs=supervisor.jobs, worker_cpu_s=worker_cpu)
        tracer.counts["exec.tasks"] += len(tasks)
        tracer.counts["exec.retries"] += supervisor.counters.retries - retries
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block."""
    # import every experiment module first, so each from-import of a
    # wrapped function is rebound below and restored afterwards
    specs = registry.all_specs()
    undo: list[Callable[[], None]] = []

    def rebind(owner: Any, name: str, new: Any) -> None:
        original = owner.__dict__[name]
        undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, new)

    try:
        for point in ENTRY_POINTS:
            owner, name = point.resolve()
            original = owner.__dict__[name]
            wrapped = _wrap(tracer, original, point.span, point.count)
            if isinstance(owner, type):
                rebind(owner, name, wrapped)
                continue
            # a module function: rebind every module-level alias of it
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, alias, wrapped)
        rebind(Supervisor, "run", _wrap_supervisor(tracer, Supervisor.__dict__["run"]))
        # ExperimentSpec is frozen; its ``run`` field is per instance
        for spec in specs:
            run = spec.run
            undo.append(lambda spec=spec, run=run: object.__setattr__(spec, "run", run))
            object.__setattr__(
                spec, "run", _wrap(tracer, run, f"experiments.{spec.experiment_id}")
            )
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# -- per-layer metrics -------------------------------------------------------

_COUNTS = (
    "sim.points",
    "sim.transmissions",
    "sim.receptions",
    "sim.acquired_preamble",
    "sim.acquired_postamble_only",
    "phy.transit_codewords",
    "phy.decode_codewords",
    "metrics.trace_deliver_calls",
    "coding.recoverable_mask_calls",
    "coding.recoverable_mask_distinct",
    "store.bytes_read",
    "store.bytes_written",
    "exec.tasks",
    "exec.retries",
)

_UNITS = {name: "count" for name in _COUNTS}
_UNITS.update(
    {
        # the pass's StoreCounters give these, not the tracer
        "store.hits": "count",
        "store.misses": "count",
        "exec.parallel_efficiency": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)


def unit_of(name: str) -> str:
    return _UNITS.get(name, "s")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer time and count one traced pass recorded."""
    spans = tracer.spans
    kids = _children(spans)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    sim_runs = named("sim.run")
    supervisors = named("exec.supervisor")
    worker_cpu = sum(s.attrs["worker_cpu_s"] for s in supervisors)
    capacity = sum(s.attrs["jobs"] * s.duration for s in supervisors)
    experiments = [s for s in spans if s.name.startswith("experiments.")]
    out: dict[str, float] = {
        "sim.run_s": total("sim.run"),
        "sim.self_s": sum(self_time(s, kids) for s in sim_runs),
        "sim.traffic_mac_s": total("sim.traffic_mac"),
        "phy.transit_s": total("phy.transit"),
        "phy.decode_s": sum(
            s.duration
            for s in named("phy.decode")
            if has_ancestor(spans, s, "sim.run")
        ),
        "phy.waveform_s": outermost_time(spans, {"phy.waveform"}),
        "recovery.sic_s": outermost_time(spans, {"recovery.sic"}),
        "metrics.evaluate_s": outermost_time(spans, {"metrics.evaluate"}),
        "coding.recoverable_mask_s": total("coding.recoverable_mask"),
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "exec.supervisor_s": total("exec.supervisor"),
        "exec.worker_cpu_s": worker_cpu,
        "exec.parallel_efficiency": worker_cpu / capacity if capacity else 0.0,
        "experiments.self_s": sum(self_time(s, kids) for s in experiments),
    }
    for spec in registry.all_specs():
        name = f"experiments.{spec.experiment_id}"
        out[f"{name}_s"] = total(name)
    for name in _COUNTS:
        out[name] = tracer.counts.get(name, 0)
    for name, keys in tracer.distinct.items():
        out[name] = len(keys)
    return {name: float(value) for name, value in out.items()}
