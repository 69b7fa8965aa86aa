"""Trace post-processing: scheme evaluation and hint statistics.

Receptions are recorded once and evaluated under every delivery scheme
(the paper's own method, §7.2).  CRC outcomes are evaluated through
their defining property — a CRC-32-protected region verifies iff all of
its symbols decoded correctly (undetected-error probability 2^-32 is
far below anything a simulation of this size can resolve); the real CRC
arithmetic is exercised by the link/ARQ layers and their tests.

Two evaluators produce the same :class:`SchemeEvaluation` lists.
:func:`evaluate_schemes_reference` is the specification: it walks the
records once per (postamble option, scheme) and hands each acquired
reception to :func:`trace_deliver`.  :func:`evaluate_schemes` is its
batched twin, pinned counter-for-counter in
``tests/test_vectorized_equivalence.py``:

* each call builds one ragged payload view of the receptions acquired
  under any requested postamble option — their concatenated
  per-symbol correctness, their hints in the stored dtype, record
  offsets, and a prefix sum of incorrect symbols, so the incorrect
  count of any symbol range is two lookups;
* every record is evaluated once per scheme, into per-record integer
  counters (correct, incorrect and overhead bits, passed); a postamble
  option is only a record mask when the counters are summed per link,
  so records acquired by preamble are not evaluated twice;
* segment verdicts (fragmented CRC, S-PRAC data segments) are
  incorrect-symbol counts over segment bounds, computed for all
  records of one payload length at once with the same ``np.linspace``
  bounds as :func:`trace_deliver`; S-PRAC repair segments are cyclic
  windows of the same trace, which wrap at most once;
* S-PRAC's rank question goes to
  :meth:`SegmentedRlncCodec.recoverable_mask` once per distinct
  ``(field, seed, k, r, data_ok, repair_ok)``: the answer depends on
  those values only, so a memo keyed by them is shared across calls
  and cleared by :func:`clear_recovery_memo` at the start of each
  experiment run.

The view lives for one call only; nothing per symbol is cached.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.link.quality import LinkStats
from repro.link.schemes import (
    DeliveryResult,
    DeliveryScheme,
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SpracScheme,
)
from repro.coding.rlnc import SegmentedRlncCodec
from repro.sim.network import ReceptionRecord, SimulationResult

_BITS_PER_SYMBOL = 4
_SYMBOLS_PER_BYTE = 2


def trace_deliver(
    scheme: DeliveryScheme,
    correct: np.ndarray,
    hints: np.ndarray,
) -> DeliveryResult:
    """Evaluate a delivery scheme on a recorded payload trace.

    ``correct`` and ``hints`` cover the wire-payload symbols of one
    acquired reception.
    """
    correct = np.asarray(correct, dtype=bool)
    hints = np.asarray(hints, dtype=np.float64)
    if correct.shape != hints.shape:
        raise ValueError("correct and hints must have the same shape")
    n_symbols = correct.size
    payload_bits = n_symbols * _BITS_PER_SYMBOL

    if isinstance(scheme, PprScheme):
        good = hints <= scheme.eta
        return DeliveryResult(
            scheme=scheme.name,
            payload_bits=payload_bits,
            delivered_correct_bits=int((good & correct).sum())
            * _BITS_PER_SYMBOL,
            delivered_incorrect_bits=int((good & ~correct).sum())
            * _BITS_PER_SYMBOL,
            overhead_bits=8 * scheme.wire_overhead_bytes(
                n_symbols // _SYMBOLS_PER_BYTE
            ),
            frame_passed=bool(correct.all()),
        )
    if isinstance(scheme, FragmentedCrcScheme):
        n = min(scheme.n_fragments, n_symbols) if n_symbols else 1
        bounds = np.linspace(0, n_symbols, n + 1).astype(int)
        delivered = 0
        all_ok = True
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
            if hi > lo and correct[lo:hi].all():
                delivered += (hi - lo) * _BITS_PER_SYMBOL
            elif hi > lo:
                all_ok = False
        return DeliveryResult(
            scheme=scheme.name,
            payload_bits=payload_bits,
            delivered_correct_bits=delivered,
            delivered_incorrect_bits=0,
            overhead_bits=32 * n,
            frame_passed=all_ok,
        )
    if isinstance(scheme, PacketCrcScheme):
        passed = bool(correct.all())
        return DeliveryResult(
            scheme=scheme.name,
            payload_bits=payload_bits,
            delivered_correct_bits=payload_bits if passed else 0,
            delivered_incorrect_bits=0,
            overhead_bits=32,
            frame_passed=passed,
        )
    if isinstance(scheme, SpracScheme):
        return _trace_deliver_sprac(scheme, correct)
    raise TypeError(
        f"no trace evaluation defined for scheme {type(scheme).__name__}"
    )


def _trace_deliver_sprac(
    scheme: SpracScheme, correct: np.ndarray
) -> DeliveryResult:
    """S-PRAC on a recorded trace: segment erasures + coded recovery.

    Data segments follow the fragmented-CRC convention (a segment
    verifies iff all of its symbols decoded correctly).  The traced
    region carries no repair symbols, so each repair segment's channel
    outcome is modelled by a *wrap-around window* of the same trace:
    repair ``j`` (as long as the largest data segment) survives iff
    the symbols in its cyclic window all decoded correctly — the same
    error process, burstiness included, extended past the recorded
    region.  Recovery then follows the real coefficient matrices:
    :meth:`SegmentedRlncCodec.recoverable_mask` runs the GF
    elimination to decide which erased segments the surviving
    equations pin down (a recovered segment is exact by construction).
    Repair airtime and every CRC are charged as overhead.
    """
    k = scheme.n_segments
    r = scheme.n_repair
    n_symbols = correct.size
    payload_bits = n_symbols * _BITS_PER_SYMBOL
    if n_symbols == 0:
        return DeliveryResult(
            scheme=scheme.name,
            payload_bits=0,
            delivered_correct_bits=0,
            delivered_incorrect_bits=0,
            overhead_bits=32 * (k + r),
            frame_passed=True,
        )
    bounds = np.linspace(0, n_symbols, k + 1).astype(int)
    data_ok = np.array(
        [
            bool(correct[lo:hi].all())
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
        ],
        dtype=bool,
    )
    repair_sym = -(-n_symbols // k)
    repair_ok = np.zeros(r, dtype=bool)
    for j in range(r):
        window = (
            (k + j) * repair_sym + np.arange(repair_sym)
        ) % n_symbols
        repair_ok[j] = bool(correct[window].all())
    delivered = scheme.codec.recoverable_mask(data_ok, repair_ok)
    delivered_bits = int(
        sum(
            (hi - lo) * _BITS_PER_SYMBOL
            for lo, hi, ok in zip(bounds[:-1], bounds[1:], delivered, strict=True)
            if ok
        )
    )
    overhead_bits = 32 * (k + r) + r * repair_sym * _BITS_PER_SYMBOL
    return DeliveryResult(
        scheme=scheme.name,
        payload_bits=payload_bits,
        delivered_correct_bits=delivered_bits,
        delivered_incorrect_bits=0,
        overhead_bits=overhead_bits,
        frame_passed=bool(delivered.all()),
    )


@dataclass
class SchemeEvaluation:
    """Per-link results for one (scheme, postamble mode) variant."""

    scheme: DeliveryScheme
    postamble_enabled: bool
    stats: LinkStats
    duration_s: float

    @property
    def label(self) -> str:
        """Human-readable variant name used by the harness output."""
        post = "postamble" if self.postamble_enabled else "no postamble"
        return f"{self.scheme.name}, {post}"

    def delivery_rates(self) -> list[float]:
        """Per-link equivalent frame delivery rates (§7.2.2)."""
        return self.stats.delivery_rates()

    def throughputs_kbps(self) -> dict[tuple[int, int], float]:
        """Per-link end-to-end goodput in Kbit/s (§7.2.3).

        Scheme checksum overhead is charged by derating delivered bits
        by payload/(payload + overhead) per frame — the airtime a real
        deployment would spend on the extra CRCs.
        """
        out = {}
        for link in self.stats.links():
            obs = self.stats[link]
            if obs.payload_bits_acquired > 0:
                efficiency = obs.payload_bits_acquired / (
                    obs.payload_bits_acquired + obs.overhead_bits
                )
            else:
                efficiency = 1.0
            bits = obs.delivered_correct_bits * efficiency
            out[link] = bits / self.duration_s / 1e3
        return out

    def aggregate_throughput_kbps(self) -> float:
        """Network-wide delivered goodput in Kbit/s."""
        return float(sum(self.throughputs_kbps().values()))

    def median_delivery_rate(self) -> float:
        """Median of the per-link delivery-rate distribution."""
        rates = self.delivery_rates()
        return float(np.median(rates)) if rates else 0.0


def evaluate_schemes_reference(
    result: SimulationResult,
    schemes: list[DeliveryScheme],
    postamble_options: tuple[bool, ...] = (False, True),
) -> list[SchemeEvaluation]:
    """Evaluate every (scheme, postamble) variant on recorded traces.

    The per-record loop specification of :func:`evaluate_schemes`:
    one :func:`trace_deliver` call per acquired record, scheme and
    postamble option.
    """
    evaluations = []
    for postamble_enabled in postamble_options:
        for scheme in schemes:
            stats = LinkStats()
            for rec in result.records:
                payload_bits = (
                    rec.payload_end - rec.payload_start
                ) * _BITS_PER_SYMBOL
                stats[rec.link].record_sent(payload_bits)
                if not rec.acquired(postamble_enabled):
                    continue
                delivery = trace_deliver(
                    scheme, rec.payload_correct(), rec.payload_hints()
                )
                stats[rec.link].record_acquired(delivery)
            evaluations.append(
                SchemeEvaluation(
                    scheme=scheme,
                    postamble_enabled=postamble_enabled,
                    stats=stats,
                    duration_s=result.duration_s,
                )
            )
    return evaluations


def evaluate_schemes(
    result: SimulationResult,
    schemes: list[DeliveryScheme],
    postamble_options: tuple[bool, ...] = (False, True),
) -> list[SchemeEvaluation]:
    """Evaluate every (scheme, postamble) variant on recorded traces.

    Batched twin of :func:`evaluate_schemes_reference`: each record
    acquired under any of ``postamble_options`` is evaluated once per
    scheme over ragged payload views, and each postamble option selects
    the records it acquires when the counters are summed per link.
    """
    records = result.records
    links: dict[tuple[int, int], int] = {}
    link_of = np.fromiter(
        (links.setdefault(rec.link, len(links)) for rec in records),
        dtype=np.intp,
        count=len(records),
    )
    sent_bits = np.fromiter(
        (
            (rec.payload_end - rec.payload_start) * _BITS_PER_SYMBOL
            for rec in records
        ),
        dtype=np.int64,
        count=len(records),
    )
    sent = _sum_per_link(
        len(links),
        link_of,
        np.column_stack((np.ones_like(sent_bits), sent_bits)),
    )
    acquired = {
        option: np.fromiter(
            (rec.acquired(option) for rec in records),
            dtype=bool,
            count=len(records),
        )
        for option in set(postamble_options)
    }
    either = np.zeros(len(records), dtype=bool)
    for mask in acquired.values():
        either |= mask
    evaluated = np.flatnonzero(either)
    # per evaluated record: acquired frames, payload bits, then the
    # scheme's correct, incorrect and overhead bits and passed frames
    counted = [np.zeros((evaluated.size, 6), dtype=np.int64) for _ in schemes]
    for part in _view_parts(sent_bits[evaluated] // _BITS_PER_SYMBOL):
        view = _PayloadView([records[i] for i in evaluated[part]])
        for scheme, per_record in zip(schemes, counted, strict=True):
            per_record[part, 0] = 1
            per_record[part, 1] = view.lengths * _BITS_PER_SYMBOL
            per_record[part, 2:] = _scheme_outcomes(scheme, view)
    evaluations = []
    for postamble_enabled in postamble_options:
        chosen = acquired[postamble_enabled][evaluated]
        chosen_links = link_of[evaluated][chosen]
        for scheme, per_record in zip(schemes, counted, strict=True):
            totals = _sum_per_link(len(links), chosen_links, per_record[chosen])
            evaluations.append(
                SchemeEvaluation(
                    scheme=scheme,
                    postamble_enabled=postamble_enabled,
                    stats=_link_stats(links, sent, totals),
                    duration_s=result.duration_s,
                )
            )
    return evaluations


#: payload symbols per view: bounds the evaluator's scratch memory
_VIEW_SYMBOLS = 1 << 18


def _view_parts(sizes: np.ndarray) -> list[slice]:
    """Consecutive runs of records of about ``_VIEW_SYMBOLS`` symbols.

    No records give no runs, so no scheme is inspected, just as
    :func:`trace_deliver` is then never called.
    """
    if sizes.size == 0:
        return []
    part_of = (np.cumsum(sizes) - sizes) // _VIEW_SYMBOLS
    edges = [0, *(np.flatnonzero(np.diff(part_of)) + 1).tolist(), sizes.size]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:], strict=True)]


def _sum_per_link(
    n_links: int, link_of: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Integer column sums of ``values`` rows, grouped by link index."""
    totals = np.zeros((n_links, values.shape[1]), dtype=np.int64)
    np.add.at(totals, link_of, values)
    return totals


def _link_stats(
    links: dict[tuple[int, int], int], sent: np.ndarray, totals: np.ndarray
) -> LinkStats:
    """A :class:`LinkStats` holding the per-link integer sums."""
    stats = LinkStats()
    for link, (frames, bits), row in zip(
        links, sent.tolist(), totals.tolist(), strict=True
    ):
        obs = stats[link]
        obs.frames_sent = frames
        obs.payload_bits_sent = bits
        (
            obs.frames_acquired,
            obs.payload_bits_acquired,
            obs.delivered_correct_bits,
            obs.delivered_incorrect_bits,
            obs.overhead_bits,
            obs.frames_passed,
        ) = row
    return stats


class _PayloadView:
    """The wire-payload traces of some receptions, end to end.

    Record ``i`` owns symbols ``starts[i]`` up to
    ``starts[i] + lengths[i]`` of ``correct`` and ``hints``.
    ``groups`` lists the records of each distinct payload length.
    """

    def __init__(self, records: list[ReceptionRecord]) -> None:
        correct = [rec.payload_correct() for rec in records]
        self.lengths = np.fromiter(
            (c.size for c in correct), dtype=np.int64, count=len(correct)
        )
        self.starts = np.zeros_like(self.lengths)
        np.cumsum(self.lengths[:-1], out=self.starts[1:])
        self.correct = np.concatenate(correct)
        self.hints = np.concatenate(
            [rec.body_hints[rec.payload_start : rec.payload_end] for rec in records]
        )
        distinct, inverse = np.unique(self.lengths, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        split = np.cumsum(np.bincount(inverse, minlength=distinct.size))
        self.groups = list(
            zip(distinct.tolist(), np.split(order, split[:-1]), strict=True)
        )

    @functools.cached_property
    def bad_prefix(self) -> np.ndarray:
        """``bad_prefix[j]``: incorrect symbols before symbol ``j``."""
        total = self.correct.size
        prefix = np.zeros(
            total + 1, dtype=np.int32 if total < 2**31 else np.int64
        )
        np.cumsum(~self.correct, out=prefix[1:])
        return prefix

    @functools.cached_property
    def record_bad(self) -> np.ndarray:
        """Incorrect symbols per record."""
        return self.lengths - self.record_sums(self.correct)

    def record_sums(self, mask: np.ndarray) -> np.ndarray:
        """Per-record count of set symbols in a payload-aligned mask."""
        sums = np.zeros(self.lengths.size, dtype=np.int64)
        filled = self.lengths > 0
        if filled.any():
            # counts stay below a record's length: int32 is exact
            sums[filled] = np.add.reduceat(
                mask.view(np.uint8), self.starts[filled], dtype=np.int32
            )
        return sums

    def bad_between(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Incorrect symbols in each range ``[lo, hi)`` of the view."""
        prefix = self.bad_prefix
        return (prefix[hi] - prefix[lo]).astype(np.int64)

    def segment_bad(
        self, rows: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Incorrect symbols per segment, ``(len(rows), len(bounds) - 1)``.

        ``bounds`` are segment edges relative to each record's start.
        """
        base = self.starts[rows][:, None]
        return self.bad_between(base + bounds[:-1], base + bounds[1:])


def _scheme_outcomes(
    scheme: DeliveryScheme, view: _PayloadView
) -> np.ndarray:
    """Per-record ``(correct, incorrect, overhead bits, passed)`` columns.

    Dispatches in :func:`trace_deliver`'s order (a :class:`SicScheme`
    is a :class:`PprScheme`).
    """
    if isinstance(scheme, PprScheme):
        return _ppr_outcomes(scheme, view)
    if isinstance(scheme, FragmentedCrcScheme):
        return _fragmented_outcomes(scheme, view)
    if isinstance(scheme, PacketCrcScheme):
        return _packet_outcomes(view)
    if isinstance(scheme, SpracScheme):
        return _sprac_outcomes(scheme, view)
    raise TypeError(
        f"no trace evaluation defined for scheme {type(scheme).__name__}"
    )


def _threshold(hints: np.ndarray, eta: float) -> np.ndarray:
    """``hints <= eta`` compared as float64, as :func:`trace_deliver` does."""
    if hints.dtype == np.uint8:
        # the float64 verdicts of all 256 hint values are a run of
        # True followed by False; compare against the run's length
        return hints < int((np.arange(256, dtype=np.float64) <= eta).sum())
    return np.asarray(hints, dtype=np.float64) <= eta


def _ppr_outcomes(scheme: PprScheme, view: _PayloadView) -> np.ndarray:
    out = np.zeros((view.lengths.size, 4), dtype=np.int64)
    good = _threshold(view.hints, scheme.eta)
    delivered = view.record_sums(good)
    correct = view.record_sums(good & view.correct)
    out[:, 0] = correct * _BITS_PER_SYMBOL
    out[:, 1] = (delivered - correct) * _BITS_PER_SYMBOL
    for length, rows in view.groups:
        out[rows, 2] = 8 * scheme.wire_overhead_bytes(
            length // _SYMBOLS_PER_BYTE
        )
    out[:, 3] = view.record_bad == 0
    return out


def _packet_outcomes(view: _PayloadView) -> np.ndarray:
    out = np.zeros((view.lengths.size, 4), dtype=np.int64)
    passed = view.record_bad == 0
    out[:, 0] = np.where(passed, view.lengths * _BITS_PER_SYMBOL, 0)
    out[:, 2] = 32
    out[:, 3] = passed
    return out


def _fragmented_outcomes(
    scheme: FragmentedCrcScheme, view: _PayloadView
) -> np.ndarray:
    out = np.zeros((view.lengths.size, 4), dtype=np.int64)
    for length, rows in view.groups:
        n = min(scheme.n_fragments, length) if length else 1
        bounds = np.linspace(0, length, n + 1).astype(int)
        sizes = np.diff(bounds)
        bad = view.segment_bad(rows, bounds)
        # an empty fragment is neither delivered nor failing
        ok = (bad == 0) & (sizes > 0)
        failed = (bad > 0) & (sizes > 0)
        out[rows, 0] = (ok * sizes).sum(axis=1) * _BITS_PER_SYMBOL
        out[rows, 2] = 32 * n
        out[rows, 3] = ~failed.any(axis=1)
    return out


def _sprac_outcomes(
    scheme: SpracScheme, view: _PayloadView
) -> np.ndarray:
    k = scheme.n_segments
    r = scheme.n_repair
    out = np.zeros((view.lengths.size, 4), dtype=np.int64)
    for length, rows in view.groups:
        if length == 0:
            out[rows, 2] = 32 * (k + r)
            out[rows, 3] = 1
            continue
        bounds = np.linspace(0, length, k + 1).astype(int)
        data_ok = view.segment_bad(rows, bounds) == 0
        # repair j is the cyclic window of repair_sym symbols from
        # (k + j) * repair_sym; repair_sym <= length, so it wraps once
        repair_sym = -(-length // k)
        first = (k + np.arange(r)) * repair_sym % length
        end = np.minimum(first + repair_sym, length)
        wrapped = first + repair_sym - end
        base = view.starts[rows][:, None]
        repair_bad = view.bad_between(base + first, base + end)
        repair_bad += view.bad_between(base, base + wrapped)
        delivered = _recoverable(scheme.codec, data_ok, repair_bad == 0)
        sizes = np.diff(bounds)
        out[rows, 0] = (delivered * sizes).sum(axis=1) * _BITS_PER_SYMBOL
        out[rows, 2] = 32 * (k + r) + r * repair_sym * _BITS_PER_SYMBOL
        out[rows, 3] = delivered.all(axis=1)
    return out


def _recoverable(
    codec: SegmentedRlncCodec, data_ok: np.ndarray, repair_ok: np.ndarray
) -> np.ndarray:
    """Row-wise :meth:`SegmentedRlncCodec.recoverable_mask`, memoized.

    The mask depends only on the codec's parameters and the two
    outcome vectors, so the memo is keyed by their values.
    """
    params = (codec.field, codec.seed, codec.n_segments, codec.n_repair)
    delivered = np.empty_like(data_ok)
    for i, (data, repair) in enumerate(zip(data_ok, repair_ok, strict=True)):
        key = (*params, data.tobytes(), repair.tobytes())
        mask = _RECOVERY_MEMO.get(key)
        if mask is None:
            mask = codec.recoverable_mask(data, repair)
            if len(_RECOVERY_MEMO) >= _RECOVERY_MEMO_LIMIT:
                _RECOVERY_MEMO.clear()
            _RECOVERY_MEMO[key] = mask
        delivered[i] = mask
    return delivered


#: recovery masks by (field, seed, k, r, data_ok bytes, repair_ok bytes)
_RECOVERY_MEMO: dict[tuple, np.ndarray] = {}
#: entries kept before the memo starts over (each is ~k + r bytes)
_RECOVERY_MEMO_LIMIT = 1 << 16


def clear_recovery_memo() -> None:
    """Forget the memoized S-PRAC recovery masks.

    The experiment runner calls this as a run starts, so the
    eliminations a run performs do not depend on what the process
    evaluated before it.
    """
    _RECOVERY_MEMO.clear()

# -- SoftPHY hint statistics (paper §7.4) -----------------------------------


def hint_histograms(
    result: SimulationResult,
    max_hint: int = 32,
    postamble_enabled: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Hint histograms over payload codewords of acquired receptions.

    Returns ``(correct_hist, incorrect_hist)`` where index d counts
    payload codewords with Hamming hint d — the raw material of the
    paper's Figs. 3 and 15.
    """
    correct_hist = np.zeros(max_hint + 1, dtype=np.int64)
    incorrect_hist = np.zeros(max_hint + 1, dtype=np.int64)
    for rec in result.records:
        if not rec.acquired(postamble_enabled):
            continue
        hints = rec.payload_hints().astype(int).clip(0, max_hint)
        correct = rec.payload_correct()
        np.add.at(correct_hist, hints[correct], 1)
        np.add.at(incorrect_hist, hints[~correct], 1)
    return correct_hist, incorrect_hist


def miss_run_length_counts(
    result: SimulationResult,
    etas: tuple[int, ...] = (1, 2, 3, 4),
    postamble_enabled: bool = True,
) -> dict[int, Counter]:
    """Lengths of contiguous miss runs per threshold (paper Fig. 14).

    A *miss* is an incorrect codeword labelled good (hint <= η); runs
    are maximal stretches of consecutive misses within a reception.
    """
    out: dict[int, Counter] = {eta: Counter() for eta in etas}
    for rec in result.records:
        if not rec.acquired(postamble_enabled):
            continue
        hints = rec.payload_hints()
        correct = rec.payload_correct()
        for eta in etas:
            miss = (hints <= eta) & ~correct
            for length in _run_lengths(miss):
                out[eta][length] += 1
    return out


def _run_lengths(mask: np.ndarray) -> list[int]:
    """Lengths of maximal True runs in a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return []
    padded = np.concatenate([[False], mask, [False]])
    change = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = change[::2], change[1::2]
    return [int(e - s) for s, e in zip(starts, ends, strict=True)]


def false_alarm_rates(
    correct_hist: np.ndarray, etas: np.ndarray | None = None
) -> np.ndarray:
    """P(hint > η | correct) for each η — the Fig. 15 curve."""
    correct_hist = np.asarray(correct_hist, dtype=np.float64)
    total = correct_hist.sum()
    if total == 0:
        raise ValueError("no correct codewords observed")
    tail = total - np.cumsum(correct_hist)
    rates = tail / total
    if etas is None:
        return rates
    return rates[np.asarray(etas, dtype=int)]


def miss_rates(
    incorrect_hist: np.ndarray, etas: np.ndarray | None = None
) -> np.ndarray:
    """P(hint <= η | incorrect) for each η — the §7.4.1 miss rate."""
    incorrect_hist = np.asarray(incorrect_hist, dtype=np.float64)
    total = incorrect_hist.sum()
    if total == 0:
        raise ValueError("no incorrect codewords observed")
    rates = np.cumsum(incorrect_hist) / total
    if etas is None:
        return rates
    return rates[np.asarray(etas, dtype=int)]
