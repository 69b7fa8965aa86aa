"""Benchmark for the batched scheme evaluator.

``evaluate_schemes`` evaluates each acquired reception once per scheme
over ragged payload views; it must beat its per-record reference
``evaluate_schemes_reference`` by at least 5x on a quick-length run
while agreeing counter for counter (the equivalence suite proves the
latter on many more inputs; the spot check here keeps the bench
honest).
"""

from conftest import interleaved_min_times

from repro.experiments.common import paper_schemes
from repro.link.schemes import SpracScheme
from repro.sim.metrics import (
    clear_recovery_memo,
    evaluate_schemes,
    evaluate_schemes_reference,
)
from repro.sim.network import NetworkSimulation, SimulationConfig


def test_bench_evaluate_schemes(benchmark):
    """The paper's three schemes plus S-PRAC, both postamble modes,
    on a 15 s heavy-load run, gated >= 5x over the reference."""
    config = SimulationConfig(
        load_bits_per_s_per_node=6900.0,
        duration_s=15.0,
        carrier_sense=False,
        seed=2007,
    )
    result = NetworkSimulation(config).run()
    schemes = [*paper_schemes(), SpracScheme(n_segments=30, n_repair=15)]

    def batched():
        # every timed call pays for its own eliminations
        clear_recovery_memo()
        return evaluate_schemes(result, schemes)

    def reference():
        return evaluate_schemes_reference(result, schemes)

    evaluations = benchmark(batched)
    for fast, slow in zip(evaluations, reference(), strict=True):
        assert fast.stats.links() == slow.stats.links()
        for link in slow.stats.links():
            assert fast.stats[link] == slow.stats[link]
    if benchmark.enabled:
        fast_s, slow_s = interleaved_min_times(
            batched, reference, repeats=3
        )
        speedup = slow_s / fast_s
        assert speedup >= 5.0, (
            f"batched evaluate_schemes only {speedup:.1f}x faster than "
            f"the reference ({fast_s:.4f}s vs {slow_s:.4f}s)"
        )
