"""The compiled core against the naive reference oracle, on fixed inputs.

``reduce_graph`` compiles a sequencing graph into integer arrays, reduces in
a worklist loop, and decompiles back into a
:class:`~repro.core.reduction.ReductionTrace`; the free-order verdict loop
runs over the same arrays.  The contract is *identity*, not mere agreement:
over every corpus fixture, every paper workload, and 200 random topologies
(all small enough for the O(E³) oracle) — across all strategies and with the
§4.2.3 persona clause both on and off — the trace must be value-equal to
``reference_reduce()``'s, and the verdict loop must land on the reference
fifo trace's (feasible, steps, remaining, blockages) counts.  The batch
delegate ``check_feasibility_flat_batch`` must match one call per graph.
"""

import glob
import os
import random

import pytest

from repro.conformance.corpus import load_corpus_file
from repro.conformance.oracles import trace_key
from repro.core.flatcore import (
    check_feasibility_flat,
    check_feasibility_flat_batch,
    compile_graph,
)
from repro.core.reduction import reduce_graph
from repro.core.reduction_reference import reference_reduce
from repro.workloads import (
    RandomProblemConfig,
    broker_bundle,
    example1,
    example2,
    example2_broker_trusts_source,
    example2_source_trusts_broker,
    oversale,
    random_problem,
    resale_chain,
    star,
)

STRATEGIES = ("fifo", "lifo", "random")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

WORKLOADS = {
    "example1": example1,
    "example2": example2,
    "example2-broker-trusts-source": example2_broker_trusts_source,
    "example2-source-trusts-broker": example2_source_trusts_broker,
    "resale-chain-2": lambda: resale_chain(2),
    "resale-chain-6": lambda: resale_chain(6),
    "insolvent-chain-3": lambda: resale_chain(3, solvent=False),
    "star-3": lambda: star(3),
    "star-5": lambda: star(5),
    "oversale": oversale,
    "bundle-4": lambda: broker_bundle(4, (10.0, 20.0, 30.0, 40.0)),
}


def assert_matches_reference(graph, *, rng_seed=0):
    """Full equivalence: every strategy, persona on and off, plus verdicts."""
    for persona in (True, False):
        for strategy in STRATEGIES:
            reference = reference_reduce(
                graph,
                strategy=strategy,
                rng=random.Random(rng_seed),
                enable_persona_clause=persona,
            )
            trace = reduce_graph(
                graph,
                strategy=strategy,
                rng=random.Random(rng_seed),
                enable_persona_clause=persona,
            )
            assert trace_key(trace) == trace_key(reference), (
                f"strategy={strategy} persona={persona}"
            )
        # The free-order verdict loop reaches the same normal form.
        fifo = reference_reduce(graph, enable_persona_clause=persona)
        verdict = check_feasibility_flat(graph, enable_persona_clause=persona)
        assert (
            verdict.feasible,
            verdict.steps,
            verdict.remaining,
            verdict.blockages,
        ) == (
            fifo.feasible,
            len(fifo.steps),
            len(fifo.remaining),
            len(fifo.blockages),
        ), f"persona={persona}"
    return reduce_graph(graph).feasible


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_fixtures(path):
    problem = load_corpus_file(path).problem
    assert_matches_reference(problem.sequencing_graph())


@pytest.mark.parametrize("name", sorted(WORKLOADS), ids=sorted(WORKLOADS))
def test_paper_workloads(name):
    graph = WORKLOADS[name]().sequencing_graph()
    assert_matches_reference(graph, rng_seed=17)


def test_infeasible_workloads_include_blockages():
    # The blockage diagnosis must survive the decompiler, not just counts.
    for problem in (example2(), resale_chain(3, solvent=False)):
        graph = problem.sequencing_graph()
        trace = reduce_graph(graph)
        assert not trace.feasible
        assert trace.blockages == reference_reduce(graph).blockages
        assert trace.blockages


def _random_graph(seed):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=7,
        priority_probability=(0.0, 0.25, 0.5, 0.75, 1.0)[seed % 5],
        allow_cycles=True,
        hub_probability=0.6 if seed % 3 == 0 else 0.0,
    )
    problem = random_problem(config, seed=seed)
    rng = random.Random(seed * 31 + 7)
    principals = list(problem.interaction.principals)
    for _ in range(seed % 5):
        if len(principals) < 2:
            break
        truster, trustee = rng.sample(principals, 2)
        problem.trust.add(truster, trustee)
    return problem.sequencing_graph()


@pytest.mark.parametrize("block", range(8))
def test_random_topologies(block):
    # 200 graphs in 8 parametrized blocks of 25: trust edges, priorities,
    # hubs, cycles — every strategy, persona on and off.
    for seed in range(block * 25, (block + 1) * 25):
        assert_matches_reference(_random_graph(seed), rng_seed=seed)


def test_random_sweep_covers_both_verdicts():
    verdicts = {assert_matches_reference(_random_graph(s)) for s in range(40)}
    assert verdicts == {True, False}, (
        "the random sweep must exercise feasible AND infeasible graphs"
    )


class TestBatchArena:
    """``check_feasibility_flat_batch``: one verdict-loop call per graph, kept
    because the end-to-end benchmark wraps it by name."""

    def test_arena_matches_singles(self):
        graphs = [_random_graph(s) for s in range(30)]
        graphs += [w().sequencing_graph() for w in WORKLOADS.values()]
        for persona in (True, False):
            singles = [
                check_feasibility_flat(g, enable_persona_clause=persona)
                for g in graphs
            ]
            batched = check_feasibility_flat_batch(
                graphs, enable_persona_clause=persona
            )
            assert batched == singles

    def test_arena_accepts_precompiled_graphs(self):
        graphs = [_random_graph(s) for s in range(8)]
        compiled = [compile_graph(g) for g in graphs]
        assert check_feasibility_flat_batch(compiled) == check_feasibility_flat_batch(graphs)

    def test_empty_batch(self):
        assert check_feasibility_flat_batch([]) == []
