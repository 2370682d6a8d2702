"""The compiled trace engine against the naive reference oracle.

:func:`~repro.core.reduction.reduce_graph` compiles the graph to integer
arrays and reduces with a heap worklist; the retained
:class:`~repro.core.reduction_reference.ReferenceReductionEngine` rescans the
whole graph on every step.  They must be *step-for-step* indistinguishable —
same verdict, same removal sequence, same blockage diagnosis, same
commitment/conjunction disconnection orders — across every strategy and with
the §4.2.3 persona clause both on and off.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduction import reduce_graph
from repro.core.reduction_reference import reference_reduce, replay_reference
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

STRATEGIES = ["fifo", "lifo", "random"]


def _trace_key(trace):
    """Everything observable about a reduction, flattened for comparison."""
    return (
        trace.feasible,
        [
            (
                step.index,
                step.rule,
                step.edge,
                step.via_persona,
                step.commitment_disconnected,
                step.conjunction_disconnected,
            )
            for step in trace.steps
        ],
        trace.remaining,
        trace.commitment_order,
        trace.conjunction_order,
        [(b.edge, b.blocking_red) for b in trace.blockages],
    )


def assert_equivalent(graph, *, strategy="fifo", rng_seed=0, persona=True):
    trace = reduce_graph(
        graph,
        strategy=strategy,
        rng=random.Random(rng_seed),
        enable_persona_clause=persona,
    )
    reference = reference_reduce(
        graph,
        strategy=strategy,
        rng=random.Random(rng_seed),
        enable_persona_clause=persona,
    )
    assert _trace_key(trace) == _trace_key(reference)


def _random_graph_with_trust(problem_seed, trust_seed, n_trust, priority, hubby):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=7,
        priority_probability=priority,
        allow_cycles=True,
        hub_probability=0.6 if hubby else 0.0,
    )
    problem = random_problem(config, seed=problem_seed)
    principals = list(problem.interaction.principals)
    rng = random.Random(trust_seed)
    for _ in range(n_trust):
        if len(principals) < 2:
            break
        truster, trustee = rng.sample(principals, 2)
        problem.trust.add(truster, trustee)
    return problem.sequencing_graph()


class TestWorkedExamples:
    """Every paper workload, every strategy, persona on and off."""

    def test_examples_agree(self):
        problems = [
            example1(),
            example2(),
            example2_broker_trusts_source(),
            example2_source_trusts_broker(),
            resale_chain(6),
            star(5),
            oversale(),
            broker_bundle(4, (10.0, 20.0, 30.0, 40.0)),
        ]
        for problem in problems:
            graph = problem.sequencing_graph()
            for strategy in STRATEGIES:
                for persona in (True, False):
                    assert_equivalent(
                        graph, strategy=strategy, rng_seed=17, persona=persona
                    )

    def test_persona_ablation_changes_verdict_identically(self):
        # §4.2.3: with direct trust the persona clause makes example 2
        # feasible; the ablation must flip both engines the same way.
        graph = example2_source_trusts_broker().sequencing_graph()
        with_persona = reduce_graph(graph, enable_persona_clause=True)
        without = reduce_graph(graph, enable_persona_clause=False)
        assert with_persona.feasible and not without.feasible
        assert _trace_key(without) == _trace_key(
            reference_reduce(graph, enable_persona_clause=False)
        )


class TestRandomTopologies:
    @settings(max_examples=60, deadline=None)
    @given(
        problem_seed=st.integers(0, 400),
        trust_seed=st.integers(0, 50),
        n_trust=st.integers(0, 6),
        priority=st.floats(0.0, 1.0),
        hubby=st.booleans(),
        strategy=st.sampled_from(STRATEGIES),
        order_seed=st.integers(0, 1000),
        persona=st.booleans(),
    )
    def test_engines_agree(
        self, problem_seed, trust_seed, n_trust, priority, hubby, strategy, order_seed, persona
    ):
        graph = _random_graph_with_trust(
            problem_seed, trust_seed, n_trust, priority, hubby
        )
        assert_equivalent(
            graph, strategy=strategy, rng_seed=order_seed, persona=persona
        )

    @settings(max_examples=20, deadline=None)
    @given(problem_seed=st.integers(0, 200), order_seed=st.integers(0, 1000))
    def test_replay_matches_reference_replay(self, problem_seed, order_seed):
        # Every step of a trace is legal for the oracle, and replaying the
        # whole script there reproduces the trace exactly.
        graph = _random_graph_with_trust(problem_seed, 0, 2, 0.5, True)
        trace = reduce_graph(graph, strategy="random", rng=random.Random(order_seed))
        script = [(step.rule, step.edge) for step in trace.steps]
        assert _trace_key(replay_reference(graph, script)) == _trace_key(trace)
