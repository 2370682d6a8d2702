"""Unit tests for the §4.2 rules, reduction runs and traces.

The step-level API (single rule applications, a custom chooser, scripted
replay) is the reference engine's; whole runs go through ``reduce_graph``.
"""

import random

import pytest

from repro.core.parties import trusted
from repro.core.reduction import Rule, reduce_graph
from repro.core.reduction_reference import ReferenceReductionEngine, replay_reference
from repro.errors import ReductionError
from repro.workloads import example1


def _edge(sg, principal, trusted_name, conj_agent):
    commitment = sg.commitment_for(sg.interaction.find_edge(principal, trusted_name))
    conjunction = next(j for j in sg.conjunctions if j.agent.name == conj_agent)
    return sg.find_edge(commitment, conjunction)


class TestRule1:
    def test_fringe_commitment_removable(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        edge = _edge(sg, "Producer", "Trusted2", "Trusted2")
        ok, persona = engine.rule1_applicable(edge)
        assert ok and not persona

    def test_non_fringe_commitment_blocked(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        # Broker--Trusted1 commitment touches both ∧T1 and ∧B: not fringe.
        edge = _edge(sg, "Broker", "Trusted1", "Trusted1")
        ok, _ = engine.rule1_applicable(edge)
        assert not ok

    def test_red_pre_emption_blocks_black_sibling(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        # Make Broker--Trusted2 fringe by clearing its ∧T2 side first.
        engine.apply(Rule.COMMITMENT_FRINGE, _edge(sg, "Producer", "Trusted2", "Trusted2"))
        engine.apply(Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker", "Trusted2", "Trusted2"))
        blocked = _edge(sg, "Broker", "Trusted2", "Broker")
        ok, _ = engine.rule1_applicable(blocked)
        assert not ok
        assert engine.blocking_red_edges(blocked) == (_edge(sg, "Broker", "Trusted1", "Broker"),)

    def test_red_edge_does_not_preempt_itself(self, ex1):
        # §4.2.2: "the red edge may be removed by Rule #1" when it is the
        # only red edge at the conjunction.
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        engine.apply(Rule.COMMITMENT_FRINGE, _edge(sg, "Consumer", "Trusted1", "Trusted1"))
        engine.apply(Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker", "Trusted1", "Trusted1"))
        red = _edge(sg, "Broker", "Trusted1", "Broker")
        ok, persona = engine.rule1_applicable(red)
        assert ok and not persona

    def test_illegal_application_raises(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        with pytest.raises(ReductionError, match="not a fringe"):
            engine.apply(Rule.COMMITMENT_FRINGE, _edge(sg, "Broker", "Trusted1", "Broker"))

    def test_persona_waives_preemption(self, ex2_variant1):
        sg = ex2_variant1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        engine.apply(Rule.COMMITMENT_FRINGE, _edge(sg, "Source1", "Trusted2", "Trusted2"))
        engine.apply(Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker1", "Trusted2", "Trusted2"))
        persona_edge = _edge(sg, "Broker1", "Trusted2", "Broker1")
        ok, via_persona = engine.rule1_applicable(persona_edge)
        assert ok and via_persona
        step = engine.apply(Rule.COMMITMENT_FRINGE, persona_edge)
        assert step.via_persona


class TestRule2:
    def test_fringe_conjunction_removable(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        engine.apply(Rule.COMMITMENT_FRINGE, _edge(sg, "Producer", "Trusted2", "Trusted2"))
        edge = _edge(sg, "Broker", "Trusted2", "Trusted2")
        assert engine.rule2_applicable(edge)

    def test_non_fringe_conjunction_blocked(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        edge = _edge(sg, "Broker", "Trusted2", "Trusted2")
        assert not engine.rule2_applicable(edge)
        with pytest.raises(ReductionError, match="Rule #2"):
            engine.apply(Rule.CONJUNCTION_FRINGE, edge)

    def test_removing_removed_edge_raises(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        edge = _edge(sg, "Producer", "Trusted2", "Trusted2")
        engine.apply(Rule.COMMITMENT_FRINGE, edge)
        with pytest.raises(ReductionError, match="already removed"):
            engine.apply(Rule.COMMITMENT_FRINGE, edge)


class TestEngineRuns:
    def test_example1_feasible_all_strategies(self):
        for strategy in ("fifo", "lifo", "random"):
            trace = reduce_graph(example1().sequencing_graph(), strategy=strategy)
            assert trace.feasible, strategy
            assert len(trace.steps) == 6

    def test_example2_impasse(self, ex2):
        trace = reduce_graph(ex2.sequencing_graph())
        assert not trace.feasible
        assert len(trace.steps) == 4  # paper: exactly four edges removable
        assert len(trace.remaining) == 10

    def test_example2_blockage_diagnosis(self, ex2):
        trace = reduce_graph(ex2.sequencing_graph())
        blocked_commitments = {b.edge.commitment.label for b in trace.blockages}
        assert blocked_commitments == {"Trusted2->Broker1", "Trusted4->Broker2"}
        for blockage in trace.blockages:
            assert all(edge.is_red for edge in blockage.blocking_red)

    def test_poor_broker_infeasible(self, poor):
        trace = reduce_graph(poor.sequencing_graph())
        assert not trace.feasible
        # Both red edges at ∧B survive: neither "must be first" can win.
        red_remaining = [e for e in trace.remaining if e.is_red]
        assert len(red_remaining) == 2

    def test_commitment_order_recorded(self, ex1):
        trace = reduce_graph(ex1.sequencing_graph())
        assert len(trace.commitment_order) == 4
        assert len(trace.conjunction_order) == 3

    def test_random_strategy_reproducible(self, ex1):
        t1 = reduce_graph(ex1.sequencing_graph(), strategy="random", rng=random.Random(7))
        t2 = reduce_graph(ex1.sequencing_graph(), strategy="random", rng=random.Random(7))
        assert [s.edge for s in t1.steps] == [s.edge for s in t2.steps]

    def test_unknown_strategy_raises(self, ex1):
        with pytest.raises(ReductionError, match="strategy"):
            reduce_graph(ex1.sequencing_graph(), strategy="bogus")

    def test_custom_chooser(self, ex1):
        trace = ReferenceReductionEngine(ex1.sequencing_graph()).run(chooser=lambda opts: opts[0])
        assert trace.feasible

    def test_bad_chooser_rejected(self, ex1):
        sg = ex1.sequencing_graph()
        bad = (Rule.COMMITMENT_FRINGE, _edge(sg, "Broker", "Trusted1", "Broker"), False)
        with pytest.raises(ReductionError, match="chooser"):
            ReferenceReductionEngine(sg).run(chooser=lambda opts: bad)

    def test_step_for_edge(self, ex1):
        sg = ex1.sequencing_graph()
        trace = reduce_graph(sg)
        first = trace.steps[0]
        assert trace.step_for_edge(first.edge) == first

    def test_step_for_unremoved_edge_raises(self, ex2):
        sg = ex2.sequencing_graph()
        trace = reduce_graph(sg)
        leftover = next(iter(trace.remaining))
        with pytest.raises(ReductionError):
            trace.step_for_edge(leftover)

    def test_trace_str_mentions_feasibility(self, ex1, ex2):
        assert "feasible" in str(reduce_graph(ex1.sequencing_graph()))
        assert "INFEASIBLE" in str(reduce_graph(ex2.sequencing_graph()))

    def test_apply_edge_picks_a_rule(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        step = engine.apply_edge(_edge(sg, "Producer", "Trusted2", "Trusted2"))
        assert step.rule is Rule.COMMITMENT_FRINGE

    def test_apply_edge_rejects_blocked(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        with pytest.raises(ReductionError, match="no reduction rule"):
            engine.apply_edge(_edge(sg, "Broker", "Trusted1", "Broker"))


class TestReplay:
    def test_replay_paper_order_example1(self, ex1):
        sg = ex1.sequencing_graph()
        script = [
            (Rule.COMMITMENT_FRINGE, _edge(sg, "Producer", "Trusted2", "Trusted2")),
            (Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker", "Trusted2", "Trusted2")),
            (Rule.COMMITMENT_FRINGE, _edge(sg, "Consumer", "Trusted1", "Trusted1")),
            (Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker", "Trusted1", "Trusted1")),
            (Rule.COMMITMENT_FRINGE, _edge(sg, "Broker", "Trusted1", "Broker")),
            (Rule.COMMITMENT_FRINGE, _edge(sg, "Broker", "Trusted2", "Broker")),
        ]
        trace = replay_reference(sg, script)
        assert trace.feasible

    def test_partial_replay_leaves_remainder(self, ex1):
        sg = ex1.sequencing_graph()
        script = [(Rule.COMMITMENT_FRINGE, _edge(sg, "Producer", "Trusted2", "Trusted2"))]
        trace = replay_reference(sg, script)
        assert not trace.feasible
        assert len(trace.remaining) == 5

    def test_replay_illegal_step_raises(self, ex1):
        sg = ex1.sequencing_graph()
        with pytest.raises(ReductionError):
            replay_reference(sg, [(Rule.COMMITMENT_FRINGE, _edge(sg, "Broker", "Trusted2", "Broker"))])


class TestDisconnectionEvents:
    def test_disconnections_marked_on_steps(self, ex1):
        sg = ex1.sequencing_graph()
        engine = ReferenceReductionEngine(sg)
        step1 = engine.apply(
            Rule.COMMITMENT_FRINGE, _edge(sg, "Producer", "Trusted2", "Trusted2")
        )
        assert step1.commitment_disconnected is not None
        assert step1.commitment_disconnected.label == "Trusted2->Producer"
        assert step1.conjunction_disconnected is None
        step2 = engine.apply(
            Rule.CONJUNCTION_FRINGE, _edge(sg, "Broker", "Trusted2", "Trusted2")
        )
        assert step2.conjunction_disconnected is not None
        assert step2.conjunction_disconnected.agent == trusted("Trusted2")
