"""Unit tests for repro.core.execution (§5 execution-sequence recovery)."""

import pytest

from repro.core.execution import StepKind, execution_order, recover_execution
from repro.core.reduction import Rule, reduce_graph
from repro.core.reduction_reference import replay_reference
from repro.core.sequencing import SequencingGraph
from repro.errors import InfeasibleExchangeError, ModelError
from repro.workloads import example1, example2, resale_chain, simple_purchase

PAPER_LISTING = [
    "1. Producer sends document to Trusted2.",
    "2. Trusted2 notifies Broker.",
    "3. Consumer sends money to Trusted1.",
    "4. Trusted1 notifies Broker.",
    "5. Broker sends money to Trusted2.",
    "6. Trusted2 sends document to Broker.",
    "7. Trusted2 sends money to Producer.",
    "8. Broker sends document to Trusted1.",
    "9. Trusted1 sends document to Consumer.",
    "10. Trusted1 sends money to Broker.",
]


def _paper_script(sg):
    def edge(principal, trusted_name, conj_agent):
        commitment = sg.commitment_for(sg.interaction.find_edge(principal, trusted_name))
        conjunction = next(j for j in sg.conjunctions if j.agent.name == conj_agent)
        return sg.find_edge(commitment, conjunction)

    return [
        (Rule.COMMITMENT_FRINGE, edge("Producer", "Trusted2", "Trusted2")),
        (Rule.CONJUNCTION_FRINGE, edge("Broker", "Trusted2", "Trusted2")),
        (Rule.COMMITMENT_FRINGE, edge("Consumer", "Trusted1", "Trusted1")),
        (Rule.CONJUNCTION_FRINGE, edge("Broker", "Trusted1", "Trusted1")),
        (Rule.COMMITMENT_FRINGE, edge("Broker", "Trusted1", "Broker")),
        (Rule.COMMITMENT_FRINGE, edge("Broker", "Trusted2", "Broker")),
    ]


class TestPaperListing:
    """The §5 ten-step listing, reproduced verbatim."""

    def test_exact_ten_steps(self):
        problem = example1()
        sg = problem.sequencing_graph()
        trace = replay_reference(sg, _paper_script(sg))
        sequence = recover_execution(trace)
        assert sequence.describe() == PAPER_LISTING

    def test_red_commitment_executes_last(self):
        problem = example1()
        sg = problem.sequencing_graph()
        trace = replay_reference(sg, _paper_script(sg))
        order = execution_order(trace)
        # Trusted1->Broker committed third but executes last (red deferral).
        assert trace.commitment_order[2].label == "Trusted1->Broker"
        assert order[-1].label == "Trusted1->Broker"

    def test_notifies_target_the_broker(self):
        problem = example1()
        sg = problem.sequencing_graph()
        sequence = recover_execution(replay_reference(sg, _paper_script(sg)))
        notifies = [s for s in sequence.steps if s.kind is StepKind.NOTIFY]
        assert len(notifies) == 2
        assert all(s.action.recipient.name == "Broker" for s in notifies)


class TestAnyGreedyOrder:
    """Any greedy reduction must yield a valid (maybe different) sequence."""

    @pytest.mark.parametrize("strategy", ["fifo", "lifo", "random"])
    def test_sequence_has_ten_steps(self, strategy):
        trace = reduce_graph(example1().sequencing_graph(), strategy=strategy)
        sequence = recover_execution(trace)
        assert len(sequence) == 10

    @pytest.mark.parametrize("strategy", ["fifo", "lifo", "random"])
    def test_no_possession_violation(self, strategy):
        trace = reduce_graph(example1().sequencing_graph(), strategy=strategy)
        sequence = recover_execution(trace)
        assert sequence.violated_constraints() == []

    def test_deposits_notifies_releases_partition(self):
        sequence = example1().execution_sequence()
        kinds = [s.kind for s in sequence.steps]
        assert kinds.count(StepKind.DEPOSIT) == 4
        assert kinds.count(StepKind.NOTIFY) == 2
        assert kinds.count(StepKind.RELEASE) == 4

    def test_releases_goods_before_payments_per_agent(self):
        sequence = example1().execution_sequence()
        by_agent: dict[str, list] = {}
        for step in sequence.steps:
            if step.kind is StepKind.RELEASE:
                by_agent.setdefault(step.action.sender.name, []).append(step.action)
        for agent, actions in by_agent.items():
            kinds = [a.item.is_money for a in actions]
            assert kinds == sorted(kinds), f"{agent} paid before releasing goods"


class TestSimplePurchase:
    def test_four_steps_one_notify(self):
        sequence = simple_purchase().execution_sequence()
        kinds = [s.kind for s in sequence.steps]
        assert kinds.count(StepKind.DEPOSIT) == 2
        assert kinds.count(StepKind.NOTIFY) == 1
        assert kinds.count(StepKind.RELEASE) == 2


class TestChains:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_chain_sequences_are_constraint_free(self, n):
        sequence = resale_chain(n_brokers=n, retail=100.0).execution_sequence()
        assert sequence.violated_constraints() == []

    def test_chain_step_count_scales(self):
        # Each hop contributes 2 deposits + 2 releases; each trusted agent
        # one notify (both parties never arrive simultaneously in a chain).
        for n in (1, 3):
            sequence = resale_chain(n_brokers=n, retail=100.0).execution_sequence()
            hops = n + 1
            assert len(sequence) == 5 * hops


class TestErrors:
    def test_infeasible_trace_rejected(self):
        trace = reduce_graph(example2().sequencing_graph())
        with pytest.raises(InfeasibleExchangeError):
            recover_execution(trace)

    def test_graph_without_interaction_rejected(self):
        sg = example1().sequencing_graph()
        bare = SequencingGraph(sg.commitments, sg.conjunctions, sg.edges, sg.personas)
        trace = reduce_graph(bare)
        assert trace.feasible
        with pytest.raises(ModelError, match="interaction"):
            recover_execution(trace)


class TestSequenceHelpers:
    def test_actions_and_transfers(self):
        sequence = example1().execution_sequence()
        assert len(sequence.actions) == 10
        assert len(sequence.transfers) == 8  # 10 minus 2 notifies

    def test_str_is_numbered_listing(self):
        text = str(example1().execution_sequence())
        assert text.splitlines()[0].startswith("1. ")
