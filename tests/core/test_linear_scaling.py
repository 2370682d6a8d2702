"""Every stage after the feasibility verdict stays linear in edges.

Counts equality comparisons on the model's value objects while one resale
chain runs from construction to the safety report, at two sizes.  A stage
that filters every edge or every delivered action once per edge or party
makes the count grow with the square of the chain; indexed queries keep it
proportional.  The count is deterministic, so unlike a timing it cannot
flake on a busy host.
"""

from collections import Counter

import pytest

from repro.core.actions import Action
from repro.core.interaction import InteractionEdge
from repro.core.parties import Party
from repro.core.sequencing import CommitmentNode, SGEdge
from repro.sim.runtime import simulate
from repro.sim.safety import evaluate_safety
from repro.workloads import resale_chain

COUNTED = (InteractionEdge, SGEdge, CommitmentNode, Action, Party)


@pytest.fixture
def eq_calls(monkeypatch):
    counts: Counter[str] = Counter()
    for cls in COUNTED:
        original = cls.__eq__

        def counting_eq(self, other, _original=original, _name=cls.__name__):
            counts[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(cls, "__eq__", counting_eq)
    return counts


def _pipeline_comparisons(counts, n_brokers):
    counts.clear()
    problem = resale_chain(n_brokers, retail=2 * n_brokers + 10)
    assert problem.feasibility().feasible
    problem.execution_sequence()
    result = simulate(problem)
    assert evaluate_safety(problem, result).honest_parties_safe()
    return sum(counts.values())


def test_comparisons_grow_linearly_with_the_chain(eq_calls):
    small = _pipeline_comparisons(eq_calls, 64)
    large = _pipeline_comparisons(eq_calls, 256)
    # Four times the edges: a linear pipeline needs about four times the
    # comparisons, a quadratic one sixteen.
    assert large / small <= 5, (small, large)
