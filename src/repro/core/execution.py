"""Execution-sequence recovery (paper §5).

When a sequencing graph is feasible, the order in which commitment nodes
became disconnected during reduction is the order in which commit points are
reached.  The execution order equals the commit order with one exception:
commitments attached to their conjunction by a **red** edge are committed
first but *executed last* — "a broker should have a buyer committed before he
obtains goods, but must obtain the goods before he is able to give them to
the customer".

Each commitment execution is the principal's inbound transfer to the trusted
component.  A trusted component that now holds all but one of its exchange's
pieces issues a ``notify`` to the remaining principal; one that holds all the
pieces *releases*: it forwards each deposit to its destination, goods before
payments (this expansion reproduces the ten-step listing of §5 exactly).

Indemnity deposits/refunds (§6) are spliced in by
:func:`repro.core.indemnity.apply_plan`, not here.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable

from repro.core.actions import Action, notify, transfer
from repro.core.constraints import Constraint, check_sequence, possession_constraints
from repro.core.interaction import InteractionGraph
from repro.core.items import Item
from repro.core.parties import Party
from repro.core.reduction import ReductionTrace
from repro.core.sequencing import CommitmentNode
from repro.errors import InfeasibleExchangeError, ModelError


class StepKind(enum.Enum):
    """What an execution step does."""

    DEPOSIT = "deposit"  # principal -> trusted inbound transfer (a commitment)
    NOTIFY = "notify"  # trusted component informs the last outstanding principal
    RELEASE = "release"  # trusted -> principal outbound transfer
    INDEMNITY_DEPOSIT = "indemnity-deposit"  # §6 escrow, spliced in by indemnity module
    INDEMNITY_REFUND = "indemnity-refund"


@dataclass(frozen=True)
class ExecutionStep:
    """One totally ordered step of the distributed transaction."""

    index: int
    kind: StepKind
    action: Action
    commitment: CommitmentNode | None = None

    def describe(self) -> str:
        """Paper-style prose, e.g. ``'Producer sends document to Trusted2.'``"""
        action = self.action
        if self.kind is StepKind.NOTIFY:
            return f"{action.sender.name} notifies {action.recipient.name}."
        assert action.item is not None
        noun = "money" if action.item.is_money else "document"
        if self.kind is StepKind.INDEMNITY_DEPOSIT:
            return f"{action.sender.name} deposits indemnity with {action.recipient.name}."
        if self.kind is StepKind.INDEMNITY_REFUND:
            return f"{action.sender.name} refunds indemnity to {action.recipient.name}."
        return f"{action.sender.name} sends {noun} to {action.recipient.name}."

    def __str__(self) -> str:
        return f"{self.index}. {self.describe()}"


@dataclass(frozen=True)
class ExecutionSequence:
    """A total order of pairwise transfers and notifications (§5)."""

    steps: tuple[ExecutionStep, ...]

    @property
    def actions(self) -> tuple[Action, ...]:
        """The bare action sequence."""
        return tuple(step.action for step in self.steps)

    @property
    def transfers(self) -> tuple[Action, ...]:
        """Only the give/pay actions, in order."""
        return tuple(a for a in self.actions if a.is_transfer)

    def describe(self) -> list[str]:
        """The numbered prose listing, matching the paper's §5 format."""
        return [str(step) for step in self.steps]

    def violated_constraints(self, extra: tuple[Constraint, ...] = ()) -> list[Constraint]:
        """Possession (§2.4) and extra constraints violated by this order.

        An empty list certifies the sequence is physically executable: no
        party ever sends a document it has not yet received.
        """
        constraints = possession_constraints(self.transfers) | set(extra)
        return check_sequence(self.actions, constraints)

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "\n".join(self.describe())


def _resequence(steps: list[ExecutionStep]) -> tuple[ExecutionStep, ...]:
    """Renumber steps 1..n preserving order."""
    return tuple(
        ExecutionStep(index=i + 1, kind=s.kind, action=s.action, commitment=s.commitment)
        for i, s in enumerate(steps)
    )


def execution_order(trace: ReductionTrace) -> tuple[CommitmentNode, ...]:
    """Commit order with red-edge commitments deferred to the end (§5).

    Relative order is preserved within the non-deferred and deferred groups.
    """
    red_commitments = {edge.commitment for edge in trace.graph.red_edges}
    immediate = [c for c in trace.commitment_order if c not in red_commitments]
    deferred = [c for c in trace.commitment_order if c in red_commitments]
    return tuple(immediate + deferred)


def recover_execution(
    trace: ReductionTrace, scheduler: str = "possession"
) -> ExecutionSequence:
    """Expand a feasible reduction trace into the §5 execution sequence.

    ``scheduler`` selects the ordering discipline:

    * ``"possession"`` (default) — the §5 recipe plus possession gating: a
      commitment only executes once its principal holds the item it must
      deposit.  Exact on the paper's examples and correct on multi-reseller
      chains.
    * ``"paper-strict"`` — the literal §5 recipe (commit order, red
      commitments deferred, no gating).  Kept for the ablation benchmark:
      on chains with ≥2 resellers it emits sequences that violate §2.4
      possession constraints, which is why the default gates.

    Raises :class:`InfeasibleExchangeError` on an infeasible trace, and
    :class:`ModelError` if the sequencing graph was built without an
    interaction graph (the transfers' items come from the interaction edges).
    """
    if scheduler not in ("possession", "paper-strict"):
        raise ModelError(f"unknown execution scheduler {scheduler!r}")
    if not trace.feasible:
        raise InfeasibleExchangeError(
            "cannot recover an execution sequence from an infeasible reduction; "
            + "; ".join(str(b) for b in trace.blockages)
        )
    interaction = trace.graph.interaction
    if interaction is None:
        raise ModelError(
            "sequencing graph has no interaction graph attached; build it via "
            "SequencingGraph.from_interaction to recover executions"
        )

    order = execution_order(trace)
    steps: list[ExecutionStep] = []
    executed: set[CommitmentNode] = set()
    commitments_at: dict[Party, list[CommitmentNode]] = {}
    for commitment in trace.graph.commitments:
        commitments_at.setdefault(commitment.trusted, []).append(commitment)

    # Possession-gated greedy scheduler.  The paper's rule (commit order with
    # red commitments deferred) is exact for a single red edge; with several
    # resellers the deferred group must additionally respect possession — a
    # broker cannot deposit a document it has not yet been handed (§2.4).
    # Scheduling the first *executable* commitment in the deferred-adjusted
    # commit order reproduces the §5 listing and generalizes to chains.
    gated = (
        _PossessionScheduler(
            order,
            _initial_possession(interaction),
            _bundle_gates(trace, commitments_at),
        )
        if scheduler == "possession"
        else None
    )
    for position in range(len(order)):
        commitment = gated.pop() if gated is not None else order[position]
        edge = commitment.edge
        deposit = transfer(edge.principal, edge.trusted, edge.provides)
        steps.append(ExecutionStep(0, StepKind.DEPOSIT, deposit, commitment))
        executed.add(commitment)
        siblings = commitments_at[edge.trusted]
        pending = [c for c in siblings if c not in executed]
        if len(pending) == 1:
            steps.append(
                ExecutionStep(
                    0,
                    StepKind.NOTIFY,
                    notify(edge.trusted, pending[0].principal),
                    commitment,
                )
            )
        elif not pending:
            releases = _release_steps(interaction, edge.trusted, siblings)
            if gated is not None:
                for release in releases:
                    gated.receive(release.action)
            steps.extend(releases)
    return ExecutionSequence(_resequence(steps))


def _initial_possession(interaction: InteractionGraph) -> dict[Party, set[Item]]:
    """Who starts out holding which goods.

    A principal initially owns a document it provides unless it also
    *expects* that same document from one of its other exchanges (then it is
    a reseller acquiring the good mid-transaction).  Money is not tracked:
    principals are assumed solvent — insolvency is modeled structurally with
    red edges (the §5 "poor broker"), not by the scheduler.
    """
    possession: dict[Party, set[Item]] = {p: set() for p in interaction.parties}
    for edge in interaction.edges:
        if not edge.provides.is_money and not interaction.resells(edge):
            possession[edge.principal].add(edge.provides)
    return possession


def _bundle_gates(
    trace: ReductionTrace,
    commitments_at: dict[Party, list[CommitmentNode]],
) -> dict[CommitmentNode, list[CommitmentNode]]:
    """Cross-exchange assurance gates for bundle (all-black) conjunctions.

    The §4.1 second-type conjunction ("a customer wants a set of documents,
    useful only if all are received") imposes no *commit* ordering, but the
    §2.3 guarantee requires that a bundle member's deposit not enable one
    exchange to complete while a sibling exchange can still silently fail.
    The gate: a bundle member executes only after, for every *sibling*
    exchange still conjoined (indemnity splits remove members, §6), the
    counterpart deposits at that sibling's trusted component have executed —
    precisely the state in which that component issues its notify (§2.5).

    Red conjunctions are untouched: their ordering is the red-deferral rule.
    """
    gates: dict[CommitmentNode, list[CommitmentNode]] = {}
    graph = trace.graph
    for conjunction in graph.conjunctions:
        if not conjunction.agent.is_principal:
            continue
        edges = graph.edges_of_conjunction(conjunction)
        if len(edges) < 2 or any(e.is_red for e in edges):
            continue
        members = [e.commitment for e in edges]
        for member in members:
            required: list[CommitmentNode] = []
            for sibling in members:
                if sibling == member:
                    continue
                required.extend(
                    c
                    for c in commitments_at[sibling.trusted]
                    if c != sibling
                )
            gates[member] = required
    return gates


class _PossessionScheduler:
    """Picks, step by step, the first commitment in *order* whose deposit its
    principal can make: it holds the good (money is not tracked) and every
    bundle gate has executed.

    A worklist instead of a rescan of *order* per step: positions still to
    be checked sit in a min-heap; a position found blocked waits on the one
    thing it lacks — the good reaching its principal, or one gate
    commitment executing — and returns to the heap when that happens.  So
    every position outside the heap is blocked, and the heap yields the
    first executable position, exactly as a scan from the front would.
    """

    def __init__(
        self,
        order: tuple[CommitmentNode, ...],
        possession: dict[Party, set[Item]],
        bundle_gates: dict[CommitmentNode, list[CommitmentNode]],
    ) -> None:
        self._order = order
        self._possession = possession
        self._gates = bundle_gates  # consumed: executed requirements are popped
        self._heap = list(range(len(order)))  # sorted, so already a heap
        self._executed: set[CommitmentNode] = set()
        self._awaiting_good: dict[tuple[Party, Item], list[int]] = {}
        self._awaiting_commitment: dict[CommitmentNode, list[int]] = {}

    def pop(self) -> CommitmentNode:
        """Schedule and return the first executable commitment."""
        while self._heap:
            position = heapq.heappop(self._heap)
            commitment = self._order[position]
            principal, item = commitment.principal, commitment.edge.provides
            if not item.is_money and item not in self._possession[principal]:
                self._awaiting_good.setdefault((principal, item), []).append(position)
                continue
            gate = self._gates.get(commitment, [])
            while gate and gate[-1] in self._executed:
                gate.pop()
            if gate:
                self._awaiting_commitment.setdefault(gate[-1], []).append(position)
                continue
            if not item.is_money:
                self._possession[principal].discard(item)
            self._executed.add(commitment)
            self._wake(self._awaiting_commitment.pop(commitment, ()))
            return commitment
        labels = [c.label for c in self._order if c not in self._executed]
        raise InfeasibleExchangeError(
            f"execution scheduler stalled: no pending commitment of {labels} can "
            "be funded and bundle-assured; the reduction order admits no "
            "§2.3-protective total order"
        )

    def receive(self, release: Action) -> None:
        """Record a good released to its recipient."""
        item = release.item
        assert item is not None
        if not item.is_money:
            self._possession[release.recipient].add(item)
            self._wake(self._awaiting_good.pop((release.recipient, item), ()))

    def _wake(self, positions: Iterable[int]) -> None:
        for position in positions:
            heapq.heappush(self._heap, position)


def _release_steps(
    interaction: InteractionGraph,
    trusted: Party,
    siblings: list[CommitmentNode],
) -> list[ExecutionStep]:
    """Outbound transfers when a trusted component holds every piece.

    Each principal receives what its counterpart(s) provided.  Goods are
    released before payments (matching steps 6–7 and 9–10 of the paper's §5
    listing); ties break on recipient name for determinism.
    """
    releases: list[ExecutionStep] = []
    for receiver in siblings:
        item = interaction.expects(receiver.edge)
        outbound = transfer(trusted, receiver.principal, item)
        releases.append(ExecutionStep(0, StepKind.RELEASE, outbound, receiver))
    releases.sort(
        key=lambda s: (
            s.action.item.is_money if s.action.item is not None else True,
            s.action.recipient.name,
        )
    )
    return releases
