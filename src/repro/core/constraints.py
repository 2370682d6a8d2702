"""Ordering constraints on exchange actions (paper §2.4).

The paper writes a constraint as ``later → earlier`` ("with the earlier one at
the point of the arrow"), e.g. ``give_{b→c}(d) → give_{p→b}(d)``: the broker
can only forward a document after receiving it.  :class:`Constraint` captures
one such pair; :func:`possession_constraints` derives the physically necessary
ones ("a party cannot send a document that it does not have") from a set of
transfers; and :func:`check_sequence` validates a total order against a
constraint set.  Both are linear in the number of actions and constraints:
transfers are grouped by (item, recipient) and positions are looked up in one
map per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.actions import Action
from repro.core.items import Item
from repro.core.parties import Party
from repro.errors import ModelError


@dataclass(frozen=True, order=True)
class Constraint:
    """``later`` may only execute after ``earlier`` (paper's ``later → earlier``)."""

    later: Action
    earlier: Action

    def __post_init__(self) -> None:
        if self.later == self.earlier:
            raise ModelError("a constraint cannot order an action against itself")

    def satisfied_by(self, sequence: Sequence[Action]) -> bool:
        """Whether *sequence* (a total order) satisfies this constraint.

        A constraint is vacuously satisfied when ``later`` does not occur;
        if ``later`` occurs, ``earlier`` must occur before it.
        """
        return self.satisfied_at(first_positions(sequence))

    def satisfied_at(self, positions: Mapping[Action, int]) -> bool:
        """:meth:`satisfied_by`, given the sequence's :func:`first_positions`."""
        later_index = positions.get(self.later)
        if later_index is None:
            return True
        earlier_index = positions.get(self.earlier)
        return earlier_index is not None and earlier_index < later_index

    def __str__(self) -> str:
        return f"{self.later} -> {self.earlier}"


def first_positions(sequence: Sequence[Action]) -> dict[Action, int]:
    """Each action's index of first occurrence (what ``list.index`` finds)."""
    positions: dict[Action, int] = {}
    for index, action in enumerate(sequence):
        positions.setdefault(action, index)
    return positions


def possession_constraints(transfers: Iterable[Action]) -> set[Constraint]:
    """Derive "cannot send what you do not have" constraints (§2.4).

    For every pair of non-inverted transfers of the *same item* where one
    party receives the item and later sends it onward, the inbound transfer
    must precede the outbound one.  Money is excluded: parties may have their
    own funds (the paper's "poor broker" variant adds such a constraint
    explicitly rather than deriving it).
    """
    transfers = [t for t in transfers if t.is_transfer and not t.inverted]
    inbound_by_holder: dict[tuple[Item | None, Party], list[Action]] = {}
    for inbound in transfers:
        inbound_by_holder.setdefault((inbound.item, inbound.recipient), []).append(inbound)
    constraints: set[Constraint] = set()
    for outbound in transfers:
        if outbound.item is None or outbound.item.is_money:
            continue
        for inbound in inbound_by_holder.get((outbound.item, outbound.sender), ()):
            if inbound is not outbound:
                constraints.add(Constraint(later=outbound, earlier=inbound))
    return constraints


def check_sequence(
    sequence: Sequence[Action], constraints: Iterable[Constraint]
) -> list[Constraint]:
    """Return the constraints *violated* by a total order (empty = valid)."""
    positions = first_positions(sequence)
    return [c for c in constraints if not c.satisfied_at(positions)]


def topological_respects(
    sequence: Sequence[Action], constraints: Iterable[Constraint]
) -> bool:
    """Convenience predicate: True iff no constraint is violated."""
    return not check_sequence(sequence, constraints)
