"""Sequencing graphs (paper §4.1).

A sequencing graph ``SG = (C, J, R, B)`` of an interaction graph
``I = (P, T, E)`` has:

* **C** — commitment nodes, one per interaction edge: a decision to commit to
  that pairwise exchange;
* **J** — conjunction nodes, one per *internal* node of *I* (degree > 1):
  "one commitment will be done only if they all are";
* **R** — red edges: the commitment must *precede* every other commitment of
  its conjunction (the broker's secure-the-buyer-first constraint);
* **B** — black edges: conjoined but unordered.

The graph is bipartite between commitments and conjunctions.  Construction
from an interaction graph is mechanical (:meth:`SequencingGraph.from_interaction`):
red edges come from the interaction graph's priority markings, and each
commitment records whether its trusted-agent role is *played by its own
principal* (a persona, §4.2.3), which enables clause 2 of Reduction Rule #1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.core.interaction import InteractionEdge, InteractionGraph
from repro.core.parties import Party
from repro.core.trust import TrustRelation
from repro.errors import GraphError


@dataclass(frozen=True, order=True)
class CommitmentNode:
    """A commitment node: one per interaction-graph edge (§4.1).

    The paper labels these with the two agents of the commitment, e.g.
    "Trusted2 → Producer"; :attr:`label` reproduces that.
    """

    edge: InteractionEdge

    def __hash__(self) -> int:
        # Commitment nodes key the reduction engine's adjacency indices;
        # cache the (deep, interaction-edge-recursive) hash.  Stripped on
        # pickle: str hashes are salted per process.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.edge,))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def principal(self) -> Party:
        """The principal side of the commitment."""
        return self.edge.principal

    @property
    def trusted(self) -> Party:
        """The trusted-agent side of the commitment."""
        return self.edge.trusted

    @property
    def label(self) -> str:
        return f"{self.trusted.name}->{self.principal.name}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


@dataclass(frozen=True, order=True)
class ConjunctionNode:
    """A conjunction node ``∧agent``: one per internal interaction node (§4.1)."""

    agent: Party

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.agent,))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def label(self) -> str:
        return f"AND({self.agent.name})"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class EdgeColor(enum.Enum):
    """Red edges impose precedence; black edges only conjoin (§4.1)."""

    RED = "red"
    BLACK = "black"


@dataclass(frozen=True, order=True)
class SGEdge:
    """An edge ``(c, j)`` of the sequencing graph with its color."""

    commitment: CommitmentNode
    conjunction: ConjunctionNode
    color: EdgeColor

    def __hash__(self) -> int:
        # SGEdge is the single hottest hash in the repo (every remaining-set
        # membership test); without the cache each hash recurses through the
        # commitment, interaction edge, parties, and items.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.commitment, self.conjunction, self.color))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def is_red(self) -> bool:
        return self.color is EdgeColor.RED

    def __str__(self) -> str:
        return f"{self.commitment.label} ={self.color.value}= {self.conjunction.label}"


class SequencingGraph:
    """The 4-tuple ``(C, J, R, B)`` plus persona annotations.

    Instances are immutable once built; the reduction engine
    (:mod:`repro.core.reduction`) operates on mutable *views* of the edge
    set, never on the graph itself, so one graph can be reduced many times
    (e.g. for the confluence property tests).
    """

    def __init__(
        self,
        commitments: Iterable[CommitmentNode],
        conjunctions: Iterable[ConjunctionNode],
        edges: Iterable[SGEdge],
        personas: Iterable[CommitmentNode] = (),
        interaction: InteractionGraph | None = None,
    ) -> None:
        self._commitments: tuple[CommitmentNode, ...] = tuple(commitments)
        self._conjunctions: tuple[ConjunctionNode, ...] = tuple(conjunctions)
        self._edges: tuple[SGEdge, ...] = tuple(edges)
        self._personas: frozenset[CommitmentNode] = frozenset(personas)
        self._interaction = interaction
        self._index()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_interaction(
        cls,
        interaction: InteractionGraph,
        trust: TrustRelation | None = None,
    ) -> "SequencingGraph":
        """Mechanically build the sequencing graph of *interaction* (§4.1).

        *trust* supplies direct principal-to-principal trust; a commitment
        ``(p, t)`` is marked a *persona* when every other principal at *t*
        directly trusts *p* (then *p* plays the role of *t*, §4.2.3).
        """
        trust = trust if trust is not None else TrustRelation()
        commitments = {edge: CommitmentNode(edge) for edge in interaction.edges}
        conjunctions = {
            party: ConjunctionNode(party) for party in interaction.internal_nodes()
        }
        edges: list[SGEdge] = []
        for edge, commitment in commitments.items():
            for endpoint in (edge.principal, edge.trusted):
                conjunction = conjunctions.get(endpoint)
                if conjunction is None:
                    continue
                color = (
                    EdgeColor.RED
                    if endpoint == edge.principal and interaction.is_priority(edge)
                    else EdgeColor.BLACK
                )
                edges.append(SGEdge(commitment, conjunction, color))

        personas: list[CommitmentNode] = []
        for edge, commitment in commitments.items():
            others = [other.principal for other in interaction.counterparts(edge)]
            if others and all(trust.trusts(q, edge.principal) for q in others):
                personas.append(commitment)

        return cls(
            commitments.values(),
            conjunctions.values(),
            edges,
            personas,
            interaction,
        )

    def _index(self) -> None:
        """Validate the node and edge sets while building the query indices.

        Each node's incident edges keep the order of ``edges``, so the
        indexed queries return exactly what filtering ``edges`` would.
        """
        self._commitment_of = {c.edge: c for c in self._commitments}
        self._conjunction_of = {j.agent: j for j in self._conjunctions}
        if len(self._commitment_of) != len(self._commitments):
            raise GraphError("duplicate commitment nodes")
        if len(self._conjunction_of) != len(self._conjunctions):
            raise GraphError("duplicate conjunction nodes")
        self._by_commitment: dict[CommitmentNode, list[SGEdge]] = {
            c: [] for c in self._commitments
        }
        self._by_conjunction: dict[ConjunctionNode, list[SGEdge]] = {
            j: [] for j in self._conjunctions
        }
        self._by_pair: dict[tuple[CommitmentNode, ConjunctionNode], SGEdge] = {}
        for edge in self._edges:
            at_commitment = self._by_commitment.get(edge.commitment)
            if at_commitment is None:
                raise GraphError(f"edge references unknown commitment {edge.commitment.label!r}")
            at_conjunction = self._by_conjunction.get(edge.conjunction)
            if at_conjunction is None:
                raise GraphError(f"edge references unknown conjunction {edge.conjunction.label!r}")
            key = (edge.commitment, edge.conjunction)
            if key in self._by_pair:
                raise GraphError(
                    f"parallel sequencing edges between {edge.commitment.label!r} "
                    f"and {edge.conjunction.label!r}"
                )
            self._by_pair[key] = edge
            at_commitment.append(edge)
            at_conjunction.append(edge)
        # Sorted so the reported persona does not depend on set iteration
        # order (PYTHONHASHSEED) when several annotations are invalid.
        for persona in sorted(self._personas, key=lambda node: node.label):
            if persona not in self._by_commitment:
                raise GraphError(f"persona annotation on unknown commitment {persona.label!r}")

    # ----------------------------------------------------------------- queries

    @property
    def commitments(self) -> tuple[CommitmentNode, ...]:
        """C — all commitment nodes, in interaction-edge order."""
        return self._commitments

    @property
    def conjunctions(self) -> tuple[ConjunctionNode, ...]:
        """J — all conjunction nodes."""
        return self._conjunctions

    @property
    def edges(self) -> tuple[SGEdge, ...]:
        """R ∪ B — all edges."""
        return self._edges

    @property
    def red_edges(self) -> tuple[SGEdge, ...]:
        """R — the priority edges."""
        return tuple(e for e in self._edges if e.is_red)

    @property
    def black_edges(self) -> tuple[SGEdge, ...]:
        """B — the unordered conjunction edges."""
        return tuple(e for e in self._edges if not e.is_red)

    @property
    def personas(self) -> frozenset[CommitmentNode]:
        """Commitments whose trusted-agent role is played by their principal."""
        return self._personas

    @property
    def interaction(self) -> InteractionGraph | None:
        """The interaction graph this sequencing graph was derived from."""
        return self._interaction

    def commitment_for(self, edge: InteractionEdge) -> CommitmentNode:
        """The commitment node of an interaction edge."""
        commitment = self._commitment_of.get(edge)
        if commitment is None:
            raise GraphError(f"no commitment for interaction edge {edge.label!r}")
        return commitment

    def conjunction_for(self, agent: Party) -> ConjunctionNode:
        """The conjunction node ``∧agent`` (raises if *agent* is not internal)."""
        conjunction = self._conjunction_of.get(agent)
        if conjunction is None:
            raise GraphError(f"no conjunction node for {agent.name!r}")
        return conjunction

    def edges_of_commitment(self, commitment: CommitmentNode) -> tuple[SGEdge, ...]:
        """All edges incident to a commitment node, in edge order."""
        return tuple(self._by_commitment.get(commitment, ()))

    def edges_of_conjunction(self, conjunction: ConjunctionNode) -> tuple[SGEdge, ...]:
        """All edges incident to a conjunction node, in edge order."""
        return tuple(self._by_conjunction.get(conjunction, ()))

    def find_edge(self, commitment: CommitmentNode, conjunction: ConjunctionNode) -> SGEdge:
        """The unique edge between *commitment* and *conjunction*."""
        edge = self._by_pair.get((commitment, conjunction))
        if edge is None:
            raise GraphError(
                f"no sequencing edge between {commitment.label!r} and {conjunction.label!r}"
            )
        return edge

    def with_edges_removed(self, removed: Iterable[SGEdge]) -> "SequencingGraph":
        """A new graph lacking *removed* edges (used for indemnity splits)."""
        removed_set = set(removed)
        unknown = removed_set - set(self._edges)
        if unknown:
            raise GraphError(f"cannot remove unknown edges: {sorted(str(e) for e in unknown)}")
        return SequencingGraph(
            self._commitments,
            self._conjunctions,
            (e for e in self._edges if e not in removed_set),
            self._personas,
            self._interaction,
        )

    def with_personas(self, extra: Iterable[CommitmentNode]) -> "SequencingGraph":
        """A new graph with additional persona annotations."""
        return SequencingGraph(
            self._commitments,
            self._conjunctions,
            self._edges,
            self._personas | set(extra),
            self._interaction,
        )

    def __str__(self) -> str:
        lines = [
            f"SequencingGraph(|C|={len(self._commitments)}, |J|={len(self._conjunctions)}, "
            f"|R|={len(self.red_edges)}, |B|={len(self.black_edges)})"
        ]
        lines.extend(f"  {edge}" for edge in self._edges)
        return "\n".join(lines)
