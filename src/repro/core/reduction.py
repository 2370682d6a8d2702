"""Sequencing-graph reduction (paper §4.2).

Two reduction rules remove edges from a sequencing graph:

* **Rule #1** (commitment fringe): an edge ``(c, j)`` may be removed when
  commitment *c* has no other remaining edge AND either (clause 1) no *other*
  red edge remains at *j*, or (clause 2) the trusted-agent role of *c* is
  played by *c*'s own principal (a persona, §4.2.3).  The candidate edge
  itself never pre-empts its own removal — this is required to reproduce the
  paper's Example #1, where the red edge at ∧B is removed by Rule #1 once it
  is the only red edge left there.
* **Rule #2** (conjunction fringe): an edge ``(c, j)`` may be removed when
  conjunction *j* has no other remaining edge.

Reductions "may be done in a greedy fashion — any applicable reduction may be
applied at any time, in any order" and the feasibility verdict is
order-independent (§4.2.4).  :func:`reduce_graph` supports three automatic
strategies over the applicable steps, listed in graph-edge order with Rule #1
before Rule #2 per edge: ``fifo`` (the first), ``lifo`` (the last) and
``random`` (a seeded draw).

A reduced graph is **feasible** iff no edges remain (§4.2.4).  When edges do
remain the trace carries a :class:`Blockage` diagnosis: which fringe
commitments are pre-empted by which red edges — the raw material for the
indemnity planner (§6).

Implementation: compile → run → decompile
-----------------------------------------

:func:`reduce_graph` is the one trace engine.  :func:`compile_graph`
flattens the graph once into integer arrays (O(V + E)); :func:`run_reduction`
removes edges with a heap worklist over those arrays, finding each fringe
survivor in O(1) with an id-sum trick; :func:`decompile` lifts the run back
into a :class:`ReductionTrace`.  A full reduction is O(E log E).

The naive rescan-everything engine in :mod:`repro.core.reduction_reference`
is the oracle: the reference-equivalence suites and the conformance fuzzer
require this engine's traces to equal its traces step for step, for every
strategy, with the persona clause on and off.  Callers that need only the
verdict use the free-order loop in :mod:`repro.core.flatcore` instead.
"""

from __future__ import annotations

import enum
import heapq
import random
from array import array
from dataclasses import dataclass

from repro.core.sequencing import (
    CommitmentNode,
    ConjunctionNode,
    SGEdge,
    SequencingGraph,
)
from repro.errors import ReductionError
from repro.obs.runtime import active as _active_tracer
from repro.obs.spans import Tracer


class Rule(enum.IntEnum):
    """The paper's two reduction rules (§4.2.1)."""

    COMMITMENT_FRINGE = 1
    CONJUNCTION_FRINGE = 2


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One edge removal: which rule, which edge, and what it disconnected.

    ``via_persona`` is True when Rule #1 fired through clause 2 (direct
    trust).  ``commitment_disconnected``/``conjunction_disconnected`` are set
    when this removal left that node with no remaining edges — the events
    that drive execution-sequence recovery (§5).
    """

    index: int
    rule: Rule
    edge: SGEdge
    via_persona: bool = False
    commitment_disconnected: CommitmentNode | None = None
    conjunction_disconnected: ConjunctionNode | None = None

    def __str__(self) -> str:
        persona = " (persona)" if self.via_persona else ""
        return f"step {self.index}: Rule#{int(self.rule)}{persona} removes {self.edge}"


@dataclass(frozen=True, slots=True)
class Blockage:
    """A fringe commitment edge that cannot be removed, and why (§4.2.4).

    ``blocking_red`` lists the red edges at the conjunction that pre-empt the
    blocked edge (Rule #1 clause 1 failure, with no persona to rescue it),
    in original graph-edge order.
    """

    edge: SGEdge
    blocking_red: tuple[SGEdge, ...]

    def __str__(self) -> str:
        reds = ", ".join(str(e) for e in self.blocking_red)
        return f"{self.edge} blocked by red edge(s): {reds}"


@dataclass(frozen=True)
class ReductionTrace:
    """The complete record of one reduction run.

    * ``steps`` — the edge removals, in order;
    * ``remaining`` — edges left when no rule applied any more;
    * ``feasible`` — the §4.2.4 test: ``remaining`` is empty;
    * ``commitment_order`` — commitment nodes in disconnection order (the
      commit order of §5);
    * ``conjunction_order`` — conjunction nodes in disconnection order;
    * ``blockages`` — diagnosis of the impasse when infeasible.
    """

    graph: SequencingGraph
    steps: tuple[ReductionStep, ...]
    remaining: frozenset[SGEdge]
    commitment_order: tuple[CommitmentNode, ...]
    conjunction_order: tuple[ConjunctionNode, ...]
    blockages: tuple[Blockage, ...]

    @property
    def feasible(self) -> bool:
        """The objective feasibility test: all edges removed (§4.2.4)."""
        return not self.remaining

    def step_for_edge(self, edge: SGEdge) -> ReductionStep:
        """The step that removed *edge* (raises if it was never removed).

        Backed by a lazily built edge→step mapping, so repeated lookups
        (execution recovery walks every edge) are O(1) instead of a linear
        scan per call.
        """
        try:
            mapping = object.__getattribute__(self, "_step_by_edge")
        except AttributeError:
            mapping = {step.edge: step for step in self.steps}
            object.__setattr__(self, "_step_by_edge", mapping)
        step = mapping.get(edge)
        if step is None:
            raise ReductionError(f"edge {edge} was not removed in this trace")
        return step

    def __str__(self) -> str:
        header = "feasible" if self.feasible else f"INFEASIBLE ({len(self.remaining)} edges remain)"
        lines = [f"ReductionTrace: {header}"]
        lines.extend(f"  {step}" for step in self.steps)
        if not self.feasible:
            lines.extend(f"  !! {blockage}" for blockage in self.blockages)
        return "\n".join(lines)


# --------------------------------------------------------------- compile
#
# Layout of the compiled form (all stdlib containers — no numpy in core):
#
# * ``edge_commitment`` / ``edge_conjunction`` — ``array('i')`` of length E
#   mapping edge id → node id, in ``graph.edges`` order (so edge id *i* is
#   exactly ``graph.edges[i]``, which keeps decompilation a tuple lookup).
# * ``edge_red`` — ``bytearray`` color mask (1 = red / priority obligation).
# * ``persona`` — ``bytearray`` over commitments (1 = §4.2.3 persona, i.e.
#   the trusted-principal waiver *may* apply at that commitment node).
# * ``j_off``/``j_adj`` — CSR adjacency: the edges incident to conjunction
#   ``j`` are ``j_adj[j_off[j]:j_off[j + 1]]``, in ``graph.edges`` order
#   (the order blockages list their blocking reds in).  Commitments need no
#   rows: a commitment's survivor is always found by its id sum.
# * ``cc0``/``jc0``/``rj0`` — initial live-edge counts per commitment, per
#   conjunction, and initial *red* live-edge counts per conjunction.  An
#   edge's blocking-red count is ``rj[j] - red[e]`` (parallel edges are
#   rejected by ``SequencingGraph``, so an edge sees at most one red of its
#   own at its conjunction — itself).
# * ``csum0``/``jsum0``/``jrsum0`` — sums of live edge *ids* per node
#   (``array('q')``: id sums exceed 32 bits at 16k-broker scale).  When a
#   counter drops to 1 the surviving edge id is exactly the sum, so fringe
#   survivors are found in O(1) without scanning adjacency rows.
# * ``seeds_on``/``seeds_off`` — edge ids initially eligible under Rule 1 or
#   Rule 2, with the persona clause enabled/disabled, in edge-id order.


@dataclass(frozen=True)
class CompiledGraph:
    """The flat form of one sequencing graph.  Treat every field read-only;
    the reduction loops copy the mutable counters before reducing."""

    graph: SequencingGraph
    n_edges: int
    n_commitments: int
    n_conjunctions: int
    edge_commitment: array[int]
    edge_conjunction: array[int]
    edge_red: bytearray
    persona: bytearray
    j_off: array[int]
    j_adj: array[int]
    cc0: array[int]
    jc0: array[int]
    rj0: array[int]
    csum0: array[int]
    jsum0: array[int]
    jrsum0: array[int]
    seeds_on: array[int]
    seeds_off: array[int]


def _csr(rows: list[list[int]]) -> tuple[array[int], array[int]]:
    offsets = array("i", [0])
    adjacency: array[int] = array("i")
    total = 0
    for row in rows:
        total += len(row)
        offsets.append(total)
        adjacency.extend(row)
    return offsets, adjacency


def compile_graph(graph: SequencingGraph) -> CompiledGraph:
    """Flatten ``graph`` into the dense integer form described above."""
    edges = graph.edges
    commitments = graph.commitments
    conjunctions = graph.conjunctions
    n_e = len(edges)
    n_c = len(commitments)
    n_j = len(conjunctions)

    cidx = {node: i for i, node in enumerate(commitments)}
    jidx = {node: i for i, node in enumerate(conjunctions)}

    ec_list = [0] * n_e
    ej_list = [0] * n_e
    red = bytearray(n_e)
    c_rows: list[list[int]] = [[] for _ in range(n_c)]
    j_rows: list[list[int]] = [[] for _ in range(n_j)]
    for i, edge in enumerate(edges):
        ci = cidx[edge.commitment]
        ji = jidx[edge.conjunction]
        ec_list[i] = ci
        ej_list[i] = ji
        c_rows[ci].append(i)
        j_rows[ji].append(i)
        if edge.is_red:
            red[i] = 1

    persona = bytearray(n_c)
    for node in graph.personas:
        persona[cidx[node]] = 1

    cc0 = [len(row) for row in c_rows]
    jc0 = [len(row) for row in j_rows]
    rj0 = [0] * n_j
    jrsum0 = [0] * n_j
    for i in range(n_e):
        if red[i]:
            j = ej_list[i]
            rj0[j] += 1
            jrsum0[j] += i
    csum0 = [sum(row) for row in c_rows]
    jsum0 = [sum(row) for row in j_rows]

    seeds_on: list[int] = []
    seeds_off: list[int] = []
    for i in range(n_e):
        c = ec_list[i]
        j = ej_list[i]
        fringe = cc0[c] == 1
        unblocked = rj0[j] - red[i] == 0
        rule2 = jc0[j] == 1
        if rule2 or (fringe and unblocked):
            seeds_on.append(i)
            seeds_off.append(i)
        elif fringe and persona[c]:
            seeds_on.append(i)

    j_off, j_adj = _csr(j_rows)

    return CompiledGraph(
        graph=graph,
        n_edges=n_e,
        n_commitments=n_c,
        n_conjunctions=n_j,
        edge_commitment=array("i", ec_list),
        edge_conjunction=array("i", ej_list),
        edge_red=red,
        persona=persona,
        j_off=j_off,
        j_adj=j_adj,
        cc0=array("i", cc0),
        jc0=array("i", jc0),
        rj0=array("i", rj0),
        csum0=array("q", csum0),
        jsum0=array("q", jsum0),
        jrsum0=array("q", jrsum0),
        seeds_on=array("i", seeds_on),
        seeds_off=array("i", seeds_off),
    )


# ------------------------------------------------------------------- run


@dataclass(frozen=True)
class FlatRun:
    """Raw outcome of :func:`run_reduction`, before decompilation.

    ``steps`` tuples are ``(index, rule, edge, via_persona, commitment_done,
    conjunction_done)`` with ``-1`` for "no node disconnected".
    """

    steps: list[tuple[int, int, int, bool, int, int]]
    alive: bytearray
    cc: array[int]
    rj: array[int]
    per: bytearray
    commitment_order: list[int]
    conjunction_order: list[int]


def run_reduction(
    compiled: CompiledGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> FlatRun:
    """Reduce the compiled graph until no rule applies, under *strategy*.

    Observability wraps only this function boundary: with no tracer
    installed the cost is one ``active()`` call per reduction.
    """
    obs = _active_tracer()
    if obs is None:
        return _run_reduction_impl(compiled, strategy, rng, enable_persona_clause, None)
    with obs.span(
        "reduce.flat", {"edges": compiled.n_edges, "strategy": strategy}
    ) as span_id:
        run = _run_reduction_impl(compiled, strategy, rng, enable_persona_clause, obs)
        remaining = run.alive.count(1)
        obs.set_attr(span_id, "feasible", remaining == 0)
        obs.set_attr(span_id, "survivors", remaining)
    obs.metrics.histogram("reduction.survivors").observe(remaining)
    obs.verdict(remaining == 0)
    return run


def _run_reduction_impl(
    compiled: CompiledGraph,
    strategy: str,
    rng: random.Random | None,
    enable_persona_clause: bool,
    obs: Tracer | None,
) -> FlatRun:
    n_e = compiled.n_edges
    ec = compiled.edge_commitment
    ej = compiled.edge_conjunction
    red = compiled.edge_red
    j_off = compiled.j_off
    j_adj = compiled.j_adj
    per = compiled.persona if enable_persona_clause else bytearray(compiled.n_commitments)
    cc = array("i", compiled.cc0)
    jc = array("i", compiled.jc0)
    rj = array("i", compiled.rj0)
    csum = array("q", compiled.csum0)
    jsum = array("q", compiled.jsum0)
    jrsum = array("q", compiled.jrsum0)
    alive = bytearray(b"\x01") * n_e
    elig = bytearray(n_e)
    seeds = compiled.seeds_on if enable_persona_clause else compiled.seeds_off
    # Nodes that start with no edges are disconnected from the outset
    # (possible only in hand-built graphs).
    commitment_order = [c for c in range(compiled.n_commitments) if cc[c] == 0]
    conjunction_order = [j for j in range(compiled.n_conjunctions) if jc[j] == 0]
    steps: list[tuple[int, int, int, bool, int, int]] = []

    def remove(e: int, rule: int) -> list[int]:
        """Apply one rule, record the step, return newly eligible edges."""
        c = ec[e]
        j = ej[e]
        # via_persona is read before the decrement: it reports whether
        # clause 1 would have failed at the moment the rule fired.
        via_persona = rule == 1 and per[c] != 0 and rj[j] > red[e]
        alive[e] = 0
        newly: list[int] = []
        n = cc[c] - 1
        cc[c] = n
        s = csum[c] - e
        csum[c] = s
        c_done = -1
        j_done = -1
        if n == 0:
            c_done = c
            commitment_order.append(c)
        elif n == 1 and not elig[s]:
            j2 = ej[s]
            if per[c] != 0 or rj[j2] == red[s] or jc[j2] == 1:
                elig[s] = 1
                newly.append(s)
        m = jc[j] - 1
        jc[j] = m
        t = jsum[j] - e
        jsum[j] = t
        if m == 0:
            j_done = j
            conjunction_order.append(j)
        elif m == 1 and not elig[t]:
            elig[t] = 1
            newly.append(t)
        if red[e]:
            r = rj[j] - 1
            rj[j] = r
            u = jrsum[j] - e
            jrsum[j] = u
            if r == 1:
                # One red left at j: that red itself is now unblocked.
                if not elig[u] and cc[ec[u]] == 1:
                    elig[u] = 1
                    newly.append(u)
            elif r == 0 and m > 0:
                # Last red gone: every surviving black fringe edge at j wakes.
                for e2 in j_adj[j_off[j] : j_off[j + 1]]:
                    if alive[e2] and not elig[e2] and cc[ec[e2]] == 1:
                        elig[e2] = 1
                        newly.append(e2)
        steps.append((len(steps) + 1, rule, e, via_persona, c_done, j_done))
        return newly

    if strategy == "fifo" or strategy == "lifo":
        sign = 1 if strategy == "fifo" else -1
        heap = [sign * e for e in seeds]
        heapq.heapify(heap)
        for e in seeds:
            elig[e] = 1
        while heap:
            e = sign * heapq.heappop(heap)
            if not alive[e]:
                continue
            # Recompute the rule from live counters: eligibility is
            # monotone, but *which* rule applies can shift between push
            # and pop.  fifo takes the lowest edge's Rule #1 when legal,
            # lifo the highest edge's Rule #2 when legal.
            c = ec[e]
            j = ej[e]
            if strategy == "fifo":
                rule = 1 if cc[c] == 1 and (per[c] != 0 or rj[j] == red[e]) else 2
            else:
                rule = 2 if jc[j] == 1 else 1
            newly = remove(e, rule)
            if obs is not None:
                obs.rule_firing(
                    f"rule{rule}", edge=e, depth=len(heap), persona=steps[-1][3]
                )
            for new_edge in newly:
                heapq.heappush(heap, sign * new_edge)
    elif strategy == "random":
        if rng is None:
            rng = random.Random(0)
        cand = set(seeds)
        for e in cand:
            elig[e] = 1
        while cand:
            # The draw is over the full applicable-step list, so a seeded
            # rng picks the same steps as the reference engine's.
            options: list[tuple[int, int]] = []
            for e in sorted(cand):
                c = ec[e]
                j = ej[e]
                if cc[c] == 1 and (per[c] != 0 or rj[j] == red[e]):
                    options.append((1, e))
                if jc[j] == 1:
                    options.append((2, e))
            rule, e = rng.choice(options)
            cand.discard(e)
            newly = remove(e, rule)
            if obs is not None:
                obs.rule_firing(
                    f"rule{rule}", edge=e, depth=len(cand), persona=steps[-1][3]
                )
            cand.update(newly)
    elif seeds:
        # Like the reference engine, an unknown strategy only errors when
        # there is actually a step left to choose.
        raise ReductionError(f"unknown reduction strategy {strategy!r}")

    return FlatRun(
        steps=steps,
        alive=alive,
        cc=cc,
        rj=rj,
        per=bytearray(per),
        commitment_order=commitment_order,
        conjunction_order=conjunction_order,
    )


# ------------------------------------------------------------- decompile


def decompile(compiled: CompiledGraph, run: FlatRun) -> ReductionTrace:
    """Lift a flat run back into the object-level trace."""
    graph = compiled.graph
    edges = graph.edges
    commitments = graph.commitments
    conjunctions = graph.conjunctions
    ec = compiled.edge_commitment
    ej = compiled.edge_conjunction
    red = compiled.edge_red
    j_off = compiled.j_off
    j_adj = compiled.j_adj
    alive = run.alive

    steps = tuple(
        ReductionStep(
            index=index,
            rule=Rule(rule),
            edge=edges[e],
            via_persona=via_persona,
            commitment_disconnected=None if c_done < 0 else commitments[c_done],
            conjunction_disconnected=None if j_done < 0 else conjunctions[j_done],
        )
        for index, rule, e, via_persona, c_done, j_done in run.steps
    )
    live_ids = [e for e in range(compiled.n_edges) if alive[e]]
    remaining = frozenset(edges[e] for e in live_ids)

    # Blockages: remaining edges whose commitment is on the fringe, with at
    # least one *other* red surviving at the conjunction and no persona
    # waiver — listed in SGEdge order, each with its blocking reds in
    # graph-edge order.  Only the blocked edges are sorted, not every
    # survivor.
    blocked: list[Blockage] = []
    for e in live_ids:
        c = ec[e]
        j = ej[e]
        if run.cc[c] != 1:
            continue  # not on the commitment fringe
        if run.rj[j] - red[e] == 0:
            continue  # no blocking reds
        if run.per[c]:
            continue  # §4.2.3 persona waiver applies
        blocking = tuple(
            edges[e2]
            for e2 in j_adj[j_off[j] : j_off[j + 1]]
            if alive[e2] and red[e2] and ec[e2] != c
        )
        blocked.append(Blockage(edge=edges[e], blocking_red=blocking))
    blocked.sort(key=lambda blockage: blockage.edge)

    return ReductionTrace(
        graph=graph,
        steps=steps,
        remaining=remaining,
        commitment_order=tuple(commitments[c] for c in run.commitment_order),
        conjunction_order=tuple(conjunctions[j] for j in run.conjunction_order),
        blockages=tuple(blocked),
    )


def reduce_graph(
    graph: SequencingGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> ReductionTrace:
    """Reduce *graph* greedily under *strategy* and return the trace.

    ``strategy`` is ``"fifo"``, ``"lifo"`` or ``"random"`` (seeded by *rng*,
    ``random.Random(0)`` when omitted).  ``enable_persona_clause=False``
    ablates Rule #1 clause 2 (§4.2.3); the ablation studies use it to show
    the clause is exactly what makes the trust variants differ.
    """
    compiled = compile_graph(graph)
    run = run_reduction(
        compiled, strategy=strategy, rng=rng, enable_persona_clause=enable_persona_clause
    )
    return decompile(compiled, run)
