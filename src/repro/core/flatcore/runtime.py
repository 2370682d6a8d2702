"""The free-order verdict loop over a compiled graph.

:func:`check_feasibility_flat` answers only feasible / steps / remaining /
blockages: a plain LIFO worklist with no heaps, no step records, and no
object allocation per edge.  It may remove edges in a different order than
any strategy of :func:`repro.core.reduction.reduce_graph`, which is safe
because the reduction system has a unique normal form (DESIGN.md §11):
every maximal sequence strands the same residual edge set, so all four
counts are order-invariant.

Fringe survivors are found in O(1) with the id-sum trick: each node carries
the sum of its live edge ids, so when a counter hits 1 the survivor is the
sum.  The only row scan left is the rare red-count→0 event, which must wake
every black edge parked behind the vanished reds.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.reduction import CompiledGraph, compile_graph
from repro.core.sequencing import SequencingGraph
from repro.obs.runtime import active as _active_tracer


@dataclass(frozen=True, slots=True)
class FlatVerdict:
    """What the free-order loop can tell you without building a trace."""

    feasible: bool
    steps: int
    remaining: int
    blockages: int


def check_feasibility_flat(
    graph: SequencingGraph | CompiledGraph,
    *,
    enable_persona_clause: bool = True,
) -> FlatVerdict:
    """Feasibility verdict via the free-order loop (no trace built).

    Observability wraps only this function boundary: the drain loop itself
    carries no per-edge instrumentation, so the disabled-tracing overhead is
    a single ``active()`` call per verdict.
    """
    compiled = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    obs = _active_tracer()
    if obs is None:
        return _check_feasibility_impl(compiled, enable_persona_clause)
    with obs.span("verdict.flat", {"edges": compiled.n_edges}) as span_id:
        verdict = _check_feasibility_impl(compiled, enable_persona_clause)
        obs.set_attr(span_id, "feasible", verdict.feasible)
        obs.set_attr(span_id, "survivors", verdict.remaining)
    obs.metrics.inc("reduction.free_order_steps", verdict.steps)
    obs.metrics.histogram("reduction.survivors").observe(verdict.remaining)
    obs.verdict(verdict.feasible)
    return verdict


def _check_feasibility_impl(
    compiled: CompiledGraph, enable_persona_clause: bool
) -> FlatVerdict:
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
    stack = list(compiled.seeds_on if enable_persona_clause else compiled.seeds_off)
    for e in stack:
        elig[e] = 1
    push = stack.append
    pop = stack.pop
    while stack:
        e = pop()
        c = ec[e]
        j = ej[e]
        alive[e] = 0
        n = cc[c] - 1
        cc[c] = n
        s = csum[c] - e
        csum[c] = s
        if n == 1 and not elig[s]:
            j2 = ej[s]
            if per[c] or rj[j2] == red[s] or jc[j2] == 1:
                elig[s] = 1
                push(s)
        m = jc[j] - 1
        jc[j] = m
        t = jsum[j] - e
        jsum[j] = t
        if m == 1 and not elig[t]:
            elig[t] = 1
            push(t)
        if red[e]:
            r = rj[j] - 1
            rj[j] = r
            u = jrsum[j] - e
            jrsum[j] = u
            if r == 1:
                if not elig[u] and cc[ec[u]] == 1:
                    elig[u] = 1
                    push(u)
            elif r == 0 and m > 0:
                for e2 in j_adj[j_off[j] : j_off[j + 1]]:
                    if alive[e2] and not elig[e2] and cc[ec[e2]] == 1:
                        elig[e2] = 1
                        push(e2)

    # A residual edge is a blockage iff its commitment is on the fringe, at
    # least one *other* red survives at its conjunction, and no persona
    # waiver applies — the same test the trace's diagnosis makes.
    remaining = 0
    blockages = 0
    e = alive.find(1)
    while e != -1:
        remaining += 1
        c = ec[e]
        if cc[c] == 1 and not per[c] and rj[ej[e]] > red[e]:
            blockages += 1
        e = alive.find(1, e + 1)
    return FlatVerdict(
        feasible=remaining == 0,
        steps=n_e - remaining,
        remaining=remaining,
        blockages=blockages,
    )
