"""The free-order verdict loop over compiled sequencing graphs.

:func:`check_feasibility_flat` is the production path for every caller that
needs only the verdict and its counts (feasible, steps, remaining,
blockages): the batch pipeline, the studies, the chaos gate and the
indemnity planner's per-offer re-tests.  It runs over the same compiled form
(:func:`compile_graph`) as the trace engine in :mod:`repro.core.reduction`.

The free-order loop is safe because the reduction system has a **unique
normal form** (DESIGN.md §11): eligibility of an edge is anti-monotone in
the remaining-edge set, so every maximal reduction sequence strands exactly
the same residual set — the verdict, step count, remaining count, and
blockage diagnosis are all order-independent.  The conformance fuzzer
checks the claim on every case against the fifo trace.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.core.flatcore.runtime import FlatVerdict, check_feasibility_flat
from repro.core.reduction import (
    CompiledGraph,
    ReductionTrace,
    compile_graph,
    reduce_graph,
)
from repro.core.sequencing import SequencingGraph


# The end-to-end benchmark (e2ebench/layers.py) wraps the two names below by
# module attribute, so they stay bound here as plain delegates.  Nothing in
# the package calls them.


def reduce_graph_flat(
    graph: SequencingGraph,
    strategy: str = "fifo",
    rng: random.Random | None = None,
    enable_persona_clause: bool = True,
) -> ReductionTrace:
    """Same as :func:`repro.core.reduction.reduce_graph`."""
    return reduce_graph(graph, strategy, rng, enable_persona_clause)


def check_feasibility_flat_batch(
    graphs: Iterable[SequencingGraph | CompiledGraph],
    *,
    enable_persona_clause: bool = True,
) -> list[FlatVerdict]:
    """:func:`check_feasibility_flat` over each graph, in input order."""
    return [
        check_feasibility_flat(graph, enable_persona_clause=enable_persona_clause)
        for graph in graphs
    ]


__all__ = [
    "CompiledGraph",
    "FlatVerdict",
    "check_feasibility_flat",
    "check_feasibility_flat_batch",
    "compile_graph",
    "reduce_graph_flat",
]
