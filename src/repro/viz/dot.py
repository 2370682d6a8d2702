"""Graphviz DOT renderings of interaction and sequencing graphs.

Conventions mirror the paper's figures: principals are circles, trusted
components squares (Figures 1–2); commitment nodes are hexagons, conjunction
nodes squares, red edges bold red, black edges plain (Figures 3–6).  The
output is plain DOT text — no graphviz dependency — suitable for piping into
``dot -Tpng`` or pasting into a viewer.
"""

from __future__ import annotations

from repro.core.interaction import InteractionGraph
from repro.core.reduction import ReductionTrace
from repro.core.sequencing import SequencingGraph


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def interaction_to_dot(graph: InteractionGraph, title: str = "interaction") -> str:
    """Render an interaction graph in the style of Figures 1–2."""
    lines = [f"graph {_quote(title)} {{", "  layout=dot;", "  rankdir=LR;"]
    for principal in graph.principals:
        lines.append(
            f"  {_quote(principal.name)} [shape=ellipse, "
            f'label="{principal.name}\\n({principal.role.value})"];'
        )
    for component in graph.trusted_components:
        lines.append(f"  {_quote(component.name)} [shape=box];")
    for edge in graph.edges:
        style = ", style=bold, color=red" if graph.is_priority(edge) else ""
        lines.append(
            f"  {_quote(edge.principal.name)} -- {_quote(edge.trusted.name)} "
            f'[label="{edge.provides}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines)


def sequencing_to_dot(
    graph: SequencingGraph,
    title: str = "sequencing",
    trace: ReductionTrace | None = None,
) -> str:
    """Render a sequencing graph in the style of Figures 3–6.

    With *trace*, removed edges are drawn dashed grey and annotated with
    their elimination step number — reproducing the paper's circled numbers.
    """
    removed: dict = {}
    if trace is not None:
        for step in trace.steps:
            removed[step.edge] = step.index
    lines = [f"graph {_quote(title)} {{", "  layout=dot;", "  rankdir=LR;"]
    for commitment in graph.commitments:
        persona = " (persona)" if commitment in graph.personas else ""
        lines.append(
            f"  {_quote(commitment.label)} [shape=hexagon, "
            f'label="{commitment.label}{persona}"];'
        )
    for conjunction in graph.conjunctions:
        lines.append(
            f"  {_quote(conjunction.label)} [shape=box, "
            f'label="AND({conjunction.agent.name})"];'
        )
    for edge in graph.edges:
        attrs = ["style=bold", "color=red"] if edge.is_red else []
        if edge in removed:
            attrs = ["style=dashed", "color=grey", f'label="{removed[edge]}"']
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f"  {_quote(edge.commitment.label)} -- "
            f"{_quote(edge.conjunction.label)}{attr_text};"
        )
    lines.append("}")
    return "\n".join(lines)


def petri_to_dot(net, title: str = "petri", highlight: tuple[str, ...] = ()) -> str:
    """Render a Petri net (§7.4): places as circles, transitions as bars.

    ``highlight`` names transitions to emphasize (e.g. a coverability
    witness).  Initially marked places are annotated with their token count.
    """
    initial = dict(net.initial.counts)
    lines = [f"digraph {_quote(title)} {{", "  rankdir=LR;"]
    for place in sorted(net.places):
        tokens = initial.get(place, 0)
        label = place + (f"\\n({tokens})" if tokens else "")
        style = ", style=filled, fillcolor=lightyellow" if tokens else ""
        lines.append(f'  {_quote(place)} [shape=ellipse, label="{label}"{style}];')
    for transition in net.transitions:
        color = ", color=red, penwidth=2" if transition.name in highlight else ""
        lines.append(
            f"  {_quote(transition.name)} [shape=box, style=filled, "
            f'fillcolor=lightgrey, label="{transition.name}"{color}];'
        )
        for place, count in transition.consumes:
            weight = f' [label="{count}"]' if count > 1 else ""
            lines.append(f"  {_quote(place)} -> {_quote(transition.name)}{weight};")
        for place, count in transition.produces:
            weight = f' [label="{count}"]' if count > 1 else ""
            lines.append(f"  {_quote(transition.name)} -> {_quote(place)}{weight};")
    lines.append("}")
    return "\n".join(lines)
