"""The graph indices against the plain filter definitions they replace.

``InteractionGraph`` keeps an edge set, a per-party incidence list and a
name-keyed edge map beside its ordered edge list; ``SequencingGraph`` keeps
per-node edge lists.  Every indexed query must return exactly what a scan of
the ordered edges returns, order included, and a copy's indices must be its
own.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interaction import InteractionGraph
from repro.core.items import document, money
from repro.core.parties import broker, consumer, producer, trusted
from repro.errors import GraphError
from repro.workloads import RandomProblemConfig, random_problem, resale_chain


def _random_problem(seed, priority, hubby, cycles):
    config = RandomProblemConfig(
        n_principals=9,
        n_exchanges=8 if cycles else 7,
        priority_probability=priority,
        allow_cycles=cycles,
        hub_probability=0.6 if hubby else 0.0,
    )
    return random_problem(config, seed=seed)


def _scan_find(graph, principal_name, trusted_name, tag=""):
    for edge in graph.edges:
        if (
            edge.principal.name == principal_name
            and edge.trusted.name == trusted_name
            and edge.tag == tag
        ):
            return edge
    return None


def assert_interaction_indices_match(graph):
    edges = graph.edges
    for party in graph.parties:
        incident = tuple(e for e in edges if party in (e.principal, e.trusted))
        assert graph.edges_at(party) == incident
        assert graph.degree(party) == len(incident)
    for edge in edges:
        assert graph.counterparts(edge) == tuple(
            e for e in edges if e.trusted == edge.trusted and e != edge
        )
        assert graph.is_priority(edge) == (edge in graph.priority_edges)
        assert graph.find_edge(
            edge.principal.name, edge.trusted.name, edge.tag
        ) == _scan_find(graph, edge.principal.name, edge.trusted.name, edge.tag)
    for principal in graph.principals:
        for component in graph.trusted_components:
            if _scan_find(graph, principal.name, component.name) is None:
                try:
                    graph.find_edge(principal.name, component.name)
                except GraphError:
                    continue
                raise AssertionError("find_edge found an edge a scan does not")


def assert_sequencing_indices_match(sg):
    edges = sg.edges
    for commitment in sg.commitments:
        assert sg.edges_of_commitment(commitment) == tuple(
            e for e in edges if e.commitment == commitment
        )
        assert sg.commitment_for(commitment.edge) == commitment
    for conjunction in sg.conjunctions:
        assert sg.edges_of_conjunction(conjunction) == tuple(
            e for e in edges if e.conjunction == conjunction
        )
        assert sg.conjunction_for(conjunction.agent) == conjunction
    for edge in edges:
        assert sg.find_edge(edge.commitment, edge.conjunction) == edge


class TestRandomGraphs:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        priority=st.floats(0.0, 1.0),
        hubby=st.booleans(),
        cycles=st.booleans(),
    )
    def test_indexed_queries_match_filters(self, seed, priority, hubby, cycles):
        problem = _random_problem(seed, priority, hubby, cycles)
        assert_interaction_indices_match(problem.interaction)
        sg = problem.sequencing_graph()
        assert_sequencing_indices_match(sg)
        if sg.edges:
            removed = random.Random(seed).sample(list(sg.edges), k=1)
            assert_sequencing_indices_match(sg.with_edges_removed(removed))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2000), hubby=st.booleans())
    def test_mutating_a_copy_leaves_the_original_alone(self, seed, hubby):
        original = _random_problem(seed, 0.5, hubby, False).interaction
        before = (
            original.edges,
            {p: original.edges_at(p) for p in original.parties},
            original.priority_edges,
        )
        clone = original.copy()
        assert_interaction_indices_match(clone)
        principal, other = original.principals[:2]
        fresh = trusted("FreshT")
        clone.add_trusted(fresh)
        clone.add_exchange(principal, document("fresh-doc"), other, money(1), via=fresh)
        for edge in clone.edges:
            if edge not in original.priority_edges:
                clone.mark_priority(edge)
                break
        assert_interaction_indices_match(clone)
        assert_interaction_indices_match(original)
        after = (
            original.edges,
            {p: original.edges_at(p) for p in original.parties},
            original.priority_edges,
        )
        assert after == before
        assert original.edges_at(fresh) == ()
        try:
            original.find_edge(principal.name, fresh.name)
        except GraphError:
            pass
        else:
            raise AssertionError("the original sees an edge added to its copy")


class TestHandBuilt:
    def test_parallel_edges_multiparty_and_chains(self):
        c, b, p = consumer("C"), broker("B"), producer("P")
        t1, t2, t3 = trusted("T1"), trusted("T2"), trusted("T3")
        graph = InteractionGraph()
        for party in (c, b, p):
            graph.add_principal(party)
        for party in (t1, t2, t3):
            graph.add_trusted(party)
        graph.add_exchange(c, money(5), b, document("d"), via=t1)
        # Parallel edges between the same pair: find_edge returns the first
        # one added under each tag, as a scan from the front does.
        graph.add_edge(c, t2, money(3))
        graph.add_edge(c, t2, money(4))
        graph.add_edge(c, t2, money(6), tag="x")
        graph.add_edge(p, t2, document("e"))
        graph.add_multi_exchange(
            t3, [(c, money(7)), (b, document("f")), (p, document("g"))]
        )
        graph.mark_priority(graph.edges[1])
        assert graph.find_edge("C", "T2") == graph.edges[2]
        assert graph.find_edge("C", "T2", "x") == graph.edges[4]
        assert_interaction_indices_match(graph)
        assert_interaction_indices_match(graph.copy())
        assert_sequencing_indices_match(resale_chain(5).sequencing_graph())
