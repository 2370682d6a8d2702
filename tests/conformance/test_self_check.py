"""The conformance engine must catch a deliberately planted bug.

A test harness that has never failed proves nothing.  Here we break the
trace engine's red-edge rule (pretend no red edge ever blocks — i.e.
ablate §4.2's pre-emption check in the compiled parity loop), run a small
fuzz sweep, and require that (a) the differential oracle flags the
divergence from the reference engine and (b) the shrinker reduces a flagged
case to the minimal pre-emption core.

Everything runs with ``processes=1``: a monkeypatch does not cross the
process-pool boundary.
"""

import dataclasses
from array import array

import pytest

from repro.conformance.engine import (
    FuzzConfig,
    _still_failing,
    run_fuzz,
)
from repro.conformance.shrink import shrink_problem
from repro.core import reduction
from repro.spec.compiler import load


@pytest.fixture
def broken_parity_loop(monkeypatch):
    """Ablate red-edge pre-emption in the trace engine only.

    The compiled form the parity loop reads is stripped of its reds; the
    verdict loop and the reference engine keep theirs.
    """
    real = reduction.compile_graph

    def reds_never_block(graph):
        compiled = real(graph)
        seeds = array(
            "i",
            [
                e
                for e in range(compiled.n_edges)
                if compiled.cc0[compiled.edge_commitment[e]] == 1
                or compiled.jc0[compiled.edge_conjunction[e]] == 1
            ],
        )
        return dataclasses.replace(
            compiled,
            edge_red=bytearray(compiled.n_edges),
            rj0=array("i", [0] * compiled.n_conjunctions),
            jrsum0=array("q", [0] * compiled.n_conjunctions),
            seeds_on=seeds,
            seeds_off=seeds,
        )

    monkeypatch.setattr(reduction, "compile_graph", reds_never_block)


def test_planted_bug_is_detected_and_shrinks(broken_parity_loop):
    report = run_fuzz(
        FuzzConfig(cases=20, seed=7, simulate=False), processes=1
    )
    flagged = [
        r
        for r in report.discrepant
        if any(d.kind == "engine-divergence" for d in r.discrepancies)
    ]
    assert flagged, "a broken red-edge rule must produce engine divergences"

    case = flagged[0]
    problem = load(case.spec_text)
    minimal = shrink_problem(
        problem, _still_failing(case.seed, frozenset({"engine-divergence"}))
    )
    # The minimal divergence between "red edges block" and "they don't" is a
    # two-exchange chain with a single red mark and no trust to waive it.
    assert len(minimal.interaction.trusted_components) <= 2
    assert len(minimal.interaction.priority_edges) >= 1
    assert len(minimal.trust) == 0


def test_clean_engine_reports_nothing_on_same_seed():
    report = run_fuzz(
        FuzzConfig(cases=20, seed=7, simulate=False), processes=1
    )
    assert report.discrepant == ()
