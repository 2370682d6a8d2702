"""The conformance engine's arms over the compiled core.

Mirrors ``test_self_check.py``'s philosophy — a clean stack must produce a
populated, discrepancy-free flat verdict on every case, a bug planted in the
parity loop must show up as ``engine-divergence`` (the trace no longer
matches the reference engine), and a bug planted in the free-order verdict
loop as ``flat-divergence``.  Everything runs with ``processes=1``: a
monkeypatch does not cross the process-pool boundary.
"""

import pytest

from repro.conformance.engine import FuzzConfig, check_problem, run_fuzz
from repro.conformance.oracles import cross_check
from repro.core import flatcore, reduction
from repro.workloads import example1, example2, example2_source_trusts_broker


class TestCleanFlatArm:
    def test_fuzz_populates_flat_verdicts(self):
        report = run_fuzz(
            FuzzConfig(cases=12, seed=5, simulate=False), processes=1
        )
        assert report.discrepant == ()
        for result in report.results:
            assert result.verdicts.flat_feasible is not None
            assert (
                result.verdicts.flat_feasible
                == result.verdicts.reduction_feasible
            )

    def test_cross_check_examples(self):
        for problem in (example1(), example2(), example2_source_trusts_broker()):
            result = cross_check(problem, run_simulation=False)
            assert result.ok, [str(d) for d in result.discrepancies]
            assert result.verdicts.to_dict()["flat"] is not None

    def test_digest_stable_across_pool_sizes(self):
        config = FuzzConfig(cases=10, seed=2, simulate=False)
        serial = run_fuzz(config, processes=1)
        pooled = run_fuzz(config, processes=2)
        assert serial.digest() == pooled.digest()


class TestPlantedFlatBug:
    @pytest.fixture
    def broken_flat_strategy(self, monkeypatch):
        """Make the parity loop deaf to the requested strategy."""
        real = reduction.run_reduction

        def always_fifo(compiled, strategy="fifo", rng=None, enable_persona_clause=True):
            return real(
                compiled, strategy="fifo", enable_persona_clause=enable_persona_clause
            )

        monkeypatch.setattr(reduction, "run_reduction", always_fifo)

    @pytest.fixture
    def broken_flat_verdict(self, monkeypatch):
        """Make the free-order verdict loop lie about feasibility."""
        real = flatcore.check_feasibility_flat

        def always_feasible(graph, *, enable_persona_clause=True):
            verdict = real(graph, enable_persona_clause=enable_persona_clause)
            return flatcore.FlatVerdict(
                feasible=True,
                steps=verdict.steps,
                remaining=0,
                blockages=0,
            )

        monkeypatch.setattr(flatcore, "check_feasibility_flat", always_feasible)

    def test_strategy_deafness_is_detected(self, broken_flat_strategy):
        report = run_fuzz(
            FuzzConfig(cases=20, seed=7, simulate=False), processes=1
        )
        flagged = [
            r
            for r in report.discrepant
            if any(d.kind == "engine-divergence" for d in r.discrepancies)
        ]
        assert flagged, "a strategy-deaf parity loop must diverge on lifo/random"

    def test_verdict_lie_is_detected(self, broken_flat_verdict):
        result = check_problem(example2(), run_simulation=False)
        kinds = {d.kind for d in result.discrepancies}
        assert "flat-divergence" in kinds

    def test_breaking_only_flat_never_flags_other_arms(self, broken_flat_verdict):
        result = check_problem(example2(), run_simulation=False)
        kinds = {d.kind for d in result.discrepancies}
        assert "engine-divergence" not in kinds
        assert "confluence" not in kinds
