"""The batch pipeline's verdict rows against the oracle + the single-core
pool warning."""

import warnings

import pytest

from repro.analysis import batch
from repro.analysis.batch import (
    BatchVerdict,
    ProblemSpec,
    batch_specs,
    check_feasibility_batch,
    effective_cpu_count,
    parallel_map,
)
from repro.analysis.chaos_study import ChaosConfig, ChaosReport, chaos_study
from repro.conformance.engine import FuzzConfig, run_fuzz
from repro.core.indemnity import minimal_indemnity_plan
from repro.core.reduction_reference import reference_reduce
from repro.workloads import RandomProblemConfig, broker_bundle, figure7


def _identity(x):
    return x


SPECS = batch_specs(
    60,
    RandomProblemConfig(n_principals=8, n_exchanges=5, priority_probability=0.5),
    seed=11,
)


def _reference_rows(specs, persona=True):
    rows = []
    for spec in specs:
        trace = reference_reduce(
            spec.build().sequencing_graph(), enable_persona_clause=persona
        )
        rows.append(
            BatchVerdict(
                feasible=trace.feasible,
                steps=len(trace.steps),
                remaining=len(trace.remaining),
                blockages=len(trace.blockages),
            )
        )
    return rows


class TestFlatEngineBatch:
    def test_rows_match_reference_serial(self):
        rows = check_feasibility_batch(SPECS, processes=1)
        assert rows == _reference_rows(SPECS)
        assert {v.feasible for v in rows} == {True, False}

    def test_rows_match_reference_pooled(self):
        pooled = check_feasibility_batch(SPECS, processes=2)
        assert pooled == _reference_rows(SPECS)

    def test_flat_persona_ablation(self):
        for processes in (1, 2):
            rows = check_feasibility_batch(
                SPECS[:20], enable_persona_clause=False, processes=processes
            )
            assert rows == _reference_rows(SPECS[:20], persona=False)

    def test_indemnity_flat_engine_matches(self):
        # The planner re-tests each offer with the verdict loop; its plans
        # must match re-testing with full reference traces.
        for problem in (figure7(), broker_bundle(5, (10.0, 50.0, 20.0, 40.0, 30.0))):
            plan = minimal_indemnity_plan(problem)
            sg = problem.sequencing_graph()
            agent = plan.offers[0].beneficiary
            conjunction = sg.conjunction_for(agent)
            for count, offer in enumerate(plan.offers):
                # Every offer was needed: the graph before it was infeasible.
                assert not reference_reduce(sg).feasible, count
                sg = sg.with_edges_removed(
                    [sg.find_edge(sg.commitment_for(offer.covers), conjunction)]
                )
            final = reference_reduce(sg)
            assert final.feasible and plan.feasible
            assert plan.verdict.trace.steps == final.steps


class TestSingleCoreWarning:
    ITEMS = list(range(32))

    def test_pool_on_single_core_host_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="single CPU"):
            result = parallel_map(_identity, self.ITEMS, processes=2)
        assert result == self.ITEMS  # honored, just warned about

    def test_serial_path_never_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_identity, self.ITEMS, processes=1) == self.ITEMS
            # processes=None on a single-core host resolves to 1 worker:
            # serial, silent.
            assert parallel_map(_identity, self.ITEMS) == self.ITEMS

    def test_multi_core_host_never_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_identity, self.ITEMS, processes=2) == self.ITEMS

    def test_effective_cpu_count_is_positive(self):
        assert effective_cpu_count() >= 1


class TestCpuCountInArtifacts:
    def test_chaos_report_records_cpus(self):
        report = chaos_study(ChaosConfig(scenarios=10, seed=3))
        data = report.to_dict()
        assert data["process_cpus"] == effective_cpu_count()

    def test_chaos_gate_matches_reference(self):
        # The gate runs the verdict loop; only oracle-feasible problems may
        # be simulated.
        config = ChaosConfig(scenarios=12, seed=3)
        report = chaos_study(config)
        for verdict in report.verdicts:
            problem = ProblemSpec(config=config.problems, seed=verdict.problem_seed).build()
            feasible = reference_reduce(problem.sequencing_graph()).feasible
            assert verdict.feasible == verdict.simulated == feasible

    def test_fuzz_report_records_cpus(self):
        report = run_fuzz(FuzzConfig(cases=4, simulate=False), processes=1)
        data = report.to_dict()
        assert data["process_cpus"] == effective_cpu_count()


def test_chaos_report_roundtrips(tmp_path):
    report = chaos_study(ChaosConfig(scenarios=6, seed=9))
    assert isinstance(report, ChaosReport)
    keys = set(report.to_dict())
    assert {"process_cpus", "verdicts", "violation_count"} <= keys
