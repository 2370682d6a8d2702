"""The batched feasibility pipeline: ordering, determinism, spec rebuilds.

The acceptance bar for the pipeline is encoded here: a batched study over
1000+ random problems runs through the process-pool driver and returns
ordered, deterministic results identical to the serial path.
"""

import pytest

from repro.analysis import (
    BatchVerdict,
    ProblemSpec,
    batch_specs,
    check_feasibility_batch,
    parallel_map,
)
from repro.analysis.batch import SERIAL_THRESHOLD
from repro.analysis.feasibility_study import priority_sweep, trust_sweep
from repro.analysis.indemnity_study import bundle_scaling, ordering_costs
from repro.workloads import RandomProblemConfig, random_problem, random_problem_batch


def _double(x):
    return 2 * x


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_double, range(5), processes=1) == [0, 2, 4, 6, 8]

    def test_small_batches_run_serially_even_with_processes(self):
        items = list(range(SERIAL_THRESHOLD - 1))
        assert parallel_map(_double, items, processes=4) == [2 * x for x in items]

    def test_pool_preserves_order(self):
        items = list(range(100))
        assert parallel_map(_double, items, processes=2) == [2 * x for x in items]

    def test_pool_matches_serial(self):
        items = list(range(50))
        assert parallel_map(_double, items, processes=2) == parallel_map(
            _double, items, processes=1
        )

    def test_explicit_chunksize(self):
        items = list(range(40))
        assert parallel_map(_double, items, processes=2, chunksize=5) == [
            2 * x for x in items
        ]


class TestProblemSpec:
    def test_build_matches_random_problem(self):
        config = RandomProblemConfig(n_principals=7, n_exchanges=5)
        built = ProblemSpec(config=config, seed=11).build()
        direct = random_problem(config, seed=11)
        assert [e.label for e in built.interaction.edges] == [
            e.label for e in direct.interaction.edges
        ]
        assert built.interaction.priority_edges == direct.interaction.priority_edges

    def test_trust_edges_applied_by_name(self):
        base = ProblemSpec(seed=3).build()
        principals = sorted(p.name for p in base.interaction.principals)
        truster, trustee = principals[0], principals[1]
        with_trust = ProblemSpec(seed=3, trust_edges=((truster, trustee),)).build()
        by_name = {p.name: p for p in with_trust.interaction.parties}
        assert with_trust.trust.trusts(by_name[truster], by_name[trustee])
        assert not base.trust.trusts(
            {p.name: p for p in base.interaction.parties}[truster],
            {p.name: p for p in base.interaction.parties}[trustee],
        )

    def test_specs_are_picklable(self):
        import pickle

        spec = ProblemSpec(seed=5, trust_edges=(("P1", "P2"),))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestBatchSpecs:
    def test_matches_random_problem_batch(self):
        config = RandomProblemConfig(n_principals=6, n_exchanges=4)
        specs = batch_specs(10, config, seed=21)
        rebuilt = [spec.build() for spec in specs]
        direct = random_problem_batch(10, config, seed=21)
        for a, b in zip(rebuilt, direct):
            assert [e.label for e in a.interaction.edges] == [
                e.label for e in b.interaction.edges
            ]
            assert a.interaction.priority_edges == b.interaction.priority_edges


class TestCheckFeasibilityBatch:
    def test_accepts_ready_problems_and_specs_mixed(self):
        config = RandomProblemConfig(n_principals=6, n_exchanges=4)
        spec = ProblemSpec(config=config, seed=2)
        verdicts = check_feasibility_batch([spec, spec.build()], processes=1)
        assert verdicts[0] == verdicts[1]

    def test_verdict_matches_direct_feasibility(self):
        problem = random_problem(seed=9)
        (verdict,) = check_feasibility_batch([problem], processes=1)
        direct = problem.feasibility()
        assert verdict == BatchVerdict(
            feasible=direct.feasible,
            steps=len(direct.trace.steps),
            remaining=len(direct.trace.remaining),
            blockages=len(direct.blockages),
        )

    def test_persona_ablation_threads_through(self):
        from repro.workloads import example2_source_trusts_broker

        problem = example2_source_trusts_broker()
        (with_persona,) = check_feasibility_batch([problem], processes=1)
        (without,) = check_feasibility_batch(
            [problem], enable_persona_clause=False, processes=1
        )
        assert with_persona.feasible and not without.feasible

    @pytest.mark.parametrize("strategy", ["fifo", "lifo", "random"])
    def test_pool_matches_serial_across_strategies(self, strategy):
        # The rows take no strategy: serial and pooled rows both equal the
        # counts of a trace under any strategy.
        specs = batch_specs(40, RandomProblemConfig(), seed=5)
        serial = check_feasibility_batch(specs, processes=1)
        pooled = check_feasibility_batch(specs, processes=2)
        assert pooled == serial
        for spec, row in zip(specs, serial):
            verdict = spec.build().feasibility(strategy=strategy)
            assert row == BatchVerdict(
                feasible=verdict.feasible,
                steps=len(verdict.trace.steps),
                remaining=len(verdict.trace.remaining),
                blockages=len(verdict.blockages),
            )

    def test_thousand_problem_study_is_ordered_and_deterministic(self):
        # The pipeline's acceptance criterion: >= 1000 random problems
        # through the process pool, results in input order, identical to the
        # serial path (and to a second pooled run).
        specs = batch_specs(1000, RandomProblemConfig(), seed=0)
        serial = check_feasibility_batch(specs, processes=1)
        pooled = check_feasibility_batch(specs, processes=4)
        assert len(pooled) == 1000
        assert pooled == serial
        assert pooled == check_feasibility_batch(specs, processes=4)
        # Sanity: the batch straddles the feasibility boundary, so ordering
        # mistakes could not cancel out invisibly.
        feasible = sum(1 for v in pooled if v.feasible)
        assert 0 < feasible < 1000


class TestStudiesParallelDeterminism:
    """The rewired studies must not depend on the process count."""

    def test_priority_sweep(self):
        serial = priority_sweep(probabilities=[0.0, 0.6], samples=12, processes=1)
        pooled = priority_sweep(probabilities=[0.0, 0.6], samples=12, processes=2)
        assert pooled == serial

    def test_trust_sweep(self):
        serial = trust_sweep(edge_counts=[0, 4], samples=6, processes=1)
        pooled = trust_sweep(edge_counts=[0, 4], samples=6, processes=2)
        assert pooled == serial

    def test_ordering_costs(self):
        prices = (10.0, 20.0, 30.0, 40.0)
        assert ordering_costs(prices, processes=2) == ordering_costs(
            prices, processes=1
        )

    def test_bundle_scaling(self):
        assert bundle_scaling(max_k=10, processes=2) == bundle_scaling(
            max_k=10, processes=1
        )
