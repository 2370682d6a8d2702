"""The three workloads: inputs made from a seed, one pass of timed operations.

Every call goes through a public entry point, looked up on its module at call
time so the traced run's wrappers see it, with default arguments except
``processes=1`` (a pool on a small shared host measures the scheduler).
Load is a closed loop: one caller, each operation starts when the previous
one has finished.  Each operation's output is checked against an answer the
timed path did not produce; a failed check fails that operation only.

Both end-to-end stages are reported under the same two names on every
workload, because every workload must report every end-to-end metric:

==============  ===============================  ===============================
workload        ``stage_a_s`` (median per op)    ``stage_b_s`` (median per op)
==============  ===============================  ===============================
plan-large      plan: spec text -> plan          simulate: plan -> safety report
study-small     100 recipes -> verdicts          50 chaos scenarios -> report
net-serve       wall time of one exchange        process CPU of one exchange
==============  ===============================  ===============================

Plan-large times the chain and the bundle as separate operations; each of its
stages is the chain's median plus the bundle's.  Compute times are rescaled to
a reference host speed by :func:`calibrate`, timed before every operation.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import shutil
import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable

import repro.analysis.batch as batch
import repro.core.indemnity as indemnity
import repro.net.supervisor as supervisor
import repro.sim.runtime as runtime
import repro.sim.safety as safety
import repro.spec as spec
from repro.workloads.bundles import broker_bundle
from repro.workloads.chains import resale_chain

import oracle

# ``repro.analysis`` re-exports the function ``chaos_study`` under the
# submodule's own name, so the module is fetched by its import path.
chaos = importlib.import_module("repro.analysis.chaos_study")

CHAIN_BROKERS = 256
BUNDLE_DOCS = 48
VERDICT_BLOCK = 100  # recipes per check_feasibility_batch call
CHAOS_BLOCK = 50  # scenarios per chaos_study call
CHAOS_SCENARIOS = 200
NET_BROKERS = 16
#: Generous enough that the simulator's fault-free schedule for the chain
#: completes every intermediary: at the default 60 units the simulator
#: itself reverses two of them, and the socket run a timing-dependent few.
NET_DEADLINE = 200.0
#: The supervisor's fixed shutdown grace after quiescence (wall seconds).
NET_SHUTDOWN_GRACE_S = 0.1
#: Recipes the sample oracle re-checks, per verdict class, on a seed with no
#: recorded answers.
ORACLE_SAMPLE = 2
#: Iterations of the calibration loop timed before every operation.
CALIBRATION_LOOP = 400_000
#: The calibration loop's median time on a quiet host (the 2-vCPU Xeon VM
#: with CPython 3.11 that the README's figures come from).  Compute stages
#: are reported in seconds at that host speed.
CALIBRATION_REFERENCE_S = 0.022


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that runs no program code.

    A shared host's speed drifts: on a 2-vCPU cloud VM, by up to 2x within
    minutes.  Timed just before an operation, this loop says how fast the
    host was then.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - start


class Recorder:
    """Collects one run's samples, counts and output fingerprint."""

    def __init__(self, operation: Callable[[], Any]) -> None:
        #: ``"<stage>:<operation>"`` -> per-operation seconds at the reference
        #: host speed; a stage's value is the sum of its operations' medians.
        self.samples: dict[str, list[float]] = {}
        self.raw_samples: dict[str, list[float]] = {}  # the same, as timed
        self.host_scale = 1.0  # reference / measured calibration time, per op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.operation = operation  # context manager factory, one per op
        self.timed_s = 0.0  # every operation's wall time, timed apart from any tracer
        self._digest = hashlib.sha256()

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run *fn* as one operation; returns (result, wall seconds)."""
        self.host_scale = CALIBRATION_REFERENCE_S / calibrate()
        with self.operation():
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        self.timed_s += seconds
        return result, seconds

    def sample(self, stage: str, operation: str, seconds: float,
               compute: bool = True) -> None:
        """Record *seconds* of the operation :meth:`timed` ran last.

        *compute* time is rescaled to the reference host speed by that
        operation's calibration; wall time spent asleep is not.
        """
        key = f"{stage}:{operation}"
        self.raw_samples.setdefault(key, []).append(seconds)
        scaled = seconds * self.host_scale if compute else seconds
        self.samples.setdefault(key, []).append(scaled)

    def check(self, items: int, failures: int, what: str) -> None:
        self.attempted += items
        self.failed += failures
        if failures:
            self.problems.append(f"{what}: {failures} of {items} failed")

    def output(self, *parts: object) -> None:
        self._digest.update(repr(parts).encode())

    def pass_digest(self) -> str:
        """Fingerprint of the outputs since the last call (one pass)."""
        digest, self._digest = self._digest.hexdigest()[:16], hashlib.sha256()
        return digest

    def crashed(self, items: int, what: str) -> None:
        self.check(items, items, what)
        self.problems.append(traceback.format_exc(limit=4))


def _row(verdict: Any) -> tuple[bool, int, int, int]:
    return (verdict.feasible, verdict.steps, verdict.remaining, verdict.blockages)


def _prices(rng: random.Random, n: int) -> list[float]:
    return [rng.randint(500, 5000) / 100 for _ in range(n)]


def _chain_text(rng: random.Random, brokers: int) -> str:
    margin = rng.randint(50, 150) / 100
    retail = round(margin * (brokers + 1) + rng.randint(1000, 5000) / 100, 2)
    return spec.format_problem(resale_chain(brokers, retail=retail, margin=margin))


class PlanLarge:
    """Rounds of one solvent resale chain and one broker bundle, as spec text."""

    def __init__(self, seed: int, workdir: str, brokers: int = CHAIN_BROKERS,
                 docs: int = BUNDLE_DOCS) -> None:
        rng = random.Random(seed)
        self.brokers, self.docs = brokers, docs
        self.chain_text = _chain_text(rng, brokers)
        self.bundle_text = spec.format_problem(broker_bundle(docs, _prices(rng, docs)))
        if brokers > 4:  # warm-up: the same path on small inputs
            PlanLarge(seed, workdir, 4, 3).run_pass(Recorder(nullcontext))

    def _chain(self, rec: Recorder) -> None:
        def plan() -> Any:
            problem = spec.load(self.chain_text)
            return problem, problem.feasibility(), problem.execution_sequence()

        def execute() -> Any:
            result = runtime.simulate(problem)
            return result, safety.evaluate_safety(problem, result)

        (problem, verdict, sequence), plan_s = rec.timed(plan)
        rec.sample("stage_a_s", "chain", plan_s)
        (result, report), sim_s = rec.timed(execute)
        rec.sample("stage_b_s", "chain", sim_s)
        ok = (
            verdict.feasible and not sequence.violated_constraints()
            and report.honest_parties_safe() and result.quiescent
            and len(result.completed_agents | result.reversed_agents) == self.brokers + 1
        )
        rec.check(1, 0 if ok else 1, "resale chain")
        rec.output(len(sequence), result.final.digest())

    def _bundle(self, rec: Recorder) -> None:
        def plan() -> Any:
            problem = spec.load(self.bundle_text)
            return problem, problem.feasibility(), indemnity.minimal_indemnity_plan(problem)

        def execute() -> Any:
            result = runtime.Simulation.from_plan(problem, offers).run()
            return result, safety.evaluate_safety(problem, result)

        (problem, verdict, offers), plan_s = rec.timed(plan)
        rec.sample("stage_a_s", "bundle", plan_s)
        (result, report), sim_s = rec.timed(execute)
        rec.sample("stage_b_s", "bundle", sim_s)
        # §6: a k-document all-or-nothing bundle needs exactly k-1 offers.
        ok = (
            not verdict.feasible and offers.feasible
            and len(offers.offers) == self.docs - 1
            and report.honest_parties_safe() and result.quiescent
        )
        rec.check(1, 0 if ok else 1, "broker bundle")
        rec.output(offers.total_cents, result.final.digest())

    def run_pass(self, rec: Recorder) -> None:
        try:
            self._chain(rec)
        except Exception:  # a crash fails this operation; the run goes on
            rec.crashed(1, "resale chain")
        try:
            self._bundle(rec)
        except Exception:
            rec.crashed(1, "broker bundle")

    def finish(self, rec: Recorder) -> None:
        """Nothing to re-check outside the timed region."""


class StudySmall:
    """~1000 seeded recipes through the batch driver, then a chaos sweep."""

    def __init__(self, seed: int, workdir: str, problems: int = oracle.STUDY_PROBLEMS,
                 scenarios: int = CHAOS_SCENARIOS) -> None:
        self.seed = seed
        self.specs = batch.batch_specs(problems, oracle.STUDY_CONFIG, seed=seed)
        self.expected = oracle.load_expected(seed) if problems == oracle.STUDY_PROBLEMS else None
        self.chaos_configs = [
            chaos.ChaosConfig(scenarios=CHAOS_BLOCK, seed=seed * 1000 + block)
            for block in range(scenarios // CHAOS_BLOCK)
        ]
        self.verdicts: list[Any] = []
        if problems > 10:  # warm-up: the same path on small inputs
            small = StudySmall(seed, workdir, problems=10, scenarios=0)
            small.chaos_configs = [chaos.ChaosConfig(scenarios=2, seed=seed)]
            small.run_pass(Recorder(nullcontext))

    def run_pass(self, rec: Recorder) -> None:
        verdicts: list[Any] = []
        blocks = range(0, len(self.specs), VERDICT_BLOCK)
        baseline_harm = 0
        for i, start in enumerate(blocks):
            block = self.specs[start : start + VERDICT_BLOCK]
            try:
                rows, seconds = rec.timed(
                    lambda: batch.check_feasibility_batch(block, processes=1)
                )
            except Exception:
                rec.crashed(len(block), "verdict block")
                continue
            verdicts.extend(rows)
            rec.sample("stage_a_s", "verdicts", seconds)
            rec.output([_row(v) for v in rows])
            if self.expected is not None:  # otherwise finish() checks a sample
                wrong = sum(_row(v) != self.expected[start + j] for j, v in enumerate(rows))
                rec.check(len(rows), wrong, "verdicts vs reference engine")
            if i < len(self.chaos_configs):
                baseline_harm += self._chaos_block(rec, self.chaos_configs[i])
        if self.chaos_configs:
            # The sweep is only credible if the unprotected baseline was harmed.
            rec.check(1, 0 if baseline_harm else 1, "chaos differential arm")
        self.verdicts = verdicts

    def _chaos_block(self, rec: Recorder, config: Any) -> int:
        try:
            report, seconds = rec.timed(lambda: chaos.chaos_study(config, processes=1))
        except Exception:
            rec.crashed(config.scenarios, "chaos block")
            return 0
        rec.sample("stage_b_s", "chaos", seconds)
        rec.check(len(report.verdicts), len(report.unsafe_scenarios), "chaos scenarios unsafe")
        rec.output(report.simulated, report.violation_count, report.baseline_violations,
                   [v.fault_digest for v in report.verdicts])
        return report.baseline_violations

    def finish(self, rec: Recorder) -> None:
        """Without recorded answers, re-check a seeded sample on the reference engine."""
        if self.expected is not None or len(self.verdicts) != len(self.specs):
            return
        rng = random.Random(self.seed)
        feasible = [i for i, v in enumerate(self.verdicts) if v.feasible]
        infeasible = [i for i, v in enumerate(self.verdicts) if not v.feasible]
        sample = rng.sample(feasible, min(ORACLE_SAMPLE, len(feasible))) + rng.sample(
            infeasible, min(ORACLE_SAMPLE, len(infeasible))
        )
        wrong = sum(
            _row(self.verdicts[i]) != oracle.reference_verdict(self.specs[i]) for i in sample
        )
        rec.check(len(sample), wrong, "sampled verdicts vs reference engine")


class NetServe:
    """16-broker resale chains, one at a time, over localhost TCP in task mode."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.problem = spec.load(_chain_text(random.Random(seed), NET_BROKERS))
        self.config = supervisor.NetRunConfig(spawn="task", deadline=NET_DEADLINE)
        # The oracle: the simulator's final ledger for the same problem and deadline.
        expected = runtime.simulate(self.problem, deadline=NET_DEADLINE)
        if not (expected.quiescent and len(expected.completed_agents) == NET_BROKERS + 1):
            raise RuntimeError("the simulator does not complete the net-serve chain")
        self.expected_digest = expected.final.digest()
        scale = self.config.time_scale
        self.floor_s = (
            expected.duration * scale
            + max(self.config.quiet_period * scale, 0.25)
            + NET_SHUTDOWN_GRACE_S
        )
        self.workdir = os.path.join(workdir, "net")
        self.runs = 0

    def run_pass(self, rec: Recorder) -> None:
        run_dir = os.path.join(self.workdir, f"run{self.runs}")
        self.runs += 1
        shutil.rmtree(run_dir, ignore_errors=True)

        def exchange() -> Any:
            cpu = time.process_time()
            run = supervisor.run_networked_exchange(self.problem, run_dir, self.config)
            return run, time.process_time() - cpu

        try:
            (run, cpu), seconds = rec.timed(exchange)
        except Exception:
            rec.crashed(1, "networked exchange")
            return
        digest = run.result.final.digest()
        ok = (
            run.outcome == "quiescent" and run.result.quiescent
            and digest == self.expected_digest and run.report.honest_parties_safe()
            and os.path.exists(os.path.join(run_dir, "provenance.json"))
        )
        rec.check(1, 0 if ok else 1, "networked exchange")
        rec.output(digest)
        rec.sample("stage_a_s", "settle", seconds, compute=False)
        rec.sample("stage_b_s", "cpu", cpu)
        shutil.rmtree(run_dir, ignore_errors=True)

    def finish(self, rec: Recorder) -> None:
        """Nothing to re-check outside the timed region."""


WORKLOADS = {"plan-large": PlanLarge, "study-small": StudySmall, "net-serve": NetServe}
