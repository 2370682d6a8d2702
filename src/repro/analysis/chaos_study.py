"""Chaos study: Monte-Carlo fault injection against the safety guarantee.

The paper's theorem (§1, §5) — a feasible exchange executed per the
recovered sequence never leaves an honest participant out of pocket — is
proven on a perfect transport.  This study re-checks it mechanically on a
hostile one: it crosses random exchange problems with random
:class:`~repro.sim.faults.FaultPlan` schedules (drop, duplication, delay,
partitions, crashes, permanent silence), runs each feasible instance to
quiescence under the synthesized protocol, and feeds the result through
:mod:`repro.sim.safety`.

The claim under test is scoped the way crash-tolerant protocols always are:
the guarantee protects *correct* processes.  A permanently silent principal
is behaviourally a total withholder — the §2.5 reversal path protects
everyone else from it, but it cannot itself be promised a good outcome, so
it is excluded from the honest set exactly like a scripted adversary.
Crash-*and-restart* parties stay in the honest set: they are slow, not
wrong, and must still converge to one of the four §2.3 acceptable states.

Every sweep also runs the **differential arm**: the same fault plans against
the naive no-intermediary exchange
(:func:`repro.baselines.direct.direct_exchange_under_faults`).  The harness
is only credible if that arm *does* report honest losses — a detector that
never fires might be broken, not lucky.

Work fans out over :func:`repro.analysis.batch.parallel_map`; every scenario
is a pure function of its seeds, so serial and pooled sweeps produce
identical verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import random

from repro.analysis.batch import ProblemSpec, effective_cpu_count, instrumented_map
from repro.baselines.direct import direct_exchange_under_faults
from repro.core.flatcore import check_feasibility_flat
from repro.obs.metrics import MetricsSnapshot, snapshot_digest
from repro.obs.runtime import tracing
from repro.sim.faults import FaultConfig, random_fault_plan
from repro.sim.runtime import Simulation
from repro.sim.safety import evaluate_safety
from repro.workloads.random_graphs import RandomProblemConfig


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos sweep.

    ``problems`` uses a lower priority density than the feasibility studies
    so most generated instances are feasible (infeasible ones are recorded
    but not simulated — the theorem says nothing about them).  ``deadline``
    leaves the trusted components' reversal clocks far beyond the fault
    config's ``heal_at`` horizon: link faults delay honest deposits, they
    must not be able to masquerade as reneging.
    """

    scenarios: int = 500
    seed: int = 0
    problems: RandomProblemConfig = field(
        default_factory=lambda: RandomProblemConfig(priority_probability=0.1)
    )
    faults: FaultConfig = field(default_factory=FaultConfig)
    deadline: float = 200.0
    latency: float = 1.0
    max_time: float = 5000.0
    working_capital_cents: int = 0


@dataclass(frozen=True)
class ChaosScenario:
    """One picklable problem×fault-plan cell of the sweep."""

    index: int
    problem_seed: float
    fault_seed: int
    config: ChaosConfig


@dataclass(frozen=True)
class ChaosVerdict:
    """One scenario's outcome, flattened for transport off a worker.

    ``message_trace`` is populated only for violating scenarios: the worker
    deterministically re-runs the scenario under span tracing and attaches
    the causal envelope log (every send/drop/retransmit/deliver, in event
    order), so a violation arrives with the wire's full story, not just a
    digest.
    """

    index: int
    problem_seed: float
    fault_seed: int
    fault_digest: str
    feasible: bool
    simulated: bool
    safe: bool
    violations: tuple[str, ...]
    recovery: str  # complete | reversed | mixed | idle | not-run
    silent_parties: tuple[str, ...]
    crashed_parties: tuple[str, ...]
    messages: int
    retransmits: int
    dropped: int
    duplicates: int
    deferred: int
    abandoned: int
    stranded: int
    quiescent: bool
    duration: float
    baseline_ok: bool
    message_trace: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "problem_seed": self.problem_seed,
            "fault_seed": self.fault_seed,
            "fault_digest": self.fault_digest,
            "feasible": self.feasible,
            "simulated": self.simulated,
            "safe": self.safe,
            "violations": list(self.violations),
            "recovery": self.recovery,
            "silent_parties": list(self.silent_parties),
            "crashed_parties": list(self.crashed_parties),
            "messages": self.messages,
            "retransmits": self.retransmits,
            "dropped": self.dropped,
            "duplicates": self.duplicates,
            "deferred": self.deferred,
            "abandoned": self.abandoned,
            "stranded": self.stranded,
            "quiescent": self.quiescent,
            "duration": self.duration,
            "baseline_ok": self.baseline_ok,
            "message_trace": list(self.message_trace),
        }


def _recovery_label(completed: int, reversed_: int) -> str:
    if completed and reversed_:
        return "mixed"
    if completed:
        return "complete"
    if reversed_:
        return "reversed"
    return "idle"


def _run_scenario(scenario: ChaosScenario) -> ChaosVerdict:
    """Worker: one problem × one fault plan → one flat verdict row."""
    cfg = scenario.config
    problem = ProblemSpec(config=cfg.problems, seed=scenario.problem_seed).build()
    feasible = check_feasibility_flat(problem.sequencing_graph()).feasible
    plan = random_fault_plan(
        principals=[p.name for p in problem.interaction.principals],
        trusted=[t.name for t in problem.interaction.trusted_components],
        seed=scenario.fault_seed,
        config=cfg.faults,
    )
    baseline = direct_exchange_under_faults(plan)
    silent = tuple(sorted(plan.permanently_silent()))
    crashed = tuple(sorted(plan.faulted_parties() - set(silent)))

    if not feasible:
        return ChaosVerdict(
            index=scenario.index,
            problem_seed=scenario.problem_seed,
            fault_seed=scenario.fault_seed,
            fault_digest=plan.digest(),
            feasible=False,
            simulated=False,
            safe=True,
            violations=(),
            recovery="not-run",
            silent_parties=silent,
            crashed_parties=crashed,
            messages=0,
            retransmits=0,
            dropped=0,
            duplicates=0,
            deferred=0,
            abandoned=0,
            stranded=0,
            quiescent=True,
            duration=0.0,
            baseline_ok=baseline.all_ok,
        )

    sim = Simulation.from_problem(
        problem,
        latency=cfg.latency,
        deadline=cfg.deadline,
        working_capital_cents=cfg.working_capital_cents,
        fault_plan=plan,
        seed=scenario.problem_seed,
    )
    result = sim.run(max_time=cfg.max_time)
    report = evaluate_safety(problem, result)
    excluded = frozenset(silent)
    violations = tuple(
        f"{v.party.name}: {reason}"
        for v in report.verdicts
        if v.party.name not in excluded
        for reason in v.reasons
    )
    message_trace: tuple[str, ...] = ()
    if violations:
        # A violation is worth a second, traced run: everything is a pure
        # function of the seeds, so the replay reproduces the run exactly
        # and the causal envelope log explains what the wire did to it.
        with tracing():
            replay_plan = random_fault_plan(
                principals=[p.name for p in problem.interaction.principals],
                trusted=[t.name for t in problem.interaction.trusted_components],
                seed=scenario.fault_seed,
                config=cfg.faults,
            )
            replay = Simulation.from_problem(
                problem,
                latency=cfg.latency,
                deadline=cfg.deadline,
                working_capital_cents=cfg.working_capital_cents,
                fault_plan=replay_plan,
                seed=scenario.problem_seed,
            )
            replay.run(max_time=cfg.max_time)
            if replay.network.message_obs is not None:
                message_trace = replay.network.message_obs.trace_lines()
    return ChaosVerdict(
        index=scenario.index,
        problem_seed=scenario.problem_seed,
        fault_seed=scenario.fault_seed,
        fault_digest=plan.digest(),
        feasible=True,
        simulated=True,
        safe=not violations,
        violations=violations,
        recovery=_recovery_label(
            len(result.completed_agents), len(result.reversed_agents)
        ),
        silent_parties=silent,
        crashed_parties=crashed,
        messages=result.stats.messages_sent,
        retransmits=result.stats.retransmits,
        dropped=result.stats.dropped,
        duplicates=result.stats.duplicates,
        deferred=result.stats.deferred,
        abandoned=result.stats.abandoned,
        stranded=result.stranded_messages,
        quiescent=result.quiescent,
        duration=result.duration,
        baseline_ok=baseline.all_ok,
        message_trace=message_trace,
    )


@dataclass(frozen=True)
class ChaosReport:
    """Aggregated verdicts for one sweep.

    ``metrics`` is the merged observability snapshot over every scenario;
    its digest is identical between serial and pooled sweeps.
    """

    config: ChaosConfig
    verdicts: tuple[ChaosVerdict, ...]
    metrics: MetricsSnapshot = ()

    # ------------------------------------------------------------- aggregates

    @property
    def simulated(self) -> int:
        return sum(1 for v in self.verdicts if v.simulated)

    @property
    def violation_count(self) -> int:
        return sum(len(v.violations) for v in self.verdicts)

    @property
    def unsafe_scenarios(self) -> tuple[ChaosVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.safe)

    @property
    def baseline_violations(self) -> int:
        """Scenarios where the naive direct exchange harmed an honest party."""
        return sum(1 for v in self.verdicts if not v.baseline_ok)

    @property
    def recovery_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.verdicts:
            if v.simulated:
                counts[v.recovery] = counts.get(v.recovery, 0) + 1
        return counts

    @property
    def differential_ok(self) -> bool:
        """The harness detected harm in the unprotected arm (so a clean
        protected arm means something)."""
        return self.baseline_violations >= 1

    def retransmit_stats(self) -> tuple[float, int]:
        """(mean, max) retransmits over simulated scenarios."""
        counts = [v.retransmits for v in self.verdicts if v.simulated]
        if not counts:
            return 0.0, 0
        return sum(counts) / len(counts), max(counts)

    def duration_stats(self) -> tuple[float, float]:
        """(mean, max) simulated run duration."""
        times = [v.duration for v in self.verdicts if v.simulated]
        if not times:
            return 0.0, 0.0
        return sum(times) / len(times), max(times)

    # ----------------------------------------------------------------- output

    def describe(self) -> list[str]:
        mean_rt, max_rt = self.retransmit_stats()
        mean_t, max_t = self.duration_stats()
        lines = [
            f"chaos sweep: {len(self.verdicts)} scenarios "
            f"(seed={self.config.seed}, drop={self.config.faults.drop}, "
            f"crash={self.config.faults.crash_probability})",
            f"  simulated (feasible): {self.simulated}",
            f"  safety violations:    {self.violation_count} "
            f"in {len(self.unsafe_scenarios)} scenario(s)",
            f"  recovery paths:       "
            + (
                ", ".join(
                    f"{k}={n}" for k, n in sorted(self.recovery_counts.items())
                )
                or "none"
            ),
            f"  retransmits:          mean {mean_rt:.1f}, max {max_rt}",
            f"  run duration:         mean {mean_t:.1f}, max {max_t:.1f}",
            f"  direct-baseline harm: {self.baseline_violations} scenario(s) "
            f"({'detector armed' if self.differential_ok else 'DETECTOR SILENT'})",
        ]
        for v in self.unsafe_scenarios:
            lines.append(
                f"  VIOLATION scenario #{v.index} "
                f"(problem_seed={v.problem_seed!r}, fault_seed={v.fault_seed}, "
                f"digest={v.fault_digest}): " + "; ".join(v.violations)
            )
            lines.extend(f"    {line}" for line in v.message_trace)
        lines.append(f"  metrics digest:       {self.metrics_digest()}")
        return lines

    def metrics_digest(self) -> str:
        """Hash of the merged observability metrics (serial == pooled)."""
        return snapshot_digest(self.metrics)

    def to_dict(self) -> dict:
        return {
            "scenarios": len(self.verdicts),
            "seed": self.config.seed,
            "process_cpus": effective_cpu_count(),
            "simulated": self.simulated,
            "violation_count": self.violation_count,
            "unsafe_scenarios": [v.to_dict() for v in self.unsafe_scenarios],
            "recovery_counts": self.recovery_counts,
            "baseline_violations": self.baseline_violations,
            "differential_ok": self.differential_ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "metrics_digest": self.metrics_digest(),
        }


def chaos_scenarios(config: ChaosConfig) -> list[ChaosScenario]:
    """Derive the sweep's scenario cells from its master seed.

    Problem seeds follow the same ``rng.random()`` stream discipline as
    :func:`repro.analysis.batch.batch_specs`; fault seeds draw integers from
    the same generator, so one master seed pins the whole sweep.
    """
    rng = random.Random(config.seed)
    return [
        ChaosScenario(
            index=i,
            problem_seed=rng.random(),
            fault_seed=rng.randrange(2**31),
            config=config,
        )
        for i in range(config.scenarios)
    ]


def chaos_study(
    config: ChaosConfig = ChaosConfig(),
    *,
    processes: int | None = None,
    chunksize: int | None = None,
) -> ChaosReport:
    """Run the sweep (serial or pooled — verdicts are identical either way)."""
    verdicts, metrics = instrumented_map(
        _run_scenario,
        chaos_scenarios(config),
        processes=processes,
        chunksize=chunksize,
    )
    return ChaosReport(config=config, verdicts=tuple(verdicts), metrics=metrics)
