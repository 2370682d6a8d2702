"""The differential oracle stack: one problem, every semantics, no excuses.

Four independent realizations of the paper's semantics are run against the
same problem and any disagreement outside the *documented* relations is a
:class:`Discrepancy`:

* the **trace engine** (:func:`repro.core.reduction.reduce_graph`) vs
  the **naive reference engine**
  (:mod:`repro.core.reduction_reference`) — must be step-for-step identical
  across every strategy and with the §4.2.3 persona clause on and off;
* the **free-order verdict loop** (:mod:`repro.core.flatcore`) — must land
  on the fifo trace's feasibility/steps/remaining/blockage counts (the
  unique-normal-form claim of DESIGN.md §11, checked on every fuzz case);
* **confluence** (§4.2) — the verdict and the residual-edge count must not
  depend on the strategy;
* **Petri coverability** (§7.4) — reduction-feasible must imply coverable
  (the reverse is the paper's documented incompleteness gap, recorded as
  ``petri_gap`` but *not* flagged);
* **execution + simulation** (§5, §2.3) — a feasible problem's recovered
  sequence must violate no possession constraint, and replaying it through
  the discrete-event simulator must complete every exchange with every
  party's safety verdict OK and the trusted conduits neutral.

One more *documented* divergence is tolerated: an **over-sale** (the same
principal providing the same document through several intermediaries, see
:func:`repro.workloads.chains.oversale`).  The sequencing-graph test is
possession-blind and calls it feasible while the token-linear Petri net and
the §5 scheduler both catch the physical impossibility; such problems are
recorded with ``oversold=True`` and the feasible-implies-executable checks
are inverted rather than flagged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core import flatcore
from repro.core.execution import recover_execution
from repro.core.problem import ExchangeProblem
from repro.core.reduction import ReductionTrace, reduce_graph
from repro.core.reduction_reference import reference_reduce
from repro.errors import ReproError
from repro.petri.translate import exchange_completable
from repro.sim.runtime import simulate
from repro.sim.safety import evaluate_safety

STRATEGIES = ("fifo", "lifo", "random")


@dataclass(frozen=True)
class Discrepancy:
    """One cross-oracle disagreement (or broken metamorphic relation).

    ``trace_a``/``trace_b`` carry the rendered divergent trace pair when the
    disagreement is between two reduction runs (engine-divergence,
    flat-divergence, confluence): the full step-by-step record of each side,
    so a fuzz hit is debuggable from the report alone.  Empty for
    discrepancy kinds that have no two traces to show.
    """

    kind: str
    detail: str
    trace_a: str = ""
    trace_b: str = ""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass(frozen=True)
class OracleVerdicts:
    """The flattened per-oracle verdicts for one problem."""

    reduction_feasible: bool
    reference_feasible: bool
    flat_feasible: bool  # the free-order verdict loop's answer
    petri_coverable: bool
    petri_gap: bool  # coverable but not shown feasible — documented §4.2.4
    simulated: bool
    simulation_safe: bool | None
    oversold: bool = False  # possession-blind verdict — documented limitation

    def to_dict(self) -> dict[str, object]:
        return {
            "reduction": self.reduction_feasible,
            "reference": self.reference_feasible,
            "flat": self.flat_feasible,
            "petri": self.petri_coverable,
            "petri_gap": self.petri_gap,
            "simulated": self.simulated,
            "simulation_safe": self.simulation_safe,
            "oversold": self.oversold,
        }


@dataclass(frozen=True)
class CrossCheckResult:
    """Everything one differential pass observed."""

    verdicts: OracleVerdicts
    discrepancies: tuple[Discrepancy, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def trace_key(trace: ReductionTrace) -> tuple[object, ...]:
    """Everything observable about a reduction, flattened for comparison."""
    return (
        trace.feasible,
        [
            (
                step.index,
                step.rule,
                step.edge,
                step.via_persona,
                step.commitment_disconnected,
                step.conjunction_disconnected,
            )
            for step in trace.steps
        ],
        trace.remaining,
        trace.commitment_order,
        trace.conjunction_order,
        [(b.edge, b.blocking_red) for b in trace.blockages],
    )


def oversold_documents(problem: ExchangeProblem) -> tuple[str, ...]:
    """Documents the same principal promised through more than one edge.

    An over-sale (:func:`repro.workloads.chains.oversale`) is the documented
    blind spot of the sequencing-graph test: one copy of a document cannot
    satisfy several buyers, but §4.2 reduction never counts copies.  Resale
    chains are *not* flagged — a reseller provides each document on exactly
    one edge and re-acquires it on another.
    """
    counts: dict[tuple[str, str], int] = {}
    for edge in problem.interaction.edges:
        if edge.provides.is_money:
            continue
        key = (edge.principal.name, edge.provides.label)
        counts[key] = counts.get(key, 0) + 1
    return tuple(
        sorted(label for (_, label), n in counts.items() if n > 1)
    )


def cross_check(
    problem: ExchangeProblem,
    seed: int = 0,
    run_simulation: bool = True,
) -> CrossCheckResult:
    """Run *problem* through every oracle; flag any disagreement.

    ``seed`` drives the ``random`` reduction strategy (both engines see an
    identically seeded stream).  ``run_simulation=False`` skips the §5
    replay — the shrinker uses this to keep its inner loop fast when the
    discrepancy under reduction is not a simulation one.
    """
    discrepancies: list[Discrepancy] = []
    reference_feasible = False
    base: ReductionTrace | None = None

    for persona in (True, False):
        for strategy in STRATEGIES:
            trace = reduce_graph(
                problem.sequencing_graph(),
                strategy=strategy,
                rng=random.Random(seed),
                enable_persona_clause=persona,
            )
            reference = reference_reduce(
                problem.sequencing_graph(),
                strategy=strategy,
                rng=random.Random(seed),
                enable_persona_clause=persona,
            )
            if trace_key(trace) != trace_key(reference):
                discrepancies.append(
                    Discrepancy(
                        "engine-divergence",
                        f"strategy={strategy} persona={persona}: engine "
                        f"(feasible={trace.feasible}, "
                        f"steps={len(trace.steps)}, "
                        f"remaining={len(trace.remaining)}) != reference "
                        f"(feasible={reference.feasible}, "
                        f"steps={len(reference.steps)}, "
                        f"remaining={len(reference.remaining)})",
                        trace_a=str(trace),
                        trace_b=str(reference),
                    )
                )
            if persona and strategy == "fifo":
                base = trace
                reference_feasible = reference.feasible
            elif persona and base is not None:
                if (
                    trace.feasible != base.feasible
                    or len(trace.remaining) != len(base.remaining)
                ):
                    discrepancies.append(
                        Discrepancy(
                            "confluence",
                            f"strategy={strategy}: feasible="
                            f"{trace.feasible} remaining="
                            f"{len(trace.remaining)} but fifo gave "
                            f"feasible={base.feasible} remaining="
                            f"{len(base.remaining)}",
                            trace_a=str(trace),
                            trace_b=str(base),
                        )
                    )
    assert base is not None

    # The free-order verdict loop against the fifo base: same normal form,
    # so same counts — not just the same boolean.
    flat_verdict = flatcore.check_feasibility_flat(problem.sequencing_graph())
    base_counts = (
        base.feasible,
        len(base.steps),
        len(base.remaining),
        len(base.blockages),
    )
    flat_counts = (
        flat_verdict.feasible,
        flat_verdict.steps,
        flat_verdict.remaining,
        flat_verdict.blockages,
    )
    if flat_counts != base_counts:
        discrepancies.append(
            Discrepancy(
                "flat-divergence",
                "free-order verdict loop disagrees with the fifo trace: "
                f"flat (feasible, steps, remaining, blockages)="
                f"{flat_counts} != trace {base_counts}",
                trace_a=repr(flat_verdict),
                trace_b=str(base),
            )
        )

    oversold = bool(oversold_documents(problem))
    petri = exchange_completable(problem)
    if base.feasible and not petri.coverable and not oversold:
        discrepancies.append(
            Discrepancy(
                "petri-unsound",
                "reduction certified feasibility but the Petri completion "
                "marking is not coverable",
            )
        )
    petri_gap = petri.coverable and not base.feasible

    simulated = False
    simulation_safe: bool | None = None
    if base.feasible and run_simulation and not oversold:
        simulated = True
        simulation_safe = False
        try:
            sequence = recover_execution(base)
        except ReproError as exc:
            discrepancies.append(
                Discrepancy(
                    "execution-recovery",
                    f"feasible trace admitted no execution sequence: {exc}",
                )
            )
        else:
            violated = sequence.violated_constraints()
            if violated:
                discrepancies.append(
                    Discrepancy(
                        "execution-order",
                        "recovered sequence violates possession constraints: "
                        + "; ".join(str(c) for c in violated),
                    )
                )
            try:
                result = simulate(problem)
            except ReproError as exc:
                discrepancies.append(
                    Discrepancy(
                        "simulation-crash",
                        f"simulator failed on a feasible problem: {exc}",
                    )
                )
            else:
                report = evaluate_safety(problem, result)
                simulation_safe = report.honest_parties_safe()
                if not simulation_safe:
                    bad = [
                        f"{v.party.name}: {'; '.join(v.reasons)}"
                        for v in report.verdicts
                        if not v.ok
                    ]
                    discrepancies.append(
                        Discrepancy(
                            "simulation-safety",
                            "honest party ended unacceptably: " + " | ".join(bad),
                        )
                    )
                completed = set(result.completed_agents)
                expected = set(problem.interaction.trusted_components)
                if completed != expected:
                    missing = sorted(t.name for t in expected - completed)
                    discrepancies.append(
                        Discrepancy(
                            "simulation-incomplete",
                            f"exchanges never completed at: {missing}",
                        )
                    )
                if not result.quiescent:
                    discrepancies.append(
                        Discrepancy(
                            "simulation-stranded",
                            f"{result.stranded_messages} message(s) stranded "
                            "on a fault-free wire",
                        )
                    )

    verdicts = OracleVerdicts(
        reduction_feasible=base.feasible,
        reference_feasible=reference_feasible,
        petri_coverable=petri.coverable,
        petri_gap=petri_gap,
        simulated=simulated,
        simulation_safe=simulation_safe,
        oversold=oversold,
        flat_feasible=flat_verdict.feasible,
    )
    return CrossCheckResult(verdicts=verdicts, discrepancies=tuple(discrepancies))
