"""Which repro functions the traced run wraps, and the per-layer metrics.

``WRAPS`` is the whole instrumentation: one row per wrapped function, naming
its layer span and the workloads on which it must record at least one call
(the tracer self-test).  An empty workload set is a prediction too: the
``core.flatcore`` entry points run on no workload while every entry point
keeps its default ``engine="indexed"``.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass
from typing import Any

import repro.analysis.batch
import repro.core.execution
import repro.core.flatcore
import repro.core.indemnity
import repro.core.protocol
import repro.core.reduction
import repro.net.bootstrap
import repro.net.supervisor
import repro.net.wire
import repro.sim.safety
import repro.spec.compiler
import repro.workloads.random_graphs
from repro.core.interaction import InteractionGraph
from repro.core.sequencing import SequencingGraph
from repro.net.proxy import NetFaultProxy
from repro.net.wal import WriteAheadLog
from repro.sim.runtime import Simulation
from tracer import SpanTracer

PLAN, STUDY, NET = "plan-large", "study-small", "net-serve"
ALL = frozenset({PLAN, STUDY, NET})

LAYERS = (
    "spec", "core.interaction", "core.sequencing", "core.reduction",
    "core.execution", "core.indemnity", "core.protocol", "sim", "workloads",
    "analysis", "net",
)
SIM_SPANS = ("sim.setup", "sim.run", "sim.safety")


def _sequencing_edges(t: SpanTracer, graph: Any, args: tuple, kwargs: dict) -> None:
    t.counts["core.sequencing.edges"] += len(graph.edges)


def _reduction_steps(t: SpanTracer, trace: Any, args: tuple, kwargs: dict) -> None:
    t.counts["core.reduction.steps"] += len(trace.steps)
    if t.inside("core.indemnity"):
        t.counts["core.indemnity.reductions"] += 1


def _execution_steps(t: SpanTracer, sequence: Any, args: tuple, kwargs: dict) -> None:
    t.counts["core.execution.steps"] += len(sequence)


def _indemnity_offers(t: SpanTracer, plan: Any, args: tuple, kwargs: dict) -> None:
    t.counts["core.indemnity.offers"] += len(plan.offers)


def _sim_messages(t: SpanTracer, result: Any, args: tuple, kwargs: dict) -> None:
    t.counts["sim.messages_delivered"] += result.stats.messages_delivered
    t.counts["sim.retransmits"] += result.stats.retransmits
    t.counts["sim.dropped"] += result.stats.dropped


def _chaos_simulated(t: SpanTracer, report: Any, args: tuple, kwargs: dict) -> None:
    t.counts["analysis.chaos.simulated"] += report.simulated
    t.counts["analysis.chaos.scenarios"] += len(report.verdicts)


def _frame_out(t: SpanTracer, frame: bytes, args: tuple, kwargs: dict) -> None:
    t.counts["net.wire.frames"] += 1
    t.counts["net.wire.bytes"] += len(frame)


def _frame_in(t: SpanTracer, obj: Any, args: tuple, kwargs: dict) -> None:
    t.counts["net.wire.frames"] += 1
    t.counts["net.wire.bytes"] += len(args[0]) + 4  # payload + length prefix


def _wal_record(t: SpanTracer, result: Any, args: tuple, kwargs: dict) -> None:
    t.counts["net.wal.records"] += 1


@dataclass(frozen=True)
class Wrap:
    layer: str
    owner: Any  # a module or a class
    attr: str
    span: str = ""  # defaults to the layer
    workloads: frozenset[str] = ALL
    after: Any = None
    mode: str = "span"  # "span" | "coroutine" (counted only) | "mark" (timestamped)


_IG, _SG = InteractionGraph, SequencingGraph
_CHAOS = importlib.import_module("repro.analysis.chaos_study")  # shadowed by its function
_FLAT = repro.core.flatcore

WRAPS: tuple[Wrap, ...] = (
    Wrap("spec", repro.spec.compiler, "load", workloads=frozenset({PLAN})),
    Wrap("spec", repro.spec.compiler, "load_file", workloads=frozenset({NET})),
    *(Wrap("core.interaction", _IG, name) for name in (
        "add_edge", "mark_priority", "edges_at", "counterparts", "expects", "validate")),
    # The spec compiler adds edges one by one; only the generators pair them.
    Wrap("core.interaction", _IG, "add_exchange", workloads=frozenset({STUDY})),
    Wrap("core.sequencing", _SG, "from_interaction", after=_sequencing_edges),
    Wrap("core.reduction", repro.core.reduction, "reduce_graph", after=_reduction_steps),
    *(Wrap("core.reduction", _FLAT, name, workloads=frozenset()) for name in (
        "compile_graph", "check_feasibility_flat", "check_feasibility_flat_batch")),
    Wrap("core.reduction", _FLAT, "reduce_graph_flat", workloads=frozenset(),
         after=_reduction_steps),
    Wrap("core.execution", repro.core.execution, "recover_execution",
         after=_execution_steps),
    Wrap("core.indemnity", repro.core.indemnity, "minimal_indemnity_plan",
         workloads=frozenset({PLAN})),
    Wrap("core.indemnity", repro.core.indemnity, "plan_indemnities",
         workloads=frozenset({PLAN}), after=_indemnity_offers),
    Wrap("core.protocol", repro.core.protocol, "synthesize_protocol"),
    Wrap("sim", Simulation, "from_problem", "sim.setup",
         workloads=frozenset({PLAN, STUDY})),
    Wrap("sim", Simulation, "from_plan", "sim.setup", workloads=frozenset({PLAN})),
    Wrap("sim", Simulation, "run", "sim.run", workloads=frozenset({PLAN, STUDY}),
         after=_sim_messages),
    Wrap("sim", repro.sim.safety, "evaluate_safety", "sim.safety"),
    Wrap("workloads", repro.workloads.random_graphs, "random_problem",
         workloads=frozenset({STUDY})),
    Wrap("analysis", repro.analysis.batch, "check_feasibility_batch",
         workloads=frozenset({STUDY})),
    Wrap("analysis", _CHAOS, "chaos_study",
         workloads=frozenset({STUDY}), after=_chaos_simulated),
    *(Wrap("net", owner, attr, workloads=frozenset({NET}), after=after, mode=mode)
      for owner, attr, after, mode in (
          (repro.net.supervisor, "run_networked_exchange", None, "span"),
          (repro.net.bootstrap, "derive_protocol", None, "span"),
          (WriteAheadLog, "append", _wal_record, "span"),
          (repro.net.wire, "write_frame", None, "span"),
          (repro.net.wire, "encode_frame", _frame_out, "span"),
          (repro.net.wire, "decode_frame", _frame_in, "span"),
          (repro.net.wire, "read_frame", None, "coroutine"),
          (NetFaultProxy, "_deliver", None, "span"),
          (repro.net.supervisor._NodeHandle, "spawn", None, "mark"),
          (NetFaultProxy, "open_for_business", None, "mark"),
      )),
)

def install(tracer: SpanTracer) -> dict[str, Wrap]:
    """Wrap every row of :data:`WRAPS`; returns call key -> row."""
    keys: dict[str, Wrap] = {}
    for row in WRAPS:
        span = row.span or row.layer
        if isinstance(row.owner, type):
            key = tracer.wrap_method(row.owner, row.attr, span, row.after, row.mode)
        else:
            key = tracer.wrap_function(row.owner, row.attr, span, row.after, row.mode)
        keys[key] = row
    return keys


def self_test(workload: str, keys: dict[str, Wrap], tracer: SpanTracer) -> list[str]:
    """Wrapped functions that never ran on a workload that must exercise them."""
    return sorted(
        key for key, row in keys.items()
        if workload in row.workloads and tracer.counts[key] == 0
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: SpanTracer, keys: dict[str, Wrap], passes: int,
    net_floor_s: float, settle_samples: list[float],
) -> dict[str, float]:
    """Per-layer metrics, each per pass (one pass = the workload's full input set)."""
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls = sum(counts[key] for key, row in keys.items() if row.layer == layer)
        self_s = sum(
            t for name, t in selfs.items() if name == layer or name.startswith(layer + ".")
        )
        metrics[f"{layer}.calls"] = calls / passes
        metrics[f"{layer}.self_s"] = self_s / passes
    for span in SIM_SPANS:
        metrics[f"{span}.self_s"] = selfs.get(span, 0.0) / passes
    for name in (
        "core.sequencing.edges", "core.reduction.steps", "core.execution.steps",
        "sim.messages_delivered", "sim.retransmits", "sim.dropped",
        "net.wal.records", "net.wire.frames", "net.wire.bytes",
    ):
        metrics[name] = counts[name] / passes
    metrics["core.indemnity.reductions_per_offer"] = _ratio(
        counts["core.indemnity.offers"], counts["core.indemnity.reductions"]
    )
    metrics["analysis.chaos.simulated_ratio"] = _ratio(
        counts["analysis.chaos.simulated"], counts["analysis.chaos.scenarios"]
    )
    spawn_key = "repro.net.supervisor._NodeHandle.spawn"
    ready_key = "repro.net.proxy.NetFaultProxy.open_for_business"
    ready = [
        at - tracer.marks[(spawn_key, op)]
        for (key, op), at in tracer.marks.items()
        if key == ready_key and (spawn_key, op) in tracer.marks
    ]
    metrics["net.ready_s"] = statistics.median(ready) if ready else 0.0
    metrics["net.floor_s"] = net_floor_s
    metrics["net.overhead_s"] = (
        statistics.median(settle_samples) - net_floor_s if net_floor_s else 0.0
    )
    metrics["bench.self_s"] = selfs.get("bench", 0.0) / passes
    metrics["trace.total_s"] = tracer.root_total() / passes
    metrics["trace.spans"] = len(tracer) / passes
    return metrics


def count_digest_source(metrics: dict[str, float]) -> dict[str, float]:
    """The count-valued metrics that a fixed seed must reproduce exactly.

    Only on plan-large and study-small: the networked runtime's frame, WAL
    and call counts follow wall-clock timing.
    """
    return {
        name: value for name, value in sorted(metrics.items())
        if not name.endswith("_s") and not name.startswith(("net.", "trace."))
    }
