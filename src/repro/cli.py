"""Command-line interface: ``repro-trust`` (also ``python -m repro.cli``).

Subcommands cover the full pipeline on a spec file or a built-in example:

* ``check``      — build the sequencing graph, reduce, report feasibility;
* ``sequence``   — print the §5 execution listing;
* ``protocol``   — print the synthesized per-party roles;
* ``indemnify``  — compute the minimal §6 escrow plan;
* ``simulate``   — run the protocol (optionally with adversaries) and print
  the safety report;
* ``render``     — DOT or text renderings of the graphs;
* ``cost``       — the §8 message-cost comparison;
* ``distributed``— the §9 distributed reduction (local decisions);
* ``petri``      — the §7.4 translation and its coverability verdict;
* ``sweep``      — random-topology studies (priority / trust / gap);
* ``chaos``      — seeded fault-injection sweep of the safety guarantee;
* ``fuzz``       — differential + metamorphic conformance fuzzing of the
  whole oracle stack (reduction / reference / verdict loop / Petri /
  simulator / spec);
* ``lint``       — determinism/safety static analysis: AST rule passes over
  Python source plus the non-fatal warning tier over ``.exchange`` specs
  (exit 0 clean, 1 findings, 2 usage error);
* ``trace``      — run the reduce/verdict/simulate pipeline under the
  deterministic tracer and print the span tree (or ``--flame`` cumulative
  view, or ``--json`` JSONL records); the printed span digest is
  byte-identical across replays of the same input;
* ``profile``    — hot-rule table of the trace engine plus the free-order
  verdict loop's time over a seeded random workload, wall time via the
  sanctioned timer API;
* ``examples``   — list the built-in fixtures.

``sweep``, ``chaos``, and ``fuzz`` additionally take ``--trace-out PATH``
to write the run's merged observability metrics as JSONL.

Examples::

    repro-trust check --example example2
    repro-trust sequence --example example1
    repro-trust simulate --example example1 --adversary Broker:0
    repro-trust indemnify --example figure7
    repro-trust render --example example1 --what sequencing --dot
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis.batch import effective_cpu_count
from repro.analysis.cost import chain_cost_sweep, format_chain_table, static_cost
from repro.core.indemnity import minimal_indemnity_plan, splittable_conjunctions
from repro.core.problem import ExchangeProblem
from repro.core.protocol import synthesize_protocol
from repro.errors import ReproError
from repro.sim.agents import AdversaryStrategy
from repro.sim.runtime import Simulation, simulate
from repro.sim.safety import evaluate_safety
from repro.spec.compiler import load_file
from repro.viz.ascii_art import interaction_text, sequencing_text, trace_text
from repro.viz.dot import interaction_to_dot, sequencing_to_dot
from repro.workloads import (
    example1,
    example2,
    example2_broker_trusts_source,
    example2_source_trusts_broker,
    figure7,
    poor_broker,
    simple_purchase,
)

EXAMPLES: dict[str, Callable[[], ExchangeProblem]] = {
    "simple-purchase": simple_purchase,
    "example1": example1,
    "example2": example2,
    "example2-source-trusts-broker": example2_source_trusts_broker,
    "example2-broker-trusts-source": example2_broker_trusts_source,
    "poor-broker": poor_broker,
    "figure7": figure7,
}


def _load_problem(args: argparse.Namespace) -> ExchangeProblem:
    if args.example is not None:
        try:
            return EXAMPLES[args.example]()
        except KeyError:
            raise ReproError(
                f"unknown example {args.example!r}; run 'repro-trust examples'"
            )
    if args.spec is not None:
        return load_file(args.spec)
    raise ReproError("pass a spec file or --example NAME")


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", help="path to a .exchange spec file")
    parser.add_argument(
        "--example", help="use a built-in example instead of a spec file"
    )


def _add_trace_out_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's merged observability metrics as JSONL",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    verdict = problem.feasibility(enable_persona_clause=not args.no_persona)
    print("\n".join(trace_text(verdict.trace)))
    print(verdict.explain())
    return 0 if verdict.feasible else 1


def _cmd_sequence(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    for line in problem.execution_sequence().describe():
        print(line)
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    sequence = problem.execution_sequence()
    protocol = synthesize_protocol(problem.interaction, sequence, problem.name)
    for line in protocol.describe():
        print(line)
    return 0


def _cmd_indemnify(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    if not splittable_conjunctions(problem):
        print(f"{problem.name}: no splittable (all-or-nothing) conjunction")
        return 1
    plan = minimal_indemnity_plan(problem)
    for line in plan.describe():
        print(line)
    return 0 if plan.feasible else 1


def _parse_adversaries(specs: list[str]) -> dict[str, AdversaryStrategy]:
    adversaries: dict[str, AdversaryStrategy] = {}
    for spec in specs:
        name, _, count = spec.partition(":")
        perform = int(count) if count else 0
        adversaries[name] = AdversaryStrategy(perform=perform)
    return adversaries


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    adversaries = _parse_adversaries(args.adversary)
    if not problem.feasibility().feasible:
        plan = minimal_indemnity_plan(problem)
        print(f"(infeasible as specified; applying minimal indemnity plan "
              f"of ${plan.total_dollars:.2f})")
        sim = Simulation.from_plan(
            problem, plan, adversaries=adversaries, deadline=args.deadline
        )
        result = sim.run()
    else:
        result = simulate(problem, adversaries=adversaries, deadline=args.deadline)
    report = evaluate_safety(problem, result)
    print(f"duration: {result.duration:.1f}  messages: {result.stats.messages_delivered}"
          f"  completed exchanges: {len(result.completed_agents)}")
    for line in report.describe():
        print(line)
    honest = frozenset(adversaries)
    return 0 if report.honest_parties_safe(honest) else 1


def _cmd_render(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    if args.what == "interaction":
        if args.dot:
            print(interaction_to_dot(problem.interaction, problem.name))
        else:
            print("\n".join(interaction_text(problem.interaction)))
    else:
        graph = problem.sequencing_graph()
        trace = problem.reduce() if args.reduced else None
        if args.dot:
            print(sequencing_to_dot(graph, problem.name, trace))
        else:
            print("\n".join(sequencing_text(graph)))
            if trace is not None:
                print("\n".join(trace_text(trace)))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    if args.example or args.spec:
        problem = _load_problem(args)
        cost = static_cost(problem)
        print(
            f"{cost.problem_name}: {cost.n_exchanges} exchange(s); direct "
            f"{cost.direct}, mediated {cost.mediated_static} "
            f"(+notifies {cost.mediated_with_notifies}), universal {cost.universal}; "
            f"mistrust overhead {cost.mistrust_ratio:.1f}x"
        )
    else:
        print("\n".join(format_chain_table(chain_cost_sweep(args.max_brokers))))
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.distributed import distributed_reduce

    problem = _load_problem(args)
    graph = problem.sequencing_graph()
    trace = distributed_reduce(graph)
    central = problem.feasibility().feasible
    print(
        f"{problem.name}: distributed={'feasible' if trace.feasible else 'infeasible'} "
        f"(centralized agrees: {trace.feasible == central}); "
        f"rounds={trace.rounds}, messages={trace.messages}"
    )
    for party, removed in trace.removed_by.items():
        if removed:
            print(f"  {party.name} removed: {', '.join(str(e.commitment.label) for e in removed)}")
    return 0 if trace.feasible else 1


def _cmd_petri(args: argparse.Namespace) -> int:
    from repro.petri import exchange_completable, translate
    from repro.viz import petri_to_dot

    problem = _load_problem(args)
    net, target = translate(problem)
    result = exchange_completable(problem)
    if args.dot:
        print(petri_to_dot(net, problem.name, highlight=result.witness))
        return 0 if result.coverable else 1
    print(
        f"{problem.name}: net has {len(net.places)} places, "
        f"{len(net.transitions)} transitions"
    )
    print(f"completion coverable: {result.coverable}")
    if result.coverable and args.witness:
        print("witness firing sequence:")
        for name in result.witness:
            print(f"  {name}")
    return 0 if result.coverable else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    jobs = args.jobs if args.jobs > 0 else None  # 0 = all cores
    args.jobs = jobs
    if args.trace_out:
        from repro.obs import metric_records, metrics_scope, write_jsonl

        # The scope captures in-process work; pooled workers keep their own
        # tracers, so run with --jobs 1 for a complete capture.
        with metrics_scope() as tracer:
            code = _run_sweep(args)
        write_jsonl(args.trace_out, metric_records(tracer))
        print(f"wrote {args.trace_out}")
        return code
    return _run_sweep(args)


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.feasibility_study import (
        incompleteness_gap,
        priority_sweep,
        trust_sweep,
    )

    if args.study == "priority":
        for row in priority_sweep(samples=args.samples, processes=args.jobs):
            print(
                f"priority={row.priority_probability:4.2f}  feasible "
                f"{row.feasible}/{row.samples} ({row.feasible_fraction:.0%})"
            )
    elif args.study == "trust":
        for row in trust_sweep(samples=args.samples, processes=args.jobs):
            print(
                f"+{row.trust_edges_added} trust edges  unlocked "
                f"{row.unlocked}/{row.samples} ({row.unlocked_fraction:.0%})"
            )
    else:
        row = incompleteness_gap(samples=args.samples, processes=args.jobs)
        print(
            f"samples={row.samples}  reduction-feasible={row.reduction_feasible}  "
            f"petri-coverable={row.petri_coverable}  gap={row.gap} "
            f"({row.gap_fraction:.1%})  unsound={row.unsound}"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.chaos_study import ChaosConfig, chaos_study
    from repro.sim.faults import FaultConfig

    faults = FaultConfig(
        drop=args.drop,
        duplicate=args.duplicate,
        max_delay=args.max_delay,
        crash_probability=args.crash,
        permanent_silence_probability=args.silence,
        heal_at=args.heal,
    )
    config = ChaosConfig(
        scenarios=args.scenarios,
        seed=args.seed,
        faults=faults,
        deadline=args.deadline,
    )
    jobs = args.jobs if args.jobs > 0 else None  # 0 = all cores
    report = chaos_study(config, processes=jobs)
    for line in report.describe():
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.report}")
    if args.trace_out:
        from repro.obs import snapshot_records, write_jsonl

        write_jsonl(args.trace_out, snapshot_records(report.metrics))
        print(f"wrote {args.trace_out}")
    if not report.differential_ok:
        print(
            "warning: direct baseline showed no harm — "
            "the detector may not be exercising faults",
            file=sys.stderr,
        )
    return 0 if report.violation_count == 0 and report.differential_ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.conformance.engine import (
        FuzzConfig,
        run_fuzz,
        shrink_counterexamples,
    )

    config = FuzzConfig(
        cases=args.cases,
        seed=args.seed,
        simulate=not args.no_sim,
    )
    jobs = args.jobs if args.jobs > 0 else None  # 0 = all cores
    report = run_fuzz(config, processes=jobs)
    for line in report.describe():
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.report}")
    if args.trace_out:
        from repro.obs import snapshot_records, write_jsonl

        write_jsonl(args.trace_out, snapshot_records(report.metrics))
        print(f"wrote {args.trace_out}")
    if report.discrepant:
        for path in shrink_counterexamples(report, args.corpus):
            print(f"wrote counterexample {path}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.errors import StaticCheckError
    from repro.staticcheck import (
        apply_baseline,
        error_count,
        lint_paths,
        load_baseline,
        render_human,
        render_json,
        render_sarif,
        write_baseline,
    )

    select = (
        tuple(code.strip().upper() for code in args.select.split(",") if code.strip())
        if args.select
        else None
    )
    findings = lint_paths(args.paths, select=select)
    if args.write_baseline:
        if args.baseline is None:
            raise StaticCheckError("--write-baseline requires --baseline PATH")
        count = write_baseline(args.baseline, findings)
        print(f"recorded {count} finding(s) in {args.baseline}")
        return 0
    suppressed = 0
    if args.baseline is not None:
        findings, suppressed = apply_baseline(findings, load_baseline(args.baseline))
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        for line in render_human(findings, fix_suggestions=args.fix_suggestions):
            print(line)
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    return 1 if error_count(findings) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.flatcore import check_feasibility_flat
    from repro.core.reduction import reduce_graph
    from repro.obs import (
        metric_records,
        render_flame,
        render_tree,
        span_digest,
        span_records,
        to_jsonl,
        tracing,
        write_jsonl,
    )

    if args.corpus_file is not None:
        from repro.conformance.corpus import load_corpus_file

        problem = load_corpus_file(args.corpus_file).problem
    else:
        problem = _load_problem(args)

    with tracing() as tracer:
        trace = reduce_graph(problem.sequencing_graph())
        check_feasibility_flat(problem.sequencing_graph())
        if trace.feasible and not args.no_sim:
            simulate(problem)

    records = span_records(tracer) + metric_records(tracer)
    digest = span_digest(tracer)
    if args.out:
        write_jsonl(args.out, records)
    if args.json:
        sys.stdout.write(to_jsonl(records))
        print(f"span digest: {digest}", file=sys.stderr)
    else:
        print(render_flame(tracer) if args.flame else render_tree(tracer))
        print(f"span digest: {digest}")
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr if args.json else sys.stdout)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import random

    from repro.core.flatcore import check_feasibility_flat
    from repro.core.reduction import reduce_graph
    from repro.obs import WallTimer, metrics_scope

    rng = random.Random(args.seed)
    problems = [
        _random_profile_problem(rng.randrange(2**31)) for _ in range(args.samples)
    ]

    timer = WallTimer()
    with metrics_scope() as tracer, timer:
        for problem in problems:
            reduce_graph(problem.sequencing_graph())
    stats = tracer.metrics.to_dict()

    verdict_timer = WallTimer()
    with metrics_scope() as tracer, verdict_timer:
        for problem in problems:
            check_feasibility_flat(problem.sequencing_graph())
    free_order_steps = tracer.metrics.to_dict().get("reduction.free_order_steps", 0)

    print(
        f"profile: {args.samples} problem(s), seed {args.seed} "
        f"(cpus: {effective_cpu_count()})"
    )
    rows = [
        ("wall seconds", f"{timer.seconds:.3f}"),
        ("firings rule1", f"{stats.get('reduction.firings.rule1', 0)}"),
        ("firings rule2", f"{stats.get('reduction.firings.rule2', 0)}"),
        ("persona waivers", f"{stats.get('reduction.persona_waivers', 0)}"),
        (
            "verdict pass/fail",
            f"{stats.get('verdict.pass', 0)}/{stats.get('verdict.fail', 0)}",
        ),
    ]
    print(f"{'metric':<20} {'trace engine':>12}")
    for label, value in rows:
        print(f"{label:<20} {value:>12}")
    print(
        f"free-order verdict loop: {verdict_timer.seconds:.3f}s, "
        f"{free_order_steps} step(s)"
    )
    return 0


def _random_profile_problem(seed: int) -> ExchangeProblem:
    from repro.workloads.random_graphs import RandomProblemConfig, random_problem

    return random_problem(
        RandomProblemConfig(n_principals=8, n_exchanges=5), seed=seed
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive an exchange end-to-end as real processes over real sockets."""
    from repro.net.supervisor import NetRunConfig, run_networked_exchange, trusted_parties
    from repro.obs import metric_records, span_records, tracing, write_jsonl
    from repro.sim.faults import FaultConfig, random_fault_plan

    problem = _load_problem(args)
    if not problem.feasibility().feasible:
        raise ReproError(
            f"{problem.name} is infeasible as specified; the socket runtime "
            "needs a feasible problem (see 'repro-trust indemnify')"
        )
    fault_plan = None
    if args.fault_seed is not None:
        principals = [p.name for p in problem.interaction.principals]
        trusted = [p.name for p in trusted_parties(problem, args.deadline)]
        fault_plan = random_fault_plan(
            principals,
            trusted,
            seed=args.fault_seed,
            config=FaultConfig(
                drop=args.drop,
                duplicate=args.duplicate,
                max_delay=args.max_delay,
                crash_probability=args.crash,
                permanent_silence_probability=args.silence,
                heal_at=args.heal,
            ),
        )
    adversaries = {
        name: strategy.perform
        for name, strategy in _parse_adversaries(args.adversary).items()
    }
    config = NetRunConfig(
        latency=args.latency,
        time_scale=args.time_scale,
        deadline=args.deadline,
        working_capital_cents=args.working_capital,
        max_sim_time=args.max_time,
        port=args.port,
        spawn=args.spawn,
    )
    with tracing() as tracer:
        run = run_networked_exchange(
            problem,
            args.run_dir,
            config,
            fault_plan=fault_plan,
            adversaries=adversaries or None,
        )
        if args.trace_out:
            write_jsonl(args.trace_out, span_records(tracer) + metric_records(tracer))
            print(f"wrote {args.trace_out}")
    result = run.result
    print(
        f"served {problem.name} on port {run.port}: duration {result.duration:.1f} "
        f"(sim units), delivered {result.stats.messages_delivered}, "
        f"kills {run.kills}, restarts {run.restarts}, "
        f"stranded {result.stranded_messages}"
    )
    print(f"artifacts: {run.run_dir}")
    for line in run.report.describe():
        print(line)
    silent = fault_plan.permanently_silent() if fault_plan is not None else frozenset()
    excluded = frozenset(adversaries) | silent
    return 0 if run.report.honest_parties_safe(excluded) else 1


def _cmd_client(args: argparse.Namespace) -> int:
    """Run one party's node process against a running fault proxy."""
    import asyncio

    from repro.net.node import NodeConfig, run_node

    cfg = NodeConfig(
        spec_path=args.spec,
        party=args.party,
        host=args.host,
        port=args.port,
        wal_path=args.wal if args.wal is not None else f"{args.party}.wal",
        deadline=args.deadline,
        working_capital_cents=args.working_capital,
        withhold=args.withhold,
    )
    return asyncio.run(run_node(cfg))


def _cmd_examples(_args: argparse.Namespace) -> int:
    for name, factory in EXAMPLES.items():
        problem = factory()
        verdict = "feasible" if problem.feasibility().feasible else "infeasible"
        print(f"{name:<32} {verdict:>10}  ({len(problem.interaction.edges)} edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trust",
        description="Trust-explicit distributed commerce transactions "
        "(Ketchpel & Garcia-Molina, ICDCS 1996).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in [
        ("check", _cmd_check, "reduce the sequencing graph and test feasibility"),
        ("sequence", _cmd_sequence, "print the recovered execution sequence"),
        ("protocol", _cmd_protocol, "print the synthesized per-party protocol"),
        ("indemnify", _cmd_indemnify, "compute the minimal indemnity plan"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_problem_args(p)
        if name == "check":
            p.add_argument(
                "--no-persona",
                action="store_true",
                help="ablate Rule #1 clause 2 (the §4.2.3 direct-trust waiver)",
            )
        p.set_defaults(handler=handler)

    p = sub.add_parser("simulate", help="run the protocol in the simulator")
    _add_problem_args(p)
    p.add_argument(
        "--adversary",
        action="append",
        default=[],
        metavar="NAME[:K]",
        help="party NAME withholds after K honest instructions (default 0)",
    )
    p.add_argument("--deadline", type=float, default=100.0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("render", help="render graphs as text or DOT")
    _add_problem_args(p)
    p.add_argument("--what", choices=["interaction", "sequencing"], default="interaction")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--reduced", action="store_true", help="annotate the reduction")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("cost", help="§8 message-cost comparison")
    _add_problem_args(p)
    p.add_argument("--max-brokers", type=int, default=6)
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("distributed", help="run the §9 distributed reduction")
    _add_problem_args(p)
    p.set_defaults(handler=_cmd_distributed)

    p = sub.add_parser("petri", help="§7.4 Petri translation + coverability")
    _add_problem_args(p)
    p.add_argument("--witness", action="store_true", help="print the firing sequence")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT of the net")
    p.set_defaults(handler=_cmd_petri)

    p = sub.add_parser("sweep", help="random-topology studies")
    p.add_argument(
        "study", choices=["priority", "trust", "gap"], help="which sweep to run"
    )
    p.add_argument("--samples", type=int, default=40)
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="fan the study over N worker processes (0 = all cores)",
    )
    _add_trace_out_arg(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: random problems x seeded fault plans",
    )
    p.add_argument("--scenarios", "-n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0, help="master seed for the sweep")
    p.add_argument("--drop", type=float, default=0.15, help="per-link drop probability")
    p.add_argument("--duplicate", type=float, default=0.10)
    p.add_argument("--max-delay", type=float, default=3.0)
    p.add_argument("--crash", type=float, default=0.35, help="per-scenario crash probability")
    p.add_argument(
        "--silence",
        type=float,
        default=0.4,
        help="probability a crashed principal never restarts",
    )
    p.add_argument("--heal", type=float, default=30.0, help="link faults end at this time")
    p.add_argument("--deadline", type=float, default=200.0)
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="fan scenarios over N worker processes (0 = all cores)",
    )
    p.add_argument("--report", metavar="PATH", help="write the full JSON report here")
    _add_trace_out_arg(p)
    p.set_defaults(handler=_cmd_chaos)

    p = sub.add_parser(
        "fuzz",
        help="differential + metamorphic conformance fuzzing of the "
        "feasibility/execution stack",
    )
    p.add_argument("--cases", "-n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="master seed for the run")
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="fan cases over N worker processes (0 = all cores)",
    )
    p.add_argument(
        "--no-sim",
        action="store_true",
        help="skip the §5 simulator replay oracle (reduction/Petri/spec only)",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default="fuzz_corpus",
        help="where shrunk counterexamples are written (on failure only)",
    )
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    _add_trace_out_arg(p)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser(
        "lint",
        help="determinism/safety static analysis over Python source and "
        ".exchange specs (0 clean / 1 findings / 2 usage error)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p.add_argument("--format", choices=["human", "json", "sarif"], default="human")
    p.add_argument(
        "--fix-suggestions",
        action="store_true",
        help="print a suggested fix under each finding",
    )
    p.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule codes to run (default: every rule)",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in FILE; only regressions fail",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings to --baseline FILE and exit 0",
    )
    p.set_defaults(handler=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="run reduce/verdict/simulate under the deterministic tracer "
        "and print the span tree (replay-stable span digest)",
    )
    _add_problem_args(p)
    p.add_argument(
        "--corpus",
        dest="corpus_file",
        metavar="PATH",
        help="trace a conformance corpus fixture instead of a spec",
    )
    p.add_argument("--json", action="store_true", help="emit JSONL records on stdout")
    p.add_argument(
        "--flame",
        action="store_true",
        help="cumulative per-span-name table instead of the tree",
    )
    p.add_argument("--out", metavar="PATH", help="also write the JSONL records here")
    p.add_argument(
        "--no-sim", action="store_true", help="skip the simulator leg of the pipeline"
    )
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="trace-engine hot-rule table and verdict-loop time over a "
        "seeded random workload",
    )
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser(
        "serve",
        help="run the exchange as real processes over real sockets",
    )
    _add_problem_args(p)
    p.add_argument(
        "--run-dir",
        default="net_run",
        help="directory for the run's spec, WALs, logs and artifacts",
    )
    p.add_argument("--port", type=int, default=0, help="proxy port (0 = ephemeral)")
    p.add_argument("--deadline", type=float, default=60.0)
    p.add_argument("--latency", type=float, default=1.0, help="wire latency, sim units")
    p.add_argument(
        "--time-scale",
        type=float,
        default=0.02,
        help="wall seconds per sim unit (default 0.02)",
    )
    p.add_argument("--working-capital", type=int, default=0, metavar="CENTS")
    p.add_argument(
        "--max-time", type=float, default=400.0, help="hard sim-time cap on the run"
    )
    p.add_argument(
        "--adversary",
        action="append",
        default=[],
        metavar="NAME[:K]",
        help="party NAME withholds after K honest instructions (default 0)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="grow a seeded FaultPlan (drops, dups, partitions, real kills)",
    )
    p.add_argument("--drop", type=float, default=0.15)
    p.add_argument("--duplicate", type=float, default=0.10)
    p.add_argument("--max-delay", type=float, default=3.0)
    p.add_argument("--crash", type=float, default=0.35)
    p.add_argument("--silence", type=float, default=0.4)
    p.add_argument("--heal", type=float, default=30.0)
    p.add_argument(
        "--spawn",
        choices=("process", "task"),
        default="process",
        help="node isolation: real subprocesses (default) or in-process tasks",
    )
    _add_trace_out_arg(p)
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="run one party's node against a running exchange proxy",
    )
    p.add_argument("spec", help="path to the run's spec file")
    p.add_argument("--party", required=True, help="which party this node plays")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--wal", default=None, help="write-ahead log path (default PARTY.wal)")
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--working-capital", type=int, default=0, metavar="CENTS")
    p.add_argument(
        "--withhold",
        type=int,
        default=None,
        metavar="K",
        help="adversary: perform only the first K instructions",
    )
    p.set_defaults(handler=_cmd_client)

    p = sub.add_parser("examples", help="list built-in examples")
    p.set_defaults(handler=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
