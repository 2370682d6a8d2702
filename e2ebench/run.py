"""End-to-end benchmark of the plan, study and serve paths, with a traced mode.

    python3 e2ebench/run.py --workload plan-large --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The line before it is the run's record:
environment, per-metric sample counts and quartiles, and the output and
count digests; the record is also written under ``.e2ebench/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before any import of the program

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def _git_commit(root: str) -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan-large", "study-small", "net-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import layers
    import workloads
    from repro.analysis.batch import effective_cpu_count
    from tracer import SpanTracer

    import_s = time.perf_counter() - STARTED
    workdir = os.path.join(ROOT, ".e2ebench")
    os.makedirs(workdir, exist_ok=True)

    # Set-up is compute too: each part is rescaled to the reference host
    # speed by a calibration timed just after it (import) or before it.
    import_scale = workloads.CALIBRATION_REFERENCE_S / workloads.calibrate()
    setups = []
    for _ in range(SETUP_REPEATS):
        scale = workloads.CALIBRATION_REFERENCE_S / workloads.calibrate()
        begin = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups.append((time.perf_counter() - begin) * scale)

    tracer = SpanTracer() if args.trace else None
    reference_outputs = None
    if tracer is not None:
        # One untraced pass first: its wall time against the traced passes'
        # is the tracing overhead, and its outputs must equal theirs.
        probe = workloads.Recorder(workloads.nullcontext)
        begin = time.perf_counter()
        workload.run_pass(probe)
        untraced_pass_s = time.perf_counter() - begin
        reference_outputs = probe.pass_digest()
        keys = layers.install(tracer)

    rec = workloads.Recorder(tracer.operation if tracer is not None else workloads.nullcontext)
    if tracer is not None:  # the untraced pass's checks count like any other
        rec.attempted, rec.failed, rec.problems = probe.attempted, probe.failed, probe.problems
    pass_seconds: list[float] = []
    pass_outputs: list[str] = []
    loop_start = time.perf_counter()
    while not pass_seconds or time.perf_counter() - loop_start < args.seconds:
        begin = time.perf_counter()
        workload.run_pass(rec)
        pass_seconds.append(time.perf_counter() - begin)
        pass_outputs.append(rec.pass_digest())
    if tracer is not None:
        tracer.uninstall()
    workload.finish(rec)

    # Harness checks, each one more attempted operation.
    checks = {"every pass gives the same outputs":
              len(set(pass_outputs) | {reference_outputs or pass_outputs[0]}) == 1}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {name: values for name, values in rec.samples.items() if values}
    count_digest = unaccounted_s = None
    if tracer is None:
        metrics = {
            "setup_s": (import_s * import_scale + statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            **{stage: (sum(statistics.median(values) for key, values in samples.items()
                           if key.startswith(stage + ":")), "s")
               for stage in ("stage_a_s", "stage_b_s")},
        }
    else:
        floor = getattr(workload, "floor_s", 0.0)
        values = layers.layer_metrics(
            tracer, keys, len(pass_seconds), floor,
            rec.samples.get("stage_a_s:settle", []),
        )
        values["trace.overhead"] = statistics.median(pass_seconds) / untraced_pass_s - 1
        # The spans must cover the operations as the recorder timed them,
        # apart from the tracer: time outside every span, or spans lost or
        # left open, shows here.
        unaccounted_s = rec.timed_s - sum(tracer.self_times().values())
        checks["layer self times add up to the independently timed total"] = (
            abs(unaccounted_s) <= 0.01 * rec.timed_s
        )
        missing = layers.self_test(args.workload, keys, tracer)
        checks["every wrapped function ran where predicted"
               + (f" (never called: {', '.join(missing)})" if missing else "")] = not missing
        count_digest = _digest(layers.count_digest_source(values))
        metrics = {name: (value, _unit(name)) for name, value in values.items()}
        tracer.write(os.path.join(workdir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    failures = rec.problems + [name for name, ok in checks.items() if not ok]
    attempted = rec.attempted + len(checks)
    failed = rec.failed + sum(not ok for ok in checks.values())

    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(ROOT),
        "passes": len(pass_seconds),
        "setup_samples_s": setups,
        "import_s": import_s,
        "import_scale": import_scale,
        "samples": {name: _quartiles(values) for name, values in samples.items()},
        "raw_samples": {name: _quartiles(values) for name, values in rec.raw_samples.items()},
        "sample_values": samples,
        "output_digest": pass_outputs[0],
        "untraced_output_digest": reference_outputs,
        "count_digest": count_digest,
        "unaccounted_s": unaccounted_s,
        "problems": failures,
    }
    with open(os.path.join(
        workdir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
    for problem in failures:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_offer")) or name == "trace.overhead":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
