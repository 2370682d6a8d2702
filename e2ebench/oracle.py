"""Answers the timed paths never produce, for checking their outputs.

``study-small``'s verdicts are checked against the naive reference engine
(``core/reduction_reference.py``).  At 40 principals it takes about a second
per problem, far too slow to run inline, so seed 7's 1000 answers are
recorded once into ``expected_study.json`` by running this file::

    PYTHONPATH=src python3 e2ebench/oracle.py

Any other seed checks a seeded sample against the reference engine, outside
the timed region.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.analysis.batch import ProblemSpec, batch_specs  # noqa: E402
from repro.core.reduction_reference import reference_reduce  # noqa: E402
from repro.workloads.random_graphs import RandomProblemConfig  # noqa: E402

STUDY_CONFIG = RandomProblemConfig(n_principals=40, n_exchanges=36)
STUDY_PROBLEMS = 1000
RECORDED_SEED = 7
EXPECTED_PATH = os.path.join(HERE, "expected_study.json")


def reference_verdict(spec: ProblemSpec) -> tuple[bool, int, int, int]:
    """``(feasible, steps, remaining, blockages)`` from the reference engine."""
    trace = reference_reduce(spec.build().sequencing_graph())
    return (trace.feasible, len(trace.steps), len(trace.remaining), len(trace.blockages))


def load_expected(seed: int) -> list[tuple[bool, int, int, int]] | None:
    """The recorded answers for *seed*, or None when *seed* is not the recorded one."""
    if seed != RECORDED_SEED:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != RECORDED_SEED or data["problems"] != STUDY_PROBLEMS:
        raise ValueError(f"{EXPECTED_PATH} does not describe seed {RECORDED_SEED}")
    return [tuple(row) for row in data["verdicts"]]  # type: ignore[misc]


def main() -> None:
    specs = batch_specs(STUDY_PROBLEMS, STUDY_CONFIG, seed=RECORDED_SEED)
    rows = []
    for i, spec in enumerate(specs):
        rows.append(list(reference_verdict(spec)))
        if i % 50 == 0:
            print(f"{i}/{len(specs)}", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": RECORDED_SEED, "problems": STUDY_PROBLEMS, "engine": "reference",
             "columns": ["feasible", "steps", "remaining", "blockages"],
             "verdicts": rows},
            fh,
        )
        fh.write("\n")


if __name__ == "__main__":
    main()
