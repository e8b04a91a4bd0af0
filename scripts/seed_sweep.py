"""Benchmark outcomes over many seeds, as one deterministic JSON table.

    PYTHONPATH=src python3 scripts/seed_sweep.py [--seeds 1-40] [--out FILE]

For every seed and each of the six benchmark systems this runs
``bench.run_benchmark`` with the default configuration, except that the
prediction comparison uses 2 realizations per side (the sweep is about
discovery, and the prediction only has to run). Per run the table holds
the status, the failing stage, the discovered Lagrangian and diffusion
supports, whether each matches acceptance criterion 2 (the tables of
``tests/helpers.py`` that ``tests/test_acceptance.py`` checks) and the
relative coefficient error. It holds no timings, so two checkouts that
discover the same models write the same bytes: point ``PYTHONPATH`` at
each ``src/`` and compare the files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

from lagdyn import bench, sim

# The criterion-2 tables live with the acceptance tests.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from helpers import CRITERION_2_DIFFUSION, CRITERION_2_SUPPORTS  # noqa: E402

PREDICTION_N_REAL = 2


def outcome(name: str, seed: int) -> dict:
    """One row of the table: the run of one system at one seed."""
    config = dataclasses.replace(bench.DEFAULT_CONFIGS[name],
                                 prediction_n_real=PREDICTION_N_REAL)
    report = bench.run_benchmark(name, config, seed=seed)
    row = {"system": name, "seed": seed, "status": report.status,
           "failure_stage": None, "supports": None,
           "diffusion_supports": None, "supports_match": False,
           "diffusion_supports_match": False, "relative_pct": None}
    if report.status != "ok":
        row["failure_stage"] = report.failure["stage"]
        return row
    found = report.discovered_section
    row.update(
        supports=found["supports"],
        diffusion_supports=found["diffusion_supports"],
        supports_match=found["supports"] == CRITERION_2_SUPPORTS[name],
        diffusion_supports_match=(found["diffusion_supports"]
                                  == CRITERION_2_DIFFUSION[name]),
        relative_pct=report.errors["relative_pct"],
    )
    return row


def render(rows: list[dict]) -> str:
    """The table as a JSON list, one run per line, by system then seed."""
    rows = sorted(rows, key=lambda r: (r["system"], r["seed"]))
    lines = ",\n".join(" " + json.dumps(r, sort_keys=True) for r in rows)
    return "[\n" + lines + "\n]\n"


def parse_seeds(text: str) -> list[int]:
    """Seeds of "1-40" or "3,7,9" (ranges inclusive)."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-40",
                        help="seeds, e.g. 1-40 or 3,7,9 (default 1-40)")
    parser.add_argument("--out", help="output file (default: stdout)")
    args = parser.parse_args(argv)
    rows = [outcome(name, seed) for seed in parse_seeds(args.seeds)
            for name in sim.BENCHMARK_NAMES]
    text = render(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
