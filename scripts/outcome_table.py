"""Benchmark operation outcomes over many seeds, one JSON line each.

    python3 scripts/outcome_table.py CHECKOUT [--seeds 1-40] > table.jsonl

For every seed and each workload of ``perfbench/workloads.py`` this runs
``CHECKOUT/perfbench/run.py --workload W --seed S --seconds 1 --trace 0``
and prints one line per operation (one system through the workload): the
seed, workload, system, the correctness gate's ``ok``, ``reason`` and
``verified``, and the SHA-256 map of the system's outputs. Lines are
sorted by seed, workload and system, and hold no timings, so two checkouts
whose operations came out the same print the same bytes: compare them
with ``diff``.

A run that exits nonzero or prints no details stops the table with its
standard error and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

# seed_sweep imports lagdyn; the table runs only the checkout's own.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from seed_sweep import parse_seeds  # noqa: E402

WORKLOADS = ("discover", "field")
FIELDS = ("seed", "workload", "system", "ok", "reason", "verified", "sha256")


def operations(checkout: pathlib.Path, workload: str, seed: int) -> list[dict]:
    """The gated operations of one one-pass run of a workload."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    details = json.loads(lines[-2])["details"]
    return [{"seed": seed, "workload": workload,
             **{k: op.get(k) for k in FIELDS[2:]}}
            for op in details["operations"]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=pathlib.Path,
                        help="root of a lagdyn source checkout")
    parser.add_argument("--seeds", default="1-40",
                        help="seeds, e.g. 1-40 or 3,7,9 (default 1-40)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    rows = []
    try:
        for seed in parse_seeds(args.seeds):
            for workload in WORKLOADS:
                rows += operations(checkout, workload, seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows.sort(key=lambda r: (r["seed"], r["workload"], r["system"]))
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
