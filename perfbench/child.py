"""One benchmark pass in a fresh process.

Started by ``run.py``, one child at a time, with lagdyn's ``src/`` on
PYTHONPATH. The child imports lagdyn, builds the workload's ``lagdyn``
argument lists, calls ``lagdyn.cli.main`` on each, checks the outputs,
and writes one JSON result file. With
``--trace 1`` the calls run under a Tracer and the result carries the
per-layer metrics; with ``--setup-only`` the child stops after set-up.

Correctness gate, per operation (one system through the workload):

* every ``cli.main`` call of the operation exits 0 and, for ``bench``,
  the system's report has status ``ok``;
* the Lagrangian and diffusion supports equal acceptance criterion 2's;
* the coefficient errors stay within acceptance criterion 1's bounds.
  For ``discover`` the errors are computed after the timed region from the
  written equations with ``bench.true_models`` and
  ``discovery.relative_error``.

An operation that misses any of these counts as failed. The SHA-256 of
each system's JSON outputs is recorded so that a later change can show its
report bytes did not move; it is information, not a metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from lagdyn import bench, cli, discovery, sim

import tracing
import workloads

# Exit codes lagdyn documents: ok, config, stability/divergence, I/O,
# discovery. Anything else (1 is an uncaught traceback) is a defect.
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4, 5)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_call(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _hashes(out_dir: Path, system: str) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob(f"{system}_*.json"))
        if not p.name.endswith(".meta.json")
    }


def _accuracy_problems(system: str, supports, diffusion_supports,
                       rel_pct: float, table: dict) -> list[str]:
    problems = []
    if supports != workloads.EXPECTED_SUPPORTS[system]:
        problems.append(f"support {supports}")
    if diffusion_supports != workloads.EXPECTED_DIFFUSION_SUPPORTS[system]:
        problems.append(f"diffusion support {diffusion_supports}")
    if not rel_pct <= workloads.MAX_RELATIVE_PCT[system]:
        problems.append(f"relative error {rel_pct:.4g}%")
    if system in workloads.PARAMETER_BOUNDS:
        key, truth, bound = workloads.PARAMETER_BOUNDS[system]
        value = table.get(key, 0.0)
        if not abs(value - truth) <= bound * abs(truth):
            problems.append(f"{key} = {value!r}, expected {truth} +-{bound:.0%}")
    return problems


def check_bench_system(out_dir: Path, system: str, smoke: bool) -> dict:
    """Gate one system of a ``bench`` call from its report JSON."""
    path = out_dir / f"{system}_report.json"
    if not path.is_file():
        return {"ok": False, "verified": False, "reason": "no report"}
    report = json.loads(path.read_text())
    if report["status"] != "ok":
        failure = report["failure"]
        return {"ok": False, "verified": True,
                "reason": f"status failed at {failure['stage']}: "
                          f"{failure['message']}"}
    found = report["discovered"]
    errors = report["errors"]
    result = {"rel_pct": errors["relative_pct"],
              "diffusion_pct": errors["diffusion_pct"]}
    problems = [] if smoke else _accuracy_problems(
        system, found["supports"], found["diffusion_supports"],
        errors["relative_pct"], found["coefficients"][0])
    return {"ok": not problems, "verified": True,
            "reason": "; ".join(problems), **result}


def check_discovered_system(out_dir: Path, system: str, smoke: bool) -> dict:
    """Gate one ``discover`` output against the true model."""
    paths = {kind: out_dir / f"{system}_{kind}.json"
             for kind in ("lagrangian", "diffusion", "equations")}
    missing = [p.name for p in paths.values() if not p.is_file()]
    if missing:
        return {"ok": False, "verified": False, "reason": f"missing {missing}"}
    lag, diff, eqs = (json.loads(p.read_text()) for p in paths.values())
    spec = sim.benchmark_spec(system)
    _, eom_true = bench.true_models(system, spec,
                                    bench.DEFAULT_CONFIGS[system])
    tables = [{**eq["terms"], "gain": eq["gain"]} for eq in eqs["equations"]]
    if len(tables) != len(eom_true.terms):
        return {"ok": False, "verified": True,
                "reason": f"{len(tables)} equations written"}
    rel_pct = max(discovery.relative_error(eom_true.parameters(i), table)
                  for i, table in enumerate(tables))
    gains_true = np.asarray(eom_true.gains, dtype=float)
    gains = np.array([t["gain"] for t in tables])
    diffusion_pct = float(100.0 * np.linalg.norm(gains - gains_true)
                          / np.linalg.norm(gains_true))
    problems = [] if smoke else _accuracy_problems(
        system,
        [sorted(p["terms"]) for p in lag["particles"]],
        [eq["active_labels"] for eq in diff["equations"]],
        rel_pct, tables[0])
    return {"ok": not problems, "verified": True, "reason": "; ".join(problems),
            "rel_pct": rel_pct, "diffusion_pct": diffusion_pct}


def check_operations(workload: str, codes: list[tuple[str | None, int]],
                     out_dir: Path, smoke: bool) -> list[dict]:
    """Gate every operation of a pass; one dict per system."""
    ops = []
    for system in workloads.WORKLOADS[workload]:
        own = [code for s, code in codes if s in (system, None)]
        if workload == "discover":
            if any(own):
                op = {"ok": False, "verified": True,
                      "reason": f"exit codes {own}"}
            else:
                op = check_discovered_system(out_dir, system, smoke)
        else:
            op = check_bench_system(out_dir, system, smoke)
        if any(code not in DOCUMENTED_EXIT_CODES for code in own):
            op["verified"] = False
        op["system"] = system
        op["sha256"] = _hashes(out_dir, system)
        ops.append(op)
    # A multi-system bench call exits nonzero only for a failed report.
    shared = [code for s, code in codes if s is None]
    if any(shared) and all(op["ok"] for op in ops):
        for op in ops:
            op.update(ok=False, reason=f"exit codes {shared} with ok reports")
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True,
                        help="lagdyn output directory of this pass")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() when the parent spawned us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    calls = workloads.cli_calls(args.workload, args.seed, args.out_dir,
                                smoke=args.smoke)
    result = {
        "setup_s": time.perf_counter() - args.spawned_at,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if not args.setup_only:
        tracer = tracing.Tracer(args.run_id).install() if args.trace else None
        codes, call_s = [], []
        cpu_before = _cpu_s()
        for system, call_argv in calls:
            if tracer is not None:
                tracer.system = system
            start = time.perf_counter()
            codes.append((system, _run_call(call_argv)))
            call_s.append(time.perf_counter() - start)
        result["cpu_s"] = _cpu_s() - cpu_before
        result["wall_s"] = sum(call_s)
        result["call_s"] = call_s
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            tree = tracing.SpanTree(tracer.spans)
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["self_s"] = tree.self_by_name()
            result["residue_s"] = result["wall_s"] - sum(
                s.duration for s in tree.named("cli"))
            result["per_system"] = tracing.per_system_stages(tracer.spans)
        result["operations"] = check_operations(
            args.workload, codes, Path(args.out_dir), args.smoke)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
