"""lagdyn benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload field --seed 1234 --seconds 55 --trace 0

Runs from the root of a source checkout; lagdyn is imported from ``src/``,
nothing is installed. Each pass of the workload is one fresh child
process (``child.py``), started one at a time, and passes repeat until the
next one would end after ``--seconds``; there is always at least one.

``--trace 0`` first starts a few set-up-only children, then prints the
end-to-end metrics: medians over the passes (``setup_s`` over every
child). ``--trace 1`` runs one traced pass, then untraced passes as time
allows, and prints the per-layer metrics of the traced pass together with
the tracing overhead against the untraced median.

The line before the result holds the details: provenance, sample counts
and quartiles, every operation's gate outcome and output hashes, and the
self time of each span name of a traced pass. The last line of standard
output is the result object. Each pass writes into its own temporary
directory under ``.perfbench-run-*/`` in the checkout, deleted after the
pass.

``--smoke`` runs the CLI with tiny overrides for the benchmark's own
tests; it checks the output schema, not accuracy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Every run ends within 180 s; a child still running at this point of the
# run is killed and the run fails.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself could not measure; no result is printed."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct_max"):
        return "%"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def child_env() -> tuple[dict, int]:
    """Environment for children: lagdyn from src/, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env, nproc


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count; a higher percentile
    too where at least ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values),
           "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(p25=q1, p75=q3)
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


class Runner:
    """Starts the children of one run, one at a time."""

    def __init__(self, args: argparse.Namespace, run_dir: Path, env: dict):
        self.args = args
        self.run_dir = run_dir
        self.env = env
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        pass_dir = self.run_dir / f"pass{self.count}"
        out_dir = pass_dir / "out"
        out_dir.mkdir(parents=True)
        result = pass_dir / "result.json"
        log = pass_dir / "child.log"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--out-dir", str(out_dir), "--result", str(result),
               "--trace", str(int(trace)),
               "--run-id", f"{self.args.workload}-{self.args.seed}"
                           f"-{os.getpid()}-{self.count}"]
        if setup_only:
            cmd.append("--setup-only")
        if self.args.smoke:
            cmd.append("--smoke")
        try:
            with open(log, "w") as fh:
                cmd += ["--spawned-at", repr(time.perf_counter())]
                proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                        cwd=pass_dir, env=self.env)
                try:
                    code = proc.wait(
                        timeout=max(1.0, self.deadline - time.perf_counter()))
                except subprocess.TimeoutExpired:
                    raise BenchmarkError("child exceeded the run's time limit")
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            if code != 0 or not result.is_file():
                tail = log.read_text()[-2000:]
                raise BenchmarkError(f"child exited with {code}:\n{tail}")
            return json.loads(result.read_text())
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)


def measure(args: argparse.Namespace, run_dir: Path, env: dict):
    """Run the children; returns (setup samples, traced pass, passes)."""
    runner = Runner(args, run_dir, env)
    start = time.perf_counter()
    setups = []
    if not args.trace:
        setups = [runner.child(setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    traced = runner.child(trace=True) if args.trace else None
    passes, durations = [], []
    while True:
        began = time.perf_counter()
        passes.append(runner.child())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(durations) > args.seconds:
            return setups + [p["setup_s"] for p in passes], traced, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark lagdyn's CLI on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny overrides; checks the schema, not accuracy")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lagdyn" / "cli.py").is_file():
        print(f"error: no lagdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the running child is killed and
    # waited for, and the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env, nproc = child_env()
    run_dir = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        setups, traced, passes = measure(args, run_dir, env)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = passes + ([traced] if traced else [])
    ops = [op for p in measured for op in p["operations"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    walls = [p["wall_s"] for p in passes]
    if traced:
        values = dict(traced["layers"])
        done = [op for op in traced["operations"] if "rel_pct" in op]
        values["rel_error_pct_max"] = max(
            (op["rel_pct"] for op in done), default=0.0)
        values["diffusion_error_pct_max"] = max(
            (op["diffusion_pct"] for op in done), default=0.0)
        values["failed_frac"] = failed / attempted
        values["run.cpu_s"] = traced["cpu_s"]
        values["run.residue_s"] = traced["residue_s"]
        values["run.trace_overhead_s"] = (traced["wall_s"]
                                          - statistics.median(walls))
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "provenance": {
            "nproc": nproc,
            "threads": {var: env[var] for var in THREAD_VARS},
            "python": passes[0]["python"], "numpy": passes[0]["numpy"],
            "commit": git_commit(),
        },
        "samples": {"wall_s": summary(walls),
                    "cpu_s": summary([p["cpu_s"] for p in passes]),
                    "setup_s": summary(setups) if setups else None},
        "operations": ops,
    }
    if traced:
        details["traced"] = {k: traced[k] for k in
                             ("wall_s", "self_s", "residue_s", "per_system")}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": all(op["verified"] for op in ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
