"""Span tracing of lagdyn's layers, installed from outside the package.

A Tracer replaces selected functions of ``lagdyn.cli``, ``bench``, ``sim``,
``library``, ``regression`` and ``discovery`` with wrappers that record one
span per call: name, start, end, parent span, system and run id, plus
counts of the work the call did. Spans are kept in memory and reduced to
metrics when the pass ends. ``uninstall`` restores every original.

Each name is wrapped where it is looked up at call time:

* ``discovery`` imports ``el_transform`` and ``stls`` by name, so the
  wrappers go on ``discovery.el_transform`` and ``discovery.stls``.
* ``bench`` and ``cli`` call ``sim``, ``library`` and ``discovery`` through
  the module, and ``bench.run_benchmark`` calls its own helpers through
  the module globals, so wrapping the module attribute reaches both.
* ``numdiff`` gets no span: ``library`` captures its stencils in
  ``library._STENCILS`` at import, so stencil time is part of
  ``library.el_transform``.

Run as a script, ``python3 perfbench/tracing.py [--spans FILE] <lagdyn
arguments>`` runs one traced ``lagdyn`` command and prints the per-system
stage table (the form of the ROADMAP baseline table) and the self time of
every span name; with ``--spans`` it also writes every span to FILE.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

STEPPERS = ("sim.taylor15", "sim.field")
DIVERGED_ERROR = "SimulationDivergedError"


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    """One traced call. ``parent`` is the index of the enclosing span."""

    index: int
    name: str
    start: float
    end: float
    parent: int | None
    system: str | None
    run: str
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped lagdyn functions.

    ``system`` names the benchmark system of calls that cover one system;
    spans inherit the system of their parent unless their wrapper derives
    one from the call's arguments.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.system: str | None = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, system=None, counts=None,
             result_counts=None, rss: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Args:
            owner: Module or class holding the function.
            attr: Attribute name.
            name: Span name, or a function of the bound arguments.
            system: Optional function of the bound arguments giving the
                span's system.
            counts: Optional function of the bound arguments giving work
                counts, recorded before the call, so a call that raises
                keeps them.
            result_counts: Optional function (bound arguments, result)
                giving work counts known only from a returned result.
            rss: Record the growth of peak RSS over the call.
        """
        fn = getattr(owner, attr)
        needs_args = (callable(name) or system is not None
                      or counts is not None or result_counts is not None)
        signature = inspect.signature(fn) if needs_args else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            parent = tracer._stack[-1] if tracer._stack else None
            if system is not None:
                span_system = system(bound)
            else:
                span_system = parent.system if parent else tracer.system
            span = Span(
                index=len(tracer.spans),
                name=name(bound) if callable(name) else name,
                start=0.0, end=0.0,
                parent=None if parent is None else parent.index,
                system=span_system, run=tracer.run_id,
                counts={} if counts is None else counts(bound),
            )
            tracer.spans.append(span)
            tracer._stack.append(span)
            rss_before = maxrss_mb() if rss else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if rss:
                    span.counts["maxrss_growth_mb"] = maxrss_mb() - rss_before
            if result_counts is not None:
                span.counts.update(result_counts(bound, result))
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, fn))

    def install(self) -> "Tracer":
        """Wrap the layer boundaries of every lagdyn module."""
        from lagdyn import bench, cli, discovery, library, sim

        def stepper(bound):
            return "sim.field" if bound["spec"].kind == "spde" else "sim.taylor15"

        def steps(bound):
            n_steps = int(round(bound["t_f"] / bound["dt"]))
            real_steps = bound["n_real"] * n_steps
            return {"real_steps": real_steps,
                    "node_steps": real_steps * bound["spec"].dim,
                    "discovered": bound["spec"].name.endswith("-discovered")}

        def file_bytes(bound, _result):
            return {"bytes": os.path.getsize(bound["path"])}

        def bases(_bound, libs):
            return {"bases": len(libs[0].bases) if libs else 0}

        self.wrap(cli, "main", "cli")
        self.wrap(bench, "run_benchmark", "bench.run",
                  system=lambda b: b["name"])
        self.wrap(bench, "discover_models", "bench.discover")
        self.wrap(bench, "true_models", "bench.true_models")
        self.wrap(bench, "prediction_comparison", "bench.predict", rss=True)
        self.wrap(bench, "hamiltonian_trajectory", "bench.energy")
        self.wrap(bench, "field_energy_series", "bench.energy")
        # The .meta.json sidecar holds a wall-clock time, so its length is
        # not an exact count.
        self.wrap(bench, "write_report", "bench.write",
                  system=lambda b: b["report"].name,
                  result_counts=lambda b, paths: {
                      "bytes": sum(os.path.getsize(p) for p in paths
                                   if not p.name.endswith(".meta.json"))})
        self.wrap(sim, "generate_ensemble", stepper, counts=steps, rss=True)
        self.wrap(sim, "simulate_field_rows", "sim.field", counts=steps,
                  rss=True)
        self.wrap(sim.NoiseStream, "standard_normals", "sim.normals")
        self.wrap(sim, "integrate_rk4", "sim.rk4",
                  counts=lambda b: {"steps": b["n_steps"]})
        self.wrap(sim, "save_ensemble", "sim.io.save",
                  result_counts=file_bytes)
        self.wrap(sim, "load_ensemble", "sim.io.load",
                  result_counts=file_bytes)
        self.wrap(library, "build_lagrangian_library", "library.build",
                  result_counts=bases)
        self.wrap(library, "build_diffusion_library", "library.build",
                  result_counts=bases)
        self.wrap(discovery, "el_transform", "library.el_transform",
                  counts=lambda b: {"cells": b["ensemble"].n_real
                                        * b["lib"].size
                                        * b["ensemble"].n_steps})
        self.wrap(discovery, "stls", "regression.stls",
                  result_counts=lambda b, model: {
                      "iterations": model.iterations_used,
                      "nonconverged": int(not model.converged),
                      "cells": int(b["A"].shape[0] * b["A"].shape[1])})
        self.wrap(discovery, "discover_lagrangian", "discovery.lagrangian")
        self.wrap(discovery, "discover_diffusion", "discovery.diffusion")
        self.wrap(discovery, "derive_equations_of_motion", "discovery.derive")
        self.wrap(discovery, "legendre_transform", "discovery.derive")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)


class SpanTree:
    """Durations, self times and ancestry of a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {s.index: [] for s in spans}
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children[span.index])

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def under(self, span: Span, name: str) -> bool:
        return any(a.name == name for a in self.ancestors(span))

    def named(self, name: str) -> list[Span]:
        """Spans of one name, without those nested in a span of that name."""
        return [s for s in self.spans
                if s.name == name and not self.under(s, name)]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + self.self_time(s)
        return dict(sorted(out.items()))


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    tree = SpanTree(spans)
    steppers = [s for name in STEPPERS for s in tree.named(name)]
    training = [s for s in steppers if not tree.under(s, "bench.predict")]
    predicting = [s for s in steppers if tree.under(s, "bench.predict")]
    # Each comparison steps two sides; more stepper calls are re-runs of a
    # diverged side up to its last stable step.
    resimulated = 0
    for p in tree.named("bench.predict"):
        sides = [s for s in predicting
                 if any(a.index == p.index for a in tree.ancestors(s))]
        resimulated += max(0, len(sides) - 2)
    self_times = tree.self_by_name()
    m = {}
    for name, work in (("sim.taylor15", "real_steps"),
                       ("sim.field", "node_steps")):
        m[f"{name}.s"] = tree.total(name)
        m[f"{name}.calls"] = len(tree.named(name))
        m[f"{name}.real_steps"] = tree.count(name, "real_steps")
        m[f"{name}.{work}_per_s"] = _rate(tree.count(name, work),
                                          m[f"{name}.s"])
    m["sim.normals.s"] = tree.total("sim.normals")
    m["sim.normals.count"] = len(tree.named("sim.normals"))
    m["sim.rk4.s"] = tree.total("sim.rk4")
    m["sim.rk4.steps"] = tree.count("sim.rk4", "steps")
    m["sim.io.save_s"] = tree.total("sim.io.save")
    m["sim.io.load_s"] = tree.total("sim.io.load")
    m["sim.io.bytes"] = (tree.count("sim.io.save", "bytes")
                         + tree.count("sim.io.load", "bytes"))
    m["sim.train.maxrss_growth_mb"] = sum(
        s.counts.get("maxrss_growth_mb", 0.0) for s in training)
    m["sim.diverged"] = sum(s.error == DIVERGED_ERROR for s in steppers)
    m["library.el_transform.s"] = tree.total("library.el_transform")
    m["library.el_transform.calls"] = len(tree.named("library.el_transform"))
    m["library.el_transform.cells"] = tree.count("library.el_transform",
                                                 "cells")
    m["library.el_transform.cells_per_s"] = _rate(
        m["library.el_transform.cells"], m["library.el_transform.s"])
    m["library.build.s"] = tree.total("library.build")
    m["library.bases"] = tree.count("library.build", "bases")
    m["regression.stls.s"] = tree.total("regression.stls")
    m["regression.stls.calls"] = len(tree.named("regression.stls"))
    m["regression.stls.iterations"] = tree.count("regression.stls",
                                                 "iterations")
    m["regression.stls.nonconverged"] = tree.count("regression.stls",
                                                   "nonconverged")
    m["regression.stls.cells"] = tree.count("regression.stls", "cells")
    m["discovery.lagrangian.self_s"] = self_times.get(
        "discovery.lagrangian", 0.0)
    m["discovery.diffusion.s"] = tree.total("discovery.diffusion")
    m["discovery.diffusion.self_s"] = self_times.get(
        "discovery.diffusion", 0.0)
    m["discovery.derive.s"] = tree.total("discovery.derive")
    m["bench.predict.s"] = tree.total("bench.predict")
    m["bench.predict.truth_s"] = sum(
        s.duration for s in predicting if not s.counts["discovered"])
    m["bench.predict.discovered_s"] = sum(
        s.duration for s in predicting if s.counts["discovered"])
    m["bench.predict.maxrss_growth_mb"] = sum(
        s.counts.get("maxrss_growth_mb", 0.0)
        for s in tree.named("bench.predict"))
    m["bench.predict.resimulated"] = resimulated
    m["bench.energy.s"] = tree.total("bench.energy")
    m["bench.write.s"] = tree.total("bench.write")
    m["bench.write.bytes"] = tree.count("bench.write", "bytes")
    m["bench.self_s"] = sum(v for k, v in self_times.items()
                            if k.startswith("bench."))
    m["cli.self_s"] = self_times.get("cli", 0.0)
    return m


def per_system_stages(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-system stage seconds in the columns of the ROADMAP baseline."""
    tree = SpanTree(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        if s.system is None:
            continue
        row = table.setdefault(s.system, {
            "total_s": 0.0, "prediction_s": 0.0, "training_sim_s": 0.0,
            "lagrangian_s": 0.0, "diffusion_s": 0.0})
        # A system's work is either one bench.run span or, when the caller
        # names the system of each lagdyn call, its cli spans.
        if s.name in ("bench.run", "cli"):
            row["total_s"] += s.duration
        elif s.name == "bench.predict":
            row["prediction_s"] += s.duration
        elif s.name in STEPPERS and not tree.under(s, "bench.predict"):
            row["training_sim_s"] += s.duration
        elif s.name == "discovery.lagrangian":
            row["lagrangian_s"] += s.duration
        elif s.name == "discovery.diffusion":
            row["diffusion_s"] += s.duration
    return table


def main(argv: list[str]) -> int:
    """Run one traced lagdyn command and print where its time went.

    ``--spans FILE`` before the lagdyn arguments also writes every span
    to FILE as JSON lines when the command ends.
    """
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from lagdyn import cli

    tracer = Tracer(run_id=f"adhoc-{os.getpid()}").install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    print(json.dumps({"per_system": per_system_stages(tracer.spans),
                      "self_s": SpanTree(tracer.spans).self_by_name()},
                     indent=2), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
