"""Command-line entry point tying configuration files to the pipeline.

Subcommands: simulate (write a training ensemble), discover (fit models
to an ensemble), bench (full benchmark reports). Settings come from an
optional JSON config file; command-line flags override config values.
Exit codes: 0 ok, 2 configuration error, 3 stability violation or
divergence, 4 I/O failure, 5 discovery failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from lagdyn import bench, discovery, sim
from lagdyn.errors import ConfigError, LagdynError

DEFAULT_SEED = bench.DEFAULT_SEED
OUTPUT_DIR_ENV = "LAGDYN_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "lagdyn_out"

_EXIT_BY_CODE = {
    "config": 2,
    "stability": 3,
    "diverged": 3,
    "regression": 5,
    "unsupported_form": 5,
}


# (field, accepted type, lower bound, bound excluded) of the numeric settings
# that reach the simulator and the regressions unchecked.
_NUMERIC_RANGES = (
    ("seed", int, None, False),
    ("n_real", int, 1, False),
    ("dt", (int, float), 0, True),
    ("t_f", (int, float), 0, True),
    ("prediction_n_real", int, 1, False),
    ("prediction_factor", (int, float), 1, False),
    ("lambda_lagrangian", (int, float), 0, False),
    ("lambda_diffusion", (int, float), 0, False),
    ("rcond_lagrangian", (int, float), 0, False),
    ("rcond_diffusion", (int, float), 0, False),
)


def _split_names(text: str) -> tuple[str, ...]:
    """Names of a comma-separated list, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the subcommands.

    Every field is optional; unset fields fall back to per-benchmark
    defaults. A JSON config file provides the same keys; flags override
    file values. Unknown keys are rejected, and so are settings of the
    wrong type and numeric settings out of range.
    """

    system: str | None = None
    only: tuple[str, ...] | None = None
    seed: int | None = None
    n_real: int | None = None
    dt: float | None = None
    t_f: float | None = None
    lambda_lagrangian: float | None = None
    lambda_diffusion: float | None = None
    rcond_lagrangian: float | None = None
    rcond_diffusion: float | None = None
    prediction_factor: float | None = None
    prediction_n_real: int | None = None
    ensemble: str | None = None
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("system", "ensemble", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if self.only is not None and not (
                isinstance(self.only, tuple)
                and all(isinstance(s, str) for s in self.only)):
            raise ConfigError(
                f"only must be a string or a list of strings, got {self.only!r}"
            )
        for name, kind, low, strict in _NUMERIC_RANGES:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(
                    f"{name} must be {'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}"
                )
            if low is None:
                continue
            if not (math.isfinite(value)
                    and (value > low if strict else value >= low)):
                bound = f"> {low}" if strict else f">= {low}"
                raise ConfigError(f"{name} must be finite and {bound}, got {value!r}")

    def to_dict(self) -> dict:
        """Set fields only; from_dict(to_dict()) round-trips."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = list(value) if f.name == "only" else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        values = dict(data)
        only = values.get("only")
        if isinstance(only, str):
            values["only"] = _split_names(only)
        elif isinstance(only, list):
            values["only"] = tuple(only)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)


def _merge_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if "only" in overrides:
        overrides["only"] = _split_names(overrides["only"])
    return replace(config, **overrides)


def _resolve_output_dir(config: RunConfig) -> Path:
    if config.output_dir is not None:
        return Path(config.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path(DEFAULT_OUTPUT_DIR)


def _resolve_seed(config: RunConfig) -> tuple[int, bool]:
    if config.seed is None:
        return DEFAULT_SEED, True
    return int(config.seed), False


def _print_header(command: str, seed: int, is_default: bool,
                  out_dir: Path) -> None:
    tag = " (default)" if is_default else ""
    print(f"# lagdyn {command}")
    print(f"# seed: {seed}{tag}")
    print(f"# output: {out_dir}")


def _benchmark_config(name: str, config: RunConfig) -> bench.BenchmarkConfig:
    base = bench.DEFAULT_CONFIGS[name]
    overrides = {}
    for key in ("lambda_lagrangian", "lambda_diffusion", "rcond_lagrangian",
                "rcond_diffusion", "prediction_factor", "prediction_n_real",
                "n_real", "dt", "t_f"):
        value = getattr(config, key)
        if value is not None:
            overrides[key] = value
    return replace(base, **overrides)


def cmd_simulate(config: RunConfig) -> int:
    """Write the training ensemble of one benchmark system."""
    if config.system is None:
        raise ConfigError("simulate needs --system")
    spec = sim.benchmark_spec(config.system)
    seed, is_default = _resolve_seed(config)
    out_dir = _resolve_output_dir(config)
    bench_config = _benchmark_config(config.system, config)
    dt, t_f, n_real = bench.training_protocol(spec, bench_config)
    _print_header("simulate", seed, is_default, out_dir)
    ensemble = sim.generate_ensemble(spec, dt=dt, t_f=t_f, n_real=n_real,
                                     base_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{config.system}_ensemble.bin"
    sim.save_ensemble(ensemble, path)
    print(f"wrote {path} ({n_real} realizations, {ensemble.n_steps} samples)")
    return 0


def cmd_discover(config: RunConfig) -> int:
    """Fit Lagrangian, diffusion, equations, and Hamiltonian models."""
    if config.system is None:
        raise ConfigError("discover needs --system")
    spec = sim.benchmark_spec(config.system)
    seed, is_default = _resolve_seed(config)
    out_dir = _resolve_output_dir(config)
    bench_config = _benchmark_config(config.system, config)
    _print_header("discover", seed, is_default, out_dir)
    libraries = bench.discovery_libraries(config.system, spec, bench_config)
    if config.ensemble is not None:
        ensemble = sim.load_ensemble(config.ensemble)
    else:
        ensemble = bench.training_record(spec, bench_config, libraries, seed)
    lag, diff, eom = bench.discover_models(ensemble, config.system, spec,
                                           bench_config, libraries)
    ham = discovery.legendre_transform(lag)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = config.system
    artifacts = {
        f"{name}_lagrangian.json": lag.to_json(),
        f"{name}_diffusion.json": diff.to_json(),
        f"{name}_equations.json": eom.to_json(),
        f"{name}_hamiltonian.json": ham.to_json(),
        f"{name}_expressions.txt": "\n".join([
            lag.expression,
            diff.expression,
            eom.expression,
            ham.expression,
            "",
        ]),
    }
    for file_name, text in sorted(artifacts.items()):
        path = out_dir / file_name
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {path}")
    print(lag.expression)
    print(eom.expression)
    return 0


def cmd_bench(config: RunConfig) -> int:
    """Run benchmark reports; nonzero exit when any benchmark fails."""
    names = list(config.only) if config.only else list(sim.BENCHMARK_NAMES)
    unknown = [n for n in names if n not in sim.BENCHMARK_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown benchmarks {unknown}; valid names: "
            f"{', '.join(sim.BENCHMARK_NAMES)}"
        )
    seed, is_default = _resolve_seed(config)
    out_dir = _resolve_output_dir(config)
    _print_header("bench", seed, is_default, out_dir)
    rows = []
    first_failure_code = None
    for name in names:
        report = bench.run_benchmark(name, _benchmark_config(name, config),
                                     seed=seed)
        bench.write_report(report, out_dir)
        if report.status == "ok":
            equation = report.discovered_section["equations"].replace(
                "\n", "; ")
            rows.append((name, equation,
                         repr(report.errors["relative_pct"]),
                         repr(report.errors["diffusion_pct"]),
                         "ok"))
            print(f"{name}: relative error "
                  f"{report.errors['relative_pct']:.4f}%")
        else:
            stage = report.failure["stage"]
            rows.append((name, "", "", "", f"failed:{stage}"))
            print(f"{name}: FAILED at stage {stage}: "
                  f"{report.failure['message']}")
            if first_failure_code is None:
                first_failure_code = _EXIT_BY_CODE.get(
                    report.failure["code"], 1)
    summary = out_dir / "bench_summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("system", "discovered_equation",
                         "relative_error_pct", "diffusion_error_pct",
                         "status"))
        writer.writerows(rows)
    print(f"wrote {summary}")
    return first_failure_code or 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagdyn",
        description=(
            "Discover Lagrangian, diffusion, and Hamiltonian models of "
            "stochastically excited systems from ensemble simulations. "
            f"Default output directory: ${OUTPUT_DIR_ENV} or "
            f"'{DEFAULT_OUTPUT_DIR}'; default seed: {DEFAULT_SEED}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="base ensemble seed")
        p.add_argument("--output-dir", dest="output_dir",
                       help=f"output directory (default: ${OUTPUT_DIR_ENV})")
        p.add_argument("--n-real", dest="n_real", type=int,
                       help="training realizations")
        p.add_argument("--dt", type=float, help="time step")
        p.add_argument("--t-f", dest="t_f", type=float,
                       help="training window length")

    p_sim = sub.add_parser("simulate", help="write a training ensemble")
    add_common(p_sim)
    p_sim.add_argument("--system", help="benchmark name")

    p_disc = sub.add_parser("discover", help="fit models to an ensemble")
    add_common(p_disc)
    p_disc.add_argument("--system", help="benchmark name")
    p_disc.add_argument("--ensemble",
                        help="ensemble container (default: simulate inline)")
    p_disc.add_argument("--lambda-lagrangian", dest="lambda_lagrangian",
                        type=float, help="Lagrangian sparsity threshold")
    p_disc.add_argument("--lambda-diffusion", dest="lambda_diffusion",
                        type=float, help="diffusion sparsity threshold")
    p_disc.add_argument("--rcond-lagrangian", dest="rcond_lagrangian",
                        type=float, help="Lagrangian singular-value cutoff")
    p_disc.add_argument("--rcond-diffusion", dest="rcond_diffusion",
                        type=float, help="diffusion singular-value cutoff")

    p_bench = sub.add_parser("bench", help="run benchmark reports")
    add_common(p_bench)
    p_bench.add_argument("--only", help="comma-separated benchmark names")
    p_bench.add_argument("--lambda-lagrangian", dest="lambda_lagrangian",
                         type=float, help="Lagrangian sparsity threshold")
    p_bench.add_argument("--lambda-diffusion", dest="lambda_diffusion",
                         type=float, help="diffusion sparsity threshold")
    p_bench.add_argument("--rcond-lagrangian", dest="rcond_lagrangian",
                         type=float, help="Lagrangian singular-value cutoff")
    p_bench.add_argument("--rcond-diffusion", dest="rcond_diffusion",
                         type=float, help="diffusion singular-value cutoff")
    p_bench.add_argument("--prediction-factor", dest="prediction_factor",
                         type=float,
                         help="prediction horizon / training window")
    p_bench.add_argument("--prediction-n-real", dest="prediction_n_real",
                         type=int, help="prediction realizations")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = (RunConfig.from_file(args.config)
                  if getattr(args, "config", None) else RunConfig())
        config = _merge_flags(config, args)
        handler = {
            "simulate": cmd_simulate,
            "discover": cmd_discover,
            "bench": cmd_bench,
        }[args.command]
        return handler(config)
    except LagdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BY_CODE.get(exc.code, 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
