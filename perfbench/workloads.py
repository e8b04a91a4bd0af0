"""Workload definitions and the correctness gate's expectations.

Pure data: importing this module does not import lagdyn, so ``run.py`` can
validate its arguments without paying the package's import cost.

Each workload is a list of ``lagdyn`` command lines (one ``cli.main`` call
each) and the benchmark systems it covers. An operation is one system
through the workload.
"""

from __future__ import annotations

DISCRETE = ("harmonic", "pendulum", "duffing", "3dof")
FIELD = ("wave", "beam")

# The prediction comparison runs 200 realizations per side by default,
# which puts one `field` pass at about 75 s. Fewer prediction realizations
# keep a pass short enough that a run holds two passes; training and
# discovery keep their default sizes, so accuracy and the correctness
# gate are those of the default configuration.
FIELD_PREDICTION_N_REAL = 20

WORKLOADS = {
    "field": FIELD,
    "discover": DISCRETE,
}


# Tiny overrides for the smoke mode: they exercise every CLI path in a
# second or two. Accuracy is not checked under them.
SMOKE_ARGS = ("--n-real", "4", "--t-f", "0.01")
SMOKE_PREDICTION_N_REAL = 4

# Acceptance criterion 2: exact Lagrangian and diffusion supports.
_PROBES = (20, 35, 50, 65, 80)
EXPECTED_SUPPORTS = {
    "harmonic": [["X^2"]],
    "pendulum": [["cos(X)"]],
    "duffing": [["X^2", "X^4"]],
    "3dof": [["(X2-X1)^2", "X1^2"],
             ["(X2-X1)^2", "(X3-X2)^2"],
             ["(X3-X2)^2"]],
    "wave": [[f"ux{n}^2"] for n in _PROBES],
    "beam": [[f"uxx{n}^2"] for n in _PROBES],
}
EXPECTED_DIFFUSION_SUPPORTS = {
    "harmonic": [["X^2"]],
    "pendulum": [["X^2"]],
    "duffing": [["X^2"]],
    "3dof": [["X1^2"], ["X2^2"], ["X3^2"]],
    "wave": [[f"u{n}^2"] for n in _PROBES],
    "beam": [[f"u{n}^2"] for n in _PROBES],
}

# Acceptance criterion 1: largest relative coefficient error (percent);
# for 3dof the bound applies to every equation, which is the same as to
# their maximum.
MAX_RELATIVE_PCT = {
    "harmonic": 1.0, "pendulum": 1.0, "duffing": 1.0, "3dof": 0.5,
    "wave": 5.0, "beam": 1.0,
}
# Criterion 1's parameter checks: (table key, true value, relative bound).
# Field coefficients are pooled over the probe nodes; wave stores -c^2.
PARAMETER_BOUNDS = {
    "harmonic": ("gain", 1.0, 0.10),
    "pendulum": ("gain", 0.1, 0.20),
    "wave": ("uxx", -4.0, 0.02),
    "beam": ("uxxxx", 0.1035, 0.02),
}


def cli_calls(workload: str, seed: int, out_dir: str,
              smoke: bool = False) -> list[tuple[str | None, list[str]]]:
    """The ``lagdyn`` argument lists of one pass, each with its system.

    ``None`` as the system marks a call that covers several systems.
    """
    common = ["--seed", str(seed), "--output-dir", out_dir]
    if smoke:
        common += list(SMOKE_ARGS)
    if workload == "field":
        n_pred = SMOKE_PREDICTION_N_REAL if smoke else FIELD_PREDICTION_N_REAL
        return [(None, ["bench", "--only", ",".join(FIELD)] + common
                 + ["--prediction-n-real", str(n_pred)])]
    if workload == "discover":
        calls = []
        for system in DISCRETE:
            container = f"{out_dir}/{system}_ensemble.bin"
            calls.append((system, ["simulate", "--system", system] + common))
            calls.append((system, ["discover", "--system", system,
                                   "--ensemble", container] + common))
        return calls
    raise KeyError(f"unknown workload '{workload}'")
