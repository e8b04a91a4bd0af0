"""Ensemble simulation of stochastically excited dynamical systems.

Discrete mechanical systems integrate with an additive-noise strong Taylor
scheme of order 1.5 (or classic Euler-Maruyama); spatially extended systems
use a kick-drift symplectic Euler-Maruyama stepper that is stable for
undamped wave and beam semidiscretizations and preserves the one-step drift
identity that downstream model discovery relies on. All randomness is
reproducible: realization k of an ensemble draws from a generator seeded by
a SplitMix-style mix of (base_seed, k).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from lagdyn.errors import ConfigError, SimulationDivergedError, StabilityError

BLOW_UP_BOUND = 1.0e6
# Steps of noise drawn per realization at a time, fewer for large batches so
# that a chunk of the batch's increments stays within CHUNK_VALUES values.
CHUNK_STEPS = 256
CHUNK_VALUES = 1 << 20

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derived_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for realization `index` of a base seed.

    SplitMix64 finalizer applied to base_seed advanced by (index + 1)
    golden-ratio increments; consecutive indices give statistically
    independent generator seeds.
    """
    z = (int(base_seed) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class NoiseStream:
    """Seeded source of Gaussian noise for one trajectory.

    Attributes:
        seed: The 64-bit seed this stream was created with.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def standard_normals(self, shape) -> np.ndarray:
        """Draw a block of independent standard normal samples."""
        return self._rng.standard_normal(shape)


@dataclass(frozen=True)
class FieldGeometry:
    """Spatial grid and boundary handling of a one-dimensional field.

    Attributes:
        length: Domain length.
        dx: Node spacing; the grid has round(length/dx) + 1 nodes.
        boundary: "pinned-both" (displacement fixed to zero at both ends)
            or "clamped-free" (left end fixed with zero slope, right end
            free of moment and shear).
        constrained: Node indices whose displacement and velocity are held
            at zero by the stepper.
    """

    length: float
    dx: float
    boundary: str
    constrained: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return int(round(self.length / self.dx)) + 1

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dx


@dataclass
class SystemSpec:
    """Complete description of a simulatable stochastic system.

    The full state vector concatenates displacement and velocity blocks
    (u_1..u_n, v_1..v_n) for mechanical and field systems; generic
    first-order test systems may use any state length.

    Attributes:
        name: Identifier.
        kind: "sde" for finite-dimensional systems, "spde" for fields.
        dim: Number of coordinates (particles or grid nodes).
        drift: Map state -> time derivative of state, batched over leading
            axes.
        volatility: Map state -> per-coordinate noise gain vector, batched.
            Coordinates whose gain at the initial state is zero are treated
            as noiseless.
        initial_state: Start state, shape (2*dim,) for mechanical systems.
        params: Named scalar parameters, including the simulation protocol
            (t_final, sample_rate, n_realizations) for benchmarks.
        drift_jacobian: Map state -> Jacobian of drift, batched; required by
            the Taylor integrator.
        noise_curvature: Optional map state -> sum_k g_k^2 * d2(drift)/dY_k^2
            over noise-carrying coordinates; zero when omitted.
        acceleration: Optional map displacement -> acceleration used by the
            field stepper (and by drift for field systems).
        spatial: Grid geometry for field systems.
    """

    name: str
    kind: str
    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    volatility: Callable[[np.ndarray], np.ndarray]
    initial_state: np.ndarray
    params: dict = field(default_factory=dict)
    drift_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    noise_curvature: Callable[[np.ndarray], np.ndarray] | None = None
    acceleration: Callable[[np.ndarray], np.ndarray] | None = None
    spatial: FieldGeometry | None = None


@dataclass
class Ensemble:
    """Batch of independent trajectory realizations of one system.

    Attributes:
        dt: Sampling step.
        n_steps: Number of stored time samples per realization (N_t), >= 2.
        n_real: Number of realizations (N).
        coords: Number of coordinates (n).
        displacement: Array of shape (N, n, N_t).
        velocity: Array of shape (N, n, N_t).
        spatial_grid: Node coordinates for field systems, else None.
        system: Name of the simulated system, None when unknown (containers
            written before the name was stored).
    """

    dt: float
    n_steps: int
    n_real: int
    coords: int
    displacement: np.ndarray
    velocity: np.ndarray
    spatial_grid: np.ndarray | None = None
    system: str | None = None

    def __post_init__(self):
        shape = (self.n_real, self.coords, self.n_steps)
        if self.displacement.shape != shape or self.velocity.shape != shape:
            raise ValueError(f"ensemble arrays must have shape {shape}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if self.n_real < 1:
            raise ValueError("an ensemble needs at least 1 realization")
        if self.n_steps < 2:
            raise ValueError("an ensemble needs at least 2 samples per realization")
        if not np.all(np.isfinite(self.displacement)) or not np.all(
            np.isfinite(self.velocity)
        ):
            raise ValueError("ensemble contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt

    def realization(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(displacement, velocity) of realization k, each (n, N_t)."""
        return self.displacement[k], self.velocity[k]

    def displacement_sum(self) -> np.ndarray:
        """Displacement summed over realizations k = 0..N-1, (n, N_t).

        Realizations add to zeros one at a time, in order, so the sum is
        bitwise that of a TrainingRecord of the same run.
        """
        total = np.zeros(self.displacement.shape[1:])
        for k in range(self.n_real):
            total += self.displacement[k]
        return total


class _Rows:
    """Recorded rows of one state block, read by absolute coordinate index.

    Stands in for a (coords, N_t) array wherever discovery indexes single
    coordinates; reading a coordinate that was not recorded raises.
    """

    def __init__(self, data: np.ndarray, position: dict[int, int], coords: int):
        self.data = data
        self.position = position
        self.shape = (coords, data.shape[-1])

    def __getitem__(self, index) -> np.ndarray:
        node = int(index)
        if node < 0:
            node += self.shape[0]
        if node not in self.position:
            raise LookupError(f"coordinate {index} was not recorded")
        return self.data[self.position[node]]


@dataclass
class TrainingRecord:
    """The rows of a training ensemble that discovery reads.

    Holds selected displacement and velocity rows of every realization and
    the displacement of every coordinate summed over realizations. It
    answers the same reads as an Ensemble (realization, displacement_sum)
    for the recorded rows and raises on any other.

    Attributes:
        dt, n_steps, n_real, coords, spatial_grid, system: As in Ensemble.
        disp_nodes: Coordinates whose displacement is recorded.
        vel_nodes: Coordinates whose velocity is recorded.
        displacement: Recorded displacement rows, (N, len(disp_nodes), N_t).
        velocity: Recorded velocity rows, (N, len(vel_nodes), N_t).
        total: Displacement summed over realizations, (n, N_t).
    """

    dt: float
    n_steps: int
    n_real: int
    coords: int
    disp_nodes: tuple[int, ...]
    vel_nodes: tuple[int, ...]
    displacement: np.ndarray
    velocity: np.ndarray
    total: np.ndarray
    spatial_grid: np.ndarray | None = None
    system: str | None = None

    def __post_init__(self):
        self._disp_pos = {node: j for j, node in enumerate(self.disp_nodes)}
        self._vel_pos = {node: j for j, node in enumerate(self.vel_nodes)}

    def realization(self, k: int) -> tuple[_Rows, _Rows]:
        return (_Rows(self.displacement[k], self._disp_pos, self.coords),
                _Rows(self.velocity[k], self._vel_pos, self.coords))

    def displacement_sum(self) -> np.ndarray:
        return self.total


def _noise_layout(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Initial gain vector and the indices of noise-carrying coordinates."""
    g0 = np.asarray(spec.volatility(np.asarray(spec.initial_state, dtype=float)))
    return g0, np.flatnonzero(g0 != 0.0)


def increments_from_normals(dt: float, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert paired standard normals to correlated (dW, dZ) increments.

    dW = sqrt(dt) x1 is the Wiener increment and dZ the time integral of
    the Wiener deviation over the step, jointly Gaussian with
    Var(dZ) = dt^3/3 and Cov(dW, dZ) = dt^2/2.

    Args:
        dt: Time step.
        normals: Standard normals with pair axis last, shape (..., 2).

    Returns:
        (dw, dz) arrays of shape normals.shape[:-1].
    """
    xi1 = normals[..., 0]
    xi2 = normals[..., 1]
    sqdt = np.sqrt(dt)
    dw = sqdt * xi1
    dz = 0.5 * dt * sqdt * (xi1 + xi2 / np.sqrt(3.0))
    return dw, dz


# ---------------------------------------------------------------------------
# Chunked stepping: one noise source, one loop per scheme
# ---------------------------------------------------------------------------


class _StreamDraws:
    """Noise increments of one noise layout, drawn a chunk of steps at a time.

    Each realization keeps its stream for the whole run and every chunk
    continues it where the previous chunk stopped, so the chunks reproduce
    a one-shot draw of the whole horizon.
    """

    def __init__(self, streams: list[NoiseStream], n_noise: int, scheme: str,
                 dt: float):
        self.streams = streams
        self.taylor = scheme == "taylor15"
        self.tail = (n_noise, 2) if self.taylor else (n_noise,)
        self.dt = dt

    def __call__(self, m: int) -> tuple[np.ndarray, ...]:
        """Increments of the next m steps, each (m, n_real, n_noise).

        (dW,) for the Euler schemes, (dW, dZ) for Taylor 1.5.
        """
        xi = np.stack(
            [s.standard_normals((m,) + self.tail) for s in self.streams], axis=1
        )
        if self.taylor:
            return increments_from_normals(self.dt, xi)
        return (np.sqrt(self.dt) * xi,)


class _GivenIncrements:
    """Externally supplied (dW, dZ), shape (n_real, n_steps, n_noise), by chunk."""

    def __init__(self, dw: np.ndarray, dz: np.ndarray):
        self.dw, self.dz = dw, dz
        self.done = 0

    def __call__(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        steps = slice(self.done, self.done + m)
        self.done += m
        return self.dw[:, steps].swapaxes(0, 1), self.dz[:, steps].swapaxes(0, 1)


@dataclass
class _Side:
    """One system of a batch and the batch rows its realizations occupy."""

    spec: SystemSpec
    rows: slice
    gains: np.ndarray
    noise_idx: np.ndarray

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(self.noise_idx)


class _Recorder:
    """Copies selected state rows of every step into the output arrays.

    Each output has shape (batch, n_rows, n_steps + 1). Steps are buffered
    time-major, one contiguous slab per step, and a flush moves the
    buffered steps into the outputs in one transposed copy. Rows in
    ``summed`` are not kept per realization: ``total`` (n_rows,
    n_steps + 1) holds their sum over the batch.
    """

    def __init__(self, row_sets, widths: tuple[int, ...], batch: int,
                 n_steps: int, depth: int, summed=None):
        starts = np.cumsum((0,) + widths)
        self.outputs = [np.empty((batch, len(rows), n_steps + 1))
                        for rows in row_sets]
        self.total = None
        if summed is not None:
            # Buffered like a kept row set, the last one; flush sums it.
            self.total = np.empty((len(summed), n_steps + 1))
            row_sets = list(row_sets) + [summed]
        self.buffers, self.copies = [], []
        for o, rows in enumerate(row_sets):
            rows = [int(r) for r in rows]
            self.buffers.append(np.empty((depth, batch, len(rows))))
            # Runs of rows consecutive in one state block copy as one slice.
            runs: list[list[int]] = []
            for pos, row in enumerate(rows):
                block = int(np.searchsorted(starts, row, side="right")) - 1
                col = row - int(starts[block])
                if runs and runs[-1][0] == block and runs[-1][2] == col:
                    runs[-1][2] += 1
                    runs[-1][4] += 1
                else:
                    runs.append([block, col, col + 1, pos, pos + 1])
            self.copies += [(o, b, slice(c0, c1), slice(p0, p1))
                            for b, c0, c1, p0, p1 in runs]
        self.filled = 0

    def take(self, j: int, *blocks: np.ndarray) -> None:
        """Buffer the state blocks after step j of the current chunk."""
        for o, b, cols, pos in self.copies:
            self.buffers[o][j, :, pos] = blocks[b][:, cols]

    def flush(self, m: int) -> None:
        """Move the first m buffered steps into the outputs."""
        steps = slice(self.filled, self.filled + m)
        for out, buf in zip(self.outputs, self.buffers):
            out[:, :, steps] = buf[:m].transpose(1, 2, 0)
        if self.total is not None:
            buf = self.buffers[-1][:m]
            acc = np.zeros((m, buf.shape[2]))
            # Realizations add to zeros one at a time, in order: a numpy
            # sum over the batch axis may pair them up and round otherwise.
            for k in range(buf.shape[1]):
                acc += buf[:, k]
            self.total[:, steps] = acc.T
        self.filled += m

    def start(self, *blocks: np.ndarray) -> None:
        """Record the initial state as sample 0."""
        self.take(0, *blocks)
        self.flush(1)


def _initial_states(sides: list[_Side]) -> np.ndarray:
    batch = sides[-1].rows.stop
    y = np.empty((batch, np.size(sides[0].spec.initial_state)))
    for side in sides:
        y[side.rows] = np.asarray(side.spec.initial_state, dtype=float)
    return y


def _as_slice(idx: np.ndarray):
    """A run of consecutive indices as a slice, anything else unchanged."""
    if idx.size and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _ChunkNoise:
    """Noise of the whole batch in state layout, one chunk of steps at a time.

    A call returns one (m, batch, width) array per increment kind, covering
    state coordinates [offset, offset + width); coordinates without noise
    stay zero. Sides with the same noise layout share one draw. With
    ``scaled`` each side's increments are multiplied by its initial gains.
    """

    def __init__(self, sides: list[_Side], noise, depth: int, offset: int,
                 width: int, scaled: bool):
        self.sides = sides
        self.draws = {}
        for side in sides:
            if side.key not in self.draws:
                self.draws[side.key] = noise(side.noise_idx)
        self.cols = [_as_slice(side.noise_idx - offset) for side in sides]
        self.gains = [side.gains[side.noise_idx] if scaled else None
                      for side in sides]
        self.shape = (depth, sides[-1].rows.stop, width)
        self.buffers: list[np.ndarray] = []

    def __call__(self, m: int) -> list[np.ndarray]:
        drawn = {key: draw(m) for key, draw in self.draws.items()}
        if not self.buffers:
            self.buffers = [np.zeros(self.shape) for _ in drawn[self.sides[0].key]]
        for side, cols, gains in zip(self.sides, self.cols, self.gains):
            for buf, inc in zip(self.buffers, drawn[side.key]):
                buf[:m, side.rows, cols] = inc if gains is None else inc * gains
        return [buf[:m] for buf in self.buffers]


def _diverged(state: np.ndarray, step: int, rec: _Recorder) -> SimulationDivergedError:
    worst = np.abs(state).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(worst) | (worst > BLOW_UP_BOUND))
    return SimulationDivergedError(
        f"trajectory diverged at step {step} (realization {int(bad[0])}): "
        f"|state| exceeded {BLOW_UP_BOUND:g} or became non-finite",
        step=step,
        realizations=tuple(int(k) for k in bad),
        partial=[out[:, :, :rec.filled] for out in rec.outputs],
    )


def _kick_drift(sides, dt, n_steps, noise, rec, chunk_steps) -> None:
    """Kick-drift symplectic Euler-Maruyama for field systems.

    Per step: v+ = v + dt*a(u) + g.dW; u+ = u + dt*v+. Constrained nodes
    stay at zero. The velocity update uses the acceleration at the current
    displacement only, so (v+ - v)/dt equals the drift plus pure noise,
    exactly, per step.
    """
    n = sides[0].spec.dim
    constrained = list(sides[0].spec.spatial.constrained)
    y = _initial_states(sides)
    u, v = y[:, :n].copy(), y[:, n:].copy()
    u[:, constrained] = 0.0
    v[:, constrained] = 0.0
    rec.start(u, v)
    work = np.empty_like(u)
    for done in range(0, n_steps, chunk_steps):
        m = min(chunk_steps, n_steps - done)
        (kicks,) = noise(m)
        for j in range(m):
            for side in sides:
                r = side.rows
                np.multiply(side.spec.acceleration(u[r]), dt, out=work[r])
            v += work
            v += kicks[j]
            v[:, constrained] = 0.0
            np.multiply(v, dt, out=work)
            u += work
            u[:, constrained] = 0.0
            if not np.abs(u, out=work).max() <= BLOW_UP_BOUND:
                rec.flush(j)
                raise _diverged(u, done + j + 1, rec)
            rec.take(j, u, v)
        rec.flush(m)


def _taylor15(sides, dt, n_steps, noise, rec, chunk_steps) -> None:
    """Strong Taylor 1.5 for additive noise.

    One step of the scheme for dY = A(Y) dt + B dW with constant B:
        Y+ = Y + A dt + B.dW + (J_A B).dZ + 0.5 (J_A A + 0.5 K) dt^2
    where J_A is the drift Jacobian, K the noise-curvature vector, dW the
    Wiener increment over the step, and dZ the time integral of the Wiener
    deviation over the step.
    """
    y = _initial_states(sides)
    rec.start(y)
    dt2 = dt * dt
    for done in range(0, n_steps, chunk_steps):
        m = min(chunk_steps, n_steps - done)
        gdw, gdz = noise(m)
        for j in range(m):
            for side in sides:
                spec, r = side.spec, side.rows
                ys = y[r]
                a = spec.drift(ys)
                jac = spec.drift_jacobian(ys)
                ja = np.einsum("...ij,...j->...i", jac, a)
                jbz = np.einsum("...ij,...j->...i", jac, gdz[j, r])
                curv = (spec.noise_curvature(ys)
                        if spec.noise_curvature is not None else 0.0)
                y[r] = ys + a * dt + gdw[j, r] + jbz + 0.5 * dt2 * (ja + 0.5 * curv)
            if not np.abs(y).max() <= BLOW_UP_BOUND:
                rec.flush(j)
                raise _diverged(y, done + j + 1, rec)
            rec.take(j, y)
        rec.flush(m)


def _euler_maruyama(sides, dt, n_steps, noise, rec, chunk_steps) -> None:
    """Classic Euler-Maruyama; supports state-dependent volatility."""
    y = _initial_states(sides)
    rec.start(y)
    for done in range(0, n_steps, chunk_steps):
        m = min(chunk_steps, n_steps - done)
        (dws,) = noise(m)
        for j in range(m):
            for side in sides:
                spec, r = side.spec, side.rows
                ys = y[r]
                gains = np.asarray(spec.volatility(ys))
                y[r] = ys + spec.drift(ys) * dt + gains * dws[j, r]
            if not np.abs(y).max() <= BLOW_UP_BOUND:
                rec.flush(j)
                raise _diverged(y, done + j + 1, rec)
            rec.take(j, y)
        rec.flush(m)


_LOOPS = {"kick-drift": _kick_drift, "taylor15": _taylor15,
          "euler": _euler_maruyama}


def _simulate(specs, dt: float, n_steps: int, n_real: int, noise, row_sets,
              method: str = "auto", summed=None) -> list[np.ndarray]:
    """Check the stepping arguments, then step a batch of one or more sides.

    Every stochastic stepper of this module goes through here, so each
    argument is checked once. The scheme follows from the kind of the
    systems and ``method``: kick-drift for fields ("spde"), otherwise
    Taylor 1.5 ("auto", "taylor15") or Euler-Maruyama ("euler").

    Side s occupies batch rows [s*n_real, (s+1)*n_real) and calls only its
    own spec's callables on them. Realization k of every side takes the
    same noise draw when the sides share a noise layout; a side with
    another layout draws from fresh streams of its own.

    Args:
        specs: Systems stepped together; they must share kind, dimension,
            state size and grid.
        dt: Time step, > 0.
        n_steps: Number of steps, >= 1.
        n_real: Realizations per side, >= 1.
        noise: A base seed (realization k draws from
            derived_seed(base_seed, k)), one NoiseStream (n_real = 1), or
            a given (dW, dZ) pair of shape (n_real, n_steps, n_noise).
        row_sets: State rows to record, one output array per set; together
            non-empty and within the state.
        method: "auto", "taylor15" or "euler".
        summed: State rows to record as their sum over the batch.

    Returns:
        One array (len(specs) * n_real, len(rows), n_steps + 1) per row set,
        then, with ``summed``, their batch sum (len(summed), n_steps + 1).

    Raises:
        ValueError: for dt <= 0, fewer than 1 step or n_real < 1.
        ConfigError: for an unknown method, no rows or a row outside the
            state, systems of different layouts, Taylor on a system that
            is not of kind "sde", a missing drift Jacobian, or a field
            without acceleration or grid.
        StabilityError: when dt exceeds a field's stability limit.
        SimulationDivergedError: at the first step where any realization
            leaves BLOW_UP_BOUND; it names the failing batch rows and
            carries the samples recorded before that step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError(f"at least 1 step is needed, got {n_steps}")
    if n_real < 1:
        raise ValueError("n_real must be at least 1")
    if method not in ("auto", "taylor15", "euler"):
        raise ConfigError(f"unknown integration method '{method}'")
    first = specs[0]
    size = int(np.size(first.initial_state))
    rows = [int(r) for row_set in row_sets for r in row_set]
    if not rows or min(rows) < 0 or max(rows) >= size:
        raise ConfigError(f"rows must be non-empty state indices in [0, {size})")
    layout = (first.kind, first.dim, first.spatial, np.size(first.initial_state))
    for spec in specs[1:]:
        if (spec.kind, spec.dim, spec.spatial, np.size(spec.initial_state)) != layout:
            raise ConfigError("systems stepped together must share their state layout")
    if method == "taylor15" and first.kind != "sde":
        raise ConfigError("Taylor scheme applies to finite-dimensional systems")
    if first.kind == "spde":
        scheme = "kick-drift"
        for spec in specs:
            if spec.acceleration is None or spec.spatial is None:
                raise ConfigError(
                    f"field system '{spec.name}' needs acceleration and grid"
                )
            limit = spec.params.get("max_stable_dt")
            if limit is not None and dt > limit * (1.0 + 1e-12):
                raise StabilityError(
                    f"time step {dt:g} exceeds the stability limit {limit:g} "
                    f"for system '{spec.name}'"
                )
        # Noise kicks the velocity block only.
        widths, offset = (first.dim, first.dim), first.dim
    else:
        scheme = "euler" if method == "euler" else "taylor15"
        missing = [s.name for s in specs if s.drift_jacobian is None]
        if scheme == "taylor15" and missing:
            raise ConfigError(f"system '{missing[0]}' lacks a drift Jacobian")
        widths, offset = (int(np.size(first.initial_state)),), 0

    def source(noise_idx: np.ndarray):
        if isinstance(noise, tuple):
            return _GivenIncrements(*noise)
        streams = ([noise] if isinstance(noise, NoiseStream) else
                   [NoiseStream(derived_seed(noise, k)) for k in range(n_real)])
        return _StreamDraws(streams, noise_idx.size, scheme, dt)

    sides = []
    for s, spec in enumerate(specs):
        g0, noise_idx = _noise_layout(spec)
        sides.append(_Side(spec, slice(s * n_real, (s + 1) * n_real), g0, noise_idx))
    batch = len(specs) * n_real
    chunk_steps = min(CHUNK_STEPS, max(1, CHUNK_VALUES // (batch * widths[-1])))
    depth = min(chunk_steps, n_steps)
    chunks = _ChunkNoise(sides, source, depth, offset, widths[-1],
                         scaled=scheme != "euler")
    rec = _Recorder(row_sets, widths, batch, n_steps, depth, summed)
    _LOOPS[scheme](sides, dt, n_steps, chunks, rec, chunk_steps)
    return rec.outputs if summed is None else rec.outputs + [rec.total]


def _window_steps(t_f: float, dt: float) -> int:
    """Steps of length dt in a window of length t_f (_simulate checks dt)."""
    return int(round(t_f / dt)) if dt else 0


def _full_state(spec: SystemSpec) -> list[range]:
    return [range(np.size(spec.initial_state))]


def integrate_taylor15_increments(
    spec: SystemSpec,
    dt: float,
    dw: np.ndarray,
    dz: np.ndarray,
) -> np.ndarray:
    """Taylor 1.5 trajectory driven by externally supplied increments.

    Useful for convergence studies that couple the scheme to a reference
    solution built on the same underlying Wiener path.

    Args:
        spec: System of kind "sde" with a drift Jacobian.
        dt: Time step.
        dw: Wiener increments per step and noise coordinate, shape
            (n_steps, n_noise), or (n_real, n_steps, n_noise) for a batch.
        dz: Integrated Wiener deviations, same shape as dw.

    Returns:
        State trajectory, shape (n_state, n_steps + 1), with a leading
        batch axis when dw carries one.
    """
    dw = np.asarray(dw, dtype=float)
    dz = np.asarray(dz, dtype=float)
    if dw.ndim not in (2, 3) or dw.shape != dz.shape:
        raise ValueError(
            "dw and dz must both have shape (n_steps, n_noise) "
            "or (n_real, n_steps, n_noise)"
        )
    _, noise_idx = _noise_layout(spec)
    if dw.shape[-1] != noise_idx.size:
        raise ValueError(
            f"expected {noise_idx.size} noise coordinates, got {dw.shape[-1]}"
        )
    batched = dw.ndim == 3
    if not batched:
        dw, dz = dw[None], dz[None]
    (out,) = _simulate((spec,), dt, dw.shape[1], dw.shape[0], (dw, dz),
                       _full_state(spec), "taylor15")
    return out if batched else out[0]


def integrate_batch(
    spec: SystemSpec,
    dt: float,
    n_steps: int,
    n_real: int,
    base_seed: int,
    method: str = "auto",
) -> np.ndarray:
    """Integrate a batch of independent realizations of any system.

    Realization k draws its noise from derived_seed(base_seed, k), so row
    k does not depend on the batch size; with Taylor 1.5 it equals
    integrate_taylor15 on NoiseStream(derived_seed(base_seed, k)). Unlike
    generate_ensemble this places no displacement/velocity structure
    requirement on the state.

    Args:
        spec: System description.
        dt: Time step.
        n_steps: Number of steps.
        n_real: Number of realizations.
        base_seed: Ensemble seed.
        method: "taylor15", "euler", or "auto" (Taylor for kind "sde");
            field systems ("spde") always take the kick-drift stepper.

    Returns:
        States, shape (n_real, n_state, n_steps + 1).
    """
    (out,) = _simulate((spec,), dt, n_steps, n_real, base_seed,
                       _full_state(spec), method)
    return out


def simulate_rows(
    spec: SystemSpec,
    dt: float,
    t_f: float,
    n_real: int,
    base_seed: int,
    rows,
    partners=(),
) -> np.ndarray:
    """Simulate an ensemble while recording only selected state rows.

    Steps with the scheme and per-realization seeding of generate_ensemble
    (Taylor 1.5 for kind "sde", kick-drift for "spde") and stores only the
    requested rows of the state (displacement block, then velocity block),
    so long horizons with many realizations fit in memory.

    Partner systems step in the same batch, after spec: realization k of
    every system takes the same noise draw, so a comparison of the systems
    sees no Monte Carlo difference and the noise is drawn once.

    Args:
        spec: System to simulate.
        dt: Time step, > 0.
        t_f: Final time; the window must hold at least one step.
        n_real: Realizations per system, >= 1.
        base_seed: Ensemble seed; realization k draws from
            derived_seed(base_seed, k).
        rows: Iterable of state-row indices to record.
        partners: Further systems with the same kind and state layout.

    Returns:
        Array of shape ((1 + len(partners)) * n_real, len(rows),
        n_steps + 1); system s fills rows [s*n_real, (s+1)*n_real).

    Raises:
        SimulationDivergedError: at the first step where any system leaves
            the bound; ``partial[0]`` holds the samples recorded before it.
    """
    (out,) = _simulate((spec, *partners), dt, _window_steps(t_f, dt), n_real,
                       base_seed, [list(rows)])
    return out


def simulate_field_rows(
    spec: SystemSpec,
    dt: float,
    t_f: float,
    n_real: int,
    base_seed: int,
    rows,
    partners=(),
) -> np.ndarray:
    """simulate_rows for field systems: the kick-drift stepper only.

    Row r < dim selects the displacement of node r; row dim + r selects
    its velocity.
    """
    if spec.kind != "spde":
        raise ConfigError(f"'{spec.name}' is not a simulatable field system")
    return simulate_rows(spec, dt, t_f, n_real, base_seed, rows, partners)


def integrate_taylor15(
    spec: SystemSpec,
    dt: float,
    n_steps: int,
    noise: NoiseStream,
) -> np.ndarray:
    """Integrate one trajectory with the additive-noise Taylor 1.5 scheme.

    Args:
        spec: System of kind "sde" with a drift Jacobian.
        dt: Time step, > 0.
        n_steps: Number of steps, >= 1.
        noise: Seeded noise source.

    Returns:
        State trajectory, shape (n_state, n_steps + 1).
    """
    (out,) = _simulate((spec,), dt, n_steps, 1, noise, _full_state(spec),
                       "taylor15")
    return out[0]


def integrate_rk4(spec: SystemSpec, dt: float, n_steps: int) -> np.ndarray:
    """Deterministic classical Runge-Kutta reference (noise ignored).

    Returns:
        State trajectory, shape (n_state, n_steps + 1).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError(f"at least 1 step is needed, got {n_steps}")
    y = np.asarray(spec.initial_state, dtype=float).copy()
    out = np.empty((y.size, n_steps + 1))
    out[:, 0] = y
    f = spec.drift
    for i in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, i + 1] = y
    return out


def generate_ensemble(
    spec: SystemSpec,
    dt: float,
    t_f: float,
    n_real: int,
    base_seed: int,
    rows=None,
) -> Ensemble | TrainingRecord:
    """Generate an ensemble of independent realizations.

    Realization k draws all its noise from a generator seeded with
    derived_seed(base_seed, k), so ensembles are reproducible and
    realizations stay independent across k regardless of batch size.

    Args:
        spec: Mechanical or field system (state = displacement ++ velocity).
        dt: Time step, > 0.
        t_f: Final time; the trajectory stores round(t_f/dt)+1 samples, at
            least 2.
        n_real: Number of realizations, >= 1.
        base_seed: Ensemble seed.
        rows: None for the full ensemble, or the state rows to keep (node i
            is row i for its displacement, dim + i for its velocity).

    Returns:
        Ensemble with arrays of shape (n_real, dim, N_t); with ``rows`` a
        TrainingRecord of those rows and the displacement summed over
        realizations, bitwise equal to the same reads of the Ensemble.
    """
    n = spec.dim
    if np.size(spec.initial_state) != 2 * n:
        raise ConfigError(
            "ensemble generation expects displacement and velocity blocks"
        )
    n_steps = _window_steps(t_f, dt)
    grid = spec.spatial.grid if spec.spatial is not None else None
    if rows is None:
        disp, vel = _simulate((spec,), dt, n_steps, n_real, base_seed,
                              [range(n), range(n, 2 * n)])
        return Ensemble(dt=dt, n_steps=n_steps + 1, n_real=n_real, coords=n,
                        displacement=disp, velocity=vel, spatial_grid=grid,
                        system=spec.name)
    rows = sorted({int(r) for r in rows})
    disp_nodes = tuple(r for r in rows if r < n)
    vel_nodes = tuple(r - n for r in rows if r >= n)
    disp, vel, total = _simulate(
        (spec,), dt, n_steps, n_real, base_seed,
        [disp_nodes, [n + i for i in vel_nodes]], summed=range(n))
    return TrainingRecord(dt=dt, n_steps=n_steps + 1, n_real=n_real, coords=n,
                          disp_nodes=disp_nodes, vel_nodes=vel_nodes,
                          displacement=disp, velocity=vel, total=total,
                          spatial_grid=grid, system=spec.name)


# ---------------------------------------------------------------------------
# System specs and field operators
# ---------------------------------------------------------------------------


def second_order_spec(
    name: str,
    accel: Callable[[np.ndarray], np.ndarray],
    gains: np.ndarray,
    initial: np.ndarray,
    params: dict,
    accel_jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    geometry: FieldGeometry | None = None,
) -> SystemSpec:
    """SystemSpec for u'' = accel(u) + gains * white noise.

    The state concatenates the displacement and velocity blocks. With a
    grid geometry the system is a field ("spde") whose constrained nodes
    get zero gain; without one it is finite-dimensional ("sde").

    Args:
        name: Identifier.
        accel: Map displacement (..., n) -> acceleration (..., n).
        gains: Noise gain per coordinate, shape (n,).
        initial: Start state, shape (2n,).
        params: Named parameters, the simulation protocol included.
        accel_jacobian: Map displacement (..., n) -> d accel / du, shape
            (..., n, n); the Taylor integrator needs it.
        geometry: Grid of a field system.
    """
    n = gains.size
    g_full = np.concatenate([np.zeros(n), gains])
    if geometry is not None:
        g_full[[n + i for i in geometry.constrained]] = 0.0

    def drift(y: np.ndarray) -> np.ndarray:
        u, v = y[..., :n], y[..., n:]
        return np.concatenate([v, accel(u)], axis=-1)

    def jacobian(y: np.ndarray) -> np.ndarray:
        jac = np.zeros(y.shape[:-1] + (2 * n, 2 * n))
        jac[..., :n, n:] = np.eye(n)
        jac[..., n:, :n] = accel_jacobian(y[..., :n])
        return jac

    return SystemSpec(
        name=name,
        kind="sde" if geometry is None else "spde",
        dim=n,
        drift=drift,
        volatility=lambda y: np.broadcast_to(g_full, y.shape),
        initial_state=np.array(initial, dtype=float),
        params=params,
        drift_jacobian=None if accel_jacobian is None else jacobian,
        acceleration=accel,
        spatial=geometry,
    )


def laplacian_operator(stiffness: float, dx: float):
    """Acceleration stiffness * u_xx of a field pinned at both ends.

    Returns:
        (accel, max_stable_dt): the central [1, -2, 1] / dx^2 stencil, zero
        at the end nodes, and the kick-drift stability limit
        dx / sqrt(stiffness).
    """
    scale = stiffness / dx**2

    def accel(u):
        a = np.zeros_like(u)
        a[..., 1:-1] = scale * (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2])
        return a

    return accel, float(dx / np.sqrt(stiffness))


def biharmonic_operator(stiffness: float, dx: float):
    """Acceleration -stiffness * u_xxxx of a clamped-free beam.

    Returns:
        (accel, max_stable_dt): the ghost-node biharmonic of
        _beam_biharmonic and the kick-drift stability limit
        dx^2 / (2 sqrt(stiffness)).
    """

    def accel(u):
        return -stiffness * _beam_biharmonic(u, dx)

    return accel, float(dx**2 / (2.0 * np.sqrt(stiffness)))


def _beam_biharmonic(u: np.ndarray, dx: float) -> np.ndarray:
    """Fourth spatial derivative of a clamped-free beam field.

    Ghost nodes encode the boundary conditions: mirror ghost at the clamped
    left end (zero slope), moment-free and shear-free extrapolation ghosts
    at the free right end. Node 0 is clamped and reports zero.
    """
    n = u.shape[-1]
    padded = np.zeros(u.shape[:-1] + (n + 4,))
    padded[..., 2 : n + 2] = u
    padded[..., 1] = u[..., 1]  # u(-1) = u(1): zero slope at the clamp
    padded[..., n + 2] = 2.0 * u[..., n - 1] - u[..., n - 2]  # zero moment
    padded[..., n + 3] = (
        4.0 * u[..., n - 1] - 4.0 * u[..., n - 2] + u[..., n - 3]
    )  # zero shear
    d4 = (
        padded[..., 0:n]
        - 4.0 * padded[..., 1 : n + 1]
        + 6.0 * padded[..., 2 : n + 2]
        - 4.0 * padded[..., 3 : n + 3]
        + padded[..., 4 : n + 4]
    ) / dx**4
    d4[..., 0] = 0.0
    return d4


# ---------------------------------------------------------------------------
# Benchmark systems
# ---------------------------------------------------------------------------


def _harmonic_spec() -> SystemSpec:
    k_over_m = 1000.0

    def accel(u):
        return -k_over_m * u

    def accel_jac(u):
        jac = np.zeros(u.shape[:-1] + (1, 1))
        jac[..., 0, 0] = -k_over_m
        return jac

    params = {
        "mass": 1.0,
        "stiffness": 1000.0,
        "noise_strength": 1.0,
        "t_final": 1.0,
        "sample_rate": 10000.0,
        "n_realizations": 200,
    }
    return second_order_spec(
        "harmonic", accel, np.array([1.0]), [0.5, 0.0], params, accel_jac
    )


def _pendulum_spec() -> SystemSpec:
    g_over_l = 9.81
    gain = 0.1  # sigma / (m l^2)

    def accel(u):
        return -g_over_l * np.sin(u)

    def accel_jac(u):
        jac = np.zeros(u.shape[:-1] + (1, 1))
        jac[..., 0, 0] = -g_over_l * np.cos(u[..., 0])
        return jac

    params = {
        "mass": 1.0,
        "length": 1.0,
        "gravity": 9.81,
        "noise_strength": 0.1,
        "t_final": 5.0,
        "sample_rate": 2000.0,
        "n_realizations": 200,
    }
    return second_order_spec(
        "pendulum", accel, np.array([gain]), [0.9, 0.0], params, accel_jac
    )


def _duffing_spec() -> SystemSpec:
    k = 1000.0
    cubic = 2500.0

    def accel(u):
        return -k * u - cubic * u**3

    def accel_jac(u):
        jac = np.zeros(u.shape[:-1] + (1, 1))
        jac[..., 0, 0] = -k - 3.0 * cubic * u[..., 0] ** 2
        return jac

    params = {
        "stiffness": 1000.0,
        "cubic_stiffness": 2500.0,
        "noise_strength": 1.0,
        "t_final": 1.0,
        "sample_rate": 10000.0,
        "n_realizations": 200,
    }
    return second_order_spec(
        "duffing", accel, np.array([1.0]), [0.4, 0.0], params, accel_jac
    )


def _three_dof_spec() -> SystemSpec:
    k_over_m = 1000.0
    block = -k_over_m * np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )

    def accel(u):
        return u @ block.T

    def accel_jac(u):
        return np.broadcast_to(block, u.shape[:-1] + (3, 3))

    params = {
        "mass": 10.0,
        "stiffness": 10000.0,
        "noise_strength": 1.0,
        "t_final": 1.0,
        "sample_rate": 10000.0,
        "n_realizations": 200,
    }
    initial = [0.25, 0.5, 0.0, 0.0, 0.0, 0.0]
    return second_order_spec(
        "3dof", accel, np.array([1.0, 1.0, 1.0]), initial, params, accel_jac
    )


def _wave_spec() -> SystemSpec:
    c = 2.0
    geometry = FieldGeometry(length=1.0, dx=0.01, boundary="pinned-both",
                             constrained=(0, 100))
    n = geometry.n_nodes
    accel, max_stable_dt = laplacian_operator(c * c, geometry.dx)
    u0 = np.cos(2.0 * np.pi * geometry.grid)
    u0[list(geometry.constrained)] = 0.0
    params = {
        "wave_speed": 2.0,
        "noise_strength": 2.0,
        "t_final": 1.0,
        "sample_rate": 10000.0,
        "n_realizations": 30,
        "max_stable_dt": max_stable_dt,
    }
    return second_order_spec("wave", accel, np.full(n, 2.0),
                             np.concatenate([u0, np.zeros(n)]), params,
                             geometry=geometry)


def cantilever_mode_shape(x: np.ndarray, wavenumber: float, length: float) -> np.ndarray:
    """First transverse vibration mode of a clamped-free beam."""
    psi = wavenumber
    ratio = (np.cos(psi * length) + np.cosh(psi * length)) / (
        np.sin(psi * length) + np.sinh(psi * length)
    )
    return (np.cosh(psi * x) - np.cos(psi * x)) + ratio * (
        np.sin(psi * x) - np.sinh(psi * x)
    )


def _beam_spec() -> SystemSpec:
    # Effective stiffness ratio of the flexural term; the bending wave
    # speed scale is sqrt(stiffness_ratio).
    stiffness_ratio = 0.1035
    geometry = FieldGeometry(length=1.0, dx=0.01, boundary="clamped-free",
                             constrained=(0,))
    n = geometry.n_nodes
    accel, max_stable_dt = biharmonic_operator(stiffness_ratio, geometry.dx)
    psi = 0.596864 * np.pi
    u0 = cantilever_mode_shape(geometry.grid, psi, geometry.length)
    u0[list(geometry.constrained)] = 0.0
    params = {
        "stiffness_ratio": stiffness_ratio,
        "elastic_modulus": 2.0e10,
        "density": 8050.0,
        "section_area": 0.02 * 0.001,
        "mode_wavenumber": psi,
        "noise_strength": 20.0,
        "t_final": 2.0,
        "sample_rate": 10000.0,
        "n_realizations": 20,
        "max_stable_dt": max_stable_dt,
    }
    return second_order_spec("beam", accel, np.full(n, 20.0),
                             np.concatenate([u0, np.zeros(n)]), params,
                             geometry=geometry)


_BENCHMARKS: dict[str, Callable[[], SystemSpec]] = {
    "harmonic": _harmonic_spec,
    "pendulum": _pendulum_spec,
    "duffing": _duffing_spec,
    "3dof": _three_dof_spec,
    "wave": _wave_spec,
    "beam": _beam_spec,
}

BENCHMARK_NAMES = tuple(sorted(_BENCHMARKS))


def benchmark_spec(name: str) -> SystemSpec:
    """Build the SystemSpec for a named benchmark.

    Args:
        name: One of "harmonic", "pendulum", "duffing", "3dof", "wave",
            "beam".

    Returns:
        Fully parameterized SystemSpec; the simulation protocol (t_final,
        sample_rate, n_realizations) is carried in params.
    """
    try:
        builder = _BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark '{name}'; valid names: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# Ensemble container IO
# ---------------------------------------------------------------------------

_MAGIC = "ensemble-v1"


def save_ensemble(ens: Ensemble, path: str | Path) -> None:
    """Write an ensemble to a binary container.

    Layout: one JSON header line (format tag, shape, dt, grid, system
    name), then the displacement and velocity arrays as little-endian
    float64.
    """
    path = Path(path)
    header = {
        "format": _MAGIC,
        "system": ens.system,
        "dt": ens.dt,
        "n_real": ens.n_real,
        "coords": ens.coords,
        "n_steps": ens.n_steps,
        "spatial_grid": None
        if ens.spatial_grid is None
        else ens.spatial_grid.tolist(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for block in (ens.displacement, ens.velocity):
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def load_ensemble(path: str | Path) -> Ensemble:
    """Read an ensemble written by save_ensemble.

    Containers without a system name (written before it was stored) load
    with ``system`` None.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"not an ensemble container: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise ConfigError(f"unsupported container format in {path}")
        try:
            shape = (int(header["n_real"]), int(header["coords"]),
                     int(header["n_steps"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed container header in {path}") from exc
        if min(shape) < 0:
            raise ConfigError(f"malformed container header in {path}")
        expected = 16 * shape[0] * shape[1] * shape[2]
        size = os.fstat(fh.fileno()).st_size - len(header_line)
        if size != expected:
            raise ConfigError(
                f"truncated or oversized container {path}: {size} data "
                f"bytes, header promises {expected}"
            )
        disp, vel = np.empty(shape, dtype="<f8"), np.empty(shape, dtype="<f8")
        for block in (disp, vel):
            if fh.readinto(block) != block.nbytes:
                raise ConfigError(f"container {path} was truncated while read")
    grid = header.get("spatial_grid")
    system = header.get("system")
    if system is not None and not isinstance(system, str):
        raise ConfigError(f"malformed container header in {path}")
    try:
        return Ensemble(
            dt=header.get("dt"),
            n_steps=shape[2],
            n_real=shape[0],
            coords=shape[1],
            displacement=disp,
            velocity=vel,
            spatial_grid=None if grid is None else np.asarray(grid, dtype=float),
            system=system,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ensemble in {path}: {exc}") from exc
