"""Seeded sample paths, simulated as an ensemble of seeds in lockstep.

Each seed owns one PCG64 stream, ``default_rng(seed)``. It first draws the
initial state (when the initial law is Gaussian), then its whole noise
block ``standard_normal((horizon, 2N + M))``: per step the excitation (N
values), any mimic self-excitation (M values, M = number of attacked
channels), then the process noise (N values). That is the order a
step-by-step draw would take, and every seed reproduces bit for bit however
many seeds run beside it. :func:`simulate_ensemble` runs the state
recursion once over time on (seeds, agents) arrays; :func:`simulate` is the
same engine with a single seed. Batches derive disjoint streams with
:func:`cps_sentinel.numerics.split_seed`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .model import CpsModel
from .numerics import (
    Dirac,
    GaussianLaw,
    SpdMatrix,
    make_spd,
    matvec,
    normals_to_gaussian,
    sample_gaussian,
)
from .policies import (
    Attack,
    DoS,
    Fdi,
    HonestPolicy,
    Mimic,
    Replacement,
    admit_controls,
    control_means,
)


class NonFiniteState(RuntimeError):
    """A state entry overflowed; the closed loop is numerically unstable."""


@dataclass(frozen=True)
class Trajectory:
    """A sample path: n+1 states, n controls, n excitations, plus provenance."""

    states: np.ndarray
    controls: np.ndarray
    excitations: np.ndarray
    seed: int
    attacked: bool

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        u = np.asarray(self.controls, dtype=float)
        e = np.asarray(self.excitations, dtype=float)
        n = s.shape[0] - 1
        if s.ndim != 2 or n < 0:
            raise ValueError("states must be a (n+1, n_agents) array")
        if u.shape != (n, s.shape[1]) or e.shape != (n, s.shape[1]):
            raise ValueError("controls and excitations must have shape (n, n_agents)")
        for name, a in (("states", s), ("controls", u), ("excitations", e)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n_agents(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class Ensemble:
    """Sample paths of several seeds simulated in lockstep; row i is ``seeds[i]``.

    ``states`` has shape (S, n+1, N). ``controls`` and ``excitations``,
    shape (S, n, N), are kept only on request. ``failed_at[i]`` is the
    first step whose state overflowed in run i, or 0 if the run completed;
    the rows of a failed run are meaningless from that step on.
    """

    states: np.ndarray
    controls: np.ndarray | None
    excitations: np.ndarray | None
    seeds: tuple[int, ...]
    attacked: bool
    failed_at: np.ndarray

    def error(self, i: int) -> NonFiniteState | None:
        step = int(self.failed_at[i])
        if step == 0:
            return None
        return NonFiniteState(f"state overflowed at step {step} (seed {self.seeds[i]})")

    def trajectory(self, i: int) -> Trajectory:
        if self.controls is None:
            raise ValueError("the ensemble was simulated without keeping controls")
        return Trajectory(self.states[i], self.controls[i], self.excitations[i],
                          seed=self.seeds[i], attacked=self.attacked)


def simulate_ensemble(m: CpsModel, honest: HonestPolicy, attack: Attack | None,
                      horizon: int, seeds, *, keep_controls: bool = False) -> Ensemble:
    """Simulate ``horizon`` steps of the closed loop for every seed at once.

    ``keep_controls`` keeps the controls and excitations of every step;
    detection needs only the states. A run whose state overflows is marked
    in ``failed_at`` at its own first bad step, and the other runs go on.
    States are never clamped, since clamping would corrupt every
    downstream statistic.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seeds = tuple(int(seed) for seed in seeds)
    n = m.n_agents
    own_law = None
    if attack is not None and isinstance(attack[1], Mimic):
        own_law = GaussianLaw(np.zeros(attack[0].malicious_count), attack[1].self_excitation)
    k = 0 if own_law is None else own_law.dim

    # Each seed's noise block is drawn and scaled in place, one seed at a time.
    states = np.empty((len(seeds), horizon + 1, n))
    noise = np.empty((len(seeds), horizon, 2 * n + k))
    init = m.initial_law
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        states[i, 0] = init.point if isinstance(init, Dirac) else sample_gaussian(rng, init)
        z = rng.standard_normal(out=noise[i])
        normals_to_gaussian(m.excitation_law, z[:, :n])
        if own_law is not None:
            normals_to_gaussian(own_law, z[:, n:n + k])
        normals_to_gaussian(m.noise_law, z[:, n + k:])
    excitations, own, process = noise[..., :n], noise[..., n:n + k], noise[..., n + k:]

    controls = np.empty((len(seeds), horizon, n)) if keep_controls else None
    failed_at = np.zeros(len(seeds), dtype=int)
    a = m.dynamics
    b = m.actuator_gains
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            g, c = control_means(honest, attack, states[:, : t + 1], t)
            u = admit_controls(attack, t, g, c, excitations[:, t], own[:, t])
            x_next = states[:, t + 1]
            np.add(matvec(a, states[:, t]) + b * u, process[:, t], out=x_next)
            bad = ~np.isfinite(x_next.sum(axis=1))
            if bad.any():
                failed_at[bad & (failed_at == 0)] = t + 1
            if controls is not None:
                controls[:, t] = u
    return Ensemble(states, controls, excitations if keep_controls else None, seeds,
                    attack is not None, failed_at)


def simulate(m: CpsModel, honest: HonestPolicy, attack: Attack | None,
             horizon: int, seed: int) -> Trajectory:
    """Simulate one run: :func:`simulate_ensemble` with the single ``seed``.

    Raises :class:`NonFiniteState` if the state overflows.
    """
    ens = simulate_ensemble(m, honest, attack, horizon, [seed], keep_controls=True)
    error = ens.error(0)
    if error is not None:
        raise error
    return ens.trajectory(0)


def conditional_covariances(m: CpsModel, corrupt, cfg) -> tuple[SpdMatrix, SpdMatrix]:
    """Time-invariant conditional covariances under both hypotheses.

    Honest: diag(b) V_e diag(b) + V_w. Corrupt: the attacked channels'
    excitation variance is zeroed (replacement, DoS), kept (FDI), or
    swapped for the mimic's own covariance. With no attack both sides are
    the same object, so downstream log ratios cancel exactly.
    """
    b = m.actuator_gains
    honest_cov = make_spd(m.process_noise + np.diag(b * b * m.excitation))
    if corrupt is None or cfg is None:
        return honest_cov, honest_cov
    mal = cfg.malicious_indices
    v = m.excitation.copy()
    if isinstance(corrupt, (Replacement, DoS)):
        v[mal] = 0.0
    elif isinstance(corrupt, Mimic):
        v[mal] = corrupt.self_excitation.diag
    elif not isinstance(corrupt, Fdi):
        raise TypeError(f"unknown corrupt policy {corrupt!r}")
    return honest_cov, make_spd(m.process_noise + np.diag(b * b * v))


def write_trajectory_csv(traj: Trajectory, fp) -> None:
    """Write columns t, x_1..x_N, u_1..u_N, e_1..e_N.

    The final row carries the terminal state with empty control cells.
    """
    n = traj.n_agents
    writer = csv.writer(fp, lineterminator="\n")
    header = (["t"] + [f"x_{i+1}" for i in range(n)]
              + [f"u_{i+1}" for i in range(n)] + [f"e_{i+1}" for i in range(n)])
    writer.writerow(header)
    for t in range(traj.horizon):
        writer.writerow([t] + [repr(float(v)) for v in traj.states[t]]
                        + [repr(float(v)) for v in traj.controls[t]]
                        + [repr(float(v)) for v in traj.excitations[t]])
    writer.writerow([traj.horizon] + [repr(float(v)) for v in traj.states[-1]]
                    + [""] * (2 * n))


def trajectory_csv_text(traj: Trajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()
