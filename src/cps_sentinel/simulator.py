"""Seeded sample paths, simulated as an ensemble of seeds in lockstep.

Each seed owns one PCG64 stream, ``default_rng(seed)``. It first draws the
initial state (when the initial law is Gaussian), then its whole noise
block ``standard_normal((horizon, 2N + M))``: per step the excitation (N
values), any mimic self-excitation (M values, M = number of attacked
channels), then the process noise (N values). That is the order a
step-by-step draw would take, and every seed reproduces bit for bit however
many seeds run beside it. Each block is drawn into one reused buffer
(a dense noise law's Cholesky factor is applied there, on the interleaved
columns, as :func:`cps_sentinel.numerics.sample_gaussian` does) and copied
transposed into column planes, one contiguous (seeds, steps) array per
column. The normals then become the drive in a few passes over whole
planes: the laws' scales, their means, the admitted excitation, the
corrupt offset (one value per plane, or one per step for an FDI
schedule), the actuator gains, and w + b (e + offset), with the
arithmetic a step-by-step draw would do. One copy writes the drive back
as (seeds, steps, N) into the slots of the states it forces.
Batches derive disjoint streams with
:func:`cps_sentinel.numerics.split_seed`.

Every scenario is a linear closed loop on the lag window
z_t = (x_{t-L+1}, ..., x_t), z' = F z + (0, ..., 0, d)
(:func:`cps_sentinel.policies.closed_loop` of the corrupt law's window
rows), whose drive d_t = diag(b) (corrupt offset + admitted excitation) +
w_t is known before the path is; an FDI attack is part of the corrupt
offset (:func:`cps_sentinel.policies.lift`). So :func:`simulate_ensemble`
advances every seed B steps per array call from precomputed powers of F:
x_{lo+1..lo+B} = P z_lo + T d_{lo..lo+B-1}, where P stacks the bottom rows
of F^1..F^B and T is block lower-triangular Toeplitz in the bottom-right
blocks of F^0..F^(B-1). B = max(1, 64 // N), so
no contraction reaches OpenBLAS's threading size, and B = 1 when F is not
stable, since its powers would amplify roundoff. B is fixed by N alone,
never by the horizon: the last block is padded with zero drive and takes
the same full P and T, so every block is the same product and a run's
states are bit for bit the first steps of any longer run of its seed.
Both contractions go through :func:`cps_sentinel.numerics.matvec`, so a
row's bits never depend on the batch; :func:`simulate` is the same engine
with a single seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .model import CpsModel
from .numerics import (
    BAND_ENTRIES,
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    SpdMatrix,
    banded,
    make_spd,
    matvec,
    sample_gaussian,
)
from .policies import (
    Attack,
    HonestPolicy,
    LinearLaws,
    admit_excitation,
    closed_loop,
    control_means,
    lift,
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

    Each seed's noise block is turned into the drive of every step on
    column planes (see the module docstring), then the states advance in
    blocks of steps. ``keep_controls`` keeps the controls and excitations of every
    step; detection needs only the states. A run whose state overflows is marked
    in ``failed_at`` at its own first bad step, and the other runs go on.
    States are never clamped, since clamping would corrupt every
    downstream statistic.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seeds = tuple(int(seed) for seed in seeds)
    n_seeds, n = len(seeds), m.n_agents
    laws = lift(honest, attack, n)
    own_law = None if laws.own is None else GaussianLaw(np.zeros(laws.own.dim), laws.own)
    k = 0 if own_law is None else own_law.dim
    b = m.actuator_gains

    # each seed's block [excitation | mimic own | process noise] goes
    # through one reused buffer into a (seeds, steps) plane per column
    parts = [m.excitation_law] + ([] if own_law is None else [own_law]) + [m.noise_law]
    dense = not isinstance(m.noise_law.cov, DiagonalPsd)
    initial = np.empty((n_seeds, n))
    planes = np.empty((2 * n + k, n_seeds, horizon))
    buffer = np.empty((horizon, 2 * n + k))
    init = m.initial_law
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        initial[i] = init.point if isinstance(init, Dirac) else sample_gaussian(rng, init)
        rng.standard_normal(out=buffer)
        if dense:
            buffer[:, n + k:] = matvec(m.noise_law.cov.chol, buffer[:, n + k:])
        planes[:, i] = buffer.T
    del buffer
    excitations, own, w = planes[:n], planes[n:n + k], planes[n + k:]

    # the diagonal laws' scales (the noise law comes last, and a dense one
    # was factored in the draw loop), then every law's means
    scales = np.concatenate([np.sqrt(law.cov.diag) for law in parts
                             if isinstance(law.cov, DiagonalPsd)])
    planes[:len(scales)] *= scales[:, None, None]
    planes += np.concatenate([law.mean for law in parts])[:, None, None]

    # d_t = diag(b) (corrupt offset + admitted excitation) + w_t, built in
    # place over the excitation and process-noise planes
    drawn = excitations.transpose(1, 2, 0).copy() if keep_controls else None
    admit_excitation(laws, excitations.transpose(1, 2, 0),
                     None if own_law is None else own.transpose(1, 2, 0))
    controls = excitations.transpose(1, 2, 0).copy() if keep_controls else None
    excitations += np.atleast_2d(laws.corrupt_offsets(horizon)).T[:, None, :]
    excitations *= b[:, None, None]
    w += excitations

    # path holds L - 1 zero states before x_0, so every block starts from
    # the lag window path[:, lo:lo + L] (lags before x_0 are dropped); the
    # slot of x_{t+1} holds the drive d_t until its block overwrites it, and
    # zero drive pads the last block to B steps
    f, stable = closed_loop(m.dynamics, b, laws.corrupt_gains)
    steps = max(1, math.isqrt(BAND_ENTRIES) // n) if stable else 1  # T: (B N)^2 entries
    p, t = _block_operators(f, n, steps)
    lags = laws.lags
    padded = -(-horizon // steps) * steps
    path = np.zeros((n_seeds, lags + padded, n))
    path[:, lags:lags + horizon] = w.transpose(1, 2, 0)
    del planes, excitations, own, w
    states = path[:, lags - 1:lags + horizon]
    states[:, 0] = initial
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, horizon, steps):
            window = path[:, lo:lo + lags].reshape(n_seeds, lags * n)
            drive = path[:, lags + lo:lags + lo + steps].reshape(n_seeds, steps * n)
            drive[...] = matvec(p, window) + matvec(t, drive)
        # a state is bad when its entries do not sum to a finite number
        bad = ~np.isfinite(np.einsum("stn->st", states[:, 1:]))
        if controls is not None:
            controls += control_means(laws, states[:, :-1])[1]
    failed_at = np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, 0)
    return Ensemble(states, controls, drawn, seeds, attack is not None, failed_at)


def _block_operators(f: np.ndarray, n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """P and T of a block of ``steps`` steps of the window loop ``f``.

    Row block j of P (shape (steps N, L N)) is the bottom rows of F^(j+1),
    which map the lag window of the path to x_{t+j+1}. Block (j, i) of T
    (shape (steps N, steps N)) is the bottom-right block of F^(j-i) for
    i <= j, zero above: T is the last ``steps`` N columns of the band
    (:func:`cps_sentinel.numerics.banded`) of the row of those blocks
    from F^(steps-1) down to F^0, one copy per step, each N columns right.
    """
    powers = [f[-n:]]
    for _ in range(1, steps):
        powers.append(powers[-1] @ f)
    heads = [q[:, -n:] for q in powers[-2::-1]] + [np.eye(n)]
    t = banded(np.hstack(heads), n, steps)[:, -steps * n:]
    return np.vstack(powers), np.ascontiguousarray(t)


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


def conditional_covariances(m: CpsModel, laws: LinearLaws) -> tuple[SpdMatrix, SpdMatrix]:
    """Time-invariant conditional covariances under both hypotheses.

    Honest: diag(b) V_e diag(b) + V_w. Corrupt: the same with the
    excitation variances the corrupt law admits, by the rule the
    simulator applies to the draws (:func:`admit_excitation`: the
    attacked channels' are zeroed, kept, or swapped for the mimic's own).
    When the attacked channels keep their excitation both sides are the
    same object, so downstream log ratios cancel exactly.
    """
    b = m.actuator_gains
    honest_cov = make_spd(m.process_noise + np.diag(b * b * m.excitation))
    if laws.keep:
        return honest_cov, honest_cov
    v = admit_excitation(laws, m.excitation.copy(), None if laws.own is None else laws.own.diag)
    return honest_cov, make_spd(m.process_noise + np.diag(b * b * v))


def write_trajectory_csv(traj: Trajectory, fp) -> None:
    """Write columns t, x_1..x_N, u_1..u_N, e_1..e_N.

    The final row carries the terminal state with empty control cells.
    Each column is formatted at once, with ``repr`` per value.
    """
    n = traj.n_agents
    fp.write(",".join(["t"] + [f"{name}_{i + 1}" for name in "xue" for i in range(n)]) + "\n")
    cols = [map(str, range(traj.horizon + 1))]
    cols += [map(repr, col) for col in traj.states.T.tolist()]
    cols += [[*map(repr, col), ""] for a in (traj.controls, traj.excitations)
             for col in a.T.tolist()]
    fp.write("\n".join(map(",".join, zip(*cols))) + "\n")


def trajectory_csv_text(traj: Trajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()
