"""Seeded sample paths, simulated as an ensemble of seeds in lockstep, in time tiles.

Each seed owns one PCG64 stream, ``default_rng(seed)``. It first draws the
initial state (when the initial law is Gaussian), then, tile by tile, the
tile's noise block ``standard_normal((h, 2N + M))``: per step the
excitation (N values), any mimic self-excitation (M values, M = number of
attacked channels), then the process noise (N values). That is the order
a step-by-step draw would take; the blocks of consecutive tiles continue
one stream, so they are bit for bit the rows of one block over the whole
horizon, and every seed reproduces bit for bit however many seeds run
beside it. Each block is drawn into one reused buffer (a dense noise
law's Cholesky factor is applied there, on the interleaved columns, as
:func:`cps_sentinel.numerics.sample_gaussian` does) and copied
transposed into the tile's column planes, one contiguous (seeds, steps)
array per column. The normals then become the drive in a few passes over
whole planes: the laws' scales (every law has mean zero), the admitted
excitation, the corrupt offset (one value per plane, or one per step of
the tile for an FDI schedule), the actuator gains, and w + b (e +
offset), with the arithmetic a step-by-step draw would do. One copy
writes the drive back as (seeds, steps, N) into the slots of the states
it forces.
Batches derive disjoint streams with
:func:`cps_sentinel.numerics.split_seed`.

Every scenario is a linear closed loop on the lag window
z_t = (x_{t-L+1}, ..., x_t), z' = F z + (0, ..., 0, d)
(:func:`cps_sentinel.policies.closed_loop` of the corrupt law's window
rows), whose drive d_t = diag(b) (corrupt offset + admitted excitation) +
w_t is known before the path is; an FDI attack is part of the corrupt
offset (:func:`cps_sentinel.policies.lift`). So :func:`path_tiles`
advances every seed B steps per array call from precomputed powers of F:
x_{lo+1..lo+B} = P z_lo + T d_{lo..lo+B-1}, where P stacks the bottom rows
of F^1..F^B and T is block lower-triangular Toeplitz in the bottom-right
blocks of F^0..F^(B-1). B = max(1, 64 // N)
(:func:`cps_sentinel.numerics.block_steps`, which also sets the detector's
block to a divisor of it), so no contraction reaches OpenBLAS's threading
size, and B = 1 when F is not stable, since its powers would amplify
roundoff. B is fixed by N alone,
never by the horizon: the last block is padded with zero drive and takes
the same full P and T, so every block is the same product and a run's
states are bit for bit the first steps of any longer run of its seed.
A tile of a whole number of blocks carries only each seed's stream and
its last L states into the next, so tiles of any such length give the
same bits. Both contractions go through
:func:`cps_sentinel.numerics.matvec`, so a row's bits never depend on the
batch. Everything the tiles share (the laws, the noise scales, P and T)
is one :class:`SimulationPlan` per batch; :func:`simulate_ensemble` runs
the engine in tiles of :func:`cps_sentinel.numerics.tile_steps` steps into
whole-path arrays, and :func:`trajectory_csv_tile` writes the lines of a
tile of a trajectory CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CpsModel
from .numerics import (
    DiagonalPsd,
    Dirac,
    SpdMatrix,
    banded,
    block_steps,
    make_spd,
    matvec,
    sample_gaussian,
    tile_steps,
)
from .policies import (
    Attack,
    HonestPolicy,
    LinearLaws,
    admit_excitation,
    closed_loop,
    lag_windows,
    lift,
)


class NonFiniteState(RuntimeError):
    """A state entry overflowed; the closed loop is numerically unstable."""

    what = "state overflowed at step"

    def __init__(self, step: int, seed: int):
        super().__init__(f"{self.what} {step} (seed {seed})")


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
    failed_at: np.ndarray

    def error(self, i: int) -> NonFiniteState | None:
        step = int(self.failed_at[i])
        if step == 0:
            return None
        return NonFiniteState(step, self.seeds[i])


@dataclass(frozen=True)
class SimulationPlan:
    """What every tile of a batch shares: the laws, the noise scales and the block operators.

    ``columns`` standard normals drive a step: excitation, mimic own and
    process noise. ``chol`` is the dense noise law's Cholesky factor, or
    None for a diagonal one. ``scales`` maps the normals of the diagonal
    columns (a dense noise law's come last) to the laws' draws; every law
    has mean zero. ``p`` and ``t`` advance ``block`` steps.
    """

    model: CpsModel
    laws: LinearLaws
    columns: int
    chol: np.ndarray | None
    scales: np.ndarray
    p: np.ndarray
    t: np.ndarray
    block: int


def simulation_plan(m: CpsModel, honest: HonestPolicy, attack: Attack | None) -> SimulationPlan:
    """The :class:`SimulationPlan` of a scenario, computed once per batch."""
    n = m.n_agents
    laws = lift(honest, attack, n)
    covs = [m.excitation_law.cov, *([] if laws.own is None else [laws.own]), m.noise_law.cov]
    dense = not isinstance(m.noise_law.cov, DiagonalPsd)
    scales = np.concatenate([np.sqrt(cov.diag) for cov in covs if isinstance(cov, DiagonalPsd)])
    f, stable = closed_loop(m.dynamics, m.actuator_gains, laws.corrupt_gains)
    steps = block_steps(n) if stable else 1
    p, t = _block_operators(f, n, steps)
    return SimulationPlan(m, laws, sum(cov.dim for cov in covs),
                          m.noise_law.cov.chol if dense else None, scales, p, t, steps)


@dataclass(frozen=True)
class PathTile:
    """Steps lo+1..lo+h of every seed of a group, as :func:`path_tiles` yields them.

    ``path`` (S, L + h, N) holds x_{lo-L+1}, ..., x_{lo+h}, zero before
    x_0: the lag window before the tile, then its states. ``failed_at`` is
    each seed's first overflowed step so far, or 0. ``excitations`` and
    ``controls`` (S, h, N) of steps lo..lo+h-1, the drawn excitations and
    the applied controls (the corrupt mean plus the admitted excitation),
    are kept only on request. Every array is overwritten by the next tile.
    """

    lo: int
    path: np.ndarray
    failed_at: np.ndarray
    excitations: np.ndarray | None
    controls: np.ndarray | None


def path_tiles(plan: SimulationPlan, horizon: int, seeds, steps: int,
               keep_controls: bool = False):
    """Simulate ``horizon`` steps of every seed in tiles of ``steps`` steps.

    Yields one :class:`PathTile` per tile. Each seed's stream draws its
    initial state, then each tile's noise block; the tile's last L states
    are the next tile's lag window. A tile of a whole number of
    ``plan.block`` steps ends on a block boundary, so the states are the
    bits of one tile over the whole horizon. A run whose state overflows
    is marked in ``failed_at`` at its own first bad step, and the other
    runs go on. ``keep_controls`` keeps each tile's excitations and
    controls; the corrupt mean of a control is its law's window rows times
    the lag window of its step, read off the tile's path, plus the offset
    of its step.
    """
    m, laws, k = plan.model, plan.laws, plan.columns - 2 * plan.model.n_agents
    n_seeds, n, lags, b = len(seeds), m.n_agents, laws.lags, m.actuator_gains
    steps = min(steps, horizon)
    # path holds the lag window, L - 1 zero states and x_0 at first, then
    # the tile's slots; the slot of x_{t+1} holds the drive d_t until its
    # block overwrites it, and zero drive pads the last block to B steps
    path = np.zeros((n_seeds, lags + -(-steps // plan.block) * plan.block, n))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    init = m.initial_law
    for i, rng in enumerate(rngs):
        path[i, lags - 1] = init.point if isinstance(init, Dirac) else sample_gaussian(rng, init)
    # each seed's block [excitation | mimic own | process noise] goes
    # through one reused buffer into a (seeds, steps) plane per column
    buffer = np.empty((steps, plan.columns))
    failed_at = np.zeros(n_seeds, dtype=int)
    for lo in range(0, horizon, steps):
        if lo:
            path[:, :lags] = path[:, steps:steps + lags]
        h = min(steps, horizon - lo)
        planes = np.empty((plan.columns, n_seeds, h))
        draws = buffer[:h]
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=draws)
            if plan.chol is not None:
                draws[:, n + k:] = matvec(plan.chol, draws[:, n + k:])
            planes[:, i] = draws.T
        excitations, own, w = planes[:n], planes[n:n + k], planes[n + k:]
        planes[:len(plan.scales)] *= plan.scales[:, None, None]

        # d_t = diag(b) (corrupt offset + admitted excitation) + w_t, built in
        # place over the excitation and process-noise planes; a kept copy
        # is + 0.0, which writes a zero-variance channel's -0.0 as 0.0
        drawn = excitations.transpose(1, 2, 0) + 0.0 if keep_controls else None
        admit_excitation(laws, excitations.transpose(1, 2, 0),
                         None if k == 0 else own.transpose(1, 2, 0))
        controls = excitations.transpose(1, 2, 0) + 0.0 if keep_controls else None
        offsets = laws.corrupt_offsets(lo + h)
        offset = offsets if offsets.ndim == 1 else offsets[lo:]
        excitations += np.atleast_2d(offset).T[:, None, :]
        excitations *= b[:, None, None]
        w += excitations

        path[:, lags:lags + h] = w.transpose(1, 2, 0)
        path[:, lags + h:] = 0.0
        del planes, excitations, own, w
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(0, h, plan.block):
                window = path[:, j:j + lags].reshape(n_seeds, lags * n)
                drive = path[:, lags + j:lags + j + plan.block].reshape(n_seeds, -1)
                np.add(matvec(plan.p, window), matvec(plan.t, drive), out=drive)
            # a state is bad when its entries do not sum to a finite number
            bad = ~np.isfinite(np.einsum("stn->st", path[:, lags:lags + h]))
            if keep_controls:  # the windows of steps lo..lo+h-1, from x_{lo-L+1} on
                windows = lag_windows(path[:, :lags + h - 1], lags)
                controls += matvec(laws.corrupt_gains, windows) + offset
        new = (failed_at == 0) & bad.any(axis=1)
        failed_at[new] = lo + bad[new].argmax(axis=1) + 1
        yield PathTile(lo, path[:, :lags + h], failed_at, drawn, controls)


def simulate_ensemble(m: CpsModel, honest: HonestPolicy, attack: Attack | None,
                      horizon: int, seeds, *, keep_controls: bool = False) -> Ensemble:
    """Simulate ``horizon`` steps of the closed loop for every seed at once.

    The engine of :func:`path_tiles`, run in tiles of whole blocks within
    ``TILE_CELLS`` (:func:`cps_sentinel.numerics.tile_steps`) that are
    copied into the returned arrays, so that beyond them memory is per
    tile; the bits are those of one tile. ``keep_controls`` keeps the
    controls and excitations of every step; detection needs only the
    states. A run whose state overflows is marked in ``failed_at`` at its
    own first bad step, and the other runs go on. States are never
    clamped, since clamping would corrupt every downstream statistic.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seeds = tuple(int(seed) for seed in seeds)
    plan = simulation_plan(m, honest, attack)
    lags, shape = plan.laws.lags, (len(seeds), horizon, m.n_agents)
    states = np.empty((len(seeds), horizon + 1, m.n_agents))
    controls, excitations = (np.empty(shape), np.empty(shape)) if keep_controls else (None, None)
    steps = tile_steps(len(seeds), plan.columns, plan.block)
    for tile in path_tiles(plan, horizon, seeds, steps, keep_controls):
        lo, hi = tile.lo, tile.lo + tile.path.shape[1] - lags
        states[:, lo:hi + 1] = tile.path[:, lags - 1:]  # x_lo, then the tile's states
        if keep_controls:
            controls[:, lo:hi], excitations[:, lo:hi] = tile.controls, tile.excitations
    return Ensemble(states, controls, excitations, seeds, tile.failed_at)


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


def trajectory_csv_tile(tile: PathTile, horizon: int):
    """Each seed's trajectory CSV lines of steps lo..lo+h-1 of a tile kept with its controls.

    The columns are t, x_1..x_N, u_1..u_N and e_1..e_N, after the header
    when lo is 0; the tile that ends the ``horizon`` adds the row of the
    terminal state, with empty control and excitation cells. Each column
    of a seed is formatted at once, with ``repr`` per value; appending each
    tile's lines in order gives the seed's CSV.
    """
    (n_seeds, h, n), lo = tile.controls.shape, tile.lo
    lags, last = tile.path.shape[1] - h, lo + h == horizon
    header = "" if lo else ",".join(
        ["t"] + [f"{name}_{i + 1}" for name in "xue" for i in range(n)]) + "\n"
    for k in range(n_seeds):
        states = tile.path[k, lags - 1:lags - 1 + h + last]
        cols = [map(str, range(lo, lo + h + last))]
        cols += [map(repr, col) for col in states.T.tolist()]
        cols += [[*map(repr, col), *[""] * last] for a in (tile.controls, tile.excitations)
                 for col in a[k].T.tolist()]
        yield header + "\n".join(map(",".join, zip(*cols))) + "\n"
