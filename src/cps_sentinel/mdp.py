"""Finite state and action testbed for kernel-level path likelihood ratios.

A finite MDP plus a stochastic policy induces a Markov chain on states;
two policies induce two chains, and the cumulative log ratio of their
transition probabilities along one observed path is the discrete analog
of the path likelihood ratio tracked in the linear-Gaussian modules.

A batch (:func:`cps_sentinel.harness.run_mdp_batch`, through the batch
loop it shares with the linear testbed) runs groups of seeds in lockstep,
in time tiles: the sampler (:func:`_path_tiles`) and the log ratio
(:func:`_log_ratio_tiles`) continue each seed's uniform stream and its
running log ratio from tile to tile, so memory stays per tile whatever
the batch size and the horizon, and :func:`log_ratio_csv_tile` formats
each distinct value of a tile once. The sampler fills, for a block of
steps at a time, a state-major candidate table (steps, states, seeds)
holding where each seed would move from each state, as the flat position
``state * seeds + seed``, so that a step of every seed is one ``take``;
x_0, the actions and the successors are all drawn by one inverse-CDF rule
(:func:`_draw_rows`). :func:`simulate_paths` and :func:`path_log_ratio`
are the same sampler and log ratio run as one tile; only
:func:`path_log_ratio`, which takes paths from outside, rejects a move the
corrupt law forbids (:class:`NotAbsolutelyContinuous`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import reachable, tile_steps

_ROW_TOL = 1e-12
STATE_ACTION_CAP = 64


class NotAbsolutelyContinuous(RuntimeError):
    """An observed transition is possible under the honest kernel only."""


@dataclass(frozen=True)
class FiniteMdp:
    """Transition kernel P(x'|x,u) indexed (u, x, x') plus an initial law."""

    kernel: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        k = np.array(self.kernel, dtype=float)
        nu = np.array(self.initial, dtype=float).reshape(-1)
        if k.ndim != 3 or k.shape[1] != k.shape[2]:
            raise ValueError(f"kernel must have shape (actions, states, states), got {k.shape}")
        if k.shape[0] > STATE_ACTION_CAP or k.shape[1] > STATE_ACTION_CAP:
            raise ValueError(f"state/action counts are capped at {STATE_ACTION_CAP}")
        if not (k >= 0).all() or np.abs(k.sum(axis=2) - 1.0).max() > _ROW_TOL:
            raise ValueError("every kernel row must be a probability vector")
        if nu.size != k.shape[1] or not (nu >= 0).all() or abs(nu.sum() - 1.0) > _ROW_TOL:
            raise ValueError("initial law must be a probability vector over states")
        k.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "initial", nu)

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_states(self) -> int:
        return self.kernel.shape[1]


@dataclass(frozen=True)
class StochasticPolicy:
    """Markov stochastic kernel on actions given the current state."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"policy must have shape (states, actions), got {p.shape}")
        if not (p >= 0).all() or np.abs(p.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise ValueError("every policy row must be a probability vector")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def induced_kernel(mdp: FiniteMdp, policy: StochasticPolicy) -> np.ndarray:
    """State kernel K(x'|x) = sum_u policy(u|x) P(x'|x,u)."""
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy shape does not match the MDP")
    return np.einsum("xu,uxy->xy", policy.probs, mdp.kernel)


def _draw_rows(cum: np.ndarray, last: np.ndarray, rows: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """Inverse-CDF indices of uniforms ``u``, each against a row of its own.

    ``cum[k, r]`` is entry k of cumulative row r and ``last[r]`` its last
    index of positive probability; ``rows`` picks a row per cell and
    broadcasts against ``u``. Picks the first index whose running sum
    exceeds the uniform (``bisect_right``): a running sum of nonnegative
    terms never decreases, so that index is the count of its entries at or
    below the uniform. A uniform at or past the row's rounded total picks
    ``last``, so an index of probability zero is never drawn. The total
    itself is not counted: a uniform at or past it has every entry before
    it counted too, and a count of one less is clamped to ``last`` alike.
    """
    count = np.zeros(np.broadcast_shapes(rows.shape, u.shape), dtype=np.uint8)
    for entry in cum[:-1]:  # fewer than STATE_ACTION_CAP entries
        count += entry.take(rows) <= u
    return np.minimum(count, last.take(rows))


def _last_positive(probs: np.ndarray) -> np.ndarray:
    """Index of the last positive entry of each row along the last axis."""
    return probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)


def _uniforms(gens, width: int) -> np.ndarray:
    """The next ``width`` uniforms of every generator, one row each."""
    u = np.empty((len(gens), width))
    for row, gen in zip(u, gens):
        gen.random(out=row)
    return u


def _path_tiles(mdp: FiniteMdp, policy: StochasticPolicy, n: int, seeds, steps: int):
    """Sample x_0..x_n of every seed in lockstep, ``steps`` steps per tile.

    Yields (S, m + 1) arrays x_lo..x_lo+m: the first tile starts at x_0
    and each later one at the last state of the tile before. Seed s draws
    from its own ``default_rng(s)``: one uniform for x_0, then two per
    step, one for the action and one for the successor state, in that
    order, each tile continuing the stream where the one before stopped.
    Every draw, x_0's, the actions' and the successors', is one rule
    (:func:`_draw_rows`). A tile's uniforms are copied time-major once, and
    for a block of steps at once the sampler fills a state-major candidate
    table (steps, states, seeds), counted at 4 cells an entry as a tile
    is at 4 cells a seed-step (:func:`cps_sentinel.numerics.tile_steps`):
    entry (t, y, s) is where seed s moves at that step if it is in state y,
    stored as the flat position ``state * seeds + s`` of a step's row. The
    time recursion is then one ``take`` per step across the seeds. Row s
    depends on seed s alone, not on the other seeds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gens = [np.random.default_rng(int(seed)) for seed in seeds]
    n_seeds, n_states = len(gens), mdp.n_states
    pol_cum = np.cumsum(policy.probs, axis=1).T
    pol_last = _last_positive(policy.probs)
    # ker_cum[x', y * n_actions + a]: the kernel's running sum from state y
    # under action a, state-major so that a state's rows share cache lines
    ker_cum = np.cumsum(mdp.kernel, axis=2).transpose(2, 1, 0).reshape(n_states, -1)
    ker_last = _last_positive(mdp.kernel).T.ravel()
    block = tile_steps(n_seeds, 4 * n_states)
    states = np.arange(n_states)[:, None]
    seed_at = np.arange(n_seeds)  # seed s is position s of each state's run

    # x_0 is drawn against one row, the initial law's
    x0 = _draw_rows(np.cumsum(mdp.initial)[:, None], _last_positive(mdp.initial[None]),
                    np.zeros(1, dtype=np.intp), _uniforms(gens, 1)[:, 0])
    x = x0 * n_seeds + seed_at
    for lo in range(0, max(n, 1), steps):
        m = min(steps, n - lo)
        # row 2t: every seed's action uniform of step lo + t; row 2t + 1: its successor's
        u = _uniforms(gens, 2 * m).T.copy()
        moves = np.empty((m + 1, n_seeds), dtype=np.int64)  # flat positions
        moves[0] = x
        for b_lo in range(0, m, block):
            b_hi = min(m, b_lo + block)
            # act[t, y, s], cand[t, y, s]: the action seed s takes at step
            # lo + b_lo + t if it is in state y, and where that action takes it
            act = _draw_rows(pol_cum, pol_last, states, u[2 * b_lo:2 * b_hi:2, None])
            cand = _draw_rows(ker_cum, ker_last, states * mdp.n_actions + act,
                              u[2 * b_lo + 1:2 * b_hi:2, None])
            cand *= n_seeds
            cand += seed_at
            for t, row in enumerate(cand.reshape(b_hi - b_lo, -1), start=b_lo + 1):
                x = row.take(x, out=moves[t])
        tile = np.empty((n_seeds, m + 1), dtype=np.int64)
        np.floor_divide(moves.T, n_seeds, out=tile)
        yield tile


def simulate_paths(mdp: FiniteMdp, policy: StochasticPolicy, n: int,
                   seeds) -> np.ndarray:
    """Sample x_0..x_n for every seed by inverse-CDF draws; shape (S, n+1).

    The batch engine's sampler run as one tile: seed s draws
    ``default_rng(s).random(2n+1)``, the first uniform for x_0 and two per
    step after it (see :func:`_path_tiles`). Row s depends on seed s
    alone, not on the other seeds.
    """
    (paths,) = _path_tiles(mdp, policy, n, seeds, max(n, 1))
    return paths


def _log_ratio_tiles(tiles, k_honest, k_corrupt):
    """Cumulative log ratio of honest to corrupt path probability, tile by tile.

    Both hypotheses share the initial law, so the ratio is the kernels'
    alone. ``tiles`` are path tiles x_lo..x_hi with any leading axes, as
    :func:`_path_tiles` yields them: the first starts at x_0, each later
    one at the last state of the one before. Yields per tile the series at
    steps lo+1..hi, one column per transition (+0.0 at x_0 is no tile's):
    entry t sums the first t transitions' increments, looked up by
    transition code ``x * states + y`` in one table. Each path's running
    sum carries across tiles (``steps[..., 0] += carry`` before the
    cumulative sum, from a carry of +0.0, which leaves the bits of an
    increment, never -0.0, as they are), so any tiling gives the bits of
    one cumulative sum over the whole path.

    Only computes: a move the corrupt law forbids but the honest law
    allows has the increment +inf, and the reverse case -inf. A batch's
    paths are drawn under the corrupt kernel (:func:`_draw_rows` never
    draws an index of probability zero), so they never take the first
    kind; paths from outside go through :func:`path_log_ratio`, which
    rejects it.
    """
    n_states = len(k_honest)
    h, c = np.ravel(k_honest), np.ravel(k_corrupt)
    with np.errstate(divide="ignore", invalid="ignore"):
        inc = np.where(h > 0.0, np.log(np.where(h > 0.0, h, 1.0)) - np.log(c), -np.inf)

    carry = 0.0
    for tile in tiles:
        tile = np.asarray(tile, dtype=np.int64)
        codes = tile[..., :-1] * n_states
        codes += tile[..., 1:]
        steps = inc.take(codes)
        steps[..., :1] += carry
        np.cumsum(steps, axis=-1, out=steps)
        carry = steps[..., -1:].copy()
        yield steps


def path_log_ratio(path: np.ndarray, k_honest: np.ndarray, k_corrupt: np.ndarray) -> np.ndarray:
    """Cumulative log ratio of honest to corrupt path probability.

    ``path`` holds x_0..x_n on its last axis, with any leading axes (one
    path per row). Both hypotheses share the initial law, so entry 0 is
    +0.0; entries 1..n are the batch engine's log ratio run as one tile
    (see :func:`_log_ratio_tiles`). Before any lookup, raises
    ``ValueError`` for kernels not square and of one shape, for a path
    without x_0, and naming the path row, the step and the value of the
    first state (row-major) that is not an integer in [0, states); then
    :class:`NotAbsolutelyContinuous` whenever a path uses a move the
    corrupt law forbids but the honest law allows, naming the first such
    path and its first such move; the reverse case legitimately sends the
    ratio to -inf.
    """
    path = np.asarray(path)
    k_honest, k_corrupt = np.asarray(k_honest, dtype=float), np.asarray(k_corrupt, dtype=float)
    if k_honest.ndim != 2 or {k_honest.shape, k_corrupt.shape} != {k_honest.shape[:1] * 2}:
        raise ValueError("kernels must be square and of one shape, got "
                         f"{k_honest.shape} and {k_corrupt.shape}")
    if path.ndim == 0 or path.shape[-1] == 0:
        raise ValueError("a path must hold x_0")
    outside = ~np.isin(path, np.arange(len(k_honest)))
    if outside.any():
        *row, t = np.argwhere(outside)[0]
        raise ValueError(f"state {path[tuple(row)][t]} at step {t} of path row "
                         f"{tuple(int(i) for i in row)} is not an integer in [0, {len(k_honest)})")
    path = path.astype(np.int64)
    bad = (k_corrupt == 0.0) & (k_honest > 0.0)
    moved = bad[path[..., :-1], path[..., 1:]]
    if moved.any():
        *row, t = np.argwhere(moved)[0]  # row-major: the first path, then its first move
        x = path[tuple(row)]
        raise NotAbsolutelyContinuous(f"transition {x[t]}->{x[t + 1]} at step {t} "
                                      "impossible under the corrupt law")
    out = np.zeros(path.shape)
    (out[..., 1:],) = _log_ratio_tiles([path], k_honest, k_corrupt)
    return out


def log_ratio_csv_tile(series: np.ndarray, lo: int):
    """Each seed's CSV lines ``t,log_ratio`` of steps lo+1..lo+h, after the header when lo is 0.

    ``series`` (seeds, h) is a tile as :func:`_log_ratio_tiles` yields it;
    the header holds every seed's line of t = 0, ``0,0.0``. Every distinct
    value of the tile (bit pattern, so -0.0 and 0.0 keep their own text) is
    formatted once, with ``repr``; a seed's text is one join of the tile's
    line prefixes and its values.
    """
    lines = [""] * (2 * series.shape[1] + 1)
    lines[0::2] = [f"\n{t}," for t in range(lo + 1, lo + series.shape[1] + 1)] + ["\n"]
    lines[0] = ("" if lo else "t,log_ratio\n0,0.0\n") + f"{lo + 1},"
    bits, inverse = np.unique(series.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    for row in texts[inverse.reshape(series.shape)].tolist():
        lines[1::2] = row
        yield "".join(lines)


def stationary_distribution(k: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Limit law lim (1/n) sum_{t<n} initial K^t of any finite chain, exactly.

    A state is recurrent when every state it reaches reaches it back. Each
    closed class reachable from ``initial`` gets the mass it absorbs times
    its own stationary law (one solve each); every other state gets 0.0.
    """
    k = np.asarray(k, dtype=float)
    nu = np.asarray(initial, dtype=float)
    n = k.shape[0]
    reach = reachable(k)  # reach[x, y]: y is reachable from x
    rec = (reach <= reach.T).all(axis=1)
    # first landing law on the recurrent states, via expected transient visits
    visits = np.linalg.solve(np.eye(n - rec.sum()) - k[np.ix_(~rec, ~rec)].T, nu[~rec])
    landing = np.where(rec, nu + visits @ k[~rec], 0.0)
    mu = np.zeros(n)
    for first in np.unique(np.argmax(reach[rec & reach[nu > 0.0].any(axis=0)], axis=1)):
        cls = np.flatnonzero(reach[first])  # the closed class of its first state
        balance = np.eye(cls.size) - k[np.ix_(cls, cls)].T
        balance[-1] = 1.0  # the normalisation in place of one balance equation
        mu[cls] = landing[cls].sum() * np.linalg.solve(balance, np.eye(cls.size)[-1])
    return mu


def analytic_drift(k_honest: np.ndarray, k_corrupt: np.ndarray,
                   initial: np.ndarray | None = None) -> float:
    """Expected per-step log ratio of the corrupt chain in the long run.

    Minus the relative entropy of the corrupt rows against the honest
    rows, weighted by the corrupt limit law from ``initial`` (state 0 by
    default); zero iff the kernels agree on the rows that law uses, -inf
    if the honest kernel forbids a move of one of them.
    """
    k_honest = np.asarray(k_honest, dtype=float)
    k_corrupt = np.asarray(k_corrupt, dtype=float)
    if initial is None:
        initial = np.eye(k_corrupt.shape[0])[0]
    mu = stationary_distribution(k_corrupt, initial)
    used = (mu[:, None] != 0.0) & (k_corrupt != 0.0)
    if (used & (k_honest == 0.0)).any():
        return -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = mu[:, None] * k_corrupt * (np.log(k_honest) - np.log(k_corrupt))
    return float(np.where(used, terms, 0.0).sum())
