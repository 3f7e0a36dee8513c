"""Finite state and action testbed for kernel-level path likelihood ratios.

A finite MDP plus a stochastic policy induces a Markov chain on states;
two policies induce two chains, and the cumulative log ratio of their
transition probabilities along one observed path is the discrete analog
of the path likelihood ratio tracked in the linear-Gaussian modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROW_TOL = 1e-12
STATE_ACTION_CAP = 64

# Entries per block of the batch stages: the (seeds, steps) float arrays of
# one chunk of seeds and each (steps, seeds, states) block of the
# candidate-successor table of simulate_paths stay near this size.
_CHUNK_CELLS = 1 << 14


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


def _draw(cum: np.ndarray, last: int, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF indices of uniforms ``u`` against one cumulative row.

    Picks the first index whose cumulative probability exceeds the
    uniform (``bisect_right``); a uniform at or past the row's rounded
    total picks ``last``, the last index of positive probability, so an
    index of probability zero is never drawn.
    """
    return np.minimum(np.searchsorted(cum, u, side="right"), last)


def _last_positive(probs: np.ndarray) -> np.ndarray:
    """Index of the last positive entry of each row along the last axis."""
    return probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)


def simulate_paths(mdp: FiniteMdp, policy: StochasticPolicy, n: int,
                   seeds) -> np.ndarray:
    """Sample x_0..x_n for every seed by inverse-CDF draws; shape (S, n+1).

    Seed s draws ``default_rng(s).random(2n+1)``: the first uniform picks
    x_0, and step t uses the next two, one for the action and one for the
    successor state, in that order (see :func:`_draw`). For every state x
    the successor each seed would take from x is computed for a block of
    steps at once, in a table of at most about ``_CHUNK_CELLS`` entries
    whatever the state count; the time recursion is then one gather per
    step across the seeds. Row s depends on seed s alone, not on the
    other seeds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    seeds = [int(seed) for seed in seeds]
    n_seeds, n_states = len(seeds), mdp.n_states
    u = np.empty((n_seeds, 2 * n + 1))
    for row, seed in zip(u, seeds):
        row[:] = np.random.default_rng(seed).random(2 * n + 1)
    pol_cum = np.cumsum(policy.probs, axis=1)
    pol_last = _last_positive(policy.probs)
    ker_cum = np.cumsum(mdp.kernel, axis=2)
    ker_last = _last_positive(mdp.kernel)

    x0 = _draw(np.cumsum(mdp.initial), _last_positive(mdp.initial), u[:, 0])
    # states are flat positions seed * n_states + state, so that one step of
    # every seed is a single take from one row of the candidate table
    base = np.arange(n_seeds) * n_states
    x = x0 + base
    moves = np.empty((n, n_seeds), dtype=np.int64)
    block = max(1, _CHUNK_CELLS // max(1, n_seeds * n_states))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        u_act = u[:, 2 * lo + 1:2 * hi + 1:2].T
        u_next = u[:, 2 * lo + 2:2 * hi + 2:2].T
        # cand[t, s, y]: where seed s goes at step lo + t if it is in state y
        cand = np.empty((hi - lo, n_seeds, n_states), dtype=np.int64)
        for state in range(n_states):
            act = _draw(pol_cum[state], pol_last[state], u_act)
            succ = cand[:, :, state]
            for a in np.unique(act):
                taken = act == a
                succ[taken] = _draw(ker_cum[a, state], ker_last[a, state], u_next[taken])
        cand += base[:, None]
        for t, row in enumerate(cand.reshape(hi - lo, -1), start=lo):
            x = moves[t] = row.take(x)

    paths = np.empty((n_seeds, n + 1), dtype=np.int64)
    paths[:, 0] = x0
    np.subtract(moves.T, base[:, None], out=paths[:, 1:])
    return paths


def path_log_ratio(path: np.ndarray, k_honest: np.ndarray, k_corrupt: np.ndarray,
                   init_honest: np.ndarray, init_corrupt: np.ndarray) -> np.ndarray:
    """Cumulative log ratio of honest to corrupt path probability.

    ``path`` holds x_0..x_n on its last axis, with any leading axes (one
    path per row). Entry 0 is the initial-law log ratio; entry t adds the
    first t transitions, looked up by transition code ``x * states + y``
    in one table of increments and summed along time. Raises
    :class:`NotAbsolutelyContinuous` whenever a path uses a move the
    corrupt law forbids but the honest law allows, naming the first such
    path in row-major order with the message that path gives alone; the
    reverse case legitimately sends the ratio to -inf.
    """
    path = np.asarray(path, dtype=np.int64)
    k_honest = np.asarray(k_honest, dtype=float)
    k_corrupt = np.asarray(k_corrupt, dtype=float)
    init_honest = np.asarray(init_honest, dtype=float)
    init_corrupt = np.asarray(init_corrupt, dtype=float)

    x0 = path[..., 0]
    codes = path[..., :-1] * k_honest.shape[1]
    codes += path[..., 1:]
    h, c = k_honest.reshape(-1), k_corrupt.reshape(-1)
    bad_init = (init_corrupt == 0.0) & (init_honest > 0.0)
    bad_move = ((c == 0.0) & (h > 0.0))[codes]
    bad = bad_init[x0] | bad_move.any(axis=-1)
    if bad.any():
        first = np.argmax(bad.reshape(-1))
        row = path.reshape(-1, path.shape[-1])[first]
        if bad_init[row[0]]:
            raise NotAbsolutelyContinuous(
                f"initial state {row[0]} impossible under the corrupt law")
        t = int(np.argmax(bad_move.reshape(-1, codes.shape[-1])[first]))
        raise NotAbsolutelyContinuous(
            f"transition {row[t]}->{row[t + 1]} at step {t} impossible under the corrupt law")
    with np.errstate(divide="ignore", invalid="ignore"):
        init_term = np.where(init_corrupt > 0.0,
                             np.log(init_honest) - np.log(init_corrupt), 0.0)[x0]
        inc = np.where(h > 0.0, np.log(np.where(h > 0.0, h, 1.0)) - np.log(c), -np.inf)
    out = np.empty(path.shape)
    out[..., 0] = init_term
    steps = out[..., 1:]
    np.take(inc, codes, out=steps)
    np.cumsum(steps, axis=-1, out=steps)
    steps += init_term[..., None]
    return out


def stationary_distribution(k: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Limit law lim (1/n) sum_{t<n} initial K^t of any finite chain, exactly.

    A state is recurrent when every state it reaches reaches it back. Each
    closed class reachable from ``initial`` gets the mass it absorbs times
    its own stationary law (one solve each); every other state gets 0.0.
    """
    k = np.asarray(k, dtype=float)
    nu = np.asarray(initial, dtype=float)
    n = k.shape[0]
    # reach[x, y]: y is reachable from x; the path counts stay below 1e115
    reach = np.linalg.matrix_power(np.eye(n) + (k > 0.0), n - 1) > 0.0
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
