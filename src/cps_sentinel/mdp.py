"""Finite state and action testbed for kernel-level path likelihood ratios.

A finite MDP plus a stochastic policy induces a Markov chain on states;
two policies induce two chains, and the cumulative log ratio of their
transition probabilities along one observed path is the discrete analog
of the path likelihood ratio tracked in the linear-Gaussian modules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceFailure

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
        if (k < 0).any() or np.abs(k.sum(axis=2) - 1.0).max() > _ROW_TOL:
            raise ValueError("every kernel row must be a probability vector")
        if nu.size != k.shape[1] or (nu < 0).any() or abs(nu.sum() - 1.0) > _ROW_TOL:
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
        if (p < 0).any() or np.abs(p.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise ValueError("every policy row must be a probability vector")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def induced_kernel(mdp: FiniteMdp, policy: StochasticPolicy) -> np.ndarray:
    """State kernel K(x'|x) = sum_u policy(u|x) P(x'|x,u)."""
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy shape does not match the MDP")
    return np.einsum("xu,uxy->xy", policy.probs, mdp.kernel)


def reduce_window_policy(mdp: FiniteMdp, window_probs: np.ndarray, k: int
                         ) -> tuple[FiniteMdp, StochasticPolicy]:
    """Rewrite a k-step history-window policy as Markov on the product space.

    ``window_probs`` is indexed (s^k flattened, action) with the most recent
    state in the lowest stride. The returned MDP walks tuples of the last k
    states; its initial law places the pre-history on state copies.
    """
    s = mdp.n_states
    big = s ** k
    probs = np.asarray(window_probs, dtype=float).reshape(big, mdp.n_actions)
    kernel = np.zeros((mdp.n_actions, big, big))
    for code in range(big):
        recent = code % s
        succ_base = (code * s) % big
        for u in range(mdp.n_actions):
            for nxt in range(s):
                kernel[u, code, succ_base + nxt] = mdp.kernel[u, recent, nxt]
    initial = np.zeros(big)
    for x0 in range(s):
        code = 0
        for _ in range(k):
            code = code * s + x0
        initial[code] = mdp.initial[x0]
    return FiniteMdp(kernel, initial), StochasticPolicy(probs)


def simulate_path(mdp: FiniteMdp, policy: StochasticPolicy, n: int, seed: int) -> np.ndarray:
    """Sample x_0..x_n by inverse-CDF draws; deterministic per seed.

    Each step consumes two presampled uniforms, one for the action and one
    for the successor state, in that order. The hot loop runs on plain
    lists with bisect, which matches searchsorted's right-side semantics.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(int(seed))
    u = rng.random(2 * n + 1).tolist()
    init_cum = np.cumsum(mdp.initial).tolist()
    pol_cum = np.cumsum(policy.probs, axis=1).tolist()
    ker_cum = [np.cumsum(mdp.kernel[a], axis=1).tolist() for a in range(mdp.n_actions)]
    last_state = mdp.n_states - 1
    last_action = mdp.n_actions - 1

    path = np.empty(n + 1, dtype=np.int64)
    x = min(bisect_right(init_cum, u[0]), last_state)
    path[0] = x
    out = path[1:]
    for t in range(n):
        act = bisect_right(pol_cum[x], u[2 * t + 1])
        if act > last_action:
            act = last_action
        x = bisect_right(ker_cum[act][x], u[2 * t + 2])
        if x > last_state:
            x = last_state
        out[t] = x
    return path


def path_log_ratio(path: np.ndarray, k_honest: np.ndarray, k_corrupt: np.ndarray,
                   init_honest: np.ndarray, init_corrupt: np.ndarray) -> np.ndarray:
    """Cumulative log ratio of honest to corrupt path probability.

    Entry 0 is the initial-law log ratio; entry t adds the first t
    transitions. Raises :class:`NotAbsolutelyContinuous` whenever the path
    uses a move the corrupt law forbids but the honest law allows; the
    reverse case legitimately sends the ratio to -inf.
    """
    path = np.asarray(path, dtype=int)
    k_honest = np.asarray(k_honest, dtype=float)
    k_corrupt = np.asarray(k_corrupt, dtype=float)
    init_honest = np.asarray(init_honest, dtype=float)
    init_corrupt = np.asarray(init_corrupt, dtype=float)

    x0 = path[0]
    if init_corrupt[x0] == 0.0 and init_honest[x0] > 0.0:
        raise NotAbsolutelyContinuous(f"initial state {x0} impossible under the corrupt law")
    h = k_honest[path[:-1], path[1:]]
    c = k_corrupt[path[:-1], path[1:]]
    bad = (c == 0.0) & (h > 0.0)
    if bad.any():
        t = int(np.argmax(bad))
        raise NotAbsolutelyContinuous(
            f"transition {path[t]}->{path[t + 1]} at step {t} impossible under the corrupt law")
    with np.errstate(divide="ignore"):
        init_term = np.log(init_honest[x0]) - np.log(init_corrupt[x0]) \
            if init_corrupt[x0] > 0.0 else 0.0
        vals = np.where(h > 0.0, np.log(np.where(h > 0.0, h, 1.0)) - np.log(c), -np.inf)
    out = np.empty(path.size)
    out[0] = init_term
    out[1:] = init_term + np.cumsum(vals)
    return out


def stationary_distribution(k: np.ndarray, *, tol: float = 1e-12,
                            max_iter: int = 200_000) -> np.ndarray:
    """Power iteration to the stationary law of a state kernel.

    Starts from a point mass so that periodic chains oscillate and hit the
    iteration cap instead of silently averaging out; irreducibility and
    aperiodicity are the caller's concern.
    """
    k = np.asarray(k, dtype=float)
    pi = np.zeros(k.shape[0])
    pi[0] = 1.0
    for _ in range(max_iter):
        nxt = pi @ k
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    raise ConvergenceFailure(
        f"power iteration did not reach residual {tol:g} in {max_iter} steps")


def analytic_drift(k_honest: np.ndarray, k_corrupt: np.ndarray) -> float:
    """Expected per-step log ratio under the corrupt chain at stationarity.

    Equals minus the corrupt-stationary-weighted relative entropy of the
    corrupt rows against the honest rows; zero iff the kernels agree on
    the corrupt support, -inf if the honest kernel forbids a corrupt move.
    """
    k_honest = np.asarray(k_honest, dtype=float)
    k_corrupt = np.asarray(k_corrupt, dtype=float)
    mu = stationary_distribution(k_corrupt)
    drift = 0.0
    for x in range(k_corrupt.shape[0]):
        if mu[x] == 0.0:
            continue
        for y in range(k_corrupt.shape[1]):
            c = k_corrupt[x, y]
            if c == 0.0:
                continue
            h = k_honest[x, y]
            if h == 0.0:
                return -np.inf
            drift += mu[x] * c * (np.log(h) - np.log(c))
    return float(drift)

