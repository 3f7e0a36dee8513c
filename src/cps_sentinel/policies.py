"""Honest and corrupt control policies.

Honest actuators apply their policy mean plus the private excitation.
Corrupt actuators replace their component: replacement and denial-of-service
drop the excitation outright, false data injection rides on top of the
honest channel, and mimicry substitutes self-generated excitation. A
history is the array of states observed so far, shape (t+1, n_agents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .model import AttackConfig
from .numerics import DiagonalPsd, GaussianLaw, matvec, sample_gaussian

History = np.ndarray


@dataclass(frozen=True)
class Zero:
    """Always-zero nominal control."""


@dataclass(frozen=True)
class LinearFeedback:
    """u = gain @ x_t; pass a sequence of gains for a per-step schedule."""

    gain: np.ndarray | tuple

    @property
    def stationary(self) -> bool:
        return not isinstance(self.gain, tuple)


@dataclass(frozen=True)
class Affine:
    """u = gain @ x_t + offset."""

    gain: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class HistoryWindow:
    """u = sum_k lag_gains[k] @ x_{t-k}; lags beyond the start are dropped."""

    lag_gains: tuple

    def __post_init__(self):
        if len(self.lag_gains) < 1:
            raise ValueError("window policy needs at least one lag gain")
        object.__setattr__(self, "lag_gains",
                           tuple(np.asarray(g, dtype=float) for g in self.lag_gains))


HonestPolicy = Union[Zero, LinearFeedback, Affine, HistoryWindow]


def is_markov(policy: HonestPolicy) -> bool:
    return not isinstance(policy, HistoryWindow)


@dataclass(frozen=True)
class Replacement:
    """Deterministic substitute map on the attacked channels.

    Built-ins: ``constant`` values, ``scaled_state`` (per-channel scale on
    the agent's own last state), ``sign_flip`` (negated honest mean), and a
    ``custom`` hook (history, t, malicious_idx) -> length-M vector.
    """

    mode: str
    values: np.ndarray | None = None
    custom: Callable[[History, int, np.ndarray], np.ndarray] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.mode not in ("constant", "scaled_state", "sign_flip", "custom"):
            raise ValueError(f"unknown replacement mode {self.mode!r}")
        if self.mode in ("constant", "scaled_state"):
            if self.values is None:
                raise ValueError(f"replacement mode {self.mode!r} needs values")
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.mode == "custom" and self.custom is None:
            raise ValueError("custom replacement needs a callable")

    @classmethod
    def constant(cls, values) -> "Replacement":
        return cls("constant", values=np.asarray(values, dtype=float))

    @classmethod
    def scaled_state(cls, scales) -> "Replacement":
        return cls("scaled_state", values=np.asarray(scales, dtype=float))

    @classmethod
    def sign_flip(cls) -> "Replacement":
        return cls("sign_flip")

    @classmethod
    def from_callable(cls, fn) -> "Replacement":
        return cls("custom", custom=fn)


@dataclass(frozen=True)
class Fdi:
    """Additive offsets on the attacked channels, constant or per step."""

    offsets: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.offsets, dtype=float)
        if o.ndim not in (1, 2) or not np.isfinite(o).all():
            raise ValueError("fdi offsets must be a finite vector or per-step table")
        object.__setattr__(self, "offsets", o)

    def offset_at(self, t: int) -> np.ndarray:
        if self.offsets.ndim == 1:
            return self.offsets
        if t >= self.offsets.shape[0]:
            raise ValueError(f"fdi offset schedule has {self.offsets.shape[0]} steps, "
                             f"step {t} requested")
        return self.offsets[t]


@dataclass(frozen=True)
class DoS:
    """Denial of service: the attacked channels emit zero."""


@dataclass(frozen=True)
class Mimic:
    """Honest mean map with self-generated excitation of covariance V1'."""

    self_excitation: DiagonalPsd


CorruptPolicy = Union[Replacement, Fdi, DoS, Mimic]

Attack = tuple[AttackConfig, CorruptPolicy]


def control_means(honest: HonestPolicy, attack: Attack | None, states: np.ndarray,
                  t: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Conditional control means under the honest and the corrupt hypothesis.

    This is the one dispatch over policy kinds; the simulator, the
    detector and the per-step helpers below all call it. ``states`` holds
    observed states x_0, x_1, ... along its second-to-last axis, with any
    leading batch axes (one per seed). With ``t`` given it must hold
    x_0..x_t and the means at step t come back with shape (..., N); with
    ``t=None`` the means at every step of the path come back with the
    shape of ``states``.

    The corrupt mean differs from the honest one only on the attacked
    channels. For FDI it includes the offset; excitation is randomness,
    not mean, so it never appears here. With no attack the corrupt mean is
    the honest array itself.
    """
    states = np.asarray(states, dtype=float)
    if t is None:
        lo, hi = 0, states.shape[-2]
    elif states.ndim < 2 or states.shape[-2] != t + 1:
        raise ValueError(f"history must hold states x_0..x_{t}, got shape {states.shape}")
    else:
        lo, hi = t, t + 1
    g = _honest_means(honest, states, lo, hi)
    c = g
    if attack is not None:
        cfg, corrupt = attack
        mal = cfg.malicious_indices
        c = g.copy()
        c[..., mal] = _corrupt_means(corrupt, g, states, lo, hi, mal)
    if t is None:
        return g, c
    return g[..., 0, :], c[..., 0, :]


def _honest_means(policy: HonestPolicy, states: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Honest means at steps lo..hi-1, shape (..., hi - lo, N)."""
    x = states[..., lo:hi, :]
    if isinstance(policy, Zero):
        return np.zeros_like(x)
    if isinstance(policy, LinearFeedback):
        if policy.stationary:
            return matvec(policy.gain, x)
        if len(policy.gain) < hi:
            raise ValueError(f"gain schedule has {len(policy.gain)} steps, "
                             f"step {hi - 1} requested")
        return (np.stack(policy.gain[lo:hi]) @ x[..., None])[..., 0]
    if isinstance(policy, Affine):
        return matvec(policy.gain, x) + policy.offset
    if isinstance(policy, HistoryWindow):
        out = np.zeros_like(x)
        for k, g in enumerate(policy.lag_gains):
            first = max(lo, k)  # lags reaching before x_0 are dropped
            if first < hi:
                out[..., first - lo:, :] += matvec(g, states[..., first - k:hi - k, :])
        return out
    raise TypeError(f"unknown honest policy {policy!r}")


def _corrupt_means(corrupt: CorruptPolicy, g: np.ndarray, states: np.ndarray,
                   lo: int, hi: int, mal: np.ndarray) -> np.ndarray:
    """Corrupt means of the attacked channels at steps lo..hi-1 (broadcastable)."""
    if isinstance(corrupt, DoS):
        return 0.0
    if isinstance(corrupt, Fdi):
        if corrupt.offsets.ndim == 1:
            return g[..., mal] + corrupt.offsets
        if corrupt.offsets.shape[0] < hi:
            corrupt.offset_at(hi - 1)  # raises with the schedule length
        return g[..., mal] + corrupt.offsets[lo:hi]
    if isinstance(corrupt, Mimic):
        return g[..., mal]
    if isinstance(corrupt, Replacement):
        if corrupt.mode == "constant":
            return corrupt.values
        if corrupt.mode == "scaled_state":
            return corrupt.values * states[..., lo:hi, :][..., mal]
        if corrupt.mode == "sign_flip":
            return -g[..., mal]
        out = np.empty(g.shape[:-1] + (len(mal),))
        for idx in np.ndindex(states.shape[:-2]):
            for t in range(lo, hi):
                v = np.asarray(corrupt.custom(states[idx][: t + 1], t, mal),
                               dtype=float).reshape(-1)
                if v.size != len(mal):
                    raise ValueError("custom replacement returned the wrong length")
                out[idx + (t - lo,)] = v
        return out
    raise TypeError(f"unknown corrupt policy {corrupt!r}")


def admit_controls(attack: Attack | None, t: int, honest_vec: np.ndarray,
                   corrupt_vec: np.ndarray, excitation: np.ndarray,
                   own: np.ndarray | None = None) -> np.ndarray:
    """Control vectors actually admitted at step t, given both means.

    Honest channels emit mean plus excitation. Replacement and DoS discard
    the channel's excitation; FDI keeps it and adds the offset; mimicry
    adds its own excitation ``own`` to the honest mean. Works on any
    leading batch axes.
    """
    u = honest_vec + excitation
    if attack is None:
        return u
    cfg, corrupt = attack
    mal = cfg.malicious_indices
    if isinstance(corrupt, Fdi):
        u[..., mal] += corrupt.offset_at(t)
    elif isinstance(corrupt, Mimic):
        u[..., mal] = honest_vec[..., mal] + own
    else:
        u[..., mal] = corrupt_vec[..., mal]
    return u


def honest_mean(policy: HonestPolicy, history: History, t: int) -> np.ndarray:
    """Nominal control at step t given the states observed so far."""
    return control_means(policy, None, history, t)[0]


def compose_control(honest: HonestPolicy, attack: Attack | None, history: History,
                    t: int, excitation: np.ndarray,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Control vector admitted at step t for one path (see :func:`admit_controls`).

    Mimicry draws fresh excitation from its own covariance (consumes ``rng``).
    """
    g, c = control_means(honest, attack, history, t)
    own = None
    if attack is not None and isinstance(attack[1], Mimic):
        if rng is None:
            raise ValueError("mimic policy draws its own excitation and needs an rng")
        law = GaussianLaw(np.zeros(attack[0].malicious_count), attack[1].self_excitation)
        own = sample_gaussian(rng, law)
    return admit_controls(attack, t, g, c, np.asarray(excitation, dtype=float), own)
