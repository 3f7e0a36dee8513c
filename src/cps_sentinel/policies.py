"""Honest and corrupt control policies, and their lift into gain matrices.

Honest actuators apply their policy mean plus the private excitation.
Corrupt actuators replace their component: replacement and denial-of-service
drop the excitation outright, false data injection rides on top of the
honest channel, and mimicry substitutes self-generated excitation. Every
honest law and attack here is linear in the observed states, and
:func:`lift` turns a pair of them into gain matrices once; the simulator,
the detector, the covariances and the drift read only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import AttackConfig
from .numerics import DiagonalPsd, matvec


@dataclass(frozen=True)
class Zero:
    """Always-zero nominal control."""


@dataclass(frozen=True)
class LinearFeedback:
    """u = gain @ x_t."""

    gain: np.ndarray


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


@dataclass(frozen=True)
class Replacement:
    """Deterministic substitute map on the attacked channels.

    Modes: ``constant`` values, ``scaled_state`` (per-channel scale on the
    agent's own last state) and ``sign_flip`` (negated honest mean).
    """

    mode: str
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("constant", "scaled_state", "sign_flip"):
            raise ValueError(f"unknown replacement mode {self.mode!r}")
        if self.mode != "sign_flip":
            if self.values is None:
                raise ValueError(f"replacement mode {self.mode!r} needs values")
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @classmethod
    def constant(cls, values) -> "Replacement":
        return cls("constant", values=values)

    @classmethod
    def scaled_state(cls, scales) -> "Replacement":
        return cls("scaled_state", values=scales)

    @classmethod
    def sign_flip(cls) -> "Replacement":
        return cls("sign_flip")


@dataclass(frozen=True)
class Fdi:
    """Additive offsets on the attacked channels, constant or per step."""

    offsets: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.offsets, dtype=float)
        if o.ndim not in (1, 2) or not np.isfinite(o).all():
            raise ValueError("fdi offsets must be a finite vector or per-step table")
        object.__setattr__(self, "offsets", o)


@dataclass(frozen=True)
class DoS:
    """Denial of service: the attacked channels emit zero."""


@dataclass(frozen=True)
class Mimic:
    """Honest mean map with self-generated excitation of covariance V1'."""

    self_excitation: DiagonalPsd


CorruptPolicy = Union[Replacement, Fdi, DoS, Mimic]

Attack = tuple[AttackConfig, CorruptPolicy]


@dataclass(frozen=True)
class LinearLaws:
    """The honest and the corrupt control law of a scenario as gain matrices.

    Honest mean at step t: ``sum_k lags[k] @ x_{t-k} + offset``; lags that
    reach before x_0 are dropped, and no lags is the zero law. The corrupt
    mean equals it on the honest channels. On the attacked channels
    ``mal`` it is ``follow * honest mean + self_gain * x_t[mal] +
    corrupt_offset``, plus the FDI offset ``fdi`` (a vector, or a table
    with one row per step), so its gain rows are ``follow`` times the
    honest rows plus ``diag(self_gain)`` at lag 0. Absent terms (None, or
    ``follow == 0``) are skipped rather than added as zeros, which keeps
    every mean the exact number the policy defines, down to the sign of
    a zero. ``keep`` tells whether the attacked channels keep their
    private excitation (FDI) or lose it; ``own`` is the mimic's
    self-excitation covariance on them.
    """

    n: int
    lags: tuple[np.ndarray, ...]
    offset: np.ndarray | None
    mal: np.ndarray
    follow: float = 1.0
    self_gain: np.ndarray | None = None
    corrupt_offset: np.ndarray | None = None
    fdi: np.ndarray | None = None
    keep: bool = True
    own: DiagonalPsd | None = None

    def honest_means(self, states: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Honest means at steps lo..hi-1 along ``states``, shape (..., hi - lo, N)."""
        x = states[..., lo:hi, :]
        if not self.lags:
            out = np.zeros_like(x)
        else:
            out = matvec(self.lags[0], x)
            for k, g in enumerate(self.lags[1:], 1):
                first = max(lo, k)
                if first < hi:
                    out[..., first - lo:, :] += matvec(g, states[..., first - k:hi - k, :])
        return out if self.offset is None else out + self.offset

    def corrupt_means(self, g: np.ndarray, states: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Corrupt means at steps lo..hi-1 given the honest ones ``g``.

        The honest array itself when the two laws agree; otherwise a copy
        with the attacked channels rewritten, reusing ``g`` (no second
        lag sum).
        """
        if (self.follow == 1.0 and self.self_gain is None and self.corrupt_offset is None
                and self.fdi is None):
            return g
        mal = self.mal
        terms = []
        if self.follow == 1.0:
            terms.append(g[..., mal])
        elif self.follow:
            terms.append(self.follow * g[..., mal])
        if self.self_gain is not None:
            terms.append(self.self_gain * states[..., lo:hi, :][..., mal])
        if self.corrupt_offset is not None:
            terms.append(self.corrupt_offset)
        if self.fdi is not None:
            terms.append(self.fdi_offsets(lo, hi))
        c = g.copy()
        c[..., mal] = sum(terms[1:], terms[0]) if terms else 0.0
        return c

    def fdi_offsets(self, lo: int, hi: int) -> np.ndarray:
        """FDI offsets of steps lo..hi-1, or the constant offset vector."""
        if self.fdi.ndim == 1:
            return self.fdi
        if self.fdi.shape[0] < hi:
            raise ValueError(f"fdi offset schedule has {self.fdi.shape[0]} steps, "
                             f"step {hi - 1} requested")
        return self.fdi[lo:hi]

    def excitation(self, honest: np.ndarray) -> np.ndarray:
        """Excitation variances the corrupt law admits, given the honest ones."""
        v = np.array(honest, dtype=float)
        if not self.keep:
            v[self.mal] = 0.0 if self.own is None else self.own.diag
        return v

    def gain_gaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense per-lag gains and offsets: honest, and corrupt minus honest.

        Returns ``(gains, gain_gap, offset, offset_gap)`` with shapes
        (L, N, N), (L, N, N), (N,), (N,), L >= 1. A per-step FDI table has
        no single offset gap; the caller must not ask for one.
        """
        n, mal = self.n, self.mal
        gains = np.array(self.lags) if self.lags else np.zeros((1, n, n))
        offset = np.zeros(n) if self.offset is None else self.offset
        gain_gap = np.zeros_like(gains)
        offset_gap = np.zeros(n)
        gain_gap[:, mal] = (self.follow - 1.0) * gains[:, mal]
        offset_gap[mal] = (self.follow - 1.0) * offset[mal]
        if self.self_gain is not None:
            gain_gap[0, mal, mal] += self.self_gain
        if self.corrupt_offset is not None:
            offset_gap[mal] += self.corrupt_offset
        if self.fdi is not None:
            offset_gap[mal] += self.fdi
        return gains, gain_gap, offset, offset_gap


def lift(honest: HonestPolicy, attack: Attack | None, n: int) -> LinearLaws:
    """The gain matrices of an honest law and an attack on ``n`` agents.

    This is the one dispatch over policy kinds; everything downstream
    reads the :class:`LinearLaws` it returns.
    """
    if isinstance(honest, Zero):
        lags, offset = (), None
    elif isinstance(honest, LinearFeedback):
        lags, offset = (np.asarray(honest.gain, dtype=float),), None
    elif isinstance(honest, Affine):
        lags = (np.asarray(honest.gain, dtype=float),)
        offset = np.asarray(honest.offset, dtype=float)
    elif isinstance(honest, HistoryWindow):
        lags, offset = honest.lag_gains, None
    else:
        raise TypeError(f"unknown honest policy {honest!r}")
    if attack is None:
        return LinearLaws(n, lags, offset, np.zeros(0, dtype=int))
    cfg, corrupt = attack
    if isinstance(corrupt, Fdi):
        parts = {"fdi": corrupt.offsets}
    elif isinstance(corrupt, Mimic):
        parts = {"keep": False, "own": corrupt.self_excitation}
    elif isinstance(corrupt, DoS):
        parts = {"keep": False, "follow": 0.0}
    elif isinstance(corrupt, Replacement):
        parts = {"keep": False, "follow": -1.0 if corrupt.mode == "sign_flip" else 0.0}
        if corrupt.mode == "constant":
            parts["corrupt_offset"] = corrupt.values
        elif corrupt.mode == "scaled_state":
            parts["self_gain"] = corrupt.values
    else:
        raise TypeError(f"unknown corrupt policy {corrupt!r}")
    return LinearLaws(n, lags, offset, cfg.malicious_indices, **parts)


def control_means(laws: LinearLaws, states: np.ndarray,
                  t: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Conditional control means under the honest and the corrupt hypothesis.

    ``states`` holds observed states x_0, x_1, ... along its
    second-to-last axis, with any leading batch axes (one per seed). With
    ``t`` given it must hold x_0..x_t and the means at step t come back
    with shape (..., N); with ``t=None`` the means at every step of the
    path come back with the shape of ``states``.

    The corrupt mean includes any FDI offset; excitation is randomness,
    not mean, so it never appears here. When the laws agree the corrupt
    mean is the honest array itself.
    """
    states = np.asarray(states, dtype=float)
    if t is None:
        lo, hi = 0, states.shape[-2]
    elif states.ndim < 2 or states.shape[-2] != t + 1:
        raise ValueError(f"history must hold states x_0..x_{t}, got shape {states.shape}")
    else:
        lo, hi = t, t + 1
    g = laws.honest_means(states, lo, hi)
    c = laws.corrupt_means(g, states, lo, hi)
    if t is None:
        return g, c
    return g[..., 0, :], c[..., 0, :]


def admit_controls(laws: LinearLaws, t: int, honest_vec: np.ndarray,
                   corrupt_vec: np.ndarray, excitation: np.ndarray,
                   own: np.ndarray | None = None) -> np.ndarray:
    """Control vectors actually admitted at step t, given both means.

    A channel that keeps its private excitation (every honest one, and
    FDI's, whose mean before the offset is the honest one) emits honest
    mean plus excitation plus any FDI offset. An attacked channel that
    loses it emits the corrupt mean plus the mimic's own excitation
    ``own``, if any. Works on any leading batch axes.
    """
    u = honest_vec + excitation
    mal = laws.mal
    if not laws.keep:
        u[..., mal] = corrupt_vec[..., mal]
        if laws.own is not None:
            u[..., mal] += own
    elif laws.fdi is not None:
        u[..., mal] += laws.fdi_offsets(t, t + 1).reshape(-1)
    return u
