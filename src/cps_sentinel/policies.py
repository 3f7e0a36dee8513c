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

    Honest mean at step t: ``sum_k gains[k] @ x_{t-k} + offset``, and the
    corrupt mean the same with ``corrupt_gains`` and ``corrupt_offset``.
    Both gain arrays have shape (L, N, N), L >= 1, and lags that reach
    before x_0 are dropped; the zero law is one zero matrix. An offset is
    a vector, or for the corrupt law of an FDI schedule a table with one
    row per step (the honest offset plus the schedule on the attacked
    channels ``mal``); an absent offset is None, not zeros, so nothing is
    added for it. When the corrupt law reuses the honest gains and offset
    (no attack, mimicry) they are the same objects. ``keep`` tells whether
    the attacked channels keep their private excitation (FDI) or lose it;
    ``own`` is the mimic's self-excitation covariance on them.
    """

    gains: np.ndarray
    offset: np.ndarray | None
    corrupt_gains: np.ndarray
    corrupt_offset: np.ndarray | None
    mal: np.ndarray
    keep: bool = True
    own: DiagonalPsd | None = None

    def corrupt_offsets(self, steps: int) -> np.ndarray | None:
        """The corrupt offset of steps 0..steps-1: a vector, a table, or None."""
        offset = self.corrupt_offset
        if offset is None or offset.ndim == 1:
            return offset
        if len(offset) < steps:
            raise ValueError(f"fdi offset schedule has {len(offset)} steps, "
                             f"step {steps - 1} requested")
        return offset[:steps]


def lift(honest: HonestPolicy, attack: Attack | None, n: int) -> LinearLaws:
    """The gain matrices of an honest law and an attack on ``n`` agents.

    This is the one dispatch over policy kinds; everything downstream
    reads the :class:`LinearLaws` it returns.
    """
    if isinstance(honest, Zero):
        gains, offset = np.zeros((1, n, n)), None
    elif isinstance(honest, LinearFeedback):
        gains, offset = np.asarray(honest.gain, dtype=float)[None], None
    elif isinstance(honest, Affine):
        gains = np.asarray(honest.gain, dtype=float)[None]
        offset = np.asarray(honest.offset, dtype=float)
    elif isinstance(honest, HistoryWindow):
        gains, offset = np.array(honest.lag_gains), None
    else:
        raise TypeError(f"unknown honest policy {honest!r}")
    if attack is None:
        return LinearLaws(gains, offset, gains, offset, np.zeros(0, dtype=int))
    cfg, corrupt = attack
    mal = cfg.malicious_indices
    if isinstance(corrupt, Fdi):
        shape = corrupt.offsets.shape[:-1] + (n,)
        total = np.zeros(shape) if offset is None else np.broadcast_to(offset, shape).copy()
        total[..., mal] += corrupt.offsets
        return LinearLaws(gains, offset, gains, total, mal)
    if isinstance(corrupt, Mimic):
        return LinearLaws(gains, offset, gains, offset, mal, keep=False,
                          own=corrupt.self_excitation)
    if not isinstance(corrupt, (DoS, Replacement)):
        raise TypeError(f"unknown corrupt policy {corrupt!r}")
    mode = corrupt.mode if isinstance(corrupt, Replacement) else "dos"
    corrupt_gains = gains.copy()
    corrupt_offset = None if offset is None else offset.copy()
    if mode == "sign_flip":
        corrupt_gains[:, mal] *= -1.0
        if corrupt_offset is not None:
            corrupt_offset[mal] *= -1.0
    else:
        corrupt_gains[:, mal] = 0.0
        if corrupt_offset is not None:
            corrupt_offset[mal] = 0.0
    if mode == "scaled_state":
        corrupt_gains[0, mal, mal] = corrupt.values
    elif mode == "constant":
        if corrupt_offset is None:
            corrupt_offset = np.zeros(n)
        corrupt_offset[mal] = corrupt.values
    return LinearLaws(gains, offset, corrupt_gains, corrupt_offset, mal, keep=False)


def _means(gains: np.ndarray, offset: np.ndarray | None, states: np.ndarray) -> np.ndarray:
    """Means of one law at every step along ``states``, in the shape of ``states``."""
    out = matvec(gains[0], states)
    for k in range(1, min(len(gains), states.shape[-2])):
        out[..., k:, :] += matvec(gains[k], states[..., :-k, :])
    return out if offset is None else out + offset


def control_means(laws: LinearLaws, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional control means under the honest and the corrupt hypothesis.

    ``states`` holds observed states x_0, x_1, ... along its
    second-to-last axis, with any leading batch axes (one per seed); the
    means at every step of the path come back with the shape of
    ``states``, row t being the means given x_0..x_t.

    Excitation is randomness, not mean, so it never appears here. When
    the laws agree the corrupt mean is the honest array itself. No mean
    is ever ``-0.0``.
    """
    states = np.asarray(states, dtype=float)
    g = _means(laws.gains, laws.offset, states)
    if laws.corrupt_gains is laws.gains and laws.corrupt_offset is laws.offset:
        return g, g
    return g, _means(laws.corrupt_gains, laws.corrupt_offsets(states.shape[-2]), states)


def admit_excitation(laws: LinearLaws, excitation: np.ndarray,
                     own: np.ndarray | None = None) -> np.ndarray:
    """Turn drawn private excitations into the ones the actuators admit, in place.

    A channel that keeps its private excitation (every honest one, and
    FDI's) admits it; an attacked channel that loses it admits the mimic's
    own excitation ``own`` instead, or nothing. The admitted control is
    the corrupt mean of :func:`control_means` plus this. ``excitation``
    holds one vector per step along its last axis, with any leading axes;
    it is overwritten and returned.
    """
    if not laws.keep:
        excitation[..., laws.mal] = 0.0 if own is None else own
    return excitation


def closed_loop(dynamics: np.ndarray, actuator_gains: np.ndarray,
                gains: np.ndarray) -> tuple[np.ndarray, bool]:
    """The lag-stacked closed loop of a law, and whether it is stable.

    On z_t = (x_t, x_{t-1}, ..., x_{t-L+1}) the loop under the law
    ``gains`` (shape (L, N, N)) is z' = F z + (input, 0, ..., 0): the top
    block row of F is ``dynamics + diag(actuator_gains) hstack(gains)``
    and identity blocks below shift each lag one block down. Stable means
    a spectral radius below 1.
    """
    n, lags = len(actuator_gains), len(gains)
    f = np.eye(n * lags, k=-n)
    f[:n] = loop_rows(dynamics, actuator_gains, gains)
    return f, bool(np.abs(np.linalg.eigvals(f)).max() < 1.0)


def loop_rows(dynamics: np.ndarray, actuator_gains: np.ndarray,
              gains: np.ndarray) -> np.ndarray:
    """The top block row of :func:`closed_loop`: x_{t+1}'s mean given z_t, less the offset."""
    top = actuator_gains[:, None] * np.hstack(gains)
    top[:, :len(actuator_gains)] += dynamics
    return top


def time_ordered(rows: np.ndarray, n: int) -> np.ndarray:
    """``rows`` of a lag-stacked matrix with its column blocks in time order.

    The lag-stacked state z_t lists x_t, x_{t-1}, ..., x_{t-L+1}; a path's
    lag window lists the same states oldest first, x_{t-L+1}, ..., x_t.
    """
    lags = rows.shape[1] // n
    return rows.reshape(len(rows), lags, n)[:, ::-1].reshape(len(rows), lags * n)
