"""Honest and corrupt control policies, and their lift into window rows.

Honest actuators apply their policy mean plus the private excitation.
Corrupt actuators replace their component: replacement and denial-of-service
drop the excitation outright, false data injection rides on top of the
honest channel, and mimicry substitutes self-generated excitation. Every
honest law and attack here is linear in the observed states, and
:func:`lift` turns a pair of them once into one linear map of the lag
window per law, x_{t-L+1}, ..., x_t oldest first, plus an offset; the
simulator, the detector, the covariances and the drift read only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """The honest and the corrupt control law of a scenario as window rows.

    Honest mean at step t: ``gains @ z_t + offset``, on the lag window
    z_t = (x_{t-L+1}, ..., x_t), oldest first and zero before x_0 (see
    :func:`lag_windows`); the corrupt mean the same with ``corrupt_gains``
    and ``corrupt_offset``. Both gain arrays have shape (N, L N), L >= 1,
    and the zero law is one zero matrix. Every offset is an array, zeros
    when the law has none: a vector, or for the corrupt law of an FDI
    schedule a table with one row per step (the honest offset plus the
    schedule on the attacked channels ``mal``). When the corrupt law
    reuses the honest gains and offset (no attack, mimicry) they are the
    same objects. ``keep`` tells whether the attacked channels keep their
    private excitation (FDI) or lose it; ``own`` is the mimic's
    self-excitation covariance on them.
    """

    gains: np.ndarray
    offset: np.ndarray
    corrupt_gains: np.ndarray
    corrupt_offset: np.ndarray
    mal: np.ndarray
    keep: bool = True
    own: DiagonalPsd | None = None

    @property
    def lags(self) -> int:
        """L, the number of states in the lag window."""
        return self.gains.shape[1] // self.gains.shape[0]

    def corrupt_offsets(self, steps: int) -> np.ndarray:
        """The corrupt offset of steps 0..steps-1: a vector, or a table."""
        offset = self.corrupt_offset
        if offset.ndim == 1:
            return offset
        if len(offset) < steps:
            raise ValueError(f"fdi offset schedule has {len(offset)} steps, "
                             f"step {steps - 1} requested")
        return offset[:steps]


def lift(honest: HonestPolicy, attack: Attack | None, n: int) -> LinearLaws:
    """The window rows and offsets of an honest law and an attack on ``n`` agents.

    This is the one dispatch over policy kinds, and the one place that
    puts a window law's ``lag_gains`` (most recent first) in window order;
    everything downstream reads the :class:`LinearLaws` it returns.
    """
    offset = np.zeros(n)
    if isinstance(honest, Zero):
        gains = np.zeros((n, n))
    elif isinstance(honest, LinearFeedback):
        gains = np.array(honest.gain, dtype=float)
    elif isinstance(honest, Affine):
        gains = np.array(honest.gain, dtype=float)
        offset = np.array(honest.offset, dtype=float)
    elif isinstance(honest, HistoryWindow):
        gains = np.hstack(honest.lag_gains[::-1])
    else:
        raise TypeError(f"unknown honest policy {honest!r}")
    if attack is None:
        return LinearLaws(gains, offset, gains, offset, np.zeros(0, dtype=int))
    cfg, corrupt = attack
    mal = cfg.malicious_indices
    if isinstance(corrupt, Fdi):
        total = np.broadcast_to(offset, corrupt.offsets.shape[:-1] + (n,)).copy()
        total[..., mal] += corrupt.offsets
        return LinearLaws(gains, offset, gains, total, mal)
    if isinstance(corrupt, Mimic):
        return LinearLaws(gains, offset, gains, offset, mal, keep=False,
                          own=corrupt.self_excitation)
    if not isinstance(corrupt, (DoS, Replacement)):
        raise TypeError(f"unknown corrupt policy {corrupt!r}")
    mode = corrupt.mode if isinstance(corrupt, Replacement) else "dos"
    corrupt_gains, corrupt_offset = gains.copy(), offset.copy()
    if mode == "sign_flip":
        corrupt_gains[mal] *= -1.0
        corrupt_offset[mal] *= -1.0
    else:
        corrupt_gains[mal] = 0.0
        corrupt_offset[mal] = 0.0
    if mode == "scaled_state":
        corrupt_gains[:, -n:][mal, mal] = corrupt.values  # on the x_t block
    elif mode == "constant":
        corrupt_offset[mal] = corrupt.values
    return LinearLaws(gains, offset, corrupt_gains, corrupt_offset, mal, keep=False)


def lag_windows(path: np.ndarray, lags: int) -> np.ndarray:
    """The lag window of every step of ``path`` after its first L - 1 states.

    ``path`` holds states along its second-to-last axis, with any leading
    axes: the L - 1 states before the first step (zero before x_0), then
    one state per step; row t of the result is (x_{t-L+1}, ..., x_t),
    oldest first, of length ``lags`` N.
    """
    windows = sliding_window_view(path, lags, axis=-2).swapaxes(-1, -2)
    return windows.reshape(windows.shape[:-2] + (lags * path.shape[-1],))


def control_means(laws: LinearLaws, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional control means under the honest and the corrupt hypothesis.

    ``states`` holds observed states x_0, x_1, ... along its
    second-to-last axis, with any leading batch axes (one per seed); the
    means at every step of the path come back with the shape of
    ``states``, row t being the means given x_0..x_t: each law's window
    rows times the lag window of that step (:func:`lag_windows`), plus its
    offset.

    Excitation is randomness, not mean, so it never appears here. When
    the laws agree the corrupt mean is the honest array itself. No mean
    is ever ``-0.0``.
    """
    states = np.asarray(states, dtype=float)
    before = np.zeros(states.shape[:-2] + (laws.lags - 1, states.shape[-1]))
    windows = lag_windows(np.concatenate([before, states], axis=-2), laws.lags)
    g = matvec(laws.gains, windows) + laws.offset
    if laws.corrupt_gains is laws.gains and laws.corrupt_offset is laws.offset:
        return g, g
    return g, matvec(laws.corrupt_gains, windows) + laws.corrupt_offsets(states.shape[-2])


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
    """The closed loop of a law on its lag window, and whether it is stable.

    On z_t = (x_{t-L+1}, ..., x_t) the loop under the window rows
    ``gains`` (shape (N, L N)) is z' = F z + (0, ..., 0, input), F the
    companion matrix: identity blocks shift the window up one block, and
    its bottom block row is :func:`loop_rows`. Stable means a spectral
    radius below 1.
    """
    n = len(actuator_gains)
    f = np.eye(gains.shape[1], k=n)
    f[-n:] = loop_rows(dynamics, actuator_gains, gains)
    return f, bool(np.abs(np.linalg.eigvals(f)).max() < 1.0)


def loop_rows(dynamics: np.ndarray, actuator_gains: np.ndarray,
              gains: np.ndarray) -> np.ndarray:
    """The bottom block row of :func:`closed_loop`: x_{t+1}'s mean given z_t, less the offset."""
    rows = actuator_gains[:, None] * gains
    rows[:, -len(actuator_gains):] += dynamics
    return rows
