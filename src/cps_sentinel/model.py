"""Networked CPS definition, validation, and structural checks.

A model is a network of scalar agents with linear coupling, per-agent
actuator gains, strictly positive definite process noise, and a diagonal
private-excitation covariance whose distribution is public. The honest
influence check decides, purely structurally, whether excitation injected
by honest actuators can reach every agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .numerics import (
    DEFAULT_DIM_CAP,
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    NotPositiveDefinite,
    NotSymmetric,
    make_spd,
)

InitialLaw = Union[GaussianLaw, Dirac]


@dataclass(frozen=True)
class CpsModel:
    """Networked linear system: x' = dynamics @ x + diag(gains) @ u + w.

    Fields are stored as given so that :func:`validate_model` can report
    every defect instead of failing at construction. ``excitation`` is the
    diagonal of the excitation covariance; entries of ``actuator_gains``
    may be zero (an agent without a local controller).
    """

    n_agents: int
    dynamics: np.ndarray
    actuator_gains: np.ndarray
    process_noise: np.ndarray
    excitation: np.ndarray
    initial_law: InitialLaw

    def __post_init__(self):
        object.__setattr__(self, "dynamics", _ro(np.array(self.dynamics, dtype=float)))
        object.__setattr__(self, "actuator_gains",
                           _ro(np.array(self.actuator_gains, dtype=float).reshape(-1)))
        object.__setattr__(self, "process_noise",
                           _ro(np.array(self.process_noise, dtype=float)))
        object.__setattr__(self, "excitation",
                           _ro(np.array(self.excitation, dtype=float).reshape(-1)))

    @cached_property
    def noise_law(self) -> GaussianLaw:
        """Process-noise law; diagonal matrices keep their diagonal form."""
        zero = np.zeros(self.n_agents)
        w = self.process_noise
        if w.ndim == 2 and w.shape == (self.n_agents,) * 2 and _is_diagonal(w):
            return GaussianLaw(zero, DiagonalPsd(np.diag(w).copy()))
        return GaussianLaw(zero, make_spd(w))

    @cached_property
    def excitation_law(self) -> GaussianLaw:
        return GaussianLaw(np.zeros(self.n_agents), DiagonalPsd(self.excitation.copy()))


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_diagonal(m: np.ndarray) -> bool:
    return not np.any(m - np.diag(np.diag(m)))


@dataclass(frozen=True)
class Violation:
    """One validation defect, reported as a value."""

    path: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def validate_model(m: CpsModel) -> list[Violation]:
    """Collect every defect of a model; an empty list means valid."""
    issues: list[Violation] = []
    n = m.n_agents
    if not isinstance(n, int) or n < 1:
        return [Violation("model.n_agents", "BadAgentCount",
                          f"n_agents must be a positive integer, got {n!r}")]
    if n > DEFAULT_DIM_CAP:
        issues.append(Violation("model.n_agents", "DimCap",
                                f"n_agents {n} exceeds the configured cap {DEFAULT_DIM_CAP}"))

    if m.dynamics.shape != (n, n):
        issues.append(Violation("model.dynamics", "DimMismatch",
                                f"expected shape {(n, n)}, got {m.dynamics.shape}"))
    elif not np.isfinite(m.dynamics).all():
        issues.append(Violation("model.dynamics", "NonFinite", "entries must be finite"))

    if m.actuator_gains.shape != (n,):
        issues.append(Violation("model.actuator_gains", "DimMismatch",
                                f"expected length {n}, got {m.actuator_gains.shape}"))
    elif not np.isfinite(m.actuator_gains).all():
        issues.append(Violation("model.actuator_gains", "NonFinite",
                                "entries must be finite"))

    if m.process_noise.shape != (n, n):
        issues.append(Violation("model.process_noise", "DimMismatch",
                                f"expected shape {(n, n)}, got {m.process_noise.shape}"))
    else:
        try:
            make_spd(m.process_noise)
        except NotSymmetric as exc:
            issues.append(Violation("model.process_noise", "NotSymmetric", str(exc)))
        except NotPositiveDefinite as exc:
            issues.append(Violation("model.process_noise", "NotPositiveDefinite", str(exc)))
        except ValueError as exc:
            issues.append(Violation("model.process_noise", "Invalid", str(exc)))

    if m.excitation.shape != (n,):
        issues.append(Violation("model.excitation", "DimMismatch",
                                f"expected length {n}, got {m.excitation.shape}"))
    elif not np.isfinite(m.excitation).all():
        issues.append(Violation("model.excitation", "NonFinite", "entries must be finite"))
    elif (m.excitation < 0).any():
        issues.append(Violation("model.excitation", "NegativeEntry",
                                "excitation variances must be nonnegative"))

    if m.initial_law.dim != n:
        issues.append(Violation("model.initial_law", "DimMismatch",
                                f"initial law dim {m.initial_law.dim}, expected {n}"))
    return issues


@dataclass(frozen=True)
class AttackConfig:
    """The attacked-actuator set, as 1-based agent indices, strictly increasing."""

    malicious_set: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "malicious_set", tuple(int(i) for i in self.malicious_set))

    @property
    def malicious_count(self) -> int:
        return len(self.malicious_set)

    @cached_property
    def malicious_indices(self) -> np.ndarray:
        """0-based index array into state/control vectors (read-only)."""
        return _ro(np.array(self.malicious_set, dtype=int) - 1)


def validate_attack(m: CpsModel, attack: AttackConfig) -> list[Violation]:
    """Check the malicious set against the model.

    The set must be nonempty, strictly increasing within [1, N], name only
    agents with a nonzero actuator gain, and leave at least one actuated
    agent honest (an attacker holding every actuator can hide forever, so
    that case is rejected rather than analyzed).
    """
    issues: list[Violation] = []
    s = attack.malicious_set
    if len(s) == 0:
        return [Violation("attack.malicious_set", "Empty", "malicious set is empty")]
    if any(b >= c for b, c in zip(s, s[1:])):
        issues.append(Violation("attack.malicious_set", "NotIncreasing",
                                f"indices must be strictly increasing, got {s}"))
    if any(i < 1 or i > m.n_agents for i in s):
        issues.append(Violation("attack.malicious_set", "OutOfRange",
                                f"indices must lie in [1, {m.n_agents}], got {s}"))
        return issues
    actuated = {i + 1 for i in range(m.n_agents) if m.actuator_gains[i] != 0.0}
    unactuated = [i for i in s if i not in actuated]
    if unactuated:
        issues.append(Violation("attack.malicious_set", "NoActuator",
                                f"agents {unactuated} have zero actuator gain and "
                                "cannot be hijacked"))
    elif set(s) >= actuated:
        issues.append(Violation("attack.malicious_set", "AllActuatorsMalicious",
                                "at least one actuated agent must stay honest"))
    return issues


def honest_influence_check(m: CpsModel,
                           attack: AttackConfig | None) -> tuple[bool, frozenset[int]]:
    """Decide whether every agent is reachable from an honest actuated agent.

    The influence graph has an edge j -> i whenever dynamics[i, j] is a
    structural (exactly stored) nonzero; sources are honest agents with a
    nonzero gain, and reachability in zero hops counts. Returns the verdict
    and the set of unreachable agents (1-based).
    """
    n = m.n_agents
    malicious = set(attack.malicious_indices.tolist()) if attack is not None else set()
    sources = [i for i in range(n)
               if i not in malicious and m.actuator_gains[i] != 0.0]
    reached = np.zeros(n, dtype=bool)
    stack = list(sources)
    reached[sources] = True
    adj = m.dynamics != 0.0  # adj[i, j]: j influences i
    while stack:
        j = stack.pop()
        for i in np.nonzero(adj[:, j])[0]:
            if not reached[i]:
                reached[i] = True
                stack.append(int(i))
    unreachable = frozenset(int(i) + 1 for i in np.nonzero(~reached)[0])
    return (len(unreachable) == 0, unreachable)


@dataclass(frozen=True)
class PartitionedModel:
    """Model blocks after permuting the malicious agents to the front.

    ``perm[k]`` is the original (0-based) agent index occupying permuted
    position ``k``; the first ``malicious_count`` positions are malicious.
    """

    perm: np.ndarray
    malicious_count: int
    dynamics: np.ndarray
    b_malicious: np.ndarray
    b_honest: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    w1: np.ndarray
    w12: np.ndarray
    w21: np.ndarray
    w2: np.ndarray


def partition(m: CpsModel, attack: AttackConfig) -> PartitionedModel:
    """Permute malicious agents first and slice the stated blocks.

    The permutation keeps index order within each group, so the round trip
    through :func:`reassemble` is exact to the bit.
    """
    mal = attack.malicious_indices
    hon = np.array([i for i in range(m.n_agents) if i not in set(mal.tolist())], dtype=int)
    perm = np.concatenate([mal, hon])
    k = len(mal)
    a_p = m.dynamics[np.ix_(perm, perm)]
    w_p = m.process_noise[np.ix_(perm, perm)]
    gains_p = m.actuator_gains[perm]
    exc_p = m.excitation[perm]
    return PartitionedModel(
        perm=_ro(perm), malicious_count=k, dynamics=_ro(a_p),
        b_malicious=_ro(gains_p[:k].copy()), b_honest=_ro(gains_p[k:].copy()),
        v1=_ro(exc_p[:k].copy()), v2=_ro(exc_p[k:].copy()),
        w1=_ro(w_p[:k, :k].copy()), w12=_ro(w_p[:k, k:].copy()),
        w21=_ro(w_p[k:, :k].copy()), w2=_ro(w_p[k:, k:].copy()),
    )


def reassemble(pm: PartitionedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert the permutation, returning (dynamics, gains, process_noise, excitation)."""
    n = pm.perm.size
    inv = np.empty(n, dtype=int)
    inv[pm.perm] = np.arange(n)
    gains_p = np.concatenate([pm.b_malicious, pm.b_honest])
    exc_p = np.concatenate([pm.v1, pm.v2])
    w_p = np.block([[pm.w1, pm.w12], [pm.w21, pm.w2]])
    return (pm.dynamics[np.ix_(inv, inv)], gains_p[inv],
            w_p[np.ix_(inv, inv)], exc_p[inv])
