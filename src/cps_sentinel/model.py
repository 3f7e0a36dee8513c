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
    DIM_CAP,
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    NotPositiveDefinite,
    NotSymmetric,
    make_spd,
    reachable,
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
        for name in ("dynamics", "actuator_gains", "process_noise", "excitation"):
            object.__setattr__(self, name, _ro(np.array(getattr(self, name), dtype=float)))

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


def check_arrays(arrays) -> list[Violation]:
    """One violation per (path, array, shape) whose array has another shape or a
    non-finite entry."""
    issues = []
    for path, a, shape in arrays:
        if np.shape(a) != shape:
            issues.append(Violation(path, "DimMismatch",
                                    f"expected shape {shape}, got {np.shape(a)}"))
        elif not np.isfinite(a).all():
            issues.append(Violation(path, "NonFinite", "entries must be finite"))
    return issues


def validate_model(m: CpsModel) -> list[Violation]:
    """Collect every defect of a model; an empty list means valid."""
    issues: list[Violation] = []
    n = m.n_agents
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        return [Violation("model.n_agents", "BadAgentCount",
                          f"n_agents must be a positive integer, got {n!r}")]
    if n > DIM_CAP:
        issues.append(Violation("model.n_agents", "DimCap",
                                f"n_agents {n} exceeds the fixed limit {DIM_CAP}"))

    issues += check_arrays([("model.dynamics", m.dynamics, (n, n)),
                            ("model.actuator_gains", m.actuator_gains, (n,))])

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

    excitation = check_arrays([("model.excitation", m.excitation, (n,))])
    if not excitation and (m.excitation < 0).any():
        excitation.append(Violation("model.excitation", "NegativeEntry",
                                    "excitation variances must be nonnegative"))
    issues += excitation

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
    reached = reachable(m.dynamics.T)[sources].any(axis=0)
    unreachable = frozenset(int(i) + 1 for i in np.nonzero(~reached)[0])
    return (len(unreachable) == 0, unreachable)
