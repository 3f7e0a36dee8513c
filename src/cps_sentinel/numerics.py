"""Dense symmetric linear algebra and Gaussian sampling primitives.

Everything here operates on small dense matrices (dimension capped by
configuration, 32 by default). Positive definiteness is established once
via Cholesky and the factor is cached, so determinants, quadratic forms,
and draws never refactorize. All density work happens in the log domain;
nothing regularizes or repairs a bad input silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular

DEFAULT_DIM_CAP = 32
LOG_TWO_PI = math.log(2.0 * math.pi)

_MASK64 = (1 << 64) - 1


class NotSymmetric(ValueError):
    """Matrix is asymmetric beyond the relative tolerance."""


class NotPositiveDefinite(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""


class ConvergenceFailure(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_square_matrix(entries, dim_cap: int | None = DEFAULT_DIM_CAP) -> np.ndarray:
    """Validate and return a finite square float matrix.

    Parameters
    ----------
    entries : array_like
        Square matrix entries, row-major.
    dim_cap : int or None
        Maximum admissible dimension; ``None`` disables the cap
        (used internally for stacked joint covariances).
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if dim_cap is not None and m.shape[0] > dim_cap:
        raise ValueError(f"dimension {m.shape[0]} exceeds the configured cap {dim_cap}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix with its cached lower Cholesky factor.

    Construct through :func:`make_spd`; instances are immutable and safe to
    share across threads.
    """

    mat: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def make_spd(entries, *, sym_rtol: float = 1e-12,
             dim_cap: int | None = DEFAULT_DIM_CAP) -> SpdMatrix:
    """Validate symmetry and positive definiteness, caching the Cholesky factor.

    Raises
    ------
    NotSymmetric
        If ``max|M - M^T|`` exceeds ``sym_rtol * max|M|``.
    NotPositiveDefinite
        If the Cholesky factorization fails (nonpositive pivot).
    """
    m = as_square_matrix(entries, dim_cap)
    gap = float(np.abs(m - m.T).max())
    scale = float(np.abs(m).max())
    if gap > sym_rtol * scale:
        raise NotSymmetric(
            f"asymmetry {gap:.3e} exceeds {sym_rtol:.1e} relative tolerance")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return SpdMatrix(_frozen(m), _frozen(chol))


@dataclass(frozen=True)
class DiagonalPsd:
    """Diagonal positive semidefinite matrix, stored as its diagonal."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.array(self.diag, dtype=float).reshape(-1)
        if d.size == 0:
            raise ValueError("diagonal must be nonempty")
        if not np.isfinite(d).all():
            raise ValueError("diagonal entries must be finite")
        if (d < 0).any():
            raise ValueError("diagonal entries must be nonnegative")
        object.__setattr__(self, "diag", _frozen(d))

    @property
    def dim(self) -> int:
        return self.diag.size


Covariance = Union[SpdMatrix, DiagonalPsd]


@dataclass(frozen=True)
class GaussianLaw:
    """Multivariate Gaussian with SPD or diagonal-PSD covariance."""

    mean: np.ndarray
    cov: Covariance

    def __post_init__(self):
        mu = np.array(self.mean, dtype=float).reshape(-1)
        if mu.size != self.cov.dim:
            raise ValueError(
                f"mean length {mu.size} does not match covariance dim {self.cov.dim}")
        if not np.isfinite(mu).all():
            raise ValueError("mean entries must be finite")
        object.__setattr__(self, "mean", _frozen(mu))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class Dirac:
    """Point mass, used as a degenerate initial law."""

    point: np.ndarray

    def __post_init__(self):
        p = np.array(self.point, dtype=float).reshape(-1)
        if p.size == 0 or not np.isfinite(p).all():
            raise ValueError("point must be nonempty and finite")
        object.__setattr__(self, "point", _frozen(p))

    @property
    def dim(self) -> int:
        return self.point.size


def _positive_diag(v: DiagonalPsd) -> np.ndarray:
    if (v.diag <= 0).any():
        raise NotPositiveDefinite("diagonal covariance has a zero entry")
    return v.diag


def logdet(v: Covariance) -> float:
    """log determinant, computed from the Cholesky diagonal (or the diagonal itself)."""
    if isinstance(v, DiagonalPsd):
        return float(np.sum(np.log(_positive_diag(v))))
    return 2.0 * float(np.sum(np.log(np.diag(v.chol))))


def eig_extremes(v: SpdMatrix) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a validated SPD matrix.

    Backed by the symmetric eigensolver; its internal iteration cap maps to
    :class:`ConvergenceFailure`. Suitable for the dense desk-scale sizes
    this package targets.
    """
    try:
        w = np.linalg.eigvalsh(v.mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    lo, hi = float(w[0]), float(w[-1])
    if lo <= 0.0:
        raise NotPositiveDefinite(
            f"eigenvalue {lo:.3e} nonpositive for a matrix that passed Cholesky")
    return lo, hi


def quad_form_inv(v: Covariance, z) -> float:
    """z^T V^{-1} z via two triangular solves against the cached factor."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != v.dim:
        raise ValueError(f"vector length {z.size} does not match dim {v.dim}")
    if isinstance(v, DiagonalPsd):
        return float(np.sum(z * z / _positive_diag(v)))
    y = solve_triangular(v.chol, z, lower=True, check_finite=False)
    return float(y @ y)


def quad_forms_inv(v: Covariance, rows) -> np.ndarray:
    """z^T V^{-1} z for every vector z along the last axis of ``rows``.

    Forward substitution against the cached factor, one column at a time,
    as elementwise arithmetic over all leading axes at once (no BLAS call):
    every vector gets the same operations alone or in any stack.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1:] != (v.dim,):
        raise ValueError(f"last axis of shape {rows.shape} does not match dim {v.dim}")
    y = np.moveaxis(rows, -1, 0).copy()
    q = np.zeros(rows.shape[:-1])
    if isinstance(v, DiagonalPsd):
        for i, d in enumerate(_positive_diag(v)):
            q += y[i] * y[i] / d
        return q
    chol = v.chol
    for j in range(v.dim):
        y[j] /= chol[j, j]
        y[j + 1:] -= np.multiply.outer(chol[j + 1:, j], y[j])
        q += y[j] * y[j]
    return q


def log_gaussian_density(x, law: GaussianLaw) -> float:
    """Log density of ``x`` under ``law``.

    Evaluates ``-(N/2) log(2 pi) - (1/2) logdet(cov) - (1/2) q`` where ``q``
    is the inverse-covariance quadratic form of the residual.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != law.dim:
        raise ValueError(f"point length {x.size} does not match law dim {law.dim}")
    resid = x - law.mean
    return (-0.5 * law.dim * LOG_TWO_PI
            - 0.5 * logdet(law.cov)
            - 0.5 * quad_form_inv(law.cov, resid))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ v`` for every vector ``v`` along the last axis of ``x``.

    Each vector goes through the same matrix-vector kernel as a lone
    ``a @ v``, so a row's result never depends on how many rows are
    stacked beside it (a single ``x @ a.T`` product does not promise that).
    """
    return (a @ x[..., None])[..., 0]


def normals_to_gaussian(law: GaussianLaw, z: np.ndarray) -> np.ndarray:
    """Turn standard normals into draws from ``law``, in place.

    ``z`` holds one vector of ``law.dim`` normals along its last axis, with
    any leading axes; it is overwritten and returned. Each vector gets
    exactly the arithmetic of :func:`sample_gaussian`.
    """
    if isinstance(law.cov, DiagonalPsd):
        z *= np.sqrt(law.cov.diag)
    else:
        z[...] = matvec(law.cov.chol, z)
    z += law.mean
    return z


def sample_gaussian(rng: np.random.Generator, law: GaussianLaw) -> np.ndarray:
    """One draw from ``law`` using the caller's stream.

    A fixed number of standard normals (the dimension) is consumed per call
    regardless of degenerate covariance entries, so stream positions stay
    aligned across model variants. Bit-reproducible given the stream state.
    """
    return normals_to_gaussian(law, rng.standard_normal(law.dim))


def kahan_cumsum(values) -> np.ndarray:
    """Compensated (Kahan) prefix sums along the last axis.

    Leading axes are independent series summed in lockstep, so one call
    covers a whole batch; each series gets the same operations as alone.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    total = np.zeros(values.shape[:-1])
    comp = np.zeros(values.shape[:-1])
    for i in range(values.shape[-1]):
        y = values[..., i] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[..., i] = total
    return out


def split_seed(base: int, index: int) -> int:
    """Derive the stream seed for run ``index`` from ``base``.

    Runs of a batch use ``splitmix64(base + index)`` so that neighboring
    indices land in unrelated regions of the seed space.
    """
    z = (int(base) + int(index)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
