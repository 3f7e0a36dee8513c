"""Dense symmetric linear algebra and Gaussian sampling primitives.

Everything here operates on small dense matrices (dimension at most
``DIM_CAP``, 32). Positive definiteness is established once
via Cholesky and the factor is cached, so determinants, quadratic forms,
and draws never refactorize. All density work happens in the log domain;
nothing regularizes or repairs a bad input silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

DIM_CAP = 32
# Entries of a banded operator (:func:`banded`): the simulator's block
# operator and the detector's stacked residual band hold at most 64 x 64,
# far below the size at which OpenBLAS starts threads (see :func:`block_steps`).
BAND_ENTRIES = 64 * 64
# Cells of the largest per-tile array of every batch engine (:func:`tile_steps`).
TILE_CELLS = 1 << 16
LOG_TWO_PI = math.log(2.0 * math.pi)

_MASK64 = (1 << 64) - 1
_SYM_RTOL = 1e-12


class NotSymmetric(ValueError):
    """Matrix is asymmetric beyond the relative tolerance."""


class NotPositiveDefinite(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""


class ConvergenceFailure(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_square_matrix(entries) -> np.ndarray:
    """Validate and return a finite square float matrix of dimension at most 32.

    ``entries`` are the matrix entries, row-major.
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if m.shape[0] > DIM_CAP:
        raise ValueError(f"dimension {m.shape[0]} exceeds the fixed limit {DIM_CAP}")
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


def make_spd(entries) -> SpdMatrix:
    """Validate symmetry and positive definiteness, caching the Cholesky factor.

    Raises
    ------
    NotSymmetric
        If ``max|M - M^T|`` exceeds ``1e-12 * max|M|``.
    NotPositiveDefinite
        If the Cholesky factorization fails (nonpositive pivot).
    """
    m = as_square_matrix(entries)
    gap = float(np.abs(m - m.T).max())
    scale = float(np.abs(m).max())
    if gap > _SYM_RTOL * scale:
        raise NotSymmetric(
            f"asymmetry {gap:.3e} exceeds {_SYM_RTOL:.1e} relative tolerance")
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
        d = np.array(self.diag, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError(f"diagonal must be a nonempty vector, got shape {d.shape}")
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
        mu = np.array(self.mean, dtype=float)
        if mu.shape != (self.cov.dim,):
            raise ValueError(f"mean shape {mu.shape} does not match covariance dim {self.cov.dim}")
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
        p = np.array(self.point, dtype=float)
        if p.ndim != 1 or p.size == 0 or not np.isfinite(p).all():
            raise ValueError(f"point must be a nonempty finite vector, got shape {p.shape}")
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


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ v`` for every vector ``v`` along the last axis of ``x``.

    Each vector goes through the same matrix-vector kernel as a lone
    ``a @ v``, so a row's result never depends on how many rows are
    stacked beside it (a single ``x @ a.T`` product does not promise that).
    Its accumulator starts at +0.0, so it never returns ``-0.0``: a row
    whose products are all zeros, of either sign, sums to +0.0.
    """
    return (a @ x[..., None])[..., 0]


def banded(rows: np.ndarray, shift: int, copies: int) -> np.ndarray:
    """``rows`` placed ``copies`` times down a block diagonal, zero elsewhere.

    Copy j of ``rows`` (shape (R, C)) sits at rows jR..(j+1)R and columns
    j ``shift``..j ``shift`` + C, so the result has shape
    (``copies`` R, C + (``copies`` - 1) ``shift``).
    """
    band = np.zeros((copies * len(rows), rows.shape[1] + (copies - 1) * shift))
    diagonal = as_strided(band, (copies,) + rows.shape,
                          (len(rows) * band.strides[0] + shift * band.strides[1],)
                          + band.strides)
    diagonal[...] = rows
    return band


def block_steps(n_agents: int, rows: int | None = None, lags: int = 0) -> int:
    """Steps per block of a linear engine's banded operator; the one rule of both engines.

    The simulator's stable loop (``rows`` None) advances B = max(1,
    isqrt(BAND_ENTRIES) // N) steps per block: its block Toeplitz T holds
    (B N)^2 entries. The detector's band of ``rows`` stacked residual rows
    per step spans the L + B states of a block (``lags`` = L), so it holds
    B ``rows`` (L + B) N entries; its B is the largest divisor of the
    simulator's that keeps them within ``BAND_ENTRIES``, or 1 (16 or 8 for
    N = 2). Both read N alone, and an unstable loop steps one at a time, so
    one engine's block is a whole number of the other's: the larger is the
    common block.
    """
    top = max(1, math.isqrt(BAND_ENTRIES) // n_agents)
    if rows is None:
        return top
    cells = BAND_ENTRIES // (rows * n_agents)
    return max((b for b in range(1, top + 1) if top % b == 0 and b * (lags + b) <= cells),
               default=1)


def tile_steps(n_seeds: int, columns: int, block: int = 1) -> int:
    """Steps per tile of ``n_seeds`` seeds, the one tile rule of every batch engine.

    The tile's largest array holds ``columns`` cells per seed and step; the
    tile runs as many whole blocks of ``block`` steps as keep that array
    within ``TILE_CELLS`` cells, and at least one.
    """
    return max(1, TILE_CELLS // max(1, n_seeds * columns * block)) * block


def reachable(edges: np.ndarray) -> np.ndarray:
    """``reach[x, y]``: y is reachable from x along nonzero ``edges``, in zero hops too.

    The (n - 1)-th power of I + (edges != 0), whose walk counts stay below
    (n + 1)^(n - 1), under 1e115 at n = 64.
    """
    n = len(edges)
    return np.linalg.matrix_power(np.eye(n) + (np.asarray(edges) != 0), n - 1) > 0.0


def sample_gaussian(rng: np.random.Generator, law: GaussianLaw) -> np.ndarray:
    """One draw from ``law`` using the caller's stream.

    A fixed number of standard normals (the dimension) is consumed per call
    regardless of degenerate covariance entries, so stream positions stay
    aligned across model variants. Bit-reproducible given the stream state.
    """
    z = rng.standard_normal(law.dim)
    if isinstance(law.cov, DiagonalPsd):
        z *= np.sqrt(law.cov.diag)
    else:
        z = matvec(law.cov.chol, z)
    z += law.mean
    return z


def compensated_cumsum(values, carry=None) -> np.ndarray:
    """Compensated (Sum2) prefix sums along the last axis.

    Ogita, Rump and Oishi's Sum2 ("Accurate sum and dot product", 2005)
    with no step loop: the plain prefix sums p, Knuth's TwoSum error q_i of
    each step p_i = p_{i-1} + x_i (exact: p_{i-1} + x_i = p_i + q_i), and
    p plus the prefix sums of the errors. Every prefix lies within
    eps |s| + gamma_{n-1}^2 sum |x| of its exact sum s (eps = 2^-53,
    gamma_k = k eps / (1 - k eps)). Leading axes are independent series
    summed in lockstep, and each gets the same operations as alone.

    A series continues from a carry of two numbers, its last p and its
    last error sum: ``carry``, shape (2,) + the leading axes, is read and
    then overwritten with the new last p and error sum, so consecutive
    pieces of a series give the bits of one call over the whole. A carry
    of zeros starts a series: every finite first value gets the bits it
    gets without a carry (an infinite one gives nan, whose TwoSum error
    is nan).

    The passes run on a time-major copy, one column per series, so that
    every step's operands are contiguous rows; the result is a view with
    time last again. Each column of a prefix sum is a chain of dependent
    adds, so pairs of columns go through as one complex column: a complex
    add is two independent float adds, the bits are the real sums', and
    the two chains advance side by side, about twice as fast. An odd
    number of series gets one zero column to pair with.
    """
    values = np.asarray(values, dtype=float)
    n, lead = values.shape[-1], values.shape[:-1]
    m = math.prod(lead)
    # with a carry, row 0 holds its p (and err's row 0 its error sum)
    c = int(carry is not None)
    x = np.empty((c + n, m + m % 2))
    x[:, m:] = 0.0
    x[c:, :m] = values.reshape(m, n).T
    err = np.empty_like(x)
    err[0] = 0.0
    if c:
        x[0, :m], err[0, :m] = carry[0].reshape(m), carry[1].reshape(m)
    total = np.empty_like(x)
    x.view(complex).cumsum(axis=0, out=total.view(complex))
    a, s, q = total[:-1], total[1:], err[1:]
    # TwoSum(a, x) = (s, q): d = s - a, q = (a - (s - d)) + (x - d), with
    # x - d kept in the copy of x; the last argument of each ufunc is its
    # output array
    np.subtract(s, a, q)
    np.subtract(x[1:], q, x[1:])
    np.subtract(s, q, q)
    np.subtract(a, q, q)
    np.add(q, x[1:], q)
    err.view(complex).cumsum(axis=0, out=err.view(complex))
    if c:
        carry[0], carry[1] = total[-1, :m].reshape(lead), err[-1, :m].reshape(lead)
    total += err
    return total[c:, :m].T.reshape(*lead, n)


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
