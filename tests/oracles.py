"""Test-only oracles: reference routes the package's statistics are checked against.

:func:`detect_per_law` computes every per-step detection quantity and
every cumulative :class:`DetectionSeries` field the way the package once
did: each law's control means from
:func:`cps_sentinel.policies.control_means`, the drift ``A x``, the two
residuals, and the quadratic forms by forward substitution against each
covariance's Cholesky factor (:func:`quad_forms_inv`). The package builds
the same residuals from one stacked linear map of the lag window and
keeps only their prefix sums, so the two routes share the law lift and
the covariances but no residual arithmetic.

:func:`log_gaussian_density` (with :func:`quad_form_inv`) evaluates one
Gaussian density by triangular solves, :func:`joint_log_density_oracle`
a whole path of a stationary linear law as one big Gaussian,
:func:`joint_log_ratio_oracle` a path's log likelihood ratio as the
difference of two such Gaussians, and :func:`det_ratio_bound` the
running determinant-ratio product of a series. :func:`random_attack`
draws an attack of one of the kinds in ``ATTACK_BUILDERS``. :func:`step_drive` turns one
seed's drawn normals into its excitations, controls and drive one entry at
a time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import solve_triangular

from cps_sentinel.detection import DetectionSeries
from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel.numerics import (
    LOG_TWO_PI,
    Covariance,
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    SpdMatrix,
    _positive_diag,
    eig_extremes,
    logdet,
    matvec,
)
from cps_sentinel.policies import (
    Affine,
    DoS,
    Fdi,
    HonestPolicy,
    LinearFeedback,
    LinearLaws,
    Mimic,
    Replacement,
    Zero,
    admit_excitation,
    control_means,
    lift,
)
from cps_sentinel.simulator import conditional_covariances


def quad_forms_inv(v, rows) -> np.ndarray:
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


@dataclasses.dataclass(frozen=True)
class PerLawSeries:
    """Per-step and cumulative detection quantities, arrays (seeds, steps).

    Entry k of a per-step field belongs to the prediction of x_{k+1}; the
    cumulative fields are named and defined as in :class:`DetectionSeries`.
    """

    step_log_ratio: np.ndarray
    honest_logdens: np.ndarray
    corrupt_logdens: np.ndarray
    s: np.ndarray
    s_breve: np.ndarray
    half_logdet_ratio: np.ndarray
    cum_log_l: np.ndarray
    cum_s: np.ndarray
    cum_s_breve: np.ndarray
    cum_logdet_ratio: np.ndarray
    r_n: np.ndarray
    r_defined: np.ndarray


def detect_per_law(states, m, honest, corrupt, cfg) -> PerLawSeries:
    """Every detection quantity of the paths ``states`` (shape (S, n+1, N)), law by law."""
    states = np.asarray(states, dtype=float)
    laws = lift(honest, None if corrupt is None else (cfg, corrupt), m.n_agents)
    h_cov, c_cov = conditional_covariances(m, laws)
    x = states[:, :-1]
    g, c = control_means(laws, x)
    drive = np.einsum("ij,stj->sti", m.dynamics, x)
    z_h = states[:, 1:] - (drive + m.actuator_gains * g)
    z_c = states[:, 1:] - (drive + m.actuator_gains * c)
    const = -0.5 * m.n_agents * LOG_TWO_PI
    honest_logdens = const - 0.5 * logdet(h_cov) - 0.5 * quad_forms_inv(h_cov, z_h)
    corrupt_logdens = const - 0.5 * logdet(c_cov) - 0.5 * quad_forms_inv(c_cov, z_c)
    steps = np.stack([honest_logdens - corrupt_logdens,
                      np.sum(z_h * z_h, axis=-1) / eig_extremes(h_cov)[0],
                      np.sum(z_c * z_c, axis=-1) / eig_extremes(c_cov)[1],
                      np.full(z_h.shape[:-1], 0.5 * (logdet(c_cov) - logdet(h_cov)))])
    cum_log_l, cum_s, cum_s_breve, cum_logdet = step_loop_sum2(steps)
    r_defined = cum_s_breve > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_n = np.where(r_defined, cum_s / cum_s_breve, np.nan)
    return PerLawSeries(step_log_ratio=steps[0], honest_logdens=honest_logdens,
                        corrupt_logdens=corrupt_logdens, s=steps[1], s_breve=steps[2],
                        half_logdet_ratio=steps[3], cum_log_l=cum_log_l, cum_s=cum_s,
                        cum_s_breve=cum_s_breve, cum_logdet_ratio=cum_logdet,
                        r_n=r_n, r_defined=r_defined)


def step_loop_sum2(values) -> np.ndarray:
    """Sum2 prefix sums along the last axis, one step at a time.

    Ogita, Rump and Oishi's Sum2 as written in their paper: the running
    sum p, Knuth's TwoSum error q of each step, and p plus the running sum
    of the errors.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    p = values[..., 0].copy()
    sigma = np.zeros(values.shape[:-1])
    out[..., 0] = p + sigma
    for i in range(1, values.shape[-1]):
        x = values[..., i]
        s = p + x
        d = s - p
        sigma = sigma + ((p - (s - d)) + (x - d))
        p = s
        out[..., i] = p + sigma
    return out


def step_drive(m: CpsModel, laws: LinearLaws, block, means):
    """One seed's excitations, controls and drive, entry by entry.

    ``block`` is the seed's (horizon, 2N + M) standard normals, step by step the
    excitation, the mimic's own excitation and the process noise; ``means``
    holds the corrupt control mean of every step. Each entry is a Python
    float: e = z sqrt(v) + mean for a diagonal law; the admitted excitation
    a is e, or the mimic's own on an attacked channel that loses its own,
    or 0; the control is a plus its mean, and the drive
    d = w + b (a + corrupt offset). Only a dense process noise goes through
    its Cholesky factor with :func:`matvec`, one step at a time, since that
    kernel's sum order is the sampler's contract. Returns the (horizon, N)
    arrays of drawn excitations, controls and drives.
    """
    n = m.n_agents
    k = 0 if laws.own is None else laws.own.dim
    b = m.actuator_gains.tolist()
    mal = laws.mal.tolist()
    laws_by_column = [m.excitation_law] + ([GaussianLaw(np.zeros(k), laws.own)] if k else [])
    scales = [math.sqrt(v) for law in laws_by_column for v in law.cov.diag.tolist()]
    shifts = [v for law in laws_by_column for v in law.mean.tolist()]
    noise = m.noise_law
    dense = not isinstance(noise.cov, DiagonalPsd)
    noise_scales = None if dense else [math.sqrt(v) for v in noise.cov.diag.tolist()]
    noise_shifts = noise.mean.tolist()
    offsets = laws.corrupt_offsets(len(block))
    means = np.asarray(means, dtype=float).tolist()
    excitations, controls, drives = [], [], []
    for t, z in enumerate(np.asarray(block, dtype=float).tolist()):
        e = [z[j] * scales[j] + shifts[j] for j in range(n + k)]
        if dense:
            w = [v + noise_shifts[j]
                 for j, v in enumerate(matvec(noise.cov.chol, np.array(z[n + k:])).tolist())]
        else:
            w = [z[n + k + j] * noise_scales[j] + noise_shifts[j] for j in range(n)]
        a = e[:n]
        if not laws.keep:
            for i, j in enumerate(mal):
                a[j] = e[n + i] if k else 0.0
        offset = (offsets if offsets.ndim == 1 else offsets[t]).tolist()
        excitations.append(e[:n])
        controls.append([a[j] + means[t][j] for j in range(n)])
        drives.append([w[j] + b[j] * (a[j] + offset[j]) for j in range(n)])
    return np.array(excitations), np.array(controls), np.array(drives)


def quad_form_inv(v: Covariance, z) -> float:
    """z^T V^{-1} z via two triangular solves against the cached factor."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != v.dim:
        raise ValueError(f"vector length {z.size} does not match dim {v.dim}")
    if isinstance(v, DiagonalPsd):
        return float(np.sum(z * z / _positive_diag(v)))
    y = solve_triangular(v.chol, z, lower=True, check_finite=False)
    return float(y @ y)


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


def det_ratio_bound(series: DetectionSeries, n: int) -> float:
    """Running product of sqrt determinant ratios (corrupt over honest)."""
    if not 1 <= n <= series.horizon:
        raise ValueError(f"n must lie in [1, {series.horizon}], got {n}")
    return float(math.exp(series.cum_logdet_ratio[n - 1]))


def joint_log_density_oracle(states: np.ndarray, m: CpsModel,
                             honest: HonestPolicy) -> float:
    """Joint log density of the whole path ``states`` (x_0..x_n) under the honest closed loop.

    Independent cross-check of the chain-rule factorization: the closed
    loop x_{t+1} = (A + diag(b) K) x_t + diag(b) e_t + w_t is a linear map
    from the stacked independent noises to the stacked trajectory, so the
    path is one big Gaussian evaluated with a single Cholesky
    factorization. Shares nothing with the per-step predictive route
    beyond the numerics primitives.

    Requires a stationary linear Markov policy (zero, linear, or affine
    feedback). For a point-mass initial law the x_0 block carries no
    density and is excluded.
    """
    gain, offset = _stationary_linear_gain(honest, m.n_agents)
    n = len(states) - 1
    n_agents = m.n_agents
    a = m.dynamics
    b = m.actuator_gains
    f = a + b[:, None] * gain

    init = m.initial_law
    gaussian_init = isinstance(init, GaussianLaw)
    if not gaussian_init and not isinstance(init, Dirac):
        raise TypeError(f"unsupported initial law {init!r}")
    if n == 0 and not gaussian_init:
        raise ValueError("a zero-step path from a point mass carries no density")

    mean = np.empty((n + 1, n_agents))
    mean[0] = init.mean if gaussian_init else init.point
    for t in range(n):
        mean[t + 1] = f @ mean[t] + b * offset

    init_cols = n_agents if gaussian_init else 0
    n_cols = init_cols + 2 * n * n_agents
    lin = np.zeros(((n + 1) * n_agents, n_cols))
    if gaussian_init:
        lin[0:n_agents, 0:n_agents] = np.eye(n_agents)
    for t in range(n):
        rows = slice((t + 1) * n_agents, (t + 2) * n_agents)
        prev = slice(t * n_agents, (t + 1) * n_agents)
        lin[rows] = f @ lin[prev]
        e_cols = slice(init_cols + t * n_agents, init_cols + (t + 1) * n_agents)
        w_cols = slice(init_cols + (n + t) * n_agents, init_cols + (n + t + 1) * n_agents)
        lin[rows, e_cols] += np.diag(b)
        lin[rows, w_cols] += np.eye(n_agents)

    noise_cov = np.zeros((n_cols, n_cols))
    if gaussian_init:
        noise_cov[0:n_agents, 0:n_agents] = _dense_cov(init.cov)
    for t in range(n):
        e = slice(init_cols + t * n_agents, init_cols + (t + 1) * n_agents)
        w = slice(init_cols + (n + t) * n_agents, init_cols + (n + t + 1) * n_agents)
        noise_cov[e, e] = np.diag(m.excitation)
        noise_cov[w, w] = m.process_noise

    # a point-mass x_0 carries no density: its block is dropped
    skip = 0 if gaussian_init else n_agents
    joint_cov = (lin @ noise_cov @ lin.T)[skip:, skip:]
    # the joint covariance may exceed the package's dimension cap, so it is factored here
    law = GaussianLaw(mean.ravel()[skip:], SpdMatrix(joint_cov, np.linalg.cholesky(joint_cov)))
    return log_gaussian_density(np.asarray(states).ravel()[skip:], law)


ATTACK_BUILDERS = {
    "dos": lambda v, m_count: DoS(),
    "fdi": lambda v, m_count: Fdi(v[:m_count]),
    "mimic": lambda v, m_count: Mimic(DiagonalPsd(np.abs(v[:m_count]) + 0.1)),
    "constant": lambda v, m_count: Replacement.constant(v[:m_count]),
    "scaled_state": lambda v, m_count: Replacement.scaled_state(0.8 * v[:m_count]),
    "sign_flip": lambda v, m_count: Replacement.sign_flip(),
}


def random_attack(rng, n_agents: int, kind: str):
    """A random non-empty malicious set of ``n_agents`` agents and an attack of ``kind`` on it.

    The attack's values are drawn from [-1, 1], as the builders expect.
    """
    count = int(rng.integers(1, n_agents + 1))
    agents = sorted(int(a) + 1 for a in rng.choice(n_agents, count, replace=False))
    values = rng.uniform(-1.0, 1.0, n_agents)
    return AttackConfig(tuple(agents)), ATTACK_BUILDERS[kind](values, count)


def joint_log_ratio_oracle(states: np.ndarray, m: CpsModel, honest: HonestPolicy,
                           corrupt, cfg) -> float:
    """Log likelihood ratio of the path ``states`` as the difference of two joint Gaussians.

    Under a stationary linear honest law the corrupt closed loop is again
    one: the affine law of the corrupt gains and offset, on the model whose
    excitation is the one the corrupt actuators admit (none on a channel
    that loses its own, the mimic's own on a mimicked one). Each law's path
    is one big Gaussian (:func:`joint_log_density_oracle`); the initial law
    is in both and cancels.
    """
    laws = lift(honest, (cfg, corrupt), m.n_agents)
    own = None if laws.own is None else laws.own.diag
    m_c = dataclasses.replace(m, excitation=admit_excitation(laws, m.excitation.copy(), own))
    return (joint_log_density_oracle(states, m, honest)
            - joint_log_density_oracle(states, m_c, Affine(laws.corrupt_gains,
                                                         laws.corrupt_offset)))


def _dense_cov(cov) -> np.ndarray:
    return np.diag(cov.diag) if isinstance(cov, DiagonalPsd) else cov.mat


def _stationary_linear_gain(policy: HonestPolicy, n: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(policy, Zero):
        return np.zeros((n, n)), np.zeros(n)
    if isinstance(policy, LinearFeedback):
        return np.asarray(policy.gain, dtype=float), np.zeros(n)
    if isinstance(policy, Affine):
        return np.asarray(policy.gain, dtype=float), np.asarray(policy.offset, dtype=float)
    raise ValueError("the joint-density oracle needs a stationary linear Markov policy")
