"""Likelihood-ratio detection statistics along simulated paths.

The central object is the per-step log ratio of the honest one-step
predictive density to the corrupt one, evaluated along a single observed
path. Its prefix sums give the log likelihood ratio of the whole path
prefix; under an attack whose conditional law differs from the honest one
this drifts to minus infinity, which is what the finite-horizon classifier
thresholds. Alongside it we track the eigenvalue-weighted residual
energies whose ratio sorts detectable from undetectable regimes, and the
running product of conditional-covariance determinant ratios.

:func:`detect_ensemble` computes every statistic as arrays for a whole
batch of paths, one row per seed; :func:`rn_series` is the same function
on a batch of one. All cumulative series use compensated summation, run
across the seed axis in one pass, so that horizons up to 1e5 steps of
small increments stay exact to roundoff.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import AttackConfig, CpsModel
from .numerics import (
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    LOG_TWO_PI,
    eig_extremes,
    kahan_cumsum,
    log_gaussian_density,
    logdet,
    make_spd,
    matvec,
    quad_forms_inv,
)
from .policies import (
    Affine,
    CorruptPolicy,
    DoS,
    Fdi,
    HonestPolicy,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    control_means,
)
from .simulator import Trajectory, conditional_covariances, simulate


class UndefinedRatio(ValueError):
    """The residual-energy ratio was queried where its denominator is zero."""


class Decision(enum.Enum):
    HONEST = "honest"
    ATTACK = "attack"


@dataclass(frozen=True)
class DetectionSeries:
    """Per-step and cumulative detection statistics, all arrays over steps.

    The last axis of every field is the step: entry k belongs to the
    prediction of state x_{k+1}. A batch carries a leading seed axis, and
    :meth:`row` takes one seed's series out of it. ``cum_log_l[k]`` is
    the log likelihood ratio after k+1 steps; ``r_n`` is the ratio of
    cumulative weighted residual energies, carried as NaN wherever its
    denominator is zero (flagged, never infinite). The scalar accessors
    apply to a single seed's series.
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

    @property
    def horizon(self) -> int:
        return self.cum_log_l.shape[-1]

    def row(self, i: int) -> "DetectionSeries":
        """The series of seed ``i`` of a batch."""
        return DetectionSeries(*(getattr(self, f.name)[i] for f in fields(self)))

    def log_l_at(self, n: int) -> float:
        """Cumulative log likelihood ratio after n steps (n >= 1)."""
        if not 1 <= n <= self.horizon:
            raise ValueError(f"n must lie in [1, {self.horizon}], got {n}")
        return float(self.cum_log_l[n - 1])

    def rn_at(self, n: int) -> float:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"n must lie in [1, {self.horizon}], got {n}")
        if not self.r_defined[n - 1]:
            raise UndefinedRatio(f"residual-energy denominator is zero at n={n}")
        return float(self.r_n[n - 1])


# Seeds per slice of detect_ensemble, chosen so that each (seeds, steps,
# agents) temporary stays near this many doubles.
_SLICE_DOUBLES = 1 << 14


def detect_ensemble(states: np.ndarray, m: CpsModel, honest: HonestPolicy,
                    corrupt: CorruptPolicy | None,
                    cfg: AttackConfig | None) -> DetectionSeries:
    """Detection series of every path in ``states`` (shape (S, n+1, N)).

    Per step t (predicting state x_t from the history up to t-1):

    * step log ratio = log N(x_t; honest law) - log N(x_t; corrupt law),
    * s_t = ||x_t - honest mean||^2 / lambda_min(honest covariance),
    * s_breve_t = ||x_t - corrupt mean||^2 / lambda_max(corrupt covariance),
    * half logdet ratio = (logdet corrupt cov - logdet honest cov) / 2.

    Both predictors are evaluated along the same given path. The
    predictor means, residuals and quadratic forms (an elementwise forward
    substitution, no threaded BLAS call) are computed for a slice of seeds
    at a time with arithmetic that treats every row alike, and the prefix
    sums of all four per-step series of the whole batch in one compensated
    pass. Every seed's result is therefore the same alone or in any batch.
    """
    states = np.asarray(states, dtype=float)
    n_seeds, n = states.shape[0], states.shape[1] - 1
    if n < 1:
        raise ValueError("trajectory must contain at least one step")
    h_cov, c_cov = conditional_covariances(m, corrupt, cfg)
    ld_h = logdet(h_cov)
    ld_c = logdet(c_cov)
    lam_min_h, _ = eig_extremes(h_cov)
    _, lam_max_c = eig_extremes(c_cov)
    attack = None if corrupt is None or cfg is None else (cfg, corrupt)
    const = -0.5 * m.n_agents * LOG_TWO_PI

    # steps[0..3]: step log ratio, s, s_breve, half logdet ratio
    steps = np.empty((4, n_seeds, n))
    dens = np.empty((2, n_seeds, n))
    steps[3] = 0.5 * (ld_c - ld_h)
    width = max(1, _SLICE_DOUBLES // (n * m.n_agents))
    for lo in range(0, n_seeds, width):
        x = states[lo:lo + width]
        g, c = control_means(honest, attack, x[:, :-1])
        drive = matvec(m.dynamics, x[:, :-1])
        z_h = x[:, 1:] - (drive + m.actuator_gains * g)
        z_c = x[:, 1:] - (drive + m.actuator_gains * c)
        dens[0, lo:lo + width] = const - 0.5 * ld_h - 0.5 * quad_forms_inv(h_cov, z_h)
        dens[1, lo:lo + width] = const - 0.5 * ld_c - 0.5 * quad_forms_inv(c_cov, z_c)
        steps[1, lo:lo + width] = np.sum(z_h * z_h, axis=-1) / lam_min_h
        steps[2, lo:lo + width] = np.sum(z_c * z_c, axis=-1) / lam_max_c
    np.subtract(dens[0], dens[1], out=steps[0])

    cum_log_l, cum_s, cum_s_breve, cum_logdet = kahan_cumsum(steps)
    r_defined = cum_s_breve > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_n = np.where(r_defined, cum_s / np.where(r_defined, cum_s_breve, 1.0), np.nan)
    return DetectionSeries(step_log_ratio=steps[0], honest_logdens=dens[0],
                           corrupt_logdens=dens[1], s=steps[1], s_breve=steps[2],
                           half_logdet_ratio=steps[3], cum_log_l=cum_log_l, cum_s=cum_s,
                           cum_s_breve=cum_s_breve, cum_logdet_ratio=cum_logdet,
                           r_n=r_n, r_defined=r_defined)


def rn_series(traj: Trajectory, m: CpsModel, honest: HonestPolicy,
              corrupt: CorruptPolicy | None, cfg: AttackConfig | None) -> DetectionSeries:
    """Detection series along one observed path: :func:`detect_ensemble` of one."""
    return detect_ensemble(traj.states[None], m, honest, corrupt, cfg).row(0)


def classify(series: DetectionSeries, n: int, log_threshold: float) -> Decision:
    """Threshold the cumulative log likelihood ratio after n steps.

    Attack iff the statistic is strictly below the threshold; exact
    equality stays honest (conservative tie-break).
    """
    return Decision.ATTACK if series.log_l_at(n) < log_threshold else Decision.HONEST


def det_ratio_bound(series: DetectionSeries, n: int) -> float:
    """Running product of sqrt determinant ratios (corrupt over honest)."""
    if not 1 <= n <= series.horizon:
        raise ValueError(f"n must lie in [1, {series.horizon}], got {n}")
    return float(math.exp(series.cum_logdet_ratio[n - 1]))


def joint_log_density_oracle(traj: Trajectory, m: CpsModel,
                             honest: HonestPolicy) -> float:
    """Joint log density of the whole path under the honest closed loop.

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
    n = traj.horizon
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

    joint_cov = lin @ noise_cov @ lin.T
    if gaussian_init:
        law = GaussianLaw(mean.ravel(), make_spd(joint_cov, dim_cap=None))
        return log_gaussian_density(traj.states.ravel(), law)
    law = GaussianLaw(mean[1:].ravel(),
                      make_spd(joint_cov[n_agents:, n_agents:], dim_cap=None))
    return log_gaussian_density(traj.states[1:].ravel(), law)


def _dense_cov(cov) -> np.ndarray:
    return np.diag(cov.diag) if isinstance(cov, DiagonalPsd) else cov.mat


def _stationary_linear_gain(policy: HonestPolicy, n: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(policy, Zero):
        return np.zeros((n, n)), np.zeros(n)
    if isinstance(policy, LinearFeedback):
        if not policy.stationary:
            raise ValueError("the joint-density oracle needs a stationary gain")
        return np.asarray(policy.gain, dtype=float), np.zeros(n)
    if isinstance(policy, Affine):
        return np.asarray(policy.gain, dtype=float), np.asarray(policy.offset, dtype=float)
    raise ValueError("the joint-density oracle needs a stationary linear Markov policy")


@dataclass(frozen=True)
class DriftEstimate:
    """Expected per-step log-ratio drift under the corrupt law."""

    value: float
    stderr: float
    method: str


def expected_step_drift(m: CpsModel, honest: HonestPolicy, corrupt: CorruptPolicy,
                        cfg: AttackConfig, *, mc_steps: int = 10_000,
                        seed: int = 0) -> DriftEstimate:
    """Expected per-step drift of the cumulative log likelihood ratio.

    When the corrupt-vs-honest conditional mean gap is history independent
    the drift is minus the Gaussian relative entropy in closed form:
    -1/2 [tr(V^-1 Vb) - N + logdet V - logdet Vb + gap^T V^-1 gap]. Other
    scenarios are estimated by averaging the step log ratio over a long
    simulated corrupt path, with the i.i.d. standard error reported.
    """
    h_cov, c_cov = conditional_covariances(m, corrupt, cfg)
    gap = _constant_mean_gap(m, honest, corrupt, cfg)
    if gap is not None:
        solve = np.linalg.solve(h_cov.mat, c_cov.mat)
        quad = float(gap @ np.linalg.solve(h_cov.mat, gap))
        value = -0.5 * (float(np.trace(solve)) - m.n_agents
                        + logdet(h_cov) - logdet(c_cov) + quad)
        return DriftEstimate(value=value, stderr=0.0, method="closed_form")
    traj = simulate(m, honest, (cfg, corrupt), mc_steps, seed)
    series = rn_series(traj, m, honest, corrupt, cfg)
    ratios = series.step_log_ratio
    value = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
    return DriftEstimate(value=value, stderr=stderr, method="monte_carlo")


def _constant_mean_gap(m: CpsModel, honest: HonestPolicy, corrupt: CorruptPolicy,
                       cfg: AttackConfig) -> np.ndarray | None:
    """Corrupt-minus-honest conditional mean gap, if history independent.

    Returns the full-length gap vector (nonzero only on attacked channels)
    or None when the gap depends on the state, in which case the caller
    falls back to Monte Carlo.
    """
    n = m.n_agents
    mal = cfg.malicious_indices
    gap = np.zeros(n)
    if isinstance(corrupt, Mimic):
        return gap
    if isinstance(corrupt, Fdi):
        if corrupt.offsets.ndim != 1:
            return None
        gap[mal] = m.actuator_gains[mal] * corrupt.offsets
        return gap

    honest_const = _constant_components(honest, mal)
    if isinstance(corrupt, DoS):
        if honest_const is None:
            return None
        gap[mal] = m.actuator_gains[mal] * (0.0 - honest_const)
        return gap
    if isinstance(corrupt, Replacement):
        if corrupt.mode == "constant" and honest_const is not None:
            gap[mal] = m.actuator_gains[mal] * (corrupt.values - honest_const)
            return gap
        if corrupt.mode == "sign_flip" and honest_const is not None:
            gap[mal] = m.actuator_gains[mal] * (-2.0 * honest_const)
            return gap
        if corrupt.mode == "scaled_state" and _gain_matches(honest, mal, corrupt.values):
            return gap
    return None


def _constant_components(policy: HonestPolicy, mal: np.ndarray) -> np.ndarray | None:
    """Honest mean on the attacked channels when it ignores the state."""
    if isinstance(policy, Zero):
        return np.zeros(len(mal))
    if isinstance(policy, Affine) and not np.asarray(policy.gain)[mal].any():
        return np.asarray(policy.offset, dtype=float)[mal]
    if isinstance(policy, LinearFeedback) and policy.stationary \
            and not np.asarray(policy.gain)[mal].any():
        return np.zeros(len(mal))
    return None


def _gain_matches(policy: HonestPolicy, mal: np.ndarray, scales: np.ndarray) -> bool:
    """True when scaled-state replacement reproduces the honest feedback rows."""
    if not (isinstance(policy, LinearFeedback) and policy.stationary):
        return False
    gain = np.asarray(policy.gain, dtype=float)
    for k, i in enumerate(mal):
        row = gain[i].copy()
        if row[i] != scales[k]:
            return False
        row[i] = 0.0
        if row.any():
            return False
    return True


def write_series_csv(series: DetectionSeries, fp) -> None:
    """Write columns t, logL, r_n, s_sum, sbreve_sum, logdet_ratio_sum.

    Undefined ratio entries are left empty rather than written as inf/nan.
    """
    cols = [map(str, range(1, series.horizon + 1)),
            map(repr, series.cum_log_l.tolist()),
            [repr(r) if ok else "" for r, ok in zip(series.r_n.tolist(),
                                                    series.r_defined.tolist())],
            map(repr, series.cum_s.tolist()),
            map(repr, series.cum_s_breve.tolist()),
            map(repr, series.cum_logdet_ratio.tolist())]
    fp.write("t,logL,r_n,s_sum,sbreve_sum,logdet_ratio_sum\n")
    fp.write("\n".join(map(",".join, zip(*cols))) + "\n")


def series_csv_text(series: DetectionSeries) -> str:
    buf = io.StringIO()
    write_series_csv(series, buf)
    return buf.getvalue()


def series_summary(series: DetectionSeries, n: int, log_threshold: float,
                   drift: DriftEstimate | None = None) -> dict:
    """Summary mapping for JSON export: n, logL, r_n, decision, threshold, drift."""
    return {
        "n": n,
        "logL": series.log_l_at(n),
        "r_n": float(series.r_n[n - 1]) if series.r_defined[n - 1] else None,
        "decision": classify(series, n, log_threshold).value,
        "threshold": log_threshold,
        "drift_estimate": None if drift is None else drift.value,
    }

