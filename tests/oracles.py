"""Test-only oracles: the detector's statistics by the per-law route.

:func:`detect_per_law` computes every :class:`DetectionSeries` field the
way the package once did: each law's control means from
:func:`cps_sentinel.policies.control_means`, the drift ``A x``, the two
residuals, and the quadratic forms by forward substitution against each
covariance's Cholesky factor (:func:`quad_forms_inv`). The package builds
the same residuals from one stacked linear map of the lag window, so the
two routes share the law lift and the covariances but no residual
arithmetic.
"""

from __future__ import annotations

import numpy as np

from cps_sentinel.detection import DetectionSeries
from cps_sentinel.numerics import (
    LOG_TWO_PI,
    DiagonalPsd,
    _positive_diag,
    eig_extremes,
    kahan_cumsum,
    logdet,
)
from cps_sentinel.policies import control_means, lift
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


def detect_per_law(states, m, honest, corrupt, cfg) -> DetectionSeries:
    """Every detection field of the paths ``states`` (shape (S, n+1, N)), law by law."""
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
    cum_log_l, cum_s, cum_s_breve, cum_logdet = kahan_cumsum(steps)
    r_defined = cum_s_breve > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_n = np.where(r_defined, cum_s / cum_s_breve, np.nan)
    return DetectionSeries(step_log_ratio=steps[0], honest_logdens=honest_logdens,
                           corrupt_logdens=corrupt_logdens, s=steps[1], s_breve=steps[2],
                           half_logdet_ratio=steps[3], cum_log_l=cum_log_l, cum_s=cum_s,
                           cum_s_breve=cum_s_breve, cum_logdet_ratio=cum_logdet,
                           r_n=r_n, r_defined=r_defined)
