"""Likelihood-ratio detection statistics along simulated paths.

The central object is the per-step log ratio of the honest one-step
predictive density to the corrupt one, evaluated along a single observed
path. Its prefix sums give the log likelihood ratio of the whole path
prefix; under an attack whose conditional law differs from the honest one
this drifts to minus infinity, which is what the finite-horizon classifier
thresholds. Alongside it we track the eigenvalue-weighted residual
energies whose ratio sorts detectable from undetectable regimes, and the
running product of conditional-covariance determinant ratios. Only the
prefix sums of these per-step quantities are kept, since every output
reads a cumulative value.

:func:`detect_tile` computes every statistic as arrays for a time tile
of a batch of paths, one row per seed, and continues each seed's sums
from the tile before; :func:`detect_ensemble` runs the engine over whole
paths, tile by tile.
Both laws are linear in the observed states, so both residuals and both
whitened residuals at a step are one stacked linear map of the stretch of
path the step reads, and the maps of B consecutive steps are one banded
operator, applied in one matrix-vector product per block of B steps.
Everything the tiles share (the stacked maps, de-duplicated over the
whole horizon, and the laws' constants) is one :class:`DetectionPlan` per
batch. All cumulative series use Sum2 compensated summation
(:func:`cps_sentinel.numerics.compensated_cumsum`), run across the seed
axis with no step loop and carried from tile to tile, so that horizons up
to 1e5 steps of small increments stay exact to roundoff.

:func:`series_csv_tile` writes the lines of a tile of a batch's detection
CSVs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import AttackConfig, CpsModel
from .numerics import (
    LOG_TWO_PI,
    banded,
    block_steps,
    compensated_cumsum,
    eig_extremes,
    logdet,
    matvec,
    tile_steps,
)
from .policies import (
    CorruptPolicy,
    HonestPolicy,
    LinearLaws,
    closed_loop,
    lift,
    loop_rows,
)
from .simulator import NonFiniteState, conditional_covariances


class Decision(enum.Enum):
    HONEST = "honest"
    ATTACK = "attack"


class NonFiniteLogRatio(NonFiniteState):
    """A seed's log likelihood ratio overflowed although its states are finite."""

    what = "log likelihood ratio is not finite from step"


@dataclass(frozen=True)
class DetectionSeries:
    """Cumulative detection statistics, all arrays over steps.

    The last axis of every field is the step: entry k sums the predictions
    of states x_1..x_{k+1}. A batch carries a leading seed axis, and
    :meth:`row` takes one seed's series out of it. ``cum_log_l[k]`` is
    the log likelihood ratio after k+1 steps; ``r_n`` is the ratio of
    cumulative weighted residual energies, carried as NaN wherever its
    denominator is zero (flagged, never infinite). In a batch from
    :func:`detect_ensemble` the log-determinant sums are one read-only row
    that every seed shares.
    """

    cum_log_l: np.ndarray
    cum_s: np.ndarray
    cum_s_breve: np.ndarray
    cum_logdet_ratio: np.ndarray
    r_n: np.ndarray
    r_defined: np.ndarray

    @property
    def horizon(self) -> int:
        return self.cum_log_l.shape[-1]

    def row(self, i) -> "DetectionSeries":
        """The series of seed ``i`` of a batch, or the batch of the seeds a mask picks."""
        return DetectionSeries(*(getattr(self, f.name)[i] for f in fields(self)))


@dataclass(frozen=True)
class DetectionPlan:
    """What every tile of a batch's detection shares (see :func:`detection_plan`).

    ``band`` (B K N, (L + B) N) holds the ``columns`` = K N stacked
    residual rows of a step (:func:`_residual_operator`) B times down its
    block diagonal, each copy N columns right of the one above: the
    windows of steps t..t+B-1 are overlapping stretches of the L + B states
    from x_{t-L+1} to x_{t+B}. B = ``block`` is the one of
    :func:`cps_sentinel.numerics.block_steps`. ``shift`` is their shift
    (one row, one per step of the horizon, or None) and ``where`` the block
    of each of the four residuals. ``honest_const`` and
    ``corrupt_const`` are each law's log density less half its quadratic
    form.
    """

    band: np.ndarray
    block: int
    columns: int
    shift: np.ndarray | None
    where: list
    lags: int
    n_agents: int
    lam_min_h: float
    lam_max_c: float
    honest_const: float
    corrupt_const: float
    step_logdet: float

    def fresh_carry(self, n_seeds: int) -> np.ndarray:
        """The carry of :func:`detect_tile` before the first tile of ``n_seeds`` paths."""
        return np.zeros((2, 3 * n_seeds + 1))


def detection_plan(m: CpsModel, honest: HonestPolicy, corrupt: CorruptPolicy | None,
                   cfg: AttackConfig | None, horizon: int) -> DetectionPlan:
    """The :class:`DetectionPlan` of ``horizon`` steps, computed once per batch.

    The stacked residual blocks are de-duplicated over the whole horizon,
    so a tile's bits never depend on where the tile falls.
    """
    n_agents = m.n_agents
    laws = lift(honest, None if corrupt is None or cfg is None else (cfg, corrupt), n_agents)
    h_cov, c_cov = conditional_covariances(m, laws)
    ld_h, ld_c = logdet(h_cov), logdet(c_cov)
    const = -0.5 * n_agents * LOG_TWO_PI
    rows, shift, where = _residual_operator(m, laws, (h_cov, c_cov), horizon)
    block = block_steps(n_agents, len(rows), laws.lags)
    return DetectionPlan(banded(rows, n_agents, block), block, len(rows), shift, where,
                         laws.lags, n_agents, eig_extremes(h_cov)[0], eig_extremes(c_cov)[1],
                         const - 0.5 * ld_h, const - 0.5 * ld_c, 0.5 * (ld_c - ld_h))


def detect_ensemble(states: np.ndarray, m: CpsModel, honest: HonestPolicy,
                    corrupt: CorruptPolicy | None, cfg: AttackConfig | None) -> DetectionSeries:
    """Detection series of every path in ``states`` (shape (S, n+1, N)).

    The engine of :func:`detect_tile` run over the whole paths in tiles of
    whole blocks whose stacked residuals hold about ``TILE_CELLS`` cells
    (:func:`cps_sentinel.numerics.tile_steps`), so that beyond ``states``
    and the returned series memory is per tile; the bits are those of one
    tile. Raises ``ValueError`` naming the seed row and the step of the
    first non-finite state.
    """
    states = np.asarray(states, dtype=float)
    n_seeds, n = states.shape[0], states.shape[1] - 1
    if n < 1:
        raise ValueError("trajectory must contain at least one step")
    if not np.isfinite(states).all():
        row, step = np.argwhere(~np.isfinite(states).all(axis=-1))[0]
        raise ValueError(f"state x_{step} of seed row {row} is not finite")
    plan = detection_plan(m, honest, corrupt, cfg, n)
    steps = tile_steps(n_seeds, plan.columns, plan.block)
    # the shared logdet row is kept once (none without seeds) and broadcast
    out = {f.name: np.empty((min(n_seeds, 1) if f.name == "cum_logdet_ratio" else n_seeds, n),
                            dtype=bool if f.name == "r_defined" else float)
           for f in fields(DetectionSeries)}
    carry = plan.fresh_carry(n_seeds)
    zeros = np.zeros((n_seeds, plan.lags - 1, m.n_agents))  # before x_0
    for lo in range(0, n, steps):
        h = min(steps, n - lo)
        first = lo + 1 - plan.lags  # the tile's path is x_first, ..., x_{lo+h}
        path = states[:, max(first, 0):lo + h + 1]
        if first < 0:
            path = np.concatenate([zeros[:, first:], path], axis=1)
        tile = detect_tile(plan, path, lo, carry)
        for name, whole in out.items():
            whole[:, lo:lo + h] = getattr(tile, name)[:len(whole)]
    out["cum_logdet_ratio"] = np.broadcast_to(out["cum_logdet_ratio"], (n_seeds, n))
    return DetectionSeries(**out)


def detect_tile(plan: DetectionPlan, path: np.ndarray, lo: int,
                carry: np.ndarray) -> DetectionSeries:
    """Detection series of steps lo+1..lo+h of every path of a tile.

    ``path`` (S, L + h, N) holds x_{lo-L+1}, ..., x_{lo+h}, zero before
    x_0, as :class:`cps_sentinel.simulator.PathTile` gives it. The prefix
    sums of, per step t (predicting x_t from the history up to t-1):

    * step log ratio = log N(x_t; honest law) - log N(x_t; corrupt law),
    * s_t = ||x_t - honest mean||^2 / lambda_min(honest covariance),
    * s_breve_t = ||x_t - corrupt mean||^2 / lambda_max(corrupt covariance),
    * half logdet ratio = (logdet corrupt cov - logdet honest cov) / 2.

    Both predictors are evaluated along the same given path. Each law's
    residual, and its whitened residual (the inverse Cholesky factor of its
    covariance times the residual, whose squared norm is the quadratic
    form), is a fixed linear map of the lag window (x_{t-L}, ..., x_t) less
    a shift (:func:`_residual_operator`). A block of B consecutive windows
    is one stretch of L + B states of the path, so the stacked maps of B
    steps are one banded operator (:class:`DetectionPlan`), applied by
    one matrix-vector product per block to an overlapping view of the
    path (:func:`_block_energies`). Each of the three per-seed series and
    the log-determinant increment, one constant whose sums are one row
    that every seed shares, is summed in one compensated pass that
    continues from its columns of ``carry`` and updates them: shape
    (2, 3 S + 1), the Sum2 carries of every seed's log ratio, then of
    every s, of every s_breve and of the shared row
    (:meth:`DetectionPlan.fresh_carry` before the first tile). A tile that
    starts at a multiple of B gets the bits of one tile over the whole
    path, and every seed's result is the same alone or in any batch.

    Residual energies that overflow, and states that are not finite, give
    non-finite series, not a warning.
    """
    n_seeds, h = len(path), path.shape[1] - plan.lags
    where = plan.where
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        energy = _block_energies(plan, path, lo)
        # steps[0..2]: step log ratio, s, s_breve
        steps = np.empty((3, n_seeds, h))
        np.divide(energy[where[0]], plan.lam_min_h, out=steps[1])
        np.divide(energy[where[2]], plan.lam_max_c, out=steps[2])
        np.subtract(plan.honest_const - 0.5 * energy[where[1]],
                    plan.corrupt_const - 0.5 * energy[where[3]], out=steps[0])
        del energy
        # one compensated pass per series, so that its temporaries are a
        # third of what one pass over the stack would hold
        carries = carry[:, :-1].reshape(2, 3, n_seeds)
        cum_log_l, cum_s, cum_s_breve = [compensated_cumsum(x, carries[:, k])
                                         for k, x in enumerate(steps)]
        r_defined = cum_s_breve > 0.0
        r_n = np.where(r_defined, cum_s / np.where(r_defined, cum_s_breve, 1.0), np.nan)
    cum_logdet = compensated_cumsum(np.full(h, plan.step_logdet), carry[:, -1])
    return DetectionSeries(cum_log_l, cum_s, cum_s_breve,
                           np.broadcast_to(cum_logdet, (n_seeds, h)), r_n, r_defined)


def _block_energies(plan: DetectionPlan, path: np.ndarray, lo: int) -> np.ndarray:
    """Squared norms of the stacked residual blocks of every seed and step of a tile.

    Returns an array (K, S, h) whose entry (k, i, t) is the squared norm
    of block k of the stacked rows times the lag window of seed i's step
    lo + t + 1, less the shift. The tile's path is copied and padded with
    zeros up to whole blocks of B steps, so that block j of the copy is
    the stretch of L + B states from x_{lo+jB-L+1} to x_{lo+jB+B}, a view
    at stride B N; one matrix-vector product of the banded operator per
    block gives its B steps, and the padded steps are dropped.
    """
    n_seeds, h = len(path), path.shape[1] - plan.lags
    block, n_agents = plan.block, plan.n_agents
    n_blocks = -(-h // block)
    padded = np.zeros((n_seeds, n_blocks * block + plan.lags, n_agents))
    padded[:, :plan.lags + h] = path
    view = as_strided(padded, (n_seeds, n_blocks, plan.band.shape[1]),
                      (padded.strides[0], block * padded.strides[1], padded.strides[2]))
    z = matvec(plan.band, view).reshape(n_seeds, n_blocks * block, plan.columns)
    del padded, view  # so that the copy and the squared norms are never alive at once
    if plan.shift is not None:
        z[:, :h] -= plan.shift if len(plan.shift) == 1 else plan.shift[lo:lo + h]
    z = z.reshape(n_seeds, n_blocks * block, plan.columns // n_agents, n_agents)
    return np.einsum("stbn,stbn->bst", z, z)[..., :h]


def _residual_operator(m: CpsModel, laws: LinearLaws, covs: tuple, n: int):
    """Stacked rows and shifts giving both laws' residuals from a lag window.

    On the lag window w_t = (x_{t-L+1}, ..., x_t, x_{t+1}), zero before
    x_0, a law's residual x_{t+1} - A x_t - b * (its control mean) is
    R w_t - b * (its offset), with R = [-(the law's loop rows) | I]; its
    whitened residual is C^-1 times that, C the Cholesky factor of the
    law's covariance. The four blocks (honest residual, honest whitened,
    corrupt residual, corrupt whitened) are stacked without repeats: a
    block whose rows and shift equal an earlier one's is that block, so
    laws that agree give the same bits. Returns
    the rows (K N, (L+1) N), the shift (one row, or one per step for a
    per-step FDI schedule; None when every shift is zero) and the block
    index of each of the four.
    """
    b, n_agents = m.actuator_gains, m.n_agents
    blocks = []
    for gains, offset, cov in ((laws.gains, laws.offset, covs[0]),
                               (laws.corrupt_gains, laws.corrupt_offsets(n), covs[1])):
        shift = b * np.atleast_2d(offset)
        residual = np.hstack([-loop_rows(m.dynamics, b, gains), np.eye(n_agents)])
        whiten = np.linalg.inv(cov.chol)
        blocks += [(residual, shift), (whiten @ residual, shift @ whiten.T)]
    unique, where = [], []
    for block in blocks:
        same = [j for j, u in enumerate(unique)
                if np.array_equal(u[0], block[0]) and np.array_equal(u[1], block[1])]
        where.append(same[0] if same else len(unique))
        unique += [] if same else [block]
    rows, shifts = zip(*unique)
    shift = np.hstack(np.broadcast_arrays(*shifts)) if any(s.any() for s in shifts) else None
    return np.vstack(rows), shift, where


def decide(log_l: float, log_threshold: float) -> Decision:
    """Attack iff the log likelihood ratio is strictly below the threshold.

    Exact equality stays honest (conservative tie-break).
    """
    return Decision.ATTACK if log_l < log_threshold else Decision.HONEST


@dataclass(frozen=True)
class DriftEstimate:
    """Expected per-step log-ratio drift under the corrupt law.

    ``value`` is None when the drift has no stationary value: the mean gap
    depends on the state and the corrupt closed loop is not stable
    (``method`` "unstable"), or the FDI offsets change from step to step
    ("time_varying").
    """

    value: float | None
    method: str


def expected_step_drift(m: CpsModel, honest: HonestPolicy, corrupt: CorruptPolicy,
                        cfg: AttackConfig) -> DriftEstimate:
    """Stationary expected per-step drift of the cumulative log likelihood ratio.

    Minus the Gaussian relative entropy of the corrupt one-step law from
    the honest one: -1/2 [tr(V^-1 Vb) - N + logdet V - logdet Vb + E q],
    with q = gap^T V^-1 gap and gap = D z + delta the corrupt-minus-honest
    predictor mean, D = diag(b) (corrupt window rows - honest window rows)
    on the lag window z_t = (x_{t-L+1}, ..., x_t) and delta = diag(b)
    (corrupt offset - honest offset). When D = 0 the gap is the constant
    delta ("closed_form"). Otherwise z follows the corrupt closed loop
    z' = F z + f + noise, and with its stationary mean mu and
    covariance P (a discrete Lyapunov equation), E q = (D mu + delta)^T
    V^-1 (D mu + delta) + tr(D^T V^-1 D P) ("lyapunov"). Only that branch
    imports scipy, so nothing else in the package loads it.
    """
    laws = lift(honest, (cfg, corrupt), m.n_agents)
    if laws.corrupt_offset.ndim == 2:
        return DriftEstimate(value=None, method="time_varying")
    h_cov, c_cov = conditional_covariances(m, laws)
    n, b = m.n_agents, m.actuator_gains
    offset_gap = laws.corrupt_offset - laws.offset
    delta = b * offset_gap
    d = b[:, None] * (laws.corrupt_gains - laws.gains)
    quad, method = 0.0, "closed_form"
    if d.any():
        # imported here, the one use of scipy: loading it costs about 300 ms
        from scipy.linalg import solve_discrete_lyapunov

        f, stable = closed_loop(m.dynamics, b, laws.corrupt_gains)
        if not stable:
            return DriftEstimate(value=None, method="unstable")
        q = np.zeros_like(f)
        q[-n:, -n:] = c_cov.mat
        drive = np.zeros(len(f))
        drive[-n:] = b * (laws.offset + offset_gap)
        delta = d @ np.linalg.solve(np.eye(len(f)) - f, drive) + delta
        cov = solve_discrete_lyapunov(f, q)
        quad, method = float(np.trace(d.T @ np.linalg.solve(h_cov.mat, d) @ cov)), "lyapunov"
    solve = np.linalg.solve(h_cov.mat, c_cov.mat)
    quad += float(delta @ np.linalg.solve(h_cov.mat, delta))
    # + 0.0 turns the -0.0 of a zero bracket into 0.0 and changes nothing else
    value = -0.5 * (float(np.trace(solve)) - n + logdet(h_cov) - logdet(c_cov) + quad) + 0.0
    return DriftEstimate(value=value, method=method)


_CSV_HEADER = "t,logL,r_n,s_sum,sbreve_sum,logdet_ratio_sum\n"


def series_csv_tile(series: DetectionSeries, lo: int):
    """Each seed's CSV lines of steps lo+1..lo+h, after the header when lo is 0.

    The columns are t, logL, r_n, s_sum, sbreve_sum and logdet_ratio_sum.

    ``series`` holds the h steps of a tile (:func:`detect_tile`), of a
    batch or of one seed; appending each tile's lines in order gives the
    seed's CSV. The texts come one seed at a time, in row order, so a
    caller that writes each before taking the next keeps one alive at a
    time. The columns every seed shares are formatted once per call into
    a line template: ``t`` and ``logdet_ratio_sum``, the compensated sum
    of one scalar increment and so the same bits in every row (taken from
    row 0). A seed's text is then one ``%`` format of its other four
    columns; ``%r`` and ``%s`` of a float are its ``repr``. Undefined ratio
    entries are left empty rather than written as inf/nan. A batch of no
    seeds yields nothing.
    """
    n = series.horizon
    logdet = series.cum_logdet_ratio.reshape(-1, n)[:1].ravel().tolist()  # [] without seeds
    template = ("" if lo else _CSV_HEADER) + "".join(
        [f"{t},%r,%s,%r,%r,{ld!r}\n" for t, ld in enumerate(logdet, start=lo + 1)])
    cells = np.stack([series.cum_log_l, series.r_n, series.cum_s, series.cum_s_breve],
                     axis=-1).reshape(-1, 4 * n)
    # positions of each seed's undefined r_n cells, written as ""
    missing: dict[int, list[int]] = {}
    for k, t in np.argwhere(~series.r_defined.reshape(-1, n)).tolist():
        missing.setdefault(k, []).append(4 * t + 1)
    for k, row in enumerate(cells):
        values = row.tolist()
        for i in missing.get(k, ()):
            values[i] = ""
        yield template % tuple(values)
