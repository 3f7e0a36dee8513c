"""The seed-ensemble engine: a seed's result never depends on its batch.

Row i of a batch, the same seed in another chunk, and the seed run
alone must agree bit for bit, for every policy kind, and a seed whose
state overflows must fail alone.
"""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cps_sentinel import detection, numerics
from cps_sentinel.detection import detect_ensemble, detect_tile, detection_plan
from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel import simulator
from cps_sentinel.numerics import DiagonalPsd, Dirac, GaussianLaw, make_spd, sample_gaussian
from cps_sentinel.policies import (
    Affine,
    DoS,
    Fdi,
    HistoryWindow,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    closed_loop,
    control_means,
    lift,
)
from cps_sentinel.simulator import (
    NonFiniteState,
    conditional_covariances,
    path_tiles,
    simulate_ensemble,
    simulation_plan,
)


def chain(n, initial=None, noise=None):
    a = 0.5 * np.eye(n) + 0.2 * np.eye(n, k=-1) + 0.1 * np.eye(n, k=1)
    if noise is None:
        noise = 0.5 * np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return CpsModel(n_agents=n, dynamics=a, actuator_gains=np.linspace(1.0, 2.0, n),
                    process_noise=noise, excitation=np.linspace(0.5, 1.0, n),
                    initial_law=Dirac(np.zeros(n)) if initial is None else initial)


N = 3
CASES = {
    "linear-replacement": (chain(N), LinearFeedback(-0.2 * np.eye(N)),
                           (AttackConfig((2,)), Replacement.scaled_state([-0.3]))),
    "linear-sign-flip": (chain(N), LinearFeedback(-0.15 * np.eye(N) + 0.05 * np.eye(N, k=1)),
                         (AttackConfig((1, 3)), Replacement.sign_flip())),
    "affine-constant": (chain(N, noise=np.diag([0.3, 0.6, 0.9])),
                        Affine(-0.1 * np.eye(N), np.array([0.2, -0.1, 0.0])),
                        (AttackConfig((1,)), Replacement.constant([0.4]))),
    "window-mimic": (chain(N), HistoryWindow((-0.2 * np.eye(N), -0.05 * np.eye(N),
                                              0.02 * np.eye(N))),
                     (AttackConfig((2, 3)), Mimic(DiagonalPsd([0.3, 0.2])))),
    "window-fdi-schedule": (chain(N), HistoryWindow((-0.2 * np.eye(N), 0.1 * np.eye(N))),
                            (AttackConfig((1,)), Fdi(np.linspace(0, 1, 40)[:, None]))),
    "affine-fdi-schedule": (chain(N), Affine(-0.1 * np.eye(N), np.array([0.3, -0.7, 0.2])),
                            (AttackConfig((1, 3)), Fdi(np.linspace(-1, 1, 80).reshape(40, 2)))),
    "gaussian-init-dos": (chain(N, initial=GaussianLaw(np.ones(N),
                                                       make_spd(0.5 * np.eye(N) + 0.1))),
                          Zero(), (AttackConfig((2,)), DoS())),
    "dense-scaled-state": (chain(N), LinearFeedback(0.1 - 0.2 * np.eye(N)),
                           (AttackConfig((3,)), Replacement.scaled_state([0.3]))),
    "no-attack": (chain(N), LinearFeedback(-0.2 * np.eye(N)), None),
}


def assert_series_equal(a, b):
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True), f.name


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), count=st.integers(1, 6),
       horizon=st.integers(1, 30), split=st.integers(0, 6),
       base=st.integers(0, 2 ** 63))
def test_rows_match_chunks_and_the_per_seed_api(case, count, horizon, split, base):
    m, honest, attack = CASES[case]
    corrupt, cfg = (attack[1], attack[0]) if attack else (None, None)
    seeds = [(base + 7919 * i) % 2 ** 64 for i in range(count)]
    split = min(split, count)
    whole = simulate_ensemble(m, honest, attack, horizon, seeds, keep_controls=True)
    parts = [simulate_ensemble(m, honest, attack, horizon, part, keep_controls=True)
             for part in (seeds[:split], seeds[split:]) if part]
    assert not whole.failed_at.any()
    batch = detect_ensemble(whole.states, m, honest, corrupt, cfg)
    part_series = [detect_ensemble(p.states, m, honest, corrupt, cfg) for p in parts]
    rows = [(p, s, k) for p, s in zip(parts, part_series) for k in range(len(p.seeds))]
    for i, seed in enumerate(seeds):
        part, part_batch, k = rows[i]
        alone = simulate_ensemble(m, honest, attack, horizon, [seed], keep_controls=True)
        for name in ("states", "controls", "excitations"):
            assert np.array_equal(getattr(whole, name)[i], getattr(alone, name)[0]), name
            assert np.array_equal(getattr(part, name)[k], getattr(alone, name)[0]), name
        single = detect_ensemble(alone.states, m, honest, corrupt, cfg).row(0)
        assert_series_equal(batch.row(i), single)
        assert_series_equal(part_batch.row(k), single)


def test_an_overflowing_seed_fails_alone_with_its_own_message():
    # the replaced channel feeds agent 1 back with gain about 3.2, and a
    # wide initial law spreads the step at which each path overflows:
    # steps 316, 317 and 318 here, and two seeds stay finite
    m = chain(2, initial=GaussianLaw(np.zeros(2), DiagonalPsd([1e300, 1.0])))
    attack = (AttackConfig((1,)), Replacement.scaled_state([2.66]))
    honest = LinearFeedback(-0.2 * np.eye(2))
    seeds = list(range(12))
    ens = simulate_ensemble(m, honest, attack, 318, seeds, keep_controls=True)
    failed = ens.failed_at > 0
    assert failed.any() and not failed.all()
    assert len(set(ens.failed_at[failed].tolist())) > 1
    for i, seed in enumerate(seeds):
        alone = simulate_ensemble(m, honest, attack, 318, [seed])
        if failed[i]:
            assert isinstance(alone.error(0), NonFiniteState)
            assert str(alone.error(0)) == str(ens.error(i))
            assert str(alone.error(0)) == (f"state overflowed at step {ens.failed_at[i]} "
                                           f"(seed {seed})")
        else:
            assert ens.error(i) is None and alone.error(0) is None
            assert np.array_equal(ens.states[i], alone.states[0])


def test_a_non_finite_state_is_an_error_naming_its_seed_row_and_step():
    m, honest, attack = CASES["linear-replacement"]
    states = simulate_ensemble(m, honest, attack, 12, [1, 2, 3]).states.copy()
    for bad in (math.nan, math.inf, -math.inf):
        x = states.copy()
        x[1, 7, 2] = bad
        x[2, 3, 0] = bad
        with pytest.raises(ValueError, match=r"^state x_7 of seed row 1 is not finite$"):
            detect_ensemble(x, m, honest, attack[1], attack[0])


def detection_block(m, honest, attack, horizon):
    """B of the detector: the largest block count, at least 1, whose operator has at most
    64 x 64 entries, B K N rows by (L + B) N columns."""
    laws = lift(honest, attack, m.n_agents)
    covs = conditional_covariances(m, laws)
    stacked = len(detection._residual_operator(m, laws, covs, horizon)[0])
    n = m.n_agents
    return max([b for b in range(1, 4097) if b * stacked * (laws.lags + b) * n <= 64 * 64],
               default=1)


LAGS = 60
BAND_CASES = {
    **CASES,
    # a window far longer than its block and than the first horizons
    "long-window-mimic": (chain(2), HistoryWindow((-0.2 * np.eye(2),)
                                                  + (0.002 * np.eye(2),) * (LAGS - 1)),
                          (AttackConfig((2,)), Mimic(DiagonalPsd([0.3])))),
}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_horizons_around_the_band_block_keep_each_seed_alone_and_in_any_batch(case):
    from oracles import detect_per_law
    m, honest, attack = BAND_CASES[case]
    corrupt, cfg = (attack[1], attack[0]) if attack else (None, None)
    # the FDI schedules start at 0, so over their first step alone the laws'
    # blocks merge; over all 40 steps they do not
    block = detection_block(m, honest, attack, 40)
    laws = lift(honest, attack, m.n_agents)
    stable = closed_loop(m.dynamics, m.actuator_gains, laws.corrupt_gains)[1]
    if case == "long-window-mimic":
        assert 1 < block < LAGS
    fdi = attack[1].offsets if attack is not None and isinstance(attack[1], Fdi) else None
    seeds = [5, 1 << 40, 77, 12345]
    for horizon in sorted({1, max(1, block - 1), block, block + 1, 7 * block + 3}):
        if fdi is not None and fdi.ndim == 2 and len(fdi) < horizon:
            continue  # the schedule ends first; simulate_ensemble refuses the horizon
        ens = simulate_ensemble(m, honest, attack, horizon, seeds)
        whole = detect_ensemble(ens.states, m, honest, corrupt, cfg)
        chunk = detect_ensemble(ens.states[1:3], m, honest, corrupt, cfg)
        for i in range(len(seeds)):
            assert_series_equal(whole.row(i), detect_ensemble(ens.states[i:i + 1], m, honest,
                                                              corrupt, cfg).row(0))
        for k in range(2):
            assert_series_equal(whole.row(k + 1), chunk.row(k))
        if not stable:
            continue  # growing states leave the residuals only as exact as |x| allows
        want = detect_per_law(ens.states, m, honest, corrupt, cfg)
        for name in ("cum_s", "cum_s_breve"):
            np.testing.assert_allclose(getattr(whole, name), getattr(want, name), rtol=1e-12,
                                       atol=0.0, err_msg=f"{name} at horizon {horizon}")
        # the log densities' rtol 1e-12, summed over each prefix
        tol = 1e-12 * np.cumsum(np.abs(want.honest_logdens) + np.abs(want.corrupt_logdens),
                                axis=-1)
        assert (np.abs(whole.cum_log_l - want.cum_log_l) <= tol).all(), horizon


def lag_stacked_loop(m, honest, attack, horizon, seed):
    """One seed's states by the plain step loop z' = F z + d on the lag-stacked state.

    F is built here from the corrupt gains, and the drive d_t from the
    seed's own draws: diag(b) (corrupt offset + admitted excitation) + w_t.
    Under FDI the corrupt offset is built from the attack: the honest
    offset plus the attack's offsets on the attacked channels.
    """
    n, b = m.n_agents, m.actuator_gains
    laws = lift(honest, attack, n)
    lags = laws.corrupt_gains.shape[1] // n
    # the window rows' column blocks run oldest first; z_t runs newest first
    lag_gains = laws.corrupt_gains.reshape(n, lags, n)[:, ::-1]
    f = np.eye(n * lags, k=-n)
    f[:n] = (b[:, None, None] * lag_gains).reshape(n, lags * n)
    f[:n, :n] += m.dynamics
    rng = np.random.default_rng(seed)
    init = m.initial_law
    x0 = init.point if isinstance(init, Dirac) else sample_gaussian(rng, init)
    k = 0 if laws.own is None else laws.own.dim
    z = rng.standard_normal((horizon, 2 * n + k))
    u = z[:, :n] * np.sqrt(m.excitation)
    if not laws.keep:
        u[:, laws.mal] = z[:, n:n + k] * np.sqrt(laws.own.diag) if k else 0.0
    if attack is not None and isinstance(attack[1], Fdi):
        if isinstance(honest, Affine):
            u += honest.offset
        fdi = attack[1].offsets
        u[:, attack[0].malicious_indices] += fdi if fdi.ndim == 1 else fdi[:horizon]
    else:
        u += laws.corrupt_offset
    d = b * u + z[:, n + k:] @ np.linalg.cholesky(m.process_noise).T
    z_t = np.zeros(n * lags)
    z_t[:n] = x0
    x = [x0]
    for t in range(horizon):
        z_t = f @ z_t
        z_t[:n] += d[t]
        x.append(z_t[:n].copy())
    return np.array(x)


WIDE = 32
BLOCK_CASES = {
    **CASES,
    # 32 agents give blocks of 64 // 32 = 2 steps, fewer than the 3 lags
    "wide-window-mimic": (chain(WIDE), HistoryWindow((-0.2 * np.eye(WIDE), -0.05 * np.eye(WIDE),
                                                       0.02 * np.eye(WIDE))),
                          (AttackConfig((5, 17, 30)), Mimic(DiagonalPsd([0.3, 0.2, 0.1])))),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(BLOCK_CASES)), which=st.integers(0, 4),
       base=st.integers(0, 2 ** 63))
def test_blocked_recursion_matches_the_lag_stacked_step_loop(case, which, base):
    m, honest, attack = BLOCK_CASES[case]
    laws = lift(honest, attack, m.n_agents)
    _, stable = closed_loop(m.dynamics, m.actuator_gains, laws.corrupt_gains)
    block = 64 // m.n_agents if stable else 1
    horizon = max(1, [1, block - 1, block, block + 1, 3 * block + 2][which])
    seeds = [base, (base + 7919) % 2 ** 64]
    fdi = attack[1].offsets if attack is not None and isinstance(attack[1], Fdi) else None
    if fdi is not None and fdi.ndim == 2 and len(fdi) < horizon:
        with pytest.raises(ValueError, match="fdi offset schedule has 40 steps"):
            simulate_ensemble(m, honest, attack, horizon, seeds)
        return
    ens = simulate_ensemble(m, honest, attack, horizon, seeds)
    assert not ens.failed_at.any()
    for i, seed in enumerate(seeds):
        x = lag_stacked_loop(m, honest, attack, horizon, seed)
        assert np.abs(ens.states[i] - x).max() <= 1e-13 * np.abs(x).max()


def test_an_unstable_loop_steps_one_at_a_time_and_each_seed_fails_alone(monkeypatch):
    # the replaced channel's loop gain is about 3.2, so F is unstable and
    # its powers would amplify roundoff; the engine must take B = 1
    m = chain(2, initial=GaussianLaw(np.zeros(2), DiagonalPsd([1e300, 1.0])))
    honest = LinearFeedback(-0.2 * np.eye(2))
    attack = (AttackConfig((1,)), Replacement.scaled_state([2.66]))
    laws = lift(honest, attack, 2)
    assert not closed_loop(m.dynamics, m.actuator_gains, laws.corrupt_gains)[1]
    block_sizes = []
    operators = simulator._block_operators

    def spy(f, n, steps):
        block_sizes.append(steps)
        return operators(f, n, steps)

    monkeypatch.setattr(simulator, "_block_operators", spy)
    seeds = list(range(12))
    whole = simulate_ensemble(m, honest, attack, 318, seeds)
    chunks = [simulate_ensemble(m, honest, attack, 318, part)
              for part in (seeds[:5], seeds[5:7], seeds[7:])]
    assert set(block_sizes) == {1}
    chunk_rows = [(c, k) for c in chunks for k in range(len(c.seeds))]
    failed = whole.failed_at > 0
    assert failed.any() and not failed.all()
    assert len(set(whole.failed_at[failed].tolist())) > 1
    for i, seed in enumerate(seeds):
        chunk, k = chunk_rows[i]
        alone = simulate_ensemble(m, honest, attack, 318, [seed])
        for other, row in ((chunk, k), (alone, 0)):
            assert other.failed_at[row] == whole.failed_at[i]
            assert np.array_equal(other.states[row], whole.states[i], equal_nan=True)
        step = int(whole.failed_at[i])
        finite = np.isfinite(whole.states[i]).all(axis=1)
        if step:
            # its own first non-finite state, the step the plain loop overflows at
            assert finite[:step].all() and not finite[step]
            with np.errstate(over="ignore", invalid="ignore"):
                x = lag_stacked_loop(m, honest, attack, 318, seed)
            assert np.isfinite(x[:step]).all() and not np.isfinite(x[step]).all()
        else:
            assert finite.all()


def test_draw_order_is_excitation_then_mimic_then_noise():
    m = chain(2, noise=np.diag([0.25, 4.0]))
    attack = (AttackConfig((1,)), Mimic(DiagonalPsd([9.0])))
    ens = simulate_ensemble(m, Zero(), attack, 3, [42], keep_controls=True)
    z = np.random.default_rng(42).standard_normal((3, 5))
    np.testing.assert_array_equal(ens.excitations[0], z[:, :2] * np.sqrt(m.excitation))
    # x_1 = b * u_0 + w_0 from x_0 = 0, with u_0 = (3 z_mimic, e_2)
    u0 = np.array([3.0 * z[0, 2], z[0, 1] * np.sqrt(m.excitation[1])])
    w0 = z[0, 3:] * np.array([0.5, 2.0])
    np.testing.assert_allclose(ens.states[0, 1], m.actuator_gains * u0 + w0, rtol=1e-15)


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_a_run_is_the_first_steps_of_any_longer_run(case):
    # every block is B steps whatever the horizon, the last one padded
    # with zero drive, so a short run takes the same products as a long one
    m, honest, attack = BAND_CASES[case]
    laws = lift(honest, attack, m.n_agents)
    stable = closed_loop(m.dynamics, m.actuator_gains, laws.corrupt_gains)[1]
    block = max(1, 64 // m.n_agents) if stable else 1
    longest = 9 * block
    if laws.corrupt_offset.ndim == 2:
        longest = min(longest, len(laws.corrupt_offset))  # the schedule ends first
    seeds = [5, 1 << 40, 77, 12345]
    whole = simulate_ensemble(m, honest, attack, longest, seeds, keep_controls=True)
    for horizon in sorted({1, max(1, block - 1), block, block + 1, 7 * block + 3}):
        if horizon > longest:
            continue
        ens = simulate_ensemble(m, honest, attack, horizon, seeds, keep_controls=True)
        assert same_bits(ens.states, whole.states[:, :horizon + 1]), horizon
        assert same_bits(ens.controls, whole.controls[:, :horizon]), horizon
        assert same_bits(ens.excitations, whole.excitations[:, :horizon]), horizon


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def drive_scenarios(draw):
    """A model on 1-6 agents, an affine honest law, any attack, a horizon.

    Excitation and process-noise variances may be zero; the noise law is
    dense or diagonal, the initial law a point or a Gaussian. On a zero
    loop (zero dynamics and control gains) F = 0, so every state after x_0
    is the drive of the step before it, bit for bit.
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero_loop = draw(st.booleans())
    mal = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n)))
    kind = draw(st.sampled_from(["none", "fdi", "fdi-schedule", "dos", "constant",
                                 "scaled_state", "sign_flip", "mimic"]))
    horizon = draw(st.integers(1, 50))
    excitation = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 2.0, n))
    if draw(st.booleans()):
        noise = np.diag(np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 2.0, n)))
    else:
        g = rng.standard_normal((n, n))
        noise = g @ g.T + 0.1 * np.eye(n)
    dynamics = np.zeros((n, n)) if zero_loop else 0.5 * np.eye(n) + 0.1 * np.eye(n, k=-1)
    initial = (Dirac(rng.standard_normal(n)) if draw(st.booleans())
               else GaussianLaw(rng.standard_normal(n), make_spd(np.eye(n) + 0.2)))
    m = CpsModel(n_agents=n, dynamics=dynamics,
                 actuator_gains=np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.5, 2.0, n)),
                 process_noise=noise, excitation=excitation, initial_law=initial)
    honest = Affine(np.zeros((n, n)) if zero_loop else -0.2 * np.eye(n), rng.standard_normal(n))
    count = len(mal)
    corrupt = {
        "none": None,
        "fdi": lambda: Fdi(rng.standard_normal(count)),
        "fdi-schedule": lambda: Fdi(rng.standard_normal((horizon + 3, count))),
        "dos": DoS,
        "constant": lambda: Replacement.constant(rng.standard_normal(count)),
        "scaled_state": lambda: Replacement.scaled_state(
            np.zeros(count) if zero_loop else rng.uniform(-0.3, 0.3, count)),
        "sign_flip": Replacement.sign_flip,
        "mimic": lambda: Mimic(DiagonalPsd(np.where(rng.random(count) < 0.2, 0.0,
                                                    rng.uniform(0.1, 1.0, count)))),
    }[kind]
    attack = None if corrupt is None else (AttackConfig(tuple(mal)), corrupt())
    return m, honest, attack, horizon, zero_loop


@settings(max_examples=80, deadline=None)
@given(scenario=drive_scenarios(),
       seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
def test_the_plane_drive_matches_a_per_step_oracle_bit_for_bit(scenario, seeds):
    from oracles import step_drive
    m, honest, attack, horizon, zero_loop = scenario
    laws = lift(honest, attack, m.n_agents)
    k = 0 if laws.own is None else laws.own.dim
    ens = simulate_ensemble(m, honest, attack, horizon, seeds, keep_controls=True)
    for i, seed in enumerate(seeds):
        # the seed contract: the initial state's normals first, then the block
        rng = np.random.default_rng(seed)
        if not isinstance(m.initial_law, Dirac):
            rng.standard_normal(m.n_agents)
        block = rng.standard_normal((horizon, 2 * m.n_agents + k))
        means = control_means(laws, ens.states[i, :-1])[1]
        excitations, controls, drive = step_drive(m, laws, block, means)
        assert same_bits(ens.excitations[i], excitations)
        assert same_bits(ens.controls[i], controls)
        if zero_loop:
            assert same_bits(ens.states[i, 1:], drive)


def reference_path(m, honest_gain, attack, horizon, seed):
    """Step-by-step loop of one seed, the way a single run is written by hand.

    Markov linear honest law; replacement (scaled state), FDI (constant)
    or mimicry on the attacked channels.
    """
    rng = np.random.default_rng(seed)
    cfg, corrupt = attack
    mal = cfg.malicious_indices
    chol = np.linalg.cholesky(m.process_noise)
    x = [m.initial_law.point.copy()]
    for _ in range(horizon):
        g = honest_gain @ x[-1]
        u = g + np.sqrt(m.excitation) * rng.standard_normal(m.n_agents)
        if isinstance(corrupt, Replacement):
            u[mal] = corrupt.values * x[-1][mal]
        elif isinstance(corrupt, Fdi):
            u[mal] += corrupt.offsets
        else:
            own = np.sqrt(corrupt.self_excitation.diag) * rng.standard_normal(len(mal))
            u[mal] = g[mal] + own
        w = chol @ rng.standard_normal(m.n_agents)
        x.append(m.dynamics @ x[-1] + m.actuator_gains * u + w)
    return np.array(x)


@pytest.mark.parametrize("corrupt", [Replacement.scaled_state([-0.3]), Fdi(np.array([0.4])),
                                     Mimic(DiagonalPsd([0.3]))])
def test_engine_matches_a_hand_written_loop(corrupt):
    from oracles import log_gaussian_density
    m = chain(N)
    gain = -0.2 * np.eye(N) + 0.05 * np.eye(N, k=1)
    attack = (AttackConfig((2,)), corrupt)
    seeds = [3, 1 << 40, 77]
    ens = simulate_ensemble(m, LinearFeedback(gain), attack, 40, seeds)
    batch = detect_ensemble(ens.states, m, LinearFeedback(gain), corrupt, attack[0])
    h_cov, c_cov = conditional_covariances(m, lift(Zero(), attack, N))
    for i, seed in enumerate(seeds):
        x = reference_path(m, gain, attack, 40, seed)
        assert np.abs(ens.states[i] - x).max() <= 1e-13 * np.abs(x).max()
        # log ratio by the joint-density route, one Gaussian density per step
        steps = []
        for t in range(40):
            g = gain @ x[t]
            c = g.copy()
            if isinstance(corrupt, Replacement):
                c[1] = corrupt.values[0] * x[t][1]
            elif isinstance(corrupt, Fdi):
                c[1] += corrupt.offsets[0]
            drive = m.dynamics @ x[t]
            honest_law = GaussianLaw(drive + m.actuator_gains * g, h_cov)
            corrupt_law = GaussianLaw(drive + m.actuator_gains * c, c_cov)
            steps.append(log_gaussian_density(x[t + 1], honest_law)
                         - log_gaussian_density(x[t + 1], corrupt_law))
        # each step's rtol 1e-12 and atol 1e-12, summed over the prefix
        exact = [math.fsum(steps[:t + 1]) for t in range(40)]
        tol = 1e-12 * (np.arange(1, 41) + np.cumsum(np.abs(steps)))
        assert (np.abs(batch.cum_log_l[i] - exact) <= tol).all()


def test_dense_quadratic_forms_do_not_depend_on_the_batch():
    """Full process noise: the log densities need the whole Cholesky factor.

    With 8 agents and 601 steps, seed 3 sits in the whole batch and closes
    a chunk at a row offset that is not a multiple of any vector width.
    """
    from oracles import log_gaussian_density, step_loop_sum2

    n = 8
    m = chain(n)
    gain = -0.2 * np.eye(n)
    honest = LinearFeedback(gain)
    cfg, corrupt = AttackConfig((2, 5, 8)), Mimic(DiagonalPsd([0.3, 0.4, 0.5]))
    seeds = [11, 1 << 40, 5, 97, 12345, 1 << 63, 8]
    ens = simulate_ensemble(m, honest, (cfg, corrupt), 601, seeds)
    x = ens.states
    whole = detect_ensemble(x, m, honest, corrupt, cfg)
    alone = detect_ensemble(x[3:4], m, honest, corrupt, cfg)
    chunk = detect_ensemble(x[2:4], m, honest, corrupt, cfg)
    h_cov, c_cov = conditional_covariances(m, lift(honest, (cfg, corrupt), n))
    means = [m.dynamics @ xt + m.actuator_gains * (gain @ xt) for xt in x[3, :-1]]
    for name in ("cum_log_l", "cum_s", "cum_s_breve"):
        row = getattr(whole, name)[3]
        assert np.array_equal(getattr(alone, name)[0], row), name
        assert np.array_equal(getattr(chunk, name)[1], row), name
    honest_dens, corrupt_dens = np.array([[log_gaussian_density(x[3, t + 1], GaussianLaw(mu, cov))
                                           for t, mu in enumerate(means)]
                                          for cov in (h_cov, c_cov)])
    # each log density's rtol 1e-12, summed over the prefix
    tol = 1e-12 * np.cumsum(np.abs(honest_dens) + np.abs(corrupt_dens))
    exact = step_loop_sum2(honest_dens - corrupt_dens)
    assert (np.abs(whole.cum_log_l[3] - exact) <= tol).all()


# name: (model, honest law, attack, horizon); each runs several tiles of
# one common block of the simulator's and the detector's block sizes
TILE_CASES = {
    # blocks of 21 and 7 steps: tiles of 21
    "window-mimic": CASES["window-mimic"] + (635,),
    # blocks of 2 and 1
    "wide-window-mimic": BLOCK_CASES["wide-window-mimic"] + (15,),
    # blocks of 4 and 1; the schedule starts at zero on both attacked channels
    "chain-fdi-schedule": (chain(16), HistoryWindow((-0.2 * np.eye(16), 0.05 * np.eye(16))),
                           (AttackConfig((2, 9)),
                            Fdi(np.vstack([np.zeros((3, 2)),
                                           np.linspace(-1, 1, 114).reshape(57, 2)])[:60])),
                           57),
    # an unstable loop steps one at a time (the detector 8 at a time), and
    # its seeds overflow in later tiles
    "unstable-replacement": (chain(2, initial=GaussianLaw(np.zeros(2), DiagonalPsd([1e300, 1.0]))),
                             LinearFeedback(-0.2 * np.eye(2)),
                             (AttackConfig((1,)), Replacement.scaled_state([2.66])), 318),
}


@pytest.mark.parametrize("case", sorted(TILE_CASES))
def test_tiles_of_whole_blocks_give_the_bits_of_one_tile(case):
    m, honest, attack, horizon = TILE_CASES[case]
    corrupt, cfg = attack[1], attack[0]
    seeds = list(range(12))
    sim = simulation_plan(m, honest, attack)
    det = detection_plan(m, honest, corrupt, cfg, horizon)
    common = math.lcm(sim.block, det.block)
    assert 3 * common < horizon
    whole = simulate_ensemble(m, honest, attack, horizon, seeds)
    failed = whole.failed_at > 0
    if case == "unstable-replacement":
        assert failed.any() and not failed.all() and whole.failed_at[failed].min() > 2 * common
    want = detect_ensemble(whole.states[~failed], m, honest, corrupt, cfg)
    lags = sim.laws.lags
    for steps in (common, 3 * common, horizon):
        carry = det.fresh_carry(len(seeds))
        tiles = []
        for tile in path_tiles(sim, horizon, seeds, steps):
            h = tile.path.shape[1] - lags
            assert h == min(steps, horizon - tile.lo)
            assert np.array_equal(tile.path[:, lags:], whole.states[:, tile.lo + 1:tile.lo + h + 1],
                                  equal_nan=True)
            series = detect_tile(det, tile.path, tile.lo, carry)
            tiles.append(series.row(~failed))
        assert np.array_equal(tile.failed_at, whole.failed_at)
        for f in fields(want):
            got = np.concatenate([getattr(t, f.name) for t in tiles], axis=-1)
            assert np.array_equal(got, getattr(want, f.name), equal_nan=True), (steps, f.name)


@pytest.mark.parametrize("case", sorted(TILE_CASES))
def test_detect_ensemble_in_tiles_of_one_block_gives_the_bits_of_one_tile(case, monkeypatch):
    m, honest, attack, horizon = TILE_CASES[case]
    corrupt, cfg = attack[1], attack[0]
    ens = simulate_ensemble(m, honest, attack, horizon, list(range(12)))
    states = ens.states[ens.failed_at == 0]
    monkeypatch.setattr(numerics, "TILE_CELLS", 1 << 62)
    want = detect_ensemble(states, m, honest, corrupt, cfg)
    monkeypatch.setattr(numerics, "TILE_CELLS", 1)
    got = detect_ensemble(states, m, honest, corrupt, cfg)
    for f in fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name), equal_nan=True), f.name


@pytest.mark.parametrize("case", sorted(TILE_CASES))
def test_simulate_ensemble_in_tiles_of_one_block_gives_the_bits_of_one_tile(case, monkeypatch):
    m, honest, attack, horizon = TILE_CASES[case]
    monkeypatch.setattr(numerics, "TILE_CELLS", 1 << 62)
    want = simulate_ensemble(m, honest, attack, horizon, range(12), keep_controls=True)
    monkeypatch.setattr(numerics, "TILE_CELLS", 1)
    got = simulate_ensemble(m, honest, attack, horizon, range(12), keep_controls=True)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a == b if f.name == "seeds"
                else a.shape == b.shape and a.tobytes() == b.tobytes()), f.name


def test_simulate_ensemble_holds_one_tile_beyond_its_states_whatever_the_horizon():
    # 4 seeds of N = 3 run tiles of 2730 steps, so a horizon of 20k steps
    # already holds every tile-sized buffer; five times longer may hold no
    # more beyond the states it returns
    m, honest, attack = CASES["linear-replacement"]

    def beyond_states(horizon):
        tracemalloc.start()
        try:
            states = simulate_ensemble(m, honest, attack, horizon, range(4)).states
            return tracemalloc.get_traced_memory()[1] - states.nbytes
        finally:
            tracemalloc.stop()

    beyond_states(1000)  # whatever a first batch allocates once
    assert beyond_states(100_000) <= 1.1 * beyond_states(20_000)
