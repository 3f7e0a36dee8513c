import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cps_sentinel import cli
from cps_sentinel.detection import (
    Decision,
    DetectionSeries,
    decide,
    detect_ensemble,
    expected_step_drift,
    series_csv_tile,
)
from cps_sentinel.harness import preset, run_detect, scenario_from_dict
from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel.numerics import (
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    make_spd,
    split_seed,
)
from cps_sentinel.policies import (
    Affine,
    DoS,
    Fdi,
    HistoryWindow,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    control_means,
    lift,
)
from cps_sentinel.simulator import conditional_covariances, simulate_ensemble
from oracles import (
    ATTACK_BUILDERS,
    det_ratio_bound,
    detect_per_law,
    joint_log_density_oracle,
    joint_log_ratio_oracle,
    log_gaussian_density,
    random_attack,
)


def model(n=2, dynamics=None, gains=None, noise=None, excitation=None, initial=None):
    return CpsModel(
        n_agents=n,
        dynamics=np.zeros((n, n)) if dynamics is None else dynamics,
        actuator_gains=np.ones(n) if gains is None else gains,
        process_noise=np.eye(n) if noise is None else noise,
        excitation=np.ones(n) if excitation is None else excitation,
        initial_law=Dirac(np.zeros(n)) if initial is None else initial,
    )


class TestRnSeries:
    def test_identity_corrupt_law_gives_zero_log_ratio(self):
        # mimic with the honest excitation block and the honest mean map
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Mimic(DiagonalPsd([1.0]))
        states = simulate_ensemble(m, LinearFeedback(-0.1 * np.eye(2)), (cfg, pol), 300,
                                   [1]).states
        series = detect_ensemble(states, m, LinearFeedback(-0.1 * np.eye(2)), pol, cfg).row(0)
        assert np.abs(series.cum_log_l).max() == 0.0
        assert series.r_defined.all()
        ratio = series.cum_s / series.cum_s_breve
        np.testing.assert_allclose(series.r_n, ratio)

    def test_scalar_density_ratio_by_hand(self):
        # honest variance 2, corrupt variance 1 on channel one, equal means,
        # residual (1, 0): the scalar ratio gives 1/4 - log(2)/2
        m = model()
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        series = detect_ensemble(np.array([[[0.0, 0.0], [1.0, 0.0]]]), m, Zero(), pol, cfg)
        assert series.cum_log_l[0, 0] == pytest.approx(0.25 - 0.5 * math.log(2.0))

    def test_cumulative_matches_fsum(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([1.0])
        states = simulate_ensemble(m, Zero(), (cfg, pol), 200, [2]).states
        series = detect_ensemble(states, m, Zero(), pol, cfg).row(0)
        ratios = detect_per_law(states, m, Zero(), pol, cfg).step_log_ratio[0].tolist()
        for n in (1, 50, 200):
            assert series.cum_log_l[n - 1] == pytest.approx(math.fsum(ratios[:n]), abs=1e-10)

    def test_rayleigh_sandwich_per_step(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.1, 0.4]]),
                  noise=np.array([[1.0, 0.3], [0.3, 2.0]]))
        cfg = AttackConfig((2,))
        pol = DoS()
        states = simulate_ensemble(m, LinearFeedback(-0.2 * np.eye(2)), (cfg, pol), 100,
                                   [3]).states[0]
        series = detect_ensemble(states[None], m, LinearFeedback(-0.2 * np.eye(2)), pol,
                                 cfg).row(0)
        from cps_sentinel.numerics import eig_extremes
        from oracles import quad_form_inv
        laws = lift(LinearFeedback(-0.2 * np.eye(2)), (cfg, pol), 2)
        h_cov, _ = conditional_covariances(m, laws)
        lo, hi = eig_extremes(h_cov)
        norms2 = []
        for t in range(100):
            g = control_means(laws, states[: t + 1])[0][t]
            z = states[t + 1] - (m.dynamics @ states[t] + m.actuator_gains * g)
            norms2.append(float(z @ z))
            if t in (0, 10, 99):
                q = quad_form_inv(h_cov, z)
                assert norms2[t] / hi * (1 - 1e-9) <= q <= norms2[t] / lo * (1 + 1e-9)
            # cum_s sums the same residual energies over the smallest eigenvalue
            assert series.cum_s[t] == pytest.approx(math.fsum(norms2) / lo, rel=1e-12)

    def test_an_overflowing_log_ratio_is_flagged_and_raises_naming_its_step(self, tmp_path):
        # finite states near 2^1000 whose residual energies overflow
        data = preset("replacement")
        data["model"]["dynamics"] = [[2.0, 0.3], [0.0, 2.0]]
        data["horizon"] = 1000
        s = scenario_from_dict(data)
        cfg, pol = s.attack
        states = simulate_ensemble(s.model, s.honest, s.attack, 1000, [3]).states
        assert np.isfinite(states).all()
        # no RuntimeWarning: pytest turns one into an error
        batch = detect_ensemble(states, s.model, s.honest, pol, cfg)
        bad = ~np.isfinite(batch.cum_log_l[0])
        step = int(bad.argmax()) + 1
        assert 1 < step and bad[step - 1:].all() and not bad[:step - 1].any()
        # the one-seed run fails naming the step, and leaves no CSV
        row = run_detect(s, 3, tmp_path / "series.csv")
        assert row["error"] == ("NonFiniteLogRatio: log likelihood ratio is not finite "
                                f"from step {step} (seed 3)")
        assert row["log_l"] is None and not (tmp_path / "series.csv").exists()

    def test_undefined_ratio_flagged_not_infinite(self):
        m = model()
        series = detect_ensemble(np.zeros((1, 2, 2)), m, Zero(), Replacement.constant([0.0]),
                                 AttackConfig((1,))).row(0)
        assert not series.r_defined[0]
        assert np.isnan(series.r_n[0])
        (csv_text,) = series_csv_tile(series, 0)
        row = csv_text.strip().split("\n")[1].split(",")
        assert row[2] == ""  # empty cell, never inf


class TestClassify:
    def test_zero_stat_is_honest(self):
        assert decide(0.0, -10.0) is Decision.HONEST

    def test_exact_threshold_ties_to_honest(self):
        assert decide(-10.0, -10.0) is Decision.HONEST

    def test_below_threshold_is_attack(self):
        assert decide(-10.5, -10.0) is Decision.ATTACK


class TestDetRatioBound:
    def test_fdi_is_exactly_one(self):
        m = model()
        cfg = AttackConfig((1,))
        pol = Fdi(np.array([1.0]))
        states = simulate_ensemble(m, Zero(), (cfg, pol), 10, [4]).states
        series = detect_ensemble(states, m, Zero(), pol, cfg).row(0)
        for n in (1, 5, 10):
            assert det_ratio_bound(series, n) == 1.0

    def test_replacement_sqrt_half(self):
        # honest covariance 2I, corrupt diag(1,2): sqrt(2/4) per step
        m = model()
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        states = simulate_ensemble(m, Zero(), (cfg, pol), 10, [5]).states
        series = detect_ensemble(states, m, Zero(), pol, cfg).row(0)
        assert det_ratio_bound(series, 1) == pytest.approx(1.0 / math.sqrt(2.0))
        assert det_ratio_bound(series, 10) == pytest.approx(2.0 ** -5)

    def test_stays_in_unit_interval_for_replacement(self):
        m = model(dynamics=np.array([[0.3, 0.1], [0.0, 0.6]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.5])
        states = simulate_ensemble(m, Zero(), (cfg, pol), 50, [6]).states
        series = detect_ensemble(states, m, Zero(), pol, cfg).row(0)
        for n in range(1, 51):
            assert 0.0 < det_ratio_bound(series, n) < 1.0


class TestJointOracle:
    def test_scalar_one_step_marginal(self):
        # A=0, b=1, zero gain, unit noise and excitation, point start:
        # x_1 ~ N(0, 2), evaluated at 0
        m = model(n=1, dynamics=[[0.0]], gains=[1.0], noise=[[1.0]],
                  excitation=[1.0], initial=Dirac([0.0]))
        value = joint_log_density_oracle(np.array([[0.0], [0.0]]), m, Zero())
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5 * math.log(2.0))

    def test_zero_length_horizon_gaussian_initial(self):
        init = GaussianLaw([0.5, -0.5], make_spd([[2.0, 0.3], [0.3, 1.0]]))
        m = model(initial=init)
        value = joint_log_density_oracle(np.array([[0.7, 0.1]]), m, Zero())
        assert value == pytest.approx(log_gaussian_density([0.7, 0.1], init))

    def test_chain_rule_equivalence_random_models(self):
        # the package's log ratio is the difference of the two laws' joint path densities
        rng = np.random.default_rng(7)
        kinds = sorted(ATTACK_BUILDERS)
        for i in range(12):
            n_agents = int(rng.integers(1, 4))
            a = rng.standard_normal((n_agents, n_agents)) * 0.3
            gains = rng.standard_normal(n_agents)
            g = rng.standard_normal((n_agents, n_agents))
            noise = g @ g.T + 0.3 * np.eye(n_agents)
            if rng.random() < 0.5:
                initial = Dirac(rng.standard_normal(n_agents))
            else:
                gg = rng.standard_normal((n_agents, n_agents))
                initial = GaussianLaw(rng.standard_normal(n_agents),
                                      make_spd(gg @ gg.T + 0.3 * np.eye(n_agents)))
            m = model(n=n_agents, dynamics=a, gains=gains, noise=noise,
                      excitation=rng.random(n_agents), initial=initial)
            policy = LinearFeedback(rng.standard_normal((n_agents, n_agents)) * 0.2)
            cfg, corrupt = random_attack(rng, n_agents, kinds[i % len(kinds)])
            states = simulate_ensemble(m, policy, (cfg, corrupt), 10,
                                       [int(rng.integers(0, 2 ** 32))]).states
            log_l = detect_ensemble(states, m, policy, corrupt, cfg).cum_log_l[0, -1]
            assert abs(log_l - joint_log_ratio_oracle(states[0], m, policy, corrupt, cfg)) < 1e-8

    def test_affine_policy_supported(self):
        m = model(dynamics=np.array([[0.4, 0.1], [0.0, 0.3]]))
        policy = Affine(-0.2 * np.eye(2), np.array([0.5, -0.5]))
        cfg = AttackConfig((2,))
        for kind, build in ATTACK_BUILDERS.items():
            corrupt = build(np.array([0.7]), 1)
            states = simulate_ensemble(m, policy, (cfg, corrupt), 6, [8]).states
            log_l = detect_ensemble(states, m, policy, corrupt, cfg).cum_log_l[0, -1]
            joint = joint_log_ratio_oracle(states[0], m, policy, corrupt, cfg)
            assert abs(log_l - joint) < 1e-8, kind

    def test_history_policy_rejected(self):
        m = model()
        states = simulate_ensemble(m, Zero(), None, 2, [9]).states[0]
        with pytest.raises(ValueError):
            joint_log_density_oracle(states, m, HistoryWindow((np.eye(2),)))


class TestExpectedStepDrift:
    def test_equal_laws_zero(self):
        m = model()
        est = expected_step_drift(m, Zero(), Mimic(DiagonalPsd([1.0])), AttackConfig((1,)))
        assert est.method == "closed_form"
        assert est.value == 0.0

    def test_scalar_equal_mean_closed_form(self):
        # honest variance 2, corrupt 1 on the attacked channel:
        # -1/2 [1/2 - 1 + log 2] = 1/4 - log(2)/2
        m = model()
        est = expected_step_drift(m, Zero(), Replacement.constant([0.0]), AttackConfig((1,)))
        assert est.value == pytest.approx(0.25 - 0.5 * math.log(2.0))

    def test_fdi_mean_shift_closed_form(self):
        # gain 1, honest variance 2, offset d: drift = -d^2 / 4
        m = model()
        est = expected_step_drift(m, Zero(), Fdi(np.array([1.0])), AttackConfig((1,)))
        assert est.method == "closed_form"
        assert est.value == pytest.approx(-0.25)

    def test_gain_matched_scaled_state_uses_closed_form(self):
        m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]),
                  noise=np.diag([0.04, 2.0]), excitation=[0.16, 1.0])
        est = expected_step_drift(m, LinearFeedback(np.diag([-0.2, -0.2])),
                                  Replacement.scaled_state([-0.2]), AttackConfig((1,)))
        assert est.method == "closed_form"
        assert est.value == pytest.approx(-0.5 * (-0.8 + math.log(5.0)))

    def test_state_dependent_gap_is_exact(self):
        m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]))
        honest, pol, cfg = LinearFeedback(np.diag([-0.2, -0.2])), DoS(), AttackConfig((1,))
        est = expected_step_drift(m, honest, pol, cfg)
        assert est.method == "lyapunov"
        mean, stderr = monte_carlo_drift(m, honest, pol, cfg, base=1)
        assert abs(est.value - mean) <= 5 * stderr
        assert est.value < 0.0

    def test_unstable_corrupt_loop_has_no_drift(self):
        # DoS removes the stabilising feedback of agent 1: its loop gain is 1.2
        m = model(dynamics=np.array([[1.2, 0.0], [0.0, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = expected_step_drift(m, LinearFeedback(np.diag([-0.9, -0.2])), DoS(),
                                      AttackConfig((1,)))
        assert est.value is None and est.method == "unstable"
        # the same open loop with no state-dependent gap keeps its closed form
        est = expected_step_drift(m, Zero(), DoS(), AttackConfig((1,)))
        assert est.method == "closed_form"
        assert est.value == pytest.approx(0.25 - 0.5 * math.log(2.0))

    def test_time_varying_fdi_has_no_drift(self):
        est = expected_step_drift(model(), Zero(), Fdi(np.ones((30, 1))), AttackConfig((1,)))
        assert est.value is None and est.method == "time_varying"

    def test_monte_carlo_agrees_with_closed_form(self):
        m = model()
        pol = Replacement.constant([0.0])
        cfg = AttackConfig((1,))
        closed = expected_step_drift(m, Zero(), pol, cfg).value
        states = simulate_ensemble(m, Zero(), (cfg, pol), 20_000, [10]).states
        mean = detect_ensemble(states, m, Zero(), pol, cfg).cum_log_l[0, -1] / 20_000
        ratios = detect_per_law(states, m, Zero(), pol, cfg).step_log_ratio
        assert mean == pytest.approx(closed, abs=4 * np.std(ratios) / 140)


def test_two_path_energy_ratio_limit_matches_trace_oracle():
    # the residual energies of two paths, each against its own law's
    # predictor: honest-path cum_s over attacked-path cum_s_breve. Each
    # side's residuals are the true one-step noise of its own law, so the
    # ratio -> [tr(V) / lambda_min(V)] / [tr(Vb) / lambda_max(Vb)];
    # here (3.2 / 0.2) / (3.04 / 3) = 15.789...
    m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]),
              noise=np.diag([0.04, 2.0]), excitation=[0.16, 1.0])
    honest = LinearFeedback(np.diag([-0.2, -0.2]))
    cfg = AttackConfig((1,))
    pol = Replacement.scaled_state([-0.2])
    honest_states = simulate_ensemble(m, honest, None, 2000, [15]).states
    attacked_states = simulate_ensemble(m, honest, (cfg, pol), 2000, [16]).states
    cum_s = detect_ensemble(honest_states, m, honest, None, None).cum_s[0]
    cum_s_breve = detect_ensemble(attacked_states, m, honest, pol, cfg).cum_s_breve[0]
    oracle = (3.2 / 0.2) / (3.04 / 3.0)
    assert float(cum_s[-1] / cum_s_breve[-1]) == pytest.approx(oracle, rel=0.1)


def test_history_dependent_policy_end_to_end():
    # window feedback is the history-dependent policy class; detection and
    # the exact drift must both handle it
    m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]),
              noise=np.diag([0.04, 2.0]), excitation=[0.16, 1.0])
    honest = HistoryWindow((-0.2 * np.eye(2), 0.1 * np.eye(2)))
    cfg = AttackConfig((1,))
    pol = Fdi(np.array([0.5]))
    est = expected_step_drift(m, honest, pol, cfg)
    assert est.method == "closed_form"  # constant offset: gap is b * d
    states = simulate_ensemble(m, honest, (cfg, pol), 400, [17]).states
    log_l = detect_ensemble(states, m, honest, pol, cfg).cum_log_l[0, -1]
    assert decide(log_l, -10.0) is Decision.ATTACK
    assert log_l / 400 == pytest.approx(est.value, rel=0.5)

    # state-dependent corruption of a window policy: the lag-stacked loop
    flip = Replacement.sign_flip()
    est2 = expected_step_drift(m, honest, flip, cfg)
    assert est2.method == "lyapunov"
    mean, stderr = monte_carlo_drift(m, honest, flip, cfg, base=3)
    assert abs(est2.value - mean) <= 5 * stderr
    assert est2.value < 0.0


def monte_carlo_drift(m, honest, corrupt, cfg, *, seeds=200, horizon=500, burn=100, base=0):
    """Test-only oracle of the stationary drift: simulate and average.

    Each seed's step log ratios after ``burn`` steps are averaged, as the
    difference of two prefix sums, and the standard error is taken across
    the independent seeds, not over the autocorrelated steps of one path.
    """
    ens = simulate_ensemble(m, honest, (cfg, corrupt), horizon,
                            [split_seed(base, i) for i in range(seeds)])
    assert not ens.failed_at.any()
    cum_log_l = detect_ensemble(ens.states, m, honest, corrupt, cfg).cum_log_l
    per_seed = (cum_log_l[:, -1] - cum_log_l[:, burn - 1]) / (horizon - burn)
    return float(per_seed.mean()), float(per_seed.std(ddof=1) / math.sqrt(seeds))


@pytest.mark.parametrize("name", ["replacement", "fdi", "dos", "mimic", "example1",
                                  "example2"])
def test_drift_of_every_attacked_preset_matches_the_oracle(name):
    s = scenario_from_dict(preset(name))
    cfg, corrupt = s.attack
    est = expected_step_drift(s.model, s.honest, corrupt, cfg)
    mean, stderr = monte_carlo_drift(s.model, s.honest, corrupt, cfg, base=s.seed_base)
    assert abs(est.value - mean) <= 5 * stderr + 1e-12, (est, mean, stderr)


HONEST_BUILDERS = {
    "zero": lambda gain, offset, lag2: Zero(),
    "linear": lambda gain, offset, lag2: LinearFeedback(gain),
    "affine": lambda gain, offset, lag2: Affine(gain, offset),
    "window": lambda gain, offset, lag2: HistoryWindow((gain, lag2)),
}


def _matrix(n, scale):
    return st.lists(st.floats(-scale, scale), min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n))


@st.composite
def stable_scenarios(draw, honest_kind, attack_kind):
    n = draw(st.integers(1, 3))
    agents = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    cfg = AttackConfig(tuple(sorted(agents)))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    m = model(n=n, dynamics=draw(_matrix(n, 0.5)), gains=vec(0.5, 1.5),
              noise=np.diag(vec(0.2, 1.5)), excitation=vec(0.1, 1.0))
    honest = HONEST_BUILDERS[honest_kind](draw(_matrix(n, 0.6)), vec(-1.0, 1.0),
                                          draw(_matrix(n, 0.3)))
    corrupt = ATTACK_BUILDERS[attack_kind](vec(-1.0, 1.0), cfg.malicious_count)
    # keep the corrupt closed loop well inside the unit circle, so that a
    # burn-in of 100 steps reaches the stationary law
    # F on the lag window (x_{t-L+1}, ..., x_t): shift up, loop rows last
    corrupt_rows = lift(honest, (cfg, corrupt), n).corrupt_gains
    f = np.eye(corrupt_rows.shape[1], k=n)
    f[-n:] = m.actuator_gains[:, None] * corrupt_rows
    f[-n:, -n:] += m.dynamics
    assume(np.abs(np.linalg.eigvals(f)).max() < 0.8)
    return m, honest, corrupt, cfg


@pytest.mark.parametrize("attack_kind", sorted(ATTACK_BUILDERS))
@pytest.mark.parametrize("honest_kind", sorted(HONEST_BUILDERS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_drift_matches_the_monte_carlo_oracle(honest_kind, attack_kind, data):
    m, honest, corrupt, cfg = data.draw(stable_scenarios(honest_kind, attack_kind))
    est = expected_step_drift(m, honest, corrupt, cfg)
    assert est.value is not None
    mean, stderr = monte_carlo_drift(m, honest, corrupt, cfg, seeds=100, horizon=400)
    assert abs(est.value - mean) <= 5 * stderr + 1e-12, (est, mean, stderr)


def test_series_summary_round_trip(tmp_path, capsys):
    # detect's summary is the seed's row of the batch loop, as JSON
    data = preset("replacement")
    data["horizon"] = 20
    (tmp_path / "s.json").write_text(json.dumps(data))
    assert cli.main(["detect", str(tmp_path / "s.json"), "--seed", "14",
                     "--out", str(tmp_path / "series.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"n", "logL", "r_n", "decision", "threshold", "drift_estimate"}
    s = scenario_from_dict(data)
    cfg, pol = s.attack
    series = detect_ensemble(simulate_ensemble(s.model, s.honest, s.attack, 20, [14]).states,
                             s.model, s.honest, pol, cfg).row(0)
    assert summary == {"n": 20, "logL": series.cum_log_l[-1], "r_n": series.r_n[-1],
                       "decision": decide(series.cum_log_l[-1], s.threshold).value,
                       "threshold": s.threshold,
                       "drift_estimate": expected_step_drift(s.model, s.honest, pol, cfg).value}
    assert (tmp_path / "series.csv").read_text() == next(series_csv_tile(series, 0))


def plain_series_csv(series):
    """Test-only oracle of one seed's CSV: every cell formatted on its own and joined."""
    cols = [map(str, range(1, series.horizon + 1)),
            map(repr, series.cum_log_l.tolist()),
            [repr(r) if ok else "" for r, ok in zip(series.r_n.tolist(),
                                                    series.r_defined.tolist())],
            map(repr, series.cum_s.tolist()),
            map(repr, series.cum_s_breve.tolist()),
            map(repr, series.cum_logdet_ratio.tolist())]
    return ("t,logL,r_n,s_sum,sbreve_sum,logdet_ratio_sum\n"
            + "\n".join(map(",".join, zip(*cols))) + "\n")


CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1]))


@st.composite
def series_batches(draw):
    """Batches of 1-5 seeds whose cells are any floats, with undefined r_n cells.

    The logdet column is one row shared by every seed, as
    :func:`detect_ensemble` gives it; its steps differ from one another.
    """
    seeds, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))

    def cells(shape):
        return np.array(draw(st.lists(CELLS, min_size=seeds * n, max_size=seeds * n)),
                        dtype=float).reshape(shape)

    r_defined = np.array(draw(st.lists(st.booleans(), min_size=seeds * n,
                                       max_size=seeds * n))).reshape(seeds, n)
    logdet = np.array(draw(st.lists(CELLS, min_size=n, max_size=n)), dtype=float)
    return DetectionSeries(
        cum_log_l=cells((seeds, n)), cum_s=cells((seeds, n)), cum_s_breve=cells((seeds, n)),
        cum_logdet_ratio=np.tile(logdet, (seeds, 1)), r_n=cells((seeds, n)),
        r_defined=r_defined)


@settings(max_examples=200, deadline=None)
@given(batch=series_batches())
def test_every_batch_file_is_the_per_cell_oracle(batch):
    texts = list(series_csv_tile(batch, 0))
    assert len(texts) == batch.cum_log_l.shape[0]
    for k, text in enumerate(texts):
        assert text == plain_series_csv(batch.row(k))
    # a single seed's series, not a batch of one, gives the same text
    assert list(series_csv_tile(batch.row(0), 0)) == texts[:1]


def test_undefined_and_special_cells_by_hand():
    batch = DetectionSeries(
        cum_log_l=np.array([[-0.0, math.inf]]),
        cum_s=np.array([[0.5, math.nan]]), cum_s_breve=np.array([[0.0, -math.inf]]),
        cum_logdet_ratio=np.array([[0.25, 0.5]]), r_n=np.array([[math.nan, 3.0]]),
        r_defined=np.array([[False, True]]))
    assert list(series_csv_tile(batch, 0)) == [
        "t,logL,r_n,s_sum,sbreve_sum,logdet_ratio_sum\n"
        "1,-0.0,,0.5,0.0,0.25\n"
        "2,inf,3.0,nan,-inf,0.5\n"]


@pytest.mark.parametrize("name", ["replacement", "fdi"])
def test_no_seeds_write_no_lines(name):
    s = scenario_from_dict(preset(name))
    cfg, corrupt = s.attack
    states = simulate_ensemble(s.model, s.honest, s.attack, 30, [1, 2, 3]).states
    batch = detect_ensemble(states, s.model, s.honest, corrupt, cfg)
    assert list(series_csv_tile(batch.row(np.zeros(3, bool)), 0)) == []
    # a batch of no seeds has empty series, which write no lines either
    empty = detect_ensemble(states[:0], s.model, s.honest, corrupt, cfg)
    assert empty.cum_log_l.shape == empty.cum_logdet_ratio.shape == (0, 30)
    assert list(series_csv_tile(empty, 0)) == []


@pytest.mark.parametrize("name", ["identity", "replacement", "fdi", "dos", "mimic",
                                  "example1", "example2"])
def test_preset_batches_share_the_logdet_column_and_match_the_one_seed_writer(name):
    s = scenario_from_dict(preset(name))
    cfg, corrupt = s.attack if s.attack is not None else (None, None)
    ens = simulate_ensemble(s.model, s.honest, s.attack, s.horizon,
                            [split_seed(s.seed_base, i) for i in range(4)])
    batch = detect_ensemble(ens.states, s.model, s.honest, corrupt, cfg)
    logdet = batch.cum_logdet_ratio
    assert (logdet.view(np.int64) == logdet[:1].view(np.int64)).all()
    for k, text in enumerate(series_csv_tile(batch, 0)):
        assert list(series_csv_tile(batch.row(k), 0)) == [text]
        assert text == plain_series_csv(batch.row(k))



GATE_HONEST = {
    "zero": (Zero(), 40),
    "linear": (LinearFeedback([[-0.2, 0.05, 0.0], [0.0, -0.1, 0.02], [0.03, 0.0, -0.15]]), 40),
    "affine": (Affine([[-0.2, 0.05, 0.0], [0.0, -0.1, 0.02], [0.03, 0.0, -0.15]],
                      [0.3, -0.2, 0.1]), 40),
    "window": (HistoryWindow((-0.2 * np.eye(3), 0.1 * np.ones((3, 3)), -0.05 * np.eye(3))), 40),
    # more lags than steps: every window reaches before x_0
    "window-short": (HistoryWindow(tuple((-0.1) ** k * np.eye(3) for k in range(1, 7))), 4),
}
GATE_ATTACKS = {
    "none": None,
    "constant": Replacement.constant([0.4, -0.3]),
    "scaled-state": Replacement.scaled_state([-0.3, 0.2]),
    "sign-flip": Replacement.sign_flip(),
    "fdi": Fdi([0.5, -0.25]),
    "fdi-steps": Fdi(np.linspace(-1.0, 1.0, 80).reshape(40, 2)),
    "dos": DoS(),
    "mimic": Mimic(DiagonalPsd([0.3, 0.8])),
    "mimic-honest": Mimic(DiagonalPsd([1.0, 0.5])),  # the attacked channels' own excitation
}


@pytest.mark.parametrize("attack_kind", sorted(GATE_ATTACKS))
@pytest.mark.parametrize("honest_kind", sorted(GATE_HONEST))
def test_detect_ensemble_matches_the_per_law_oracle(honest_kind, attack_kind):
    """Every field of the stacked-residual detector against the per-law route.

    The oracle computes each law's means, the drift A x and the residuals
    separately, and the quadratic forms by forward substitution. Each
    field agrees at rtol 1e-12; the log ratio's prefix sums are sums of
    differences of log densities, so theirs is relative to the prefix sums
    of the densities that cancel. Where the laws agree, the log ratio is
    exactly 0.
    """
    honest, horizon = GATE_HONEST[honest_kind]
    corrupt = GATE_ATTACKS[attack_kind]
    cfg = AttackConfig((1, 3))
    m = model(n=3, dynamics=np.array([[0.5, 0.2, 0.0], [0.1, 0.4, 0.1], [0.0, 0.2, 0.3]]),
              gains=np.array([1.0, 0.8, 1.2]),
              noise=np.array([[0.5, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]]),
              excitation=np.array([1.0, 0.7, 0.5]),
              initial=GaussianLaw(np.ones(3), DiagonalPsd([1.0, 0.5, 2.0])))
    attack = None if corrupt is None else (cfg, corrupt)
    ens = simulate_ensemble(m, honest, attack, horizon, [split_seed(31, i) for i in range(5)])
    got = detect_ensemble(ens.states, m, honest, corrupt, cfg)
    want = detect_per_law(ens.states, m, honest, corrupt, cfg)
    assert np.array_equal(got.r_defined, want.r_defined)
    for name in ("cum_s", "cum_s_breve", "cum_logdet_ratio", "r_n"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12,
                                   atol=0.0, err_msg=name)
    tol = np.cumsum(np.abs(want.honest_logdens) + np.abs(want.corrupt_logdens), axis=-1)
    error = np.abs(got.cum_log_l - want.cum_log_l)
    assert (error <= 1e-12 * tol).all(), float((error / tol).max())
    if attack_kind in ("none", "mimic-honest"):
        assert (got.cum_log_l == 0.0).all()
