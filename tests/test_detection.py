import math

import numpy as np
import pytest

from cps_sentinel.detection import (
    Decision,
    UndefinedRatio,
    classify,
    det_ratio_bound,
    expected_step_drift,
    joint_log_density_oracle,
    rn_series,
    rn_series_two_path,
    series_csv_text,
    series_summary,
)
from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel.numerics import (
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    log_gaussian_density,
    make_spd,
)
from cps_sentinel.policies import Affine, DoS, Fdi, LinearFeedback, Mimic, Replacement, Zero
from cps_sentinel.simulator import Trajectory, simulate


def model(n=2, dynamics=None, gains=None, noise=None, excitation=None, initial=None):
    return CpsModel(
        n_agents=n,
        dynamics=np.zeros((n, n)) if dynamics is None else dynamics,
        actuator_gains=np.ones(n) if gains is None else gains,
        process_noise=np.eye(n) if noise is None else noise,
        excitation=np.ones(n) if excitation is None else excitation,
        initial_law=Dirac(np.zeros(n)) if initial is None else initial,
    )


def manual_trajectory(states, attacked=False):
    states = np.asarray(states, dtype=float)
    n, width = states.shape[0] - 1, states.shape[1]
    return Trajectory(states, np.zeros((n, width)), np.zeros((n, width)),
                      seed=0, attacked=attacked)


class TestRnSeries:
    def test_identity_corrupt_law_gives_zero_log_ratio(self):
        # mimic with the honest excitation block and the honest mean map
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Mimic(DiagonalPsd([1.0]))
        traj = simulate(m, LinearFeedback(-0.1 * np.eye(2)), (cfg, pol), 300, seed=1)
        series = rn_series(traj, m, LinearFeedback(-0.1 * np.eye(2)), pol, cfg)
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
        traj = manual_trajectory([[0.0, 0.0], [1.0, 0.0]], attacked=True)
        series = rn_series(traj, m, Zero(), pol, cfg)
        assert series.step_log_ratio[0] == pytest.approx(0.25 - 0.5 * math.log(2.0))

    def test_cumulative_matches_fsum(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([1.0])
        traj = simulate(m, Zero(), (cfg, pol), 200, seed=2)
        series = rn_series(traj, m, Zero(), pol, cfg)
        ratios = series.step_log_ratio.tolist()
        for n in (1, 50, 200):
            assert series.log_l_at(n) == pytest.approx(math.fsum(ratios[:n]), abs=1e-10)

    def test_rayleigh_sandwich_per_step(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.1, 0.4]]),
                  noise=np.array([[1.0, 0.3], [0.3, 2.0]]))
        cfg = AttackConfig((2,))
        pol = DoS()
        traj = simulate(m, LinearFeedback(-0.2 * np.eye(2)), (cfg, pol), 100, seed=3)
        series = rn_series(traj, m, LinearFeedback(-0.2 * np.eye(2)), pol, cfg)
        from cps_sentinel.numerics import eig_extremes, quad_form_inv
        from cps_sentinel.policies import honest_mean
        from cps_sentinel.simulator import conditional_covariances
        h_cov, _ = conditional_covariances(m, pol, cfg)
        lo, hi = eig_extremes(h_cov)
        for t in (0, 10, 99):
            g = honest_mean(LinearFeedback(-0.2 * np.eye(2)), traj.states[: t + 1], t)
            z = traj.states[t + 1] - (m.dynamics @ traj.states[t] + m.actuator_gains * g)
            q = quad_form_inv(h_cov, z)
            norm2 = float(z @ z)
            assert norm2 / hi * (1 - 1e-9) <= q <= norm2 / lo * (1 + 1e-9)
            # s_t is the same residual energy over the smallest eigenvalue
            assert series.s[t] == pytest.approx(norm2 / lo, rel=1e-12)

    def test_undefined_ratio_flagged_not_infinite(self):
        m = model()
        traj = manual_trajectory([[0.0, 0.0], [0.0, 0.0]])
        series = rn_series(traj, m, Zero(), Replacement.constant([0.0]), AttackConfig((1,)))
        assert not series.r_defined[0]
        assert np.isnan(series.r_n[0])
        with pytest.raises(UndefinedRatio):
            series.rn_at(1)
        csv_text = series_csv_text(series)
        row = csv_text.strip().split("\n")[1].split(",")
        assert row[2] == ""  # empty cell, never inf


class TestClassify:
    def make_series(self, value, n=1):
        import dataclasses
        m = model()
        traj = manual_trajectory([[0.0, 0.0]] + [[1.0, 0.0]] * n)
        series = rn_series(traj, m, Zero(), None, None)
        return dataclasses.replace(series, cum_log_l=np.full(n, float(value)))

    def test_zero_stat_is_honest(self):
        assert classify(self.make_series(0.0), 1, -10.0) is Decision.HONEST

    def test_exact_threshold_ties_to_honest(self):
        assert classify(self.make_series(-10.0), 1, -10.0) is Decision.HONEST

    def test_below_threshold_is_attack(self):
        assert classify(self.make_series(-10.5), 1, -10.0) is Decision.ATTACK


class TestDetRatioBound:
    def test_fdi_is_exactly_one(self):
        m = model()
        cfg = AttackConfig((1,))
        pol = Fdi(np.array([1.0]))
        traj = simulate(m, Zero(), (cfg, pol), 10, seed=4)
        series = rn_series(traj, m, Zero(), pol, cfg)
        for n in (1, 5, 10):
            assert det_ratio_bound(series, n) == 1.0

    def test_replacement_sqrt_half(self):
        # honest covariance 2I, corrupt diag(1,2): sqrt(2/4) per step
        m = model()
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        traj = simulate(m, Zero(), (cfg, pol), 10, seed=5)
        series = rn_series(traj, m, Zero(), pol, cfg)
        assert det_ratio_bound(series, 1) == pytest.approx(1.0 / math.sqrt(2.0))
        assert det_ratio_bound(series, 10) == pytest.approx(2.0 ** -5)

    def test_stays_in_unit_interval_for_replacement(self):
        m = model(dynamics=np.array([[0.3, 0.1], [0.0, 0.6]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.5])
        traj = simulate(m, Zero(), (cfg, pol), 50, seed=6)
        series = rn_series(traj, m, Zero(), pol, cfg)
        for n in range(1, 51):
            assert 0.0 < det_ratio_bound(series, n) < 1.0


class TestJointOracle:
    def test_scalar_one_step_marginal(self):
        # A=0, b=1, zero gain, unit noise and excitation, point start:
        # x_1 ~ N(0, 2), evaluated at 0
        m = model(n=1, dynamics=[[0.0]], gains=[1.0], noise=[[1.0]],
                  excitation=[1.0], initial=Dirac([0.0]))
        traj = manual_trajectory([[0.0], [0.0]])
        value = joint_log_density_oracle(traj, m, Zero())
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5 * math.log(2.0))

    def test_zero_length_horizon_gaussian_initial(self):
        init = GaussianLaw([0.5, -0.5], make_spd([[2.0, 0.3], [0.3, 1.0]]))
        m = model(initial=init)
        traj = manual_trajectory([[0.7, 0.1]])
        value = joint_log_density_oracle(traj, m, Zero())
        assert value == pytest.approx(log_gaussian_density([0.7, 0.1], init))

    def test_chain_rule_equivalence_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
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
            traj = simulate(m, policy, None, 10, seed=int(rng.integers(0, 2 ** 32)))
            series = rn_series(traj, m, policy, None, None)
            chain = math.fsum(series.honest_logdens)
            if isinstance(initial, GaussianLaw):
                chain += log_gaussian_density(traj.states[0], initial)
            assert abs(chain - joint_log_density_oracle(traj, m, policy)) < 1e-8

    def test_affine_policy_supported(self):
        m = model(dynamics=np.array([[0.4, 0.1], [0.0, 0.3]]))
        policy = Affine(-0.2 * np.eye(2), np.array([0.5, -0.5]))
        traj = simulate(m, policy, None, 6, seed=8)
        series = rn_series(traj, m, policy, None, None)
        chain = math.fsum(series.honest_logdens)
        assert abs(chain - joint_log_density_oracle(traj, m, policy)) < 1e-8

    def test_history_policy_rejected(self):
        from cps_sentinel.policies import HistoryWindow
        m = model()
        traj = simulate(m, Zero(), None, 2, seed=9)
        with pytest.raises(ValueError):
            joint_log_density_oracle(traj, m, HistoryWindow((np.eye(2),)))


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

    def test_state_dependent_gap_falls_back_to_monte_carlo(self):
        m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]))
        est = expected_step_drift(m, LinearFeedback(np.diag([-0.2, -0.2])), DoS(),
                                  AttackConfig((1,)), mc_steps=4000, seed=1)
        assert est.method == "monte_carlo"
        assert est.stderr > 0.0
        assert est.value < 0.0

    def test_monte_carlo_agrees_with_closed_form(self):
        m = model()
        pol = Replacement.constant([0.0])
        cfg = AttackConfig((1,))
        closed = expected_step_drift(m, Zero(), pol, cfg).value
        traj = simulate(m, Zero(), (cfg, pol), 20_000, seed=10)
        series = rn_series(traj, m, Zero(), pol, cfg)
        ratios = series.step_log_ratio
        assert np.mean(ratios) == pytest.approx(closed, abs=4 * np.std(ratios) / 140)


class TestTwoPathRatio:
    def test_same_path_matches_single_path_series(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        traj = simulate(m, Zero(), (cfg, pol), 50, seed=11)
        single = rn_series(traj, m, Zero(), pol, cfg)
        two = rn_series_two_path(traj, traj, m, Zero(), pol, cfg)
        np.testing.assert_array_equal(two.r_n, single.r_n)

    def test_distinct_paths(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        honest_traj = simulate(m, Zero(), None, 50, seed=12)
        attacked_traj = simulate(m, Zero(), (cfg, pol), 50, seed=13)
        two = rn_series_two_path(honest_traj, attacked_traj, m, Zero(), pol, cfg)
        assert two.r_defined.all()
        assert np.isfinite(two.r_n).all()

    def test_two_path_limit_matches_trace_oracle(self):
        # each side's residuals are the true one-step noise of its own law,
        # so r_n -> [tr(V) / lambda_min(V)] / [tr(Vb) / lambda_max(Vb)];
        # here (3.2 / 0.2) / (3.04 / 3) = 15.789...
        m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]),
                  noise=np.diag([0.04, 2.0]), excitation=[0.16, 1.0])
        honest = LinearFeedback(np.diag([-0.2, -0.2]))
        cfg = AttackConfig((1,))
        pol = Replacement.scaled_state([-0.2])
        honest_traj = simulate(m, honest, None, 2000, seed=15)
        attacked_traj = simulate(m, honest, (cfg, pol), 2000, seed=16)
        two = rn_series_two_path(honest_traj, attacked_traj, m, honest, pol, cfg)
        oracle = (3.2 / 0.2) / (3.04 / 3.0)
        assert float(two.r_n[-1]) == pytest.approx(oracle, rel=0.1)

    def test_horizon_mismatch_rejected(self):
        m = model()
        a = simulate(m, Zero(), None, 5, seed=1)
        b = simulate(m, Zero(), None, 6, seed=1)
        with pytest.raises(ValueError):
            rn_series_two_path(a, b, m, Zero(), None, None)


def test_history_dependent_policy_end_to_end():
    # window feedback is the history-dependent policy class; detection and
    # the Monte Carlo drift route must both handle it
    from cps_sentinel.policies import HistoryWindow
    m = model(dynamics=np.array([[0.5, 0.3], [0.0, 0.5]]),
              noise=np.diag([0.04, 2.0]), excitation=[0.16, 1.0])
    honest = HistoryWindow((-0.2 * np.eye(2), 0.1 * np.eye(2)))
    cfg = AttackConfig((1,))
    pol = Fdi(np.array([0.5]))
    est = expected_step_drift(m, honest, pol, cfg, mc_steps=5000, seed=2)
    assert est.method == "closed_form"  # constant offset: gap is b * d
    traj = simulate(m, honest, (cfg, pol), 400, seed=17)
    series = rn_series(traj, m, honest, pol, cfg)
    assert classify(series, 400, -10.0) is Decision.ATTACK
    assert series.log_l_at(400) / 400 == pytest.approx(est.value, rel=0.5)

    # state-dependent corruption of a window policy goes through Monte Carlo
    est2 = expected_step_drift(m, honest, Replacement.sign_flip(), cfg,
                               mc_steps=4000, seed=3)
    assert est2.method == "monte_carlo"
    assert est2.value < 0.0


def test_series_summary_round_trip():
    m = model()
    cfg = AttackConfig((1,))
    pol = Replacement.constant([0.0])
    traj = simulate(m, Zero(), (cfg, pol), 20, seed=14)
    series = rn_series(traj, m, Zero(), pol, cfg)
    drift = expected_step_drift(m, Zero(), pol, cfg)
    summary = series_summary(series, 20, -10.0, drift)
    assert set(summary) == {"n", "logL", "r_n", "decision", "threshold", "drift_estimate"}
    assert summary["n"] == 20
    assert summary["decision"] in ("honest", "attack")
