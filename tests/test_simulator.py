import csv
import io

import numpy as np
import pytest

from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel.numerics import DiagonalPsd, Dirac, GaussianLaw, logdet, make_spd, split_seed
from cps_sentinel.policies import (
    DoS,
    Fdi,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    control_means,
    lift,
)
from cps_sentinel.simulator import (
    NonFiniteState,
    conditional_covariances,
    path_tiles,
    simulate_ensemble,
    simulation_plan,
    trajectory_csv_tile,
)


def covariances(m, corrupt, cfg):
    attack = None if corrupt is None else (cfg, corrupt)
    return conditional_covariances(m, lift(Zero(), attack, m.n_agents))


def model(n=2, dynamics=None, gains=None, noise=None, excitation=None, initial=None):
    return CpsModel(
        n_agents=n,
        dynamics=np.zeros((n, n)) if dynamics is None else dynamics,
        actuator_gains=np.ones(n) if gains is None else gains,
        process_noise=np.eye(n) if noise is None else noise,
        excitation=np.ones(n) if excitation is None else excitation,
        initial_law=Dirac(np.zeros(n)) if initial is None else initial,
    )


class TestSimulate:
    def test_forced_dynamics_with_degenerate_noise(self):
        # A = 0, b = 0, zero process noise: everything after x_0 is zero
        m = model(dynamics=np.zeros((2, 2)), gains=np.zeros(2),
                  noise=np.zeros((2, 2)), initial=Dirac([1.0, 1.0]))
        states = simulate_ensemble(m, Zero(), None, 4, [0]).states[0]
        assert np.array_equal(states[0], [1.0, 1.0])
        assert np.array_equal(states[1:], np.zeros((4, 2)))

    def test_bit_reproducible_per_seed(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.0, 0.4]]))
        attack = (AttackConfig((1,)), Mimic(DiagonalPsd([1.0])))
        a, b = (simulate_ensemble(m, LinearFeedback(-0.1 * np.eye(2)), attack, 50, [123],
                                  keep_controls=True) for _ in range(2))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.excitations, b.excitations)

    def test_different_seeds_differ(self):
        m = model()
        states = simulate_ensemble(m, Zero(), None, 10, [1, 2]).states
        assert not np.array_equal(states[0], states[1])

    def test_scalar_stationary_variance(self):
        # x' = 0.5 x + u + w with u = e: Var_inf = (V_w + V_e) / (1 - 0.25) = 8/3
        m = model(n=1, dynamics=[[0.5]], gains=[1.0], noise=[[1.0]],
                  excitation=[1.0], initial=Dirac([0.0]))
        finals = simulate_ensemble(m, Zero(), None, 50, range(10_000)).states[:, -1, 0]
        target = 8.0 / 3.0
        assert abs(np.var(finals) - target) < 0.05 * target

    def test_nonfinite_state_raises(self):
        m = model(dynamics=10.0 * np.eye(2))
        ens = simulate_ensemble(m, Zero(), None, 400, [0])
        assert isinstance(ens.error(0), NonFiniteState)

    def test_gaussian_initial_law(self):
        m = model(initial=GaussianLaw([5.0, -5.0], make_spd(0.0001 * np.eye(2))))
        states = simulate_ensemble(m, Zero(), None, 1, [3]).states[0]
        assert np.abs(states[0] - [5.0, -5.0]).max() < 0.1

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_ensemble(model(), Zero(), None, 0, [0])

    def test_fdi_schedule_shorter_than_the_horizon(self):
        attack = (AttackConfig((1,)), Fdi(np.ones((20, 1))))
        simulate_ensemble(model(), Zero(), attack, 20, [1, 2])
        with pytest.raises(ValueError) as err:
            simulate_ensemble(model(), Zero(), attack, 21, [1, 2])
        assert str(err.value) == "fdi offset schedule has 20 steps, step 20 requested"


class TestConditionalCovariances:
    def test_no_attack_shares_the_object(self):
        h, c = covariances(model(), None, None)
        assert h is c

    def test_honest_block_values(self):
        # A=0, b=(1,1), V_e = I, V_w = I -> honest covariance 2I
        h, _ = covariances(model(), None, None)
        np.testing.assert_array_equal(h.mat, 2.0 * np.eye(2))

    def test_replacement_zeroes_attacked_excitation(self):
        _, c = covariances(model(), Replacement.constant([0.0]),
                                       AttackConfig((1,)))
        np.testing.assert_array_equal(c.mat, np.diag([1.0, 2.0]))

    def test_fdi_keeps_honest_covariance(self):
        h, c = covariances(model(), Fdi(np.array([1.0])), AttackConfig((1,)))
        np.testing.assert_array_equal(h.mat, c.mat)

    def test_mimic_uses_self_excitation(self):
        _, c = covariances(model(), Mimic(DiagonalPsd([0.25])),
                                       AttackConfig((1,)))
        np.testing.assert_array_equal(c.mat, np.diag([1.25, 2.0]))

    def test_spd_even_with_zero_gains(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = rng.standard_normal((n, n))
            gains = rng.standard_normal(n) * (rng.random(n) < 0.7)
            gains[0] = 1.0  # keep one actuated honest agent
            gains[1] = 1.0
            m = model(n=n, dynamics=rng.standard_normal((n, n)), gains=gains,
                      noise=g @ g.T + 0.05 * np.eye(n), excitation=rng.random(n),
                      initial=Dirac(np.zeros(n)))
            h, c = covariances(m, DoS(), AttackConfig((1,)))
            assert logdet(h) > -np.inf and logdet(c) > -np.inf

    def test_det_strictly_drops_for_replacement(self):
        # excitation removal shrinks the covariance volume whenever the
        # attacked channels carry positive excitation through nonzero gains
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = rng.standard_normal((n, n))
            gains = rng.standard_normal(n)
            gains[np.abs(gains) < 0.1] = 0.5
            k = int(rng.integers(1, n))
            mal = tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
            excitation = rng.random(n) + 0.05
            m = model(n=n, dynamics=np.zeros((n, n)), gains=gains,
                      noise=g @ g.T + 0.05 * np.eye(n), excitation=excitation,
                      initial=Dirac(np.zeros(n)))
            h, c = covariances(m, Replacement.constant(np.zeros(k)),
                                           AttackConfig(mal))
            assert logdet(c) < logdet(h)


def predicted_means(m, honest, corrupt, cfg, states, t):
    """Honest and corrupt one-step predictor means of x_{t+1} along ``states``."""
    attack = None if corrupt is None else (cfg, corrupt)
    g, c = control_means(lift(honest, attack, m.n_agents), states[: t + 1])
    g, c = g[t], c[t]
    drive = m.dynamics @ states[t]
    return drive + m.actuator_gains * g, drive + m.actuator_gains * c


class TestPredictedConditionals:
    def test_no_attack_direct_substitution(self):
        m = model()
        states = simulate_ensemble(m, Zero(), None, 3, [5]).states[0]
        mu_h, mu_c = predicted_means(m, Zero(), None, None, states, 1)
        np.testing.assert_array_equal(mu_h, np.zeros(2))
        np.testing.assert_array_equal(mu_c, mu_h)
        h_cov, c_cov = covariances(m, None, None)
        np.testing.assert_array_equal(h_cov.mat, 2.0 * np.eye(2))
        assert h_cov is c_cov

    def test_replacement_block_covariance(self):
        m = model()
        cfg = AttackConfig((1,))
        pol = Replacement.constant([0.0])
        states = simulate_ensemble(m, Zero(), (cfg, pol), 3, [5]).states[0]
        mu_h, mu_c = predicted_means(m, Zero(), pol, cfg, states, 0)
        np.testing.assert_array_equal(mu_c, mu_h)  # both channel means are 0
        _, c_cov = covariances(m, pol, cfg)
        np.testing.assert_array_equal(c_cov.mat, np.diag([1.0, 2.0]))

    def test_fdi_shifts_mean_keeps_covariance(self):
        m = model(dynamics=np.array([[0.3, 0.1], [0.0, 0.2]]), gains=[2.0, 1.0])
        cfg = AttackConfig((1,))
        pol = Fdi(np.array([1.0]))
        states = simulate_ensemble(m, Zero(), (cfg, pol), 3, [6]).states[0]
        mu_h, mu_c = predicted_means(m, Zero(), pol, cfg, states, 2)
        np.testing.assert_allclose(mu_c - mu_h, [2.0, 0.0])
        h_cov, c_cov = covariances(m, pol, cfg)
        np.testing.assert_array_equal(c_cov.mat, h_cov.mat)

    def test_markov_predictors_ignore_early_states(self):
        m = model(dynamics=np.array([[0.5, 0.2], [0.1, 0.4]]))
        cfg = AttackConfig((2,))
        pol = Replacement.scaled_state([0.3])
        honest = LinearFeedback(-0.2 * np.eye(2))
        states = simulate_ensemble(m, honest, (cfg, pol), 5, [7]).states[0]
        mutated = np.vstack([states[:4][::-1], states[4:]])
        for a, b in zip(predicted_means(m, honest, pol, cfg, states, 4),
                        predicted_means(m, honest, pol, cfg, mutated, 4)):
            assert np.array_equal(a, b)

    def test_sampled_control_means_match_predictors_for_every_kind(self):
        # the conditional mean fed to the predictor must agree with the
        # average of the controls the corrupt policy actually emits
        m = model(gains=[1.0, 2.0], excitation=[0.5, 1.0],
                  initial=Dirac([1.0, -1.0]))
        honest = LinearFeedback(np.array([[0.3, 0.0], [0.1, 0.2]]))
        cfg = AttackConfig((1,))
        kinds = [Replacement.constant([0.7]), Replacement.scaled_state([0.4]),
                 Replacement.sign_flip(), DoS(), Fdi(np.array([0.6])),
                 Mimic(DiagonalPsd([0.5]))]
        history = np.array([[1.0, -1.0]])
        seeds = [split_seed(55, i) for i in range(20_000)]
        for pol in kinds:
            states = simulate_ensemble(m, honest, (cfg, pol), 1, [0]).states[0]
            _, corrupt_mean = predicted_means(m, honest, pol, cfg, states, 0)
            # one step from x_0 for each seed: the controls the engine admits
            ens = simulate_ensemble(m, honest, (cfg, pol), 1, seeds, keep_controls=True)
            sampled_mean = m.dynamics @ history[0] + m.actuator_gains * ens.controls[:, 0].mean(0)
            assert np.abs(sampled_mean - corrupt_mean).max() < 0.06, pol

    def test_residual_covariance_converges(self):
        # one long stationary no-attack run: residual sample covariance
        # approaches the honest conditional covariance
        m = model(n=1, dynamics=[[0.5]], gains=[1.0], noise=[[1.0]],
                  excitation=[1.0], initial=Dirac([0.0]))
        states = simulate_ensemble(m, Zero(), None, 10_000, [8]).states[0]
        resid = states[1:, 0] - 0.5 * states[:-1, 0]
        assert abs(np.var(resid) - 2.0) < 0.05 * 2.0


def trajectory_csv(m, honest, attack, horizon, seed, steps=10_000):
    """One seed's trajectory CSV: its tiles of ``steps`` steps, joined."""
    plan = simulation_plan(m, honest, attack)
    return "".join(text for tile in path_tiles(plan, horizon, [seed], steps, keep_controls=True)
                   for text in trajectory_csv_tile(tile, horizon))


class TestTrajectoryCsv:
    def test_layout_and_terminal_row(self):
        m = model()
        lines = trajectory_csv(m, Zero(), None, 2, 9).strip().split("\n")
        assert lines[0] == "t,x_1,x_2,u_1,u_2,e_1,e_2"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert last[0] == "2" and last[3] == "" and last[-1] == ""
        assert float(last[1]) == simulate_ensemble(m, Zero(), None, 2, [9]).states[0, 2, 0]

    def test_columns_match_a_per_cell_writer(self):
        # zero controls included: a DoS channel, a sign flip of a zero mean
        # and a scaled state from x_0 = 0 all emit 0.0, never -0.0; tiles
        # of any whole number of blocks (32 steps) give the same text
        horizon = 70
        for pol in (DoS(), Replacement.sign_flip(), Replacement.scaled_state([-0.2])):
            attack = (AttackConfig((1,)), pol)
            ens = simulate_ensemble(model(), LinearFeedback(-0.2 * np.eye(2)), attack, horizon,
                                    [10], keep_controls=True)
            states, controls, excitations = ens.states[0], ens.controls[0], ens.excitations[0]
            ref = io.StringIO()
            writer = csv.writer(ref, lineterminator="\n")
            writer.writerow(["t", "x_1", "x_2", "u_1", "u_2", "e_1", "e_2"])
            for t in range(horizon):
                writer.writerow([t] + [repr(float(v)) for v in states[t]]
                                + [repr(float(v)) for v in controls[t]]
                                + [repr(float(v)) for v in excitations[t]])
            writer.writerow([horizon] + [repr(float(v)) for v in states[-1]] + [""] * 4)
            for steps in (32, 64, horizon):
                assert trajectory_csv(model(), LinearFeedback(-0.2 * np.eye(2)), attack,
                                      horizon, 10, steps) == ref.getvalue()
