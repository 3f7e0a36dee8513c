import numpy as np
import pytest

from cps_sentinel.model import AttackConfig
from cps_sentinel.numerics import DiagonalPsd
from cps_sentinel.policies import (
    Affine,
    DoS,
    Fdi,
    HistoryWindow,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    compose_control,
    control_means,
    honest_mean,
    is_markov,
)


def hist(*states):
    return np.array(states, dtype=float)


class TestHonestMean:
    def test_zero_policy(self):
        assert np.array_equal(honest_mean(Zero(), hist([3.0, -1.0]), 0), [0.0, 0.0])

    def test_identity_gain_reads_last_state(self):
        p = LinearFeedback(np.eye(2))
        out = honest_mean(p, hist([9.0, 9.0], [1.0, 2.0]), 1)
        assert np.array_equal(out, [1.0, 2.0])

    def test_window_combines_lagged_states(self):
        # gains (I, I/2) on states (x_{t-1}, x_t) = ((2,0),(1,1)) -> (2,1)
        p = HistoryWindow((np.eye(2), 0.5 * np.eye(2)))
        out = honest_mean(p, hist([2.0, 0.0], [1.0, 1.0]), 1)
        assert np.array_equal(out, [2.0, 1.0])

    def test_window_truncates_before_start(self):
        p = HistoryWindow((np.eye(2), 0.5 * np.eye(2)))
        out = honest_mean(p, hist([1.0, 1.0]), 0)
        assert np.array_equal(out, [1.0, 1.0])

    def test_affine(self):
        p = Affine(np.eye(2), np.array([1.0, -1.0]))
        out = honest_mean(p, hist([2.0, 2.0]), 0)
        assert np.array_equal(out, [3.0, 1.0])

    def test_gain_schedule(self):
        p = LinearFeedback((np.eye(2), 2.0 * np.eye(2)))
        assert np.array_equal(honest_mean(p, hist([1.0, 1.0]), 0), [1.0, 1.0])
        assert np.array_equal(
            honest_mean(p, hist([0.0, 0.0], [1.0, 1.0]), 1), [2.0, 2.0])

    def test_history_length_checked(self):
        with pytest.raises(ValueError):
            honest_mean(Zero(), hist([1.0, 1.0]), 1)

    def test_markov_classification(self):
        assert is_markov(Zero()) and is_markov(LinearFeedback(np.eye(2)))
        assert not is_markov(HistoryWindow((np.eye(2),)))

    def test_markov_ignores_all_but_last_state(self):
        p = LinearFeedback(np.array([[0.3, -0.1], [0.2, 0.5]]))
        h1 = hist([5.0, 5.0], [1.0, 2.0])
        h2 = hist([-7.0, 0.0], [1.0, 2.0])
        assert np.array_equal(honest_mean(p, h1, 1), honest_mean(p, h2, 1))


class TestComposeControl:
    def test_no_attack_is_mean_plus_excitation(self):
        e = np.array([0.1, -0.1])
        out = compose_control(Zero(), None, hist([0.0, 0.0]), 0, e)
        assert np.array_equal(out, e)

    def test_dos_drops_excitation_on_attacked_channel(self):
        attack = (AttackConfig((1,)), DoS())
        e = np.array([0.5, 0.5])
        out = compose_control(Zero(), attack, hist([0.0, 0.0]), 0, e)
        assert np.array_equal(out, [0.0, 0.5])

    def test_fdi_keeps_excitation_and_adds_offset(self):
        attack = (AttackConfig((1,)), Fdi(np.array([1.0])))
        e = np.array([0.2, 0.3])
        out = compose_control(Zero(), attack, hist([0.0, 0.0]), 0, e)
        np.testing.assert_allclose(out, [1.2, 0.3])

    def test_replacement_constant(self):
        attack = (AttackConfig((2,)), Replacement.constant([7.0]))
        e = np.array([0.2, 0.3])
        out = compose_control(Zero(), attack, hist([1.0, 1.0]), 0, e)
        np.testing.assert_allclose(out, [0.2, 7.0])

    def test_replacement_scaled_state(self):
        attack = (AttackConfig((1,)), Replacement.scaled_state([-0.5]))
        out = compose_control(Zero(), attack, hist([4.0, 1.0]), 0, np.zeros(2))
        np.testing.assert_allclose(out, [-2.0, 0.0])

    def test_replacement_sign_flip(self):
        p = LinearFeedback(np.eye(2))
        attack = (AttackConfig((1,)), Replacement.sign_flip())
        out = compose_control(p, attack, hist([3.0, 2.0]), 0, np.zeros(2))
        np.testing.assert_allclose(out, [-3.0, 2.0])

    def test_replacement_custom_hook(self):
        def takeover(history, t, malicious_idx):
            return history[-1][malicious_idx] + t

        attack = (AttackConfig((2,)), Replacement.from_callable(takeover))
        out = compose_control(Zero(), attack, hist([0.0, 5.0], [0.0, 6.0]), 1, np.zeros(2))
        np.testing.assert_allclose(out, [0.0, 7.0])

    def test_no_attack_equals_mean_plus_excitation_exactly(self):
        rng = np.random.default_rng(21)
        p = LinearFeedback(rng.standard_normal((3, 3)))
        h = hist(rng.standard_normal(3), rng.standard_normal(3))
        e = rng.standard_normal(3)
        out = compose_control(p, None, h, 1, e)
        assert np.array_equal(out, honest_mean(p, h, 1) + e)

    def test_mimic_needs_rng(self):
        attack = (AttackConfig((1,)), Mimic(DiagonalPsd([1.0])))
        with pytest.raises(ValueError):
            compose_control(Zero(), attack, hist([0.0, 0.0]), 0, np.zeros(2))

    def test_fdi_schedule_indexing(self):
        fdi = Fdi(np.array([[1.0], [2.0]]))
        attack = (AttackConfig((1,)), fdi)
        out0 = compose_control(Zero(), attack, hist([0.0, 0.0]), 0, np.zeros(2))
        out1 = compose_control(Zero(), attack, hist([0.0, 0.0], [0.0, 0.0]), 1, np.zeros(2))
        assert out0[0] == 1.0 and out1[0] == 2.0
        with pytest.raises(ValueError):
            fdi.offset_at(2)


def test_mimic_matches_honest_conditional_law_distributionally():
    # with V1' equal to the honest excitation block, the mimicked channel is
    # statistically indistinguishable from the honest one given the history
    rng = np.random.default_rng(22)
    gain = np.array([[0.4, 0.0], [0.1, 0.3]])
    p = LinearFeedback(gain)
    h = hist([1.0, -2.0])
    v_e = np.array([0.7, 1.3])
    attack = (AttackConfig((1,)), Mimic(DiagonalPsd([0.7])))
    honest_draws = np.empty((10_000, 2))
    mimic_draws = np.empty((10_000, 2))
    for i in range(10_000):
        e = np.sqrt(v_e) * rng.standard_normal(2)
        honest_draws[i] = compose_control(p, None, h, 0, e)
        e2 = np.sqrt(v_e) * rng.standard_normal(2)
        mimic_draws[i] = compose_control(p, attack, h, 0, e2, rng)
    mean_gap = np.abs(honest_draws.mean(0) - mimic_draws.mean(0))
    assert (mean_gap < 0.05 * np.sqrt(v_e)).all()
    cov_h = np.cov(honest_draws.T)
    cov_m = np.cov(mimic_draws.T)
    assert np.abs(np.diag(cov_h) - np.diag(cov_m)).max() < 0.05 * v_e.max()


HONEST_KINDS = [
    Zero(),
    LinearFeedback(np.array([[0.3, -0.1, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, -0.4]])),
    LinearFeedback(tuple((0.1 * k) * np.eye(3) for k in range(6))),
    Affine(-0.2 * np.eye(3), np.array([1.0, -1.0, 0.5])),
    HistoryWindow((np.eye(3), 0.5 * np.ones((3, 3)), -0.25 * np.eye(3))),
]
CORRUPT_KINDS = [
    None, DoS(), Fdi(np.array([0.7])), Fdi(np.arange(6.0)[:, None]), Mimic(DiagonalPsd([1.0])),
    Replacement.constant([2.0]), Replacement.scaled_state([-0.5]), Replacement.sign_flip(),
    Replacement.from_callable(lambda history, t, mal: history[0][mal] * t),
]


@pytest.mark.parametrize("honest", HONEST_KINDS)
@pytest.mark.parametrize("corrupt", CORRUPT_KINDS)
def test_control_means_path_batch_and_step_agree(honest, corrupt):
    # one kernel serves a batch of paths, one path, and one step of one path
    states = np.random.default_rng(23).standard_normal((4, 6, 3))
    attack = None if corrupt is None else (AttackConfig((2,)), corrupt)
    g, c = control_means(honest, attack, states)
    assert g.shape == c.shape == states.shape
    if attack is None:
        assert c is g
    else:
        assert np.array_equal(np.delete(c, 1, axis=-1), np.delete(g, 1, axis=-1))
    for i in range(4):
        g_i, c_i = control_means(honest, attack, states[i])
        assert np.array_equal(g_i, g[i]) and np.array_equal(c_i, c[i])
        for t in range(6):
            g_t, c_t = control_means(honest, attack, states[i, : t + 1], t)
            assert np.array_equal(g_t, g[i, t]) and np.array_equal(c_t, c[i, t])
            assert np.array_equal(g_t, honest_mean(honest, states[i, : t + 1], t))


def test_control_means_corrupt_channel_values():
    states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    honest = LinearFeedback(np.eye(3))
    cfg = AttackConfig((2,))
    expect = [(DoS(), 0.0), (Fdi(np.array([0.5])), 5.5), (Mimic(DiagonalPsd([1.0])), 5.0),
              (Replacement.constant([7.0]), 7.0), (Replacement.scaled_state([2.0]), 10.0),
              (Replacement.sign_flip(), -5.0)]
    for corrupt, value in expect:
        g, c = control_means(honest, (cfg, corrupt), states, 1)
        assert np.array_equal(g, [4.0, 5.0, 6.0])
        assert np.array_equal(c, [4.0, value, 6.0]), corrupt


def test_fdi_schedule_too_short_for_the_path():
    attack = (AttackConfig((1,)), Fdi(np.array([[1.0], [2.0]])))
    with pytest.raises(ValueError):
        control_means(Zero(), attack, np.zeros((3, 2)))
