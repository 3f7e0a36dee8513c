import numpy as np
import pytest

from cps_sentinel.model import AttackConfig, CpsModel
from cps_sentinel.numerics import DiagonalPsd, Dirac, split_seed
from cps_sentinel.policies import (
    Affine,
    DoS,
    Fdi,
    HistoryWindow,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
    admit_excitation,
    closed_loop,
    control_means,
    lift,
)
from cps_sentinel.simulator import simulate_ensemble


def hist(*states):
    return np.array(states, dtype=float)


def means(honest, attack, states, t=None):
    # with t given, row t of the whole-path means
    g, c = control_means(lift(honest, attack, np.shape(states)[-1]), states)
    return (g, c) if t is None else (g[..., t, :], c[..., t, :])


def admitted(honest, attack, history, t, excitation):
    # the control the simulator admits at step t when mimicry draws nothing:
    # the corrupt mean plus the admitted excitation
    laws = lift(honest, attack, history.shape[-1])
    c = control_means(laws, history)[1][..., t, :]
    return c + admit_excitation(laws, np.array(excitation, dtype=float))


class TestHonestMean:
    def test_zero_policy(self):
        out = means(Zero(), None, hist([3.0, -1.0]), 0)[0]
        assert np.array_equal(out, [0.0, 0.0])

    def test_identity_gain_reads_last_state(self):
        p = LinearFeedback(np.eye(2))
        out = means(p, None, hist([9.0, 9.0], [1.0, 2.0]), 1)[0]
        assert np.array_equal(out, [1.0, 2.0])

    def test_window_combines_lagged_states(self):
        # gains (I, I/2) on states (x_{t-1}, x_t) = ((2,0),(1,1)) -> (2,1)
        p = HistoryWindow((np.eye(2), 0.5 * np.eye(2)))
        out = means(p, None, hist([2.0, 0.0], [1.0, 1.0]), 1)[0]
        assert np.array_equal(out, [2.0, 1.0])

    def test_window_truncates_before_start(self):
        p = HistoryWindow((np.eye(2), 0.5 * np.eye(2)))
        out = means(p, None, hist([1.0, 1.0]), 0)[0]
        assert np.array_equal(out, [1.0, 1.0])

    def test_affine(self):
        p = Affine(np.eye(2), np.array([1.0, -1.0]))
        out = means(p, None, hist([2.0, 2.0]), 0)[0]
        assert np.array_equal(out, [3.0, 1.0])

    def test_gain_is_the_same_at_every_step(self):
        p = LinearFeedback(2.0 * np.eye(2))
        assert np.array_equal(means(p, None, hist([1.0, 1.0]), 0)[0], [2.0, 2.0])
        assert np.array_equal(
            means(p, None, hist([0.0, 0.0], [1.0, 1.0]), 1)[0], [2.0, 2.0])

    def test_markov_ignores_all_but_last_state(self):
        p = LinearFeedback(np.array([[0.3, -0.1], [0.2, 0.5]]))
        h1 = hist([5.0, 5.0], [1.0, 2.0])
        h2 = hist([-7.0, 0.0], [1.0, 2.0])
        assert np.array_equal(means(p, None, h1, 1), means(p, None, h2, 1))


class TestComposeControl:
    """The admitted control: the corrupt mean plus the admitted excitation."""

    def test_no_attack_is_mean_plus_excitation(self):
        e = np.array([0.1, -0.1])
        out = admitted(Zero(), None, hist([0.0, 0.0]), 0, e)
        assert np.array_equal(out, e)

    def test_dos_drops_excitation_on_attacked_channel(self):
        attack = (AttackConfig((1,)), DoS())
        e = np.array([0.5, 0.5])
        out = admitted(Zero(), attack, hist([0.0, 0.0]), 0, e)
        assert np.array_equal(out, [0.0, 0.5])

    def test_fdi_keeps_excitation_and_adds_offset(self):
        attack = (AttackConfig((1,)), Fdi(np.array([1.0])))
        e = np.array([0.2, 0.3])
        out = admitted(Zero(), attack, hist([0.0, 0.0]), 0, e)
        np.testing.assert_allclose(out, [1.2, 0.3])

    def test_replacement_constant(self):
        attack = (AttackConfig((2,)), Replacement.constant([7.0]))
        e = np.array([0.2, 0.3])
        out = admitted(Zero(), attack, hist([1.0, 1.0]), 0, e)
        np.testing.assert_allclose(out, [0.2, 7.0])

    def test_replacement_scaled_state(self):
        attack = (AttackConfig((1,)), Replacement.scaled_state([-0.5]))
        out = admitted(Zero(), attack, hist([4.0, 1.0]), 0, np.zeros(2))
        np.testing.assert_allclose(out, [-2.0, 0.0])

    def test_replacement_sign_flip(self):
        p = LinearFeedback(np.eye(2))
        attack = (AttackConfig((1,)), Replacement.sign_flip())
        out = admitted(p, attack, hist([3.0, 2.0]), 0, np.zeros(2))
        np.testing.assert_allclose(out, [-3.0, 2.0])

    def test_no_attack_equals_mean_plus_excitation_exactly(self):
        rng = np.random.default_rng(21)
        p = LinearFeedback(rng.standard_normal((3, 3)))
        h = hist(rng.standard_normal(3), rng.standard_normal(3))
        e = rng.standard_normal(3)
        out = admitted(p, None, h, 1, e)
        assert np.array_equal(out, means(p, None, h, 1)[0] + e)

    def test_fdi_schedule_indexing(self):
        fdi = Fdi(np.array([[1.0], [2.0]]))
        attack = (AttackConfig((1,)), fdi)
        out0 = admitted(Zero(), attack, hist([0.0, 0.0]), 0, np.zeros(2))
        out1 = admitted(Zero(), attack, hist([0.0, 0.0], [0.0, 0.0]), 1, np.zeros(2))
        assert out0[0] == 1.0 and out1[0] == 2.0
        with pytest.raises(ValueError, match="schedule has 2 steps, step 2 requested"):
            admitted(Zero(), attack, np.zeros((3, 2)), 2, np.zeros(2))


def test_mimic_matches_honest_conditional_law_distributionally():
    # with V1' equal to the honest excitation block, the mimicked channel is
    # statistically indistinguishable from the honest one given the history;
    # the controls are the engine's, one step from x_0 = h for each seed
    gain = np.array([[0.4, 0.0], [0.1, 0.3]])
    p = LinearFeedback(gain)
    h = [1.0, -2.0]
    v_e = np.array([0.7, 1.3])
    m = CpsModel(n_agents=2, dynamics=np.zeros((2, 2)), actuator_gains=np.ones(2),
                 process_noise=np.eye(2), excitation=v_e, initial_law=Dirac(h))
    attack = (AttackConfig((1,)), Mimic(DiagonalPsd([0.7])))
    seeds = [split_seed(22, i) for i in range(20_000)]
    honest_draws = simulate_ensemble(m, p, None, 1, seeds[:10_000],
                                     keep_controls=True).controls[:, 0]
    mimic_draws = simulate_ensemble(m, p, attack, 1, seeds[10_000:],
                                    keep_controls=True).controls[:, 0]
    mean_gap = np.abs(honest_draws.mean(0) - mimic_draws.mean(0))
    assert (mean_gap < 0.05 * np.sqrt(v_e)).all()
    cov_h = np.cov(honest_draws.T)
    cov_m = np.cov(mimic_draws.T)
    assert np.abs(np.diag(cov_h) - np.diag(cov_m)).max() < 0.05 * v_e.max()


HONEST_KINDS = [
    Zero(),
    LinearFeedback(np.array([[0.3, -0.1, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, -0.4]])),
    LinearFeedback(0.3 * np.eye(3) - 0.1 * np.ones((3, 3))),
    Affine(-0.2 * np.eye(3), np.array([1.0, -1.0, 0.5])),
    HistoryWindow((np.eye(3), 0.5 * np.ones((3, 3)), -0.25 * np.eye(3))),
]
CORRUPT_KINDS = [
    None, DoS(), Fdi(np.array([0.7])), Fdi(np.arange(6.0)[:, None]), Mimic(DiagonalPsd([1.0])),
    Replacement.constant([2.0]), Replacement.scaled_state([-0.5]), Replacement.sign_flip(),
    Replacement.scaled_state([1.25]), Replacement.constant([-0.0]),
]


@pytest.mark.parametrize("honest", HONEST_KINDS)
@pytest.mark.parametrize("corrupt", CORRUPT_KINDS)
def test_control_means_path_batch_and_step_agree(honest, corrupt):
    # one kernel serves a batch of paths, one path, and one step of one path
    states = np.random.default_rng(23).standard_normal((4, 6, 3))
    attack = None if corrupt is None else (AttackConfig((2,)), corrupt)
    g, c = means(honest, attack, states)
    assert g.shape == c.shape == states.shape
    if attack is None:
        assert c is g
    else:
        assert np.array_equal(np.delete(c, 1, axis=-1), np.delete(g, 1, axis=-1))
    for i in range(4):
        g_i, c_i = means(honest, attack, states[i])
        assert np.array_equal(g_i, g[i]) and np.array_equal(c_i, c[i])
        for t in range(6):
            g_t, c_t = means(honest, attack, states[i, : t + 1], t)
            assert np.array_equal(g_t, g[i, t]) and np.array_equal(c_t, c[i, t])
            assert np.array_equal(g_t, means(honest, None, states[i, : t + 1], t)[0])


def test_control_means_corrupt_channel_values():
    states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    honest = LinearFeedback(np.eye(3))
    cfg = AttackConfig((2,))
    expect = [(DoS(), 0.0), (Fdi(np.array([0.5])), 5.5), (Mimic(DiagonalPsd([1.0])), 5.0),
              (Replacement.constant([7.0]), 7.0), (Replacement.scaled_state([2.0]), 10.0),
              (Replacement.sign_flip(), -5.0)]
    for corrupt, value in expect:
        g, c = means(honest, (cfg, corrupt), states, 1)
        assert np.array_equal(g, [4.0, 5.0, 6.0])
        assert np.array_equal(c, [4.0, value, 6.0]), corrupt


def test_fdi_schedule_too_short_for_the_path():
    attack = (AttackConfig((1,)), Fdi(np.array([[1.0], [2.0]])))
    with pytest.raises(ValueError):
        means(Zero(), attack, np.zeros((3, 2)))


@pytest.mark.parametrize("honest", HONEST_KINDS)
@pytest.mark.parametrize("corrupt", CORRUPT_KINDS)
def test_gain_matrices_reproduce_the_means(honest, corrupt):
    # the dense gains the drift reads give the means the engine evaluates
    states = np.random.default_rng(24).standard_normal((4, 6, 3))
    laws = lift(honest, None if corrupt is None else (AttackConfig((2,)), corrupt), 3)
    g, c = control_means(laws, states)
    lags = laws.gains.shape[1] // 3
    # column block k of the window rows reads x_{t-L+1+k}; lags before x_0 read zeros
    padded = np.concatenate([np.zeros((4, lags - 1, 3)), states], axis=1)
    for t in range(6):
        lagged = padded[:, t:t + lags]  # (seeds, lag, N), oldest first
        honest_t = np.einsum("ikj,skj->si", laws.gains.reshape(3, lags, 3), lagged) + laws.offset
        if isinstance(corrupt, Fdi):
            # from the attack: the honest mean plus its offsets on channel 2
            corrupt_t = honest_t.copy()
            corrupt_t[:, 1] += corrupt.offsets if corrupt.offsets.ndim == 1 else corrupt.offsets[t]
        else:
            corrupt_t = (np.einsum("ikj,skj->si", laws.corrupt_gains.reshape(3, lags, 3), lagged)
                         + laws.corrupt_offset)
        np.testing.assert_allclose(g[:, t], honest_t, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(c[:, t], corrupt_t, rtol=1e-12, atol=1e-12)


def test_lift_returns_window_rows_and_dense_offsets():
    # column block k of the rows reads x_{t-L+1+k}: lag_gains (most recent
    # first) reversed, so the last block reads x_t
    lag_gains = [np.arange(9.0).reshape(3, 3) + 10 * k for k in range(3)]
    honest = HistoryWindow(tuple(lag_gains))
    laws = lift(honest, None, 3)
    assert np.array_equal(laws.gains, np.hstack(lag_gains[::-1]))
    assert laws.gains.shape == (3, 9)
    assert np.array_equal(laws.offset, np.zeros(3)) and laws.corrupt_offset is laws.offset
    cfg = AttackConfig((2,))
    # scaled_state writes the x_t block of the attacked row, and only it
    scaled = lift(honest, (cfg, Replacement.scaled_state([-0.5])), 3)
    expect = np.zeros(9)
    expect[6 + 1] = -0.5
    assert np.array_equal(scaled.corrupt_gains[1], expect)
    assert np.array_equal(np.delete(scaled.corrupt_gains, 1, axis=0),
                          np.delete(laws.gains, 1, axis=0))
    # sign flip and DoS act on the attacked row across every lag
    flip = lift(honest, (cfg, Replacement.sign_flip()), 3)
    assert np.array_equal(flip.corrupt_gains[1], -laws.gains[1])
    dos = lift(honest, (cfg, DoS()), 3)
    assert not dos.corrupt_gains[1].any()
    for corrupt in (flip, dos, scaled):
        assert np.array_equal(corrupt.corrupt_offset, np.zeros(3))
    # an FDI schedule stays a per-step table on the attacked channel
    fdi = lift(Affine(np.eye(3), np.array([1.0, 2.0, 3.0])),
               (cfg, Fdi(np.array([[0.5], [0.25]]))), 3)
    assert np.array_equal(fdi.corrupt_offset, [[1.0, 2.5, 3.0], [1.0, 2.25, 3.0]])


def test_closed_loop_has_the_spectrum_of_the_lag_order_companion():
    rng = np.random.default_rng(27)
    n, lags = 3, 3
    dynamics, b = 0.3 * rng.standard_normal((n, n)), rng.uniform(0.5, 1.5, n)
    lag_gains = [0.2 * rng.standard_normal((n, n)) for _ in range(lags)]
    f, stable = closed_loop(dynamics, b, lift(HistoryWindow(tuple(lag_gains)), None, n).gains)
    # on (x_t, x_{t-1}, x_{t-2}): the loop rows on top, identity blocks below
    companion = np.eye(n * lags, k=-n)
    companion[:n] = np.hstack([b[:, None] * g for g in lag_gains])
    companion[:n, :n] += dynamics
    # the same characteristic polynomial
    np.testing.assert_allclose(np.poly(f), np.poly(companion), atol=1e-12)
    assert stable == (np.abs(np.linalg.eigvals(companion)).max() < 1.0)


def negative_zeros(a):
    return np.signbit(a) & (a == 0)


@pytest.mark.parametrize("honest", HONEST_KINDS)
@pytest.mark.parametrize("corrupt", CORRUPT_KINDS)
def test_no_control_is_negative_zero(honest, corrupt):
    # zero states and zero-variance excitation make zero controls, and a
    # sign flip, a negative scale or a -0.0 constant must not make them -0.0
    attack = None if corrupt is None else (AttackConfig((2,)), corrupt)
    laws = lift(honest, attack, 3)
    states = np.random.default_rng(25).standard_normal((4, 6, 3))
    states[:, 0] = 0.0
    for a in control_means(laws, states):
        assert not negative_zeros(a).any()
    m = CpsModel(n_agents=3, dynamics=0.5 * np.eye(3), actuator_gains=np.ones(3),
                 process_noise=np.eye(3), excitation=np.array([0.0, 0.0, 1.0]),
                 initial_law=Dirac(np.zeros(3)))
    seeds = [split_seed(26, i) for i in range(4)]
    controls = simulate_ensemble(m, honest, attack, 6, seeds, keep_controls=True).controls
    assert not negative_zeros(controls).any()
