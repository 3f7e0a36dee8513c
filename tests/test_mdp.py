import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cps_sentinel import harness
from cps_sentinel import mdp as mdp_module
from cps_sentinel.harness import mdp_scenario_from_dict, run_mdp_batch
from cps_sentinel.mdp import (
    FiniteMdp,
    NotAbsolutelyContinuous,
    StochasticPolicy,
    analytic_drift,
    induced_kernel,
    path_log_ratio,
    simulate_paths,
    stationary_distribution,
)
from cps_sentinel.numerics import ConvergenceFailure, split_seed


P0 = np.array([[0.9, 0.1], [0.2, 0.8]])
P1 = np.array([[0.5, 0.5], [0.7, 0.3]])


def two_action_mdp(initial=(1.0, 0.0)):
    return FiniteMdp(np.stack([P0, P1]), np.array(initial))


def probability_rows(draw, shape):
    """Rows of probabilities over the last axis, with zero entries."""
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                                     min_size=math.prod(shape), max_size=math.prod(shape))))
    weights = weights.reshape(shape)
    empty = weights.sum(axis=-1) == 0.0
    weights[empty, draw(st.integers(0, shape[-1] - 1))] = 1.0
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def finite_mdps(draw):
    """A random MDP (1-6 states, 1-4 actions) and two policies on it."""
    n_states, n_actions = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    mdp = FiniteMdp(probability_rows(draw, (n_actions, n_states, n_states)),
                    probability_rows(draw, (n_states,)))
    honest = StochasticPolicy(probability_rows(draw, (n_states, n_actions)))
    corrupt = StochasticPolicy(probability_rows(draw, (n_states, n_actions)))
    return mdp, honest, corrupt


def reference_path(mdp, policy, n, seed):
    """Per-seed inverse-CDF loop: bisect on each row's running sum, clamped
    to the row's last index of positive probability."""
    u = np.random.default_rng(seed).random(2 * n + 1).tolist()

    def draw(probs, v):
        last = max(i for i, p in enumerate(probs) if p > 0.0)
        return min(bisect_right(np.cumsum(probs).tolist(), v), last)

    x = draw(mdp.initial, u[0])
    path = [x]
    for t in range(n):
        action = draw(policy.probs[x], u[2 * t + 1])
        x = draw(mdp.kernel[action, x], u[2 * t + 2])
        path.append(x)
    return path


def plain_power_iteration(k, steps=20_000):
    """e_0 K^steps, one step at a time; far past mixing for the chains below."""
    pi = np.zeros(k.shape[0])
    pi[0] = 1.0
    for _ in range(steps):
        pi = pi @ k
    return pi


def plain_csv(series):
    """A per-seed CSV written one cell at a time."""
    return "t,log_ratio\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(series.tolist()))


def mdp_scenario(mdp, honest, corrupt, horizon, base, count):
    return mdp_scenario_from_dict({
        "name": "random",
        "mdp": {"kernel": mdp.kernel.tolist(), "initial": mdp.initial.tolist()},
        "honest_policy": honest.probs.tolist(),
        "corrupt_policy": corrupt.probs.tolist(),
        "horizon": horizon,
        "seeds": {"base": base, "count": count},
    })


class FixedUniforms:
    """Stands in for a seeded generator and hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


class TestFiniteMdpValidation:
    def test_rows_must_be_stochastic(self):
        bad = np.stack([P0, P1])
        bad = bad.copy()
        bad[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            FiniteMdp(bad, np.array([1.0, 0.0]))

    def test_initial_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteMdp(np.stack([P0, P1]), np.array([0.9, 0.0]))

    def test_policy_rows_checked(self):
        with pytest.raises(ValueError):
            StochasticPolicy(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestInducedKernel:
    def test_deterministic_policy_selects_action_kernel(self):
        mdp = two_action_mdp()
        pol = StochasticPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(induced_kernel(mdp, pol), P0)

    def test_uniform_policy_averages(self):
        mdp = two_action_mdp()
        pol = StochasticPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(induced_kernel(mdp, pol), 0.5 * (P0 + P1))

    def test_hand_mixed_policy(self):
        # 0.3/0.7 mix, verified entry by entry by hand
        mdp = two_action_mdp()
        pol = StochasticPolicy(np.array([[0.3, 0.7], [0.3, 0.7]]))
        expected = 0.3 * P0 + 0.7 * P1
        np.testing.assert_allclose(induced_kernel(mdp, pol), expected)
        assert induced_kernel(mdp, pol)[0, 0] == pytest.approx(0.3 * 0.9 + 0.7 * 0.5)


class TestSimulatePath:
    def test_deterministic_kernel_gives_deterministic_path(self):
        flip = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        mdp = FiniteMdp(flip, np.array([1.0, 0.0]))
        pol = StochasticPolicy(np.array([[1.0], [1.0]]))
        path = simulate_paths(mdp, pol, 6, [0])[0]
        np.testing.assert_array_equal(path, [0, 1, 0, 1, 0, 1, 0])

    def test_seed_repetition_reproduces_path(self):
        mdp = two_action_mdp()
        pol = StochasticPolicy(np.array([[0.4, 0.6], [0.6, 0.4]]))
        a = simulate_paths(mdp, pol, 500, [77])[0]
        b = simulate_paths(mdp, pol, 500, [77])[0]
        np.testing.assert_array_equal(a, b)

    def test_visit_frequencies_match_stationary(self):
        # p=0.2, q=0.6 chain: stationary (0.75, 0.25) by detailed balance
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        mdp = FiniteMdp(k[None, :, :], np.array([1.0, 0.0]))
        pol = StochasticPolicy(np.array([[1.0], [1.0]]))
        path = simulate_paths(mdp, pol, 100_000, [5])[0]
        freq = np.bincount(path, minlength=2) / path.size
        assert np.abs(freq - np.array([0.75, 0.25])).max() < 0.01

    def test_uniform_past_a_rounded_row_total_never_draws_probability_zero(self, monkeypatch):
        # rows sum to 1 - 5e-13 (within the validation tolerance), so their
        # running sums stop short of the uniform 1 - 2e-13
        short = [0.5, 0.5 - 5e-13, 0.0]
        kernel = np.zeros((3, 3, 3))
        kernel[:, :, 0] = 1.0
        kernel[1, 0] = short
        kernel[2, 0] = [0.0, 0.0, 1.0]  # action 2 would lead to state 2
        mdp = FiniteMdp(kernel, np.array(short))
        policy = StochasticPolicy(np.array([short, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        near_one = 0.9999999999998

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: FixedUniforms([0.1, near_one, near_one]))
        # action 1 (not 2, whose probability is 0), then state 1 (not 2)
        np.testing.assert_array_equal(simulate_paths(mdp, policy, 1, [0])[0], [0, 1])

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedUniforms([near_one]))
        np.testing.assert_array_equal(simulate_paths(mdp, policy, 0, [0])[0], [1])

    def test_batch_rows_are_the_per_seed_paths(self):
        mdp = two_action_mdp(initial=(0.3, 0.7))
        pol = StochasticPolicy(np.array([[0.4, 0.6], [0.6, 0.4]]))
        seeds = [5, 17, 2**40 + 3]
        paths = simulate_paths(mdp, pol, 300, seeds)
        assert paths.shape == (3, 301)
        for row, seed in zip(paths, seeds):
            np.testing.assert_array_equal(row, reference_path(mdp, pol, 300, seed))
            np.testing.assert_array_equal(row, simulate_paths(mdp, pol, 300, [seed])[0])


@settings(max_examples=60, deadline=None)
@given(case=finite_mdps(), n=st.integers(0, 40), count=st.integers(1, 6),
       base=st.integers(0, 2**63), cells=st.sampled_from([1, 7, 64, 1 << 15]))
def test_engine_paths_are_the_per_seed_loop_whatever_the_batch(case, n, count, base, cells):
    mdp, _, corrupt = case
    seeds = [base + i for i in range(count)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp_module, "_CHUNK_CELLS", cells)
        paths = simulate_paths(mdp, corrupt, n, seeds)
    for row, seed in zip(paths, seeds):
        assert row.tolist() == reference_path(mdp, corrupt, n, seed)
    # one seed alone, and the batch minus its first seed, give the same rows
    np.testing.assert_array_equal(simulate_paths(mdp, corrupt, n, [seeds[-1]])[0], paths[-1])
    np.testing.assert_array_equal(simulate_paths(mdp, corrupt, n, seeds[1:]), paths[1:])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=finite_mdps(), n=st.integers(1, 30), count=st.integers(1, 6),
       base=st.integers(0, 2**63), cells=st.sampled_from([1, 40, 1 << 15]))
def test_batch_files_are_plain_repr_rows_whatever_the_batch(tmp_path_factory, case, n, count,
                                                            base, cells):
    mdp, honest, corrupt = case
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    try:
        stationary_distribution(k_c)
    except ConvergenceFailure:
        assume(False)  # a periodic corrupt chain has no analytic drift
    out = tmp_path_factory.mktemp("mdp")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_CHUNK_CELLS", cells)
        summary = run_mdp_batch(mdp_scenario(mdp, honest, corrupt, n, base, count), out_dir=out)
    finals = []
    for i in range(count):
        path = reference_path(mdp, corrupt, n, split_seed(base, i))
        series = path_log_ratio(np.array(path), k_h, k_c, mdp.initial, mdp.initial)
        assert (out / f"run_{i:05d}.csv").read_text() == plain_csv(series)
        finals.append(series[-1])
    assert summary["mean_drift"] == pytest.approx(float(np.mean(finals)) / n, nan_ok=True)


def test_batch_files_carry_minus_inf_cells(tmp_path):
    # the honest policy never takes action 1, the only way from state 0 to 1
    mdp = FiniteMdp(np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.8], [0.5, 0.5]]]),
                    np.array([1.0, 0.0]))
    honest = StochasticPolicy(np.array([[1.0, 0.0], [0.5, 0.5]]))
    corrupt = StochasticPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    summary = run_mdp_batch(mdp_scenario(mdp, honest, corrupt, 40, 11, 5), out_dir=tmp_path)
    assert summary["analytic_drift"] == -np.inf
    texts = [(tmp_path / f"run_{i:05d}.csv").read_text() for i in range(5)]
    assert any("-inf" in text for text in texts)
    for i, text in enumerate(texts):
        series = path_log_ratio(simulate_paths(mdp, corrupt, 40, [split_seed(11, i)])[0],
                                k_h, k_c, mdp.initial, mdp.initial)
        assert text == plain_csv(series)


def test_summary_json_is_strict_when_the_drift_is_minus_inf(tmp_path):
    # the same MDP: every drift is -inf or a finite mean, and strict JSON
    # has no token for -inf, so the summary writes null
    mdp = FiniteMdp(np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.8], [0.5, 0.5]]]),
                    np.array([1.0, 0.0]))
    honest = StochasticPolicy(np.array([[1.0, 0.0], [0.5, 0.5]]))
    corrupt = StochasticPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    summary = run_mdp_batch(mdp_scenario(mdp, honest, corrupt, 40, 11, 5), out_dir=tmp_path)
    assert summary["mean_drift"] == -np.inf

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    written = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert written["analytic_drift"] is None and written["mean_drift"] is None
    assert written["drift_stderr"] is None or math.isfinite(written["drift_stderr"])


class TestPathLogRatio:
    def test_identical_kernels_give_initial_ratio_only(self):
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        path = np.array([0, 1, 0, 0, 1])
        series = path_log_ratio(path, k, k, np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        expected = math.log(0.6 / 0.5)
        np.testing.assert_allclose(series, expected)

    def test_single_transition_value(self):
        # honest P(2|1)=0.5 versus corrupt P(2|1)=0.9
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[0.1, 0.9], [0.5, 0.5]])
        series = path_log_ratio(np.array([0, 1]), kh, kc,
                                np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert series[0] == 0.0
        assert series[1] == pytest.approx(math.log(0.5 / 0.9))

    def test_forbidden_transition_raises(self):
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[1.0, 0.0], [0.5, 0.5]])  # corrupt forbids 0 -> 1
        with pytest.raises(NotAbsolutelyContinuous):
            path_log_ratio(np.array([0, 1]), kh, kc,
                           np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_stack_raises_for_the_first_offending_row_with_its_own_message(self):
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[1.0, 0.0], [0.5, 0.5]])  # corrupt forbids 0 -> 1
        nu_h, nu_c = np.array([0.5, 0.5]), np.array([1.0, 0.0])  # and starting in 1
        fine = [0, 0, 0, 0]
        late_move = [0, 0, 1, 1]
        bad_start = [1, 0, 0, 0]
        early_move = [0, 1, 1, 1]

        def message(paths):
            with pytest.raises(NotAbsolutelyContinuous) as info:
                path_log_ratio(np.array(paths), kh, kc, nu_h, nu_c)
            return str(info.value)

        assert message([fine, late_move, bad_start, early_move]) == message(late_move) \
            == "transition 0->1 at step 1 impossible under the corrupt law"
        assert message([[fine, bad_start], [early_move, late_move]]) == message(bad_start) \
            == "initial state 1 impossible under the corrupt law"
        assert message([[fine, fine], [early_move, bad_start]]) == message(early_move)

    def test_stack_rows_are_the_rows_alone(self):
        kh = np.array([[1.0, 0.0], [0.5, 0.5]])
        kc = np.array([[0.5, 0.5], [0.3, 0.7]])
        nu_h, nu_c = np.array([0.6, 0.4]), np.array([0.5, 0.5])
        paths = simulate_paths(FiniteMdp(kc[None], nu_c), StochasticPolicy(np.ones((2, 1))),
                               50, range(6)).reshape(2, 3, 51)
        stacked = path_log_ratio(paths, kh, kc, nu_h, nu_c)
        assert stacked.shape == (2, 3, 51)
        assert np.isneginf(stacked).any()
        for i in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[i], path_log_ratio(paths[i], kh, kc,
                                                                     nu_h, nu_c))

    def test_honest_zero_sends_ratio_to_minus_inf(self):
        kh = np.array([[1.0, 0.0], [0.5, 0.5]])
        kc = np.array([[0.5, 0.5], [0.5, 0.5]])
        series = path_log_ratio(np.array([0, 1, 0]), kh, kc,
                                np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert series[1] == -np.inf and series[2] == -np.inf


class TestStationaryDistribution:
    def test_periodic_two_cycle_fails_to_converge(self):
        with pytest.raises(ConvergenceFailure):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]), max_iter=5000)

    def test_symmetric_chain(self):
        k = np.array([[0.7, 0.3], [0.3, 0.7]])
        np.testing.assert_allclose(stationary_distribution(k), [0.5, 0.5], atol=1e-10)

    def test_asymmetric_chain_detailed_balance(self):
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        np.testing.assert_allclose(stationary_distribution(k), [0.75, 0.25], atol=1e-10)

    def test_periodic_two_cycle_fails_at_the_default_cap(self):
        with pytest.raises(ConvergenceFailure):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_plain_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed
        k = rng.random((n, n)) * (rng.random((n, n)) < 0.7) + np.eye(n) * 0.05
        k /= k.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(stationary_distribution(k), plain_power_iteration(k),
                                   rtol=0.0, atol=1e-12)

    def test_slow_chain_agrees_with_plain_power_iteration(self):
        # the mdp-detect corrupt chain: second eigenvalue 0.9964, so a plain
        # iteration stopped at residual 1e-12 would still be 2.8e-10 away
        k = np.array([[0.03 * 0.94 + 0.97, 0.03 * 0.06], [0.03 * 0.06, 0.03 * 0.94 + 0.97]])
        np.testing.assert_allclose(stationary_distribution(k), plain_power_iteration(k),
                                   rtol=0.0, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(41)
        k = rng.random((5, 5)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        pi = stationary_distribution(k)
        assert np.abs(pi @ k - pi).max() < 1e-11


class TestAnalyticDrift:
    def test_equal_kernels_zero(self):
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        assert analytic_drift(k, k) == 0.0

    def test_one_state_chain_zero(self):
        k = np.array([[1.0]])
        assert analytic_drift(k, k) == 0.0

    def test_matches_brute_force_sum(self):
        kh = np.array([[0.8, 0.2], [0.6, 0.4]])
        kc = np.array([[0.5, 0.5], [0.3, 0.7]])
        mu = stationary_distribution(kc)
        brute = 0.0
        for x in range(2):
            for y in range(2):
                brute += mu[x] * kc[x, y] * math.log(kh[x, y] / kc[x, y])
        assert analytic_drift(kh, kc) == pytest.approx(brute, abs=1e-12)
        assert analytic_drift(kh, kc) < 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_double_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 1 + seed
        kh = rng.random((n, n)) + 0.01  # positive wherever the corrupt kernel is
        kc = rng.random((n, n)) * (rng.random((n, n)) < 0.8) + np.eye(n)
        kh /= kh.sum(axis=1, keepdims=True)
        kc /= kc.sum(axis=1, keepdims=True)
        mu = plain_power_iteration(kc)
        loop = 0.0
        for x in range(n):
            for y in range(n):
                if mu[x] != 0.0 and kc[x, y] != 0.0:
                    loop += mu[x] * kc[x, y] * (math.log(kh[x, y]) - math.log(kc[x, y]))
        assert analytic_drift(kh, kc) == pytest.approx(loop, rel=1e-12, abs=1e-15)

    def test_support_violation_gives_minus_inf(self):
        kh = np.array([[1.0, 0.0], [0.5, 0.5]])
        kc = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert analytic_drift(kh, kc) == -np.inf

    def test_ergodic_average_approaches_drift(self):
        kh = np.array([[0.8, 0.2], [0.6, 0.4]])
        kc = np.array([[0.5, 0.5], [0.3, 0.7]])
        mdp = FiniteMdp(np.stack([kh, kc]), np.array([0.5, 0.5]))
        corrupt = StochasticPolicy(np.array([[0.0, 1.0], [0.0, 1.0]]))
        path = simulate_paths(mdp, corrupt, 100_000, [9])[0]
        series = path_log_ratio(path, kh, kc, mdp.initial, mdp.initial)
        drift = analytic_drift(kh, kc)
        assert abs(series[-1] / 100_000 - drift) < 0.05 * abs(drift)
