import dataclasses
import json
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cps_sentinel import harness, numerics
from cps_sentinel import mdp as mdp_module
from cps_sentinel.harness import mdp_scenario_from_dict, run_mdp_batch
from cps_sentinel.mdp import (
    STATE_ACTION_CAP,
    FiniteMdp,
    NotAbsolutelyContinuous,
    StochasticPolicy,
    analytic_drift,
    induced_kernel,
    path_log_ratio,
    simulate_paths,
    stationary_distribution,
)
from cps_sentinel.numerics import split_seed


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


def reachable_recurrent(k, nu):
    """States reachable from the support of ``nu`` that reach back every
    state they reach, by a depth-first search from each state."""
    n = len(k)

    def reached(x):
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for z in range(n):
                if k[y, z] > 0.0 and z not in seen:
                    seen.add(z)
                    todo.append(z)
        return seen

    sets = [reached(x) for x in range(n)]
    start = set().union(*(sets[x] for x in range(n) if nu[x] > 0.0))
    return {x for x in start if all(x in sets[y] for y in sets[x])}


def multichain_law(k, nu):
    """The limit law from the multichain evaluation equations mu (I - K) = 0,
    mu + w (I - K) = nu (Puterman, section 8.2), solved by least squares;
    these pin mu down uniquely whatever the class structure of K."""
    n = len(k)
    a = (np.eye(n) - k).T
    system = np.block([[a, np.zeros((n, n))], [np.eye(n), a]])
    return np.linalg.lstsq(system, np.concatenate([np.zeros(n), nu]), rcond=None)[0][:n]


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
    """Stands in for a seeded generator: hands out the given uniforms in
    order, across calls, as one stream."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)
        self.used = 0

    def random(self, *, out):
        assert self.used + out.size <= self.u.size
        out[...] = self.u[self.used:self.used + out.size]
        self.used += out.size
        return out


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

        stream = FixedUniforms([0.1, near_one, near_one])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: stream)
        # action 1 (not 2, whose probability is 0), then state 1 (not 2)
        np.testing.assert_array_equal(simulate_paths(mdp, policy, 1, [0])[0], [0, 1])
        assert stream.used == stream.u.size

        stream = FixedUniforms([near_one])
        np.testing.assert_array_equal(simulate_paths(mdp, policy, 0, [0])[0], [1])
        assert stream.used == stream.u.size

    def test_a_uniform_equal_to_a_running_sum_takes_the_next_index(self, monkeypatch):
        # bisect_right: a uniform of exactly 0.5 against the policy rows and
        # of exactly 0.25 or 0.5 against the kernel rows of action 1 lies
        # past those entries; action 0 would go back to state 0
        kernel = np.full((2, 3, 3), [0.25, 0.25, 0.5])
        kernel[0] = [1.0, 0.0, 0.0]
        mdp = FiniteMdp(kernel, np.array([1.0, 0.0, 0.0]))
        policy = StochasticPolicy(np.full((3, 2), 0.5))
        stream = FixedUniforms([0.0, 0.5, 0.25, 0.5, 0.5])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: stream)
        np.testing.assert_array_equal(simulate_paths(mdp, policy, 2, [0])[0], [0, 1, 2])
        assert stream.used == stream.u.size

    def test_paths_at_the_state_and_action_cap_are_the_per_seed_loop(self):
        # action and successor draws count up to 64 entries of a running sum;
        # about half of every row is zero, so the last positive index varies
        rng = np.random.default_rng(3)
        cap = STATE_ACTION_CAP
        kernel, policy = rng.random((cap, cap, cap)), rng.random((cap, cap))
        kernel[kernel < 0.5] = 0.0
        policy[policy < 0.5] = 0.0
        mdp = FiniteMdp(kernel / kernel.sum(axis=2, keepdims=True), np.full(cap, 1.0 / cap))
        pol = StochasticPolicy(policy / policy.sum(axis=1, keepdims=True))
        # 3 seeds draw all 80 steps in one block of the candidate table; 130
        # seeds of 64 states fill it with one step, so each step is a block
        for seeds in ([0, 9, 2**40 + 1], [split_seed(11, i) for i in range(130)]):
            paths = simulate_paths(mdp, pol, 80, seeds)
            for row, seed in zip(paths, seeds):
                np.testing.assert_array_equal(row, reference_path(mdp, pol, 80, seed))
        assert numerics.tile_steps(len(seeds), 4 * cap) == 1

    def test_batch_rows_are_the_per_seed_paths(self):
        mdp = two_action_mdp(initial=(0.3, 0.7))
        pol = StochasticPolicy(np.array([[0.4, 0.6], [0.6, 0.4]]))
        seeds = [5, 17, 2**40 + 3]
        paths = simulate_paths(mdp, pol, 300, seeds)
        assert paths.shape == (3, 301)
        for row, seed in zip(paths, seeds):
            np.testing.assert_array_equal(row, reference_path(mdp, pol, 300, seed))
            np.testing.assert_array_equal(row, simulate_paths(mdp, pol, 300, [seed])[0])


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
@pytest.mark.parametrize("parts", [(0, 5), (1, 1), (1, 400), (1, 326, 326, 17), (3, 2, 2, 2),
                                   (1001, 999)])
def test_a_stream_drawn_in_pieces_is_the_stream_drawn_at_once(seed, parts):
    # the batch engine draws x_0's uniform and then each tile's uniforms
    # by separate calls on one generator per seed
    whole = np.random.default_rng(seed).random(sum(parts))
    gen = np.random.default_rng(seed)
    pieces = [gen.random(parts[0])]
    for size in parts[1:]:
        pieces.append(np.empty(size))
        gen.random(out=pieces[-1])
    assert np.concatenate(pieces).view(np.uint64).tolist() == whole.view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(case=finite_mdps(), n=st.integers(0, 40), count=st.integers(1, 6),
       base=st.integers(0, 2**63), cells=st.sampled_from([4, 28, 160, 1 << 17]))
def test_engine_paths_are_the_per_seed_loop_whatever_the_batch(case, n, count, base, cells):
    mdp, honest, corrupt = case
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    seeds = [base + i for i in range(count)]
    references = np.array([reference_path(mdp, corrupt, n, seed) for seed in seeds])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "TILE_CELLS", cells)
        paths = simulate_paths(mdp, corrupt, n, seeds)
        tiles = list(mdp_module._path_tiles(mdp, corrupt, n, seeds,
                                            numerics.tile_steps(count, 4)))
    np.testing.assert_array_equal(paths, references)
    # each tile starts where the one before stopped, and together they are the paths
    for before, tile in zip(tiles, tiles[1:]):
        np.testing.assert_array_equal(tile[:, 0], before[:, -1])
    np.testing.assert_array_equal(
        np.concatenate([tiles[0]] + [tile[:, 1:] for tile in tiles[1:]], axis=1), paths)
    # the log ratio carried across those tiles is the whole-path one bit for
    # bit, and entry 0 is +0.0, which the batch files' "0,0.0" line relies on
    tiled = list(mdp_module._log_ratio_tiles(iter(tiles), k_h, k_c))
    whole = path_log_ratio(paths, k_h, k_c)
    assert np.concatenate(tiled, axis=1).tobytes() == whole.tobytes()
    assert whole[:, 0].tobytes() == np.zeros(count).tobytes()
    # one seed alone, and the batch minus its first seed, give the same rows
    np.testing.assert_array_equal(simulate_paths(mdp, corrupt, n, [seeds[-1]])[0], paths[-1])
    np.testing.assert_array_equal(simulate_paths(mdp, corrupt, n, seeds[1:]), paths[1:])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=finite_mdps(), n=st.integers(1, 30), count=st.integers(1, 6),
       base=st.integers(0, 2**63), cells=st.sampled_from([4, 28, 160, 1 << 17]),
       group=st.sampled_from([1, 2, 256]))
def test_batch_files_are_plain_repr_rows_whatever_the_batch(tmp_path_factory, case, n, count,
                                                            base, cells, group):
    mdp, honest, corrupt = case
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    out = tmp_path_factory.mktemp("mdp")
    with pytest.MonkeyPatch.context() as mp:
        # groups of at most `group` seeds, in tiles of cells // (4 * seeds) steps
        mp.setattr(numerics, "TILE_CELLS", cells)
        mp.setattr(harness, "_GROUP_SEEDS", group)
        mp.setattr(harness, "_TILE_BLOCKS", 1)
        s = mdp_scenario(mdp, honest, corrupt, n, base, count)
        summary = run_mdp_batch(dataclasses.replace(s, outputs=str(out)))
    finals = []
    for i in range(count):
        path = reference_path(mdp, corrupt, n, split_seed(base, i))
        series = path_log_ratio(np.array(path), k_h, k_c)
        assert (out / f"run_{i:05d}.csv").read_text() == plain_csv(series)
        finals.append(series[-1])
    assert summary["mean_drift"] == pytest.approx(float(np.mean(finals)) / n, nan_ok=True)


@pytest.mark.parametrize("files", [False, True], ids=["no-outputs", "outputs"])
def test_batch_memory_stays_per_tile_whatever_the_horizon(tmp_path, files):
    # a 4-seed batch runs tiles of 4096 steps, so a horizon of 20k steps
    # already holds every tile-sized buffer; five times longer may hold no more
    def peak(horizon):
        s = mdp_scenario_from_dict(dict(harness.preset("mdp-detect"), horizon=horizon,
                                        seeds={"base": 7, "count": 4}))
        tracemalloc.start()
        try:
            out = str(tmp_path / str(horizon)) if files else None
            run_mdp_batch(dataclasses.replace(s, outputs=out))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # whatever a first batch allocates once
    assert peak(100_000) <= 1.1 * peak(20_000)


# the 2-state MDP of the -inf tests: the honest policy never takes action 1,
# the only way from state 0 to state 1
FORBIDDEN_MOVE = (np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.8], [0.5, 0.5]]]),
                  np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]]))


def assert_plain_files(out, mdp, honest, corrupt, n, base, count):
    """Every per-seed file of the batch is the per-seed loop's series, written cell by cell."""
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    texts = []
    for i in range(count):
        path = reference_path(mdp, corrupt, n, split_seed(base, i))
        series = path_log_ratio(np.array(path), k_h, k_c)
        texts.append((out / f"run_{i:05d}.csv").read_text())
        assert texts[-1] == plain_csv(series)
    return texts


@pytest.mark.parametrize("horizon", [3, 4, 5])
def test_batch_files_at_a_tile_boundary(tmp_path, monkeypatch, horizon):
    # 3 seeds and 48 cells: tiles of 4 steps, so the horizon ends one step
    # before, at and one step after the first tile boundary
    monkeypatch.setattr(numerics, "TILE_CELLS", 48)
    monkeypatch.setattr(harness, "_GROUP_SEEDS", 3)
    monkeypatch.setattr(harness, "_TILE_BLOCKS", 1)
    mdp = two_action_mdp(initial=(0.3, 0.7))
    honest = StochasticPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    corrupt = StochasticPolicy(np.array([[0.1, 0.9], [0.8, 0.2]]))
    run_mdp_batch(dataclasses.replace(mdp_scenario(mdp, honest, corrupt, horizon, 5, 3),
                                      outputs=str(tmp_path)))
    assert_plain_files(tmp_path, mdp, honest, corrupt, horizon, 5, 3)


def test_minus_inf_is_carried_across_tile_boundaries(tmp_path, monkeypatch):
    # 4 seeds in groups of 2 and 24 cells: tiles of 3 steps
    monkeypatch.setattr(numerics, "TILE_CELLS", 24)
    monkeypatch.setattr(harness, "_GROUP_SEEDS", 2)
    monkeypatch.setattr(harness, "_TILE_BLOCKS", 1)
    kernel, honest, corrupt = FORBIDDEN_MOVE
    mdp = FiniteMdp(kernel, np.array([1.0, 0.0]))
    honest, corrupt = StochasticPolicy(honest), StochasticPolicy(corrupt)
    s = mdp_scenario(mdp, honest, corrupt, 20, 11, 4)
    run_mdp_batch(dataclasses.replace(s, outputs=str(tmp_path)))
    texts = assert_plain_files(tmp_path, mdp, honest, corrupt, 20, 11, 4)
    # some seed meets -inf in its first tile (t <= 3) and keeps it to t = 20
    assert any(text.splitlines()[4].endswith(",-inf") and text.endswith("20,-inf\n")
               for text in texts)


def test_batch_files_carry_minus_inf_cells(tmp_path):
    kernel, honest, corrupt = FORBIDDEN_MOVE
    mdp = FiniteMdp(kernel, np.array([1.0, 0.0]))
    honest, corrupt = StochasticPolicy(honest), StochasticPolicy(corrupt)
    k_h, k_c = induced_kernel(mdp, honest), induced_kernel(mdp, corrupt)
    summary = run_mdp_batch(dataclasses.replace(mdp_scenario(mdp, honest, corrupt, 40, 11, 5),
                                                outputs=str(tmp_path)))
    assert summary["analytic_drift"] == -np.inf
    texts = [(tmp_path / f"run_{i:05d}.csv").read_text() for i in range(5)]
    assert any("-inf" in text for text in texts)
    for i, text in enumerate(texts):
        series = path_log_ratio(simulate_paths(mdp, corrupt, 40, [split_seed(11, i)])[0],
                                k_h, k_c)
        assert text == plain_csv(series)


def test_summary_json_is_strict_when_the_drift_is_minus_inf(tmp_path):
    # the same MDP: every drift is -inf or a finite mean, and strict JSON
    # has no token for -inf, so the summary writes null
    mdp = FiniteMdp(np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.8], [0.5, 0.5]]]),
                    np.array([1.0, 0.0]))
    honest = StochasticPolicy(np.array([[1.0, 0.0], [0.5, 0.5]]))
    corrupt = StochasticPolicy(np.array([[0.5, 0.5], [0.5, 0.5]]))
    summary = run_mdp_batch(dataclasses.replace(mdp_scenario(mdp, honest, corrupt, 40, 11, 5),
                                                outputs=str(tmp_path)))
    assert summary["mean_drift"] == -np.inf

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    written = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert written["analytic_drift"] is None and written["mean_drift"] is None
    assert written["drift_stderr"] is None or math.isfinite(written["drift_stderr"])


class TestPathLogRatio:
    def test_identical_kernels_give_plus_zero_throughout(self):
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        series = path_log_ratio(np.array([0, 1, 0, 0, 1]), k, k)
        assert series.tobytes() == np.zeros(5).tobytes()

    def test_single_transition_value(self):
        # honest P(2|1)=0.5 versus corrupt P(2|1)=0.9
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[0.1, 0.9], [0.5, 0.5]])
        series = path_log_ratio(np.array([0, 1]), kh, kc)
        assert series[:1].tobytes() == np.zeros(1).tobytes()
        assert series[1] == pytest.approx(math.log(0.5 / 0.9))

    def test_forbidden_transition_raises(self):
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[1.0, 0.0], [0.5, 0.5]])  # corrupt forbids 0 -> 1
        with pytest.raises(NotAbsolutelyContinuous):
            path_log_ratio(np.array([0, 1]), kh, kc)

    def test_stack_raises_for_the_first_offending_row_with_its_own_message(self):
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[1.0, 0.0], [0.5, 0.5]])  # corrupt forbids 0 -> 1
        fine = [0, 0, 0, 0]
        late_move = [0, 0, 1, 1]
        from_one = [1, 0, 0, 0]
        early_move = [0, 1, 1, 1]

        def message(paths):
            with pytest.raises(NotAbsolutelyContinuous) as info:
                path_log_ratio(np.array(paths), kh, kc)
            return str(info.value)

        assert message([fine, late_move, from_one, early_move]) == message(late_move) \
            == "transition 0->1 at step 1 impossible under the corrupt law"
        assert message([[fine, from_one], [late_move, early_move]]) == message(late_move)
        assert message([[fine, fine], [early_move, from_one]]) == message(early_move)

    @pytest.mark.parametrize("paths, message", [
        ([0, -1, 1], "state -1 at step 1 of path row () is not in [0, 2)"),
        ([0, 2], "state 2 at step 1 of path row () is not in [0, 2)"),
        ([[0, 1, 1], [1, 0, 7], [-3, 0, 0]], "state 7 at step 2 of path row (1,) is not in [0, 2)"),
        ([[[0, 1]], [[0, -1]]], "state -1 at step 1 of path row (1, 0) is not in [0, 2)"),
    ], ids=["negative", "past-the-end", "a-later-row", "nested-rows"])
    def test_a_state_outside_the_chain_is_named_before_any_lookup(self, paths, message):
        # -1 would wrap to the last entry of the transition table, and a
        # state past the end would raise a bare IndexError; the range comes
        # first even when the path also makes a corrupt-forbidden move
        kh = np.array([[0.5, 0.5], [0.2, 0.8]])
        kc = np.array([[1.0, 0.0], [0.3, 0.7]])
        with pytest.raises(ValueError) as info:
            path_log_ratio(np.array(paths), kh, kc)
        assert str(info.value) == message

    def test_the_tile_engine_sends_a_corrupt_forbidden_move_to_plus_inf(self):
        # the engine only computes: from a move the corrupt law forbids on,
        # the series is +inf, in tiles as whole, and nothing raises
        kh = np.array([[0.5, 0.5], [0.5, 0.5]])
        kc = np.array([[1.0, 0.0], [0.5, 0.5]])  # corrupt forbids 0 -> 1
        paths = np.array([[0, 0, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1]])
        (whole,) = mdp_module._log_ratio_tiles([paths], kh, kc)
        np.testing.assert_array_equal(np.isposinf(whole), [[0, 0, 0, 0, 0], [0, 0, 1, 1, 1],
                                                           [0, 0, 0, 1, 1]])
        assert np.isfinite(whole[0]).all()
        for split in range(1, 4):
            tiles = [paths[:, :split + 1], paths[:, split:]]
            tiled = list(mdp_module._log_ratio_tiles(tiles, kh, kc))
            assert np.concatenate(tiled, axis=1).tobytes() == whole.tobytes()

    def test_stack_rows_are_the_rows_alone(self):
        kh = np.array([[1.0, 0.0], [0.5, 0.5]])
        kc = np.array([[0.5, 0.5], [0.3, 0.7]])
        paths = simulate_paths(FiniteMdp(kc[None], np.array([0.5, 0.5])),
                               StochasticPolicy(np.ones((2, 1))), 50, range(6)).reshape(2, 3, 51)
        stacked = path_log_ratio(paths, kh, kc)
        assert stacked.shape == (2, 3, 51)
        assert np.isneginf(stacked).any()
        assert stacked[..., 0].tobytes() == np.zeros((2, 3)).tobytes()
        for i in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[i], path_log_ratio(paths[i], kh, kc))

    def test_honest_zero_sends_ratio_to_minus_inf(self):
        kh = np.array([[1.0, 0.0], [0.5, 0.5]])
        kc = np.array([[0.5, 0.5], [0.5, 0.5]])
        series = path_log_ratio(np.array([0, 1, 0]), kh, kc)
        assert series[1] == -np.inf and series[2] == -np.inf


class TestStationaryDistribution:
    @pytest.mark.parametrize("start", [0, 1])
    def test_periodic_two_cycle_is_uniform_from_either_start(self, start):
        mu = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)[start])
        np.testing.assert_allclose(mu, [0.5, 0.5], rtol=0.0, atol=1e-15)

    def test_symmetric_chain(self):
        k = np.array([[0.7, 0.3], [0.3, 0.7]])
        np.testing.assert_allclose(stationary_distribution(k, [1.0, 0.0]), [0.5, 0.5],
                                   atol=1e-10)

    def test_asymmetric_chain_detailed_balance(self):
        k = np.array([[0.8, 0.2], [0.6, 0.4]])
        np.testing.assert_allclose(stationary_distribution(k, [0.0, 1.0]), [0.75, 0.25],
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_plain_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed
        k = rng.random((n, n)) * (rng.random((n, n)) < 0.7) + np.eye(n) * 0.05
        k /= k.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(stationary_distribution(k, np.eye(len(k))[0]),
                                   plain_power_iteration(k),
                                   rtol=0.0, atol=1e-12)

    def test_slow_chain_agrees_with_plain_power_iteration(self):
        # the mdp-detect corrupt chain: second eigenvalue 0.9964, so a plain
        # iteration stopped at residual 1e-12 would still be 2.8e-10 away
        k = np.array([[0.03 * 0.94 + 0.97, 0.03 * 0.06], [0.03 * 0.06, 0.03 * 0.94 + 0.97]])
        np.testing.assert_allclose(stationary_distribution(k, np.eye(len(k))[0]),
                                   plain_power_iteration(k),
                                   rtol=0.0, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(41)
        k = rng.random((5, 5)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        pi = stationary_distribution(k, np.full(5, 0.2))
        assert np.abs(pi @ k - pi).max() < 1e-11


@settings(max_examples=300, deadline=None)
@given(case=finite_mdps())
def test_exact_law_of_every_induced_chain_from_the_initial_law(case):
    mdp, honest, corrupt = case
    for policy in (honest, corrupt):
        k = induced_kernel(mdp, policy)
        mu = stationary_distribution(k, mdp.initial)
        assert (mu >= 0.0).all() and abs(mu.sum() - 1.0) <= 1e-12
        assert np.abs(mu @ k - mu).max() <= 1e-14
        support = np.isin(np.arange(len(k)), list(reachable_recurrent(k, mdp.initial)))
        assert (mu[~support] == 0.0).all() and (mu[support] > 0.0).all()
        np.testing.assert_allclose(mu, multichain_law(k, mdp.initial), rtol=0.0, atol=1e-10)


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
        mu = stationary_distribution(kc, [1.0, 0.0])
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
        series = path_log_ratio(path, kh, kc)
        drift = analytic_drift(kh, kc)
        assert abs(series[-1] / 100_000 - drift) < 0.05 * abs(drift)
