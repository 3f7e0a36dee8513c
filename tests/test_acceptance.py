"""End-to-end acceptance gates.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``pytest -s`` to see them). Expected values come from closed
forms or independent oracles computed inside the test, never from the
code path under test. Fixed seeds make every gate deterministic.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from cps_sentinel import cli, harness, numerics
from cps_sentinel.detection import (
    Decision,
    decide,
    detect_ensemble,
    expected_step_drift,
    series_csv_tile,
)
from cps_sentinel.harness import (
    AssumptionViolation,
    mdp_scenario_from_dict,
    preset,
    run_mdp_batch,
    run_montecarlo,
    scenario_from_dict,
)
from cps_sentinel.mdp import analytic_drift, induced_kernel, path_log_ratio, simulate_paths
from cps_sentinel.model import AttackConfig, CpsModel, honest_influence_check
from cps_sentinel.numerics import (
    Dirac,
    GaussianLaw,
    eig_extremes,
    logdet,
    make_spd,
    split_seed,
)
from cps_sentinel.policies import DoS, LinearFeedback, Replacement, lift
from cps_sentinel.simulator import conditional_covariances, simulate_ensemble
from oracles import (
    ATTACK_BUILDERS,
    det_ratio_bound,
    joint_log_ratio_oracle,
    random_attack,
)


def run_batch(s, horizon, n_seeds):
    """Detection series of seeds 0..n_seeds-1 of a scenario, run as one ensemble."""
    seeds = [split_seed(s.seed_base, i) for i in range(n_seeds)]
    ens = simulate_ensemble(s.model, s.honest, s.attack, horizon, seeds)
    assert not ens.failed_at.any()
    return detect_ensemble(ens.states, s.model, s.honest, s.attack[1], s.attack[0])


def gate(number: int, ok: bool, text: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_factorization_oracle():
    # chain rule of per-step predictive density ratios == the ratio of the two
    # laws' joint path Gaussians, over every attack kind
    rng = np.random.default_rng(101)
    kinds = sorted(ATTACK_BUILDERS)
    worst = 0.0
    for n_agents in (1, 2, 3):
        for i in range(100):
            a = rng.standard_normal((n_agents, n_agents)) * 0.4
            gains = rng.standard_normal(n_agents)
            g = rng.standard_normal((n_agents, n_agents))
            noise = g @ g.T + 0.3 * np.eye(n_agents)
            if rng.random() < 0.5:
                initial = Dirac(rng.standard_normal(n_agents))
            else:
                gg = rng.standard_normal((n_agents, n_agents))
                initial = GaussianLaw(rng.standard_normal(n_agents),
                                      make_spd(gg @ gg.T + 0.3 * np.eye(n_agents)))
            m = CpsModel(n_agents=n_agents, dynamics=a, actuator_gains=gains,
                         process_noise=noise, excitation=rng.random(n_agents),
                         initial_law=initial)
            policy = LinearFeedback(rng.standard_normal((n_agents, n_agents)) * 0.2)
            cfg, corrupt = random_attack(rng, n_agents, kinds[i % len(kinds)])
            states = simulate_ensemble(m, policy, (cfg, corrupt), 10,
                                       [int(rng.integers(0, 2 ** 62))]).states
            log_l = detect_ensemble(states, m, policy, corrupt, cfg).cum_log_l[0, -1]
            joint = joint_log_ratio_oracle(states[0], m, policy, corrupt, cfg)
            worst = max(worst, abs(log_l - joint))
    gate(1, worst < 1e-8,
         f"factorization oracle: 300 random trajectories (N in 1..3, n=10, "
         f"{len(kinds)} attack kinds), max |logL - joint ratio| = {worst:.2e} < 1e-8")


def test_criterion_2_identity_attack():
    s = scenario_from_dict(preset("identity"))
    worst = 0.0
    decisions_ok = True
    for i in range(20):
        states = simulate_ensemble(s.model, s.honest, None, 200,
                                   [split_seed(s.seed_base, i)]).states
        series = detect_ensemble(states, s.model, s.honest, None, None).row(0)
        worst = max(worst, float(np.abs(series.cum_log_l).max()))
        for threshold in (-1e-9, -0.5, -10.0, -1e6):
            decisions_ok &= decide(series.cum_log_l[-1], threshold) is Decision.HONEST
    gate(2, worst < 1e-9 and decisions_ok,
         f"identity attack: max |logL| over 20 seeds x 200 steps = {worst:.1e} < 1e-9, "
         f"honest at every negative threshold")


def test_criterion_3_martingale_mean():
    # mean of the likelihood ratio under the corrupt law is 1
    s = scenario_from_dict(preset("fdi"))
    n_seeds = 100_000
    series = run_batch(s, 5, n_seeds)
    mean = math.fsum(np.exp(series.cum_log_l[:, 4])) / n_seeds
    gate(3, 0.9 <= mean <= 1.1,
         f"martingale mean: E[exp(logL_5)] over 1e5 corrupt seeds = {mean:.4f} "
         f"in [0.9, 1.1]")


def test_criterion_4_determinant_ratio_bound():
    rng = np.random.default_rng(104)
    all_strict = True
    all_in_unit = True
    for draw in range(1000):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        a *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
        gains = rng.standard_normal(n)
        gains[np.abs(gains) < 0.05] = 0.5
        g = rng.standard_normal((n, n))
        noise = g @ g.T + 0.05 * np.eye(n)
        excitation = rng.random(n) + 0.02  # V_1 strictly positive
        k = int(rng.integers(1, n))
        mal = tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
        m = CpsModel(n_agents=n, dynamics=a, actuator_gains=gains,
                     process_noise=noise, excitation=excitation,
                     initial_law=Dirac(np.zeros(n)))
        cfg = AttackConfig(mal)
        pol = Replacement.constant(np.zeros(k)) if draw % 2 == 0 else DoS()
        h_cov, c_cov = conditional_covariances(m, lift(LinearFeedback(np.zeros((n, n))),
                                                        (cfg, pol), n))
        all_strict &= logdet(c_cov) < logdet(h_cov)
        states = simulate_ensemble(m, LinearFeedback(np.zeros((n, n))), (cfg, pol), 5,
                                   [int(rng.integers(0, 2 ** 62))]).states
        series = detect_ensemble(states, m, LinearFeedback(np.zeros((n, n))), pol, cfg).row(0)
        for step in range(1, 6):
            all_in_unit &= 0.0 < det_ratio_bound(series, step) < 1.0
    gate(4, all_strict and all_in_unit,
         "determinant-ratio bound: det shrinks strictly and the running "
         "product stays in (0,1) on 1000 random replacement/DoS models (N <= 6)")


def test_criterion_5_detection_regime():
    s = scenario_from_dict(preset("replacement"))
    drift = expected_step_drift(s.model, s.honest, s.attack[1], s.attack[0])
    assert drift.method == "closed_form"
    assert drift.value == pytest.approx(-0.5 * (-0.8 + math.log(5.0)))
    horizon_detect = math.ceil(20.0 / abs(drift.value))

    n, n_seeds = 2000, 200
    batch = run_batch(s, n, n_seeds)
    finals = batch.cum_log_l[:, n - 1] / n
    detected = 0
    rn_big = 0
    for i in range(n_seeds):
        series = batch.row(i)
        if decide(series.cum_log_l[horizon_detect - 1], -10.0) is Decision.ATTACK:
            detected += 1
        assert series.r_defined[n - 1]
        if series.r_n[n - 1] > 10.0:
            rn_big += 1
    mean_drift = float(finals.mean())
    drift_ok = abs(mean_drift - drift.value) <= 0.1 * abs(drift.value)
    detect_ok = detected / n_seeds >= 0.95
    rn_ok = rn_big / n_seeds >= 0.95
    gate(5, drift_ok and detect_ok and rn_ok,
         f"detection regime: mean logL/n = {mean_drift:.4f} vs drift {drift.value:.4f} "
         f"(within 10%), detection {detected}/{n_seeds} at n={horizon_detect} "
         f"threshold -10, r_n>10 on {rn_big}/{n_seeds} seeds at n=2000")


def test_criterion_6_non_detection_regime():
    s = scenario_from_dict(preset("mimic"))
    h_cov, c_cov = conditional_covariances(
        s.model, lift(s.honest, s.attack, s.model.n_agents))
    lo, _ = eig_extremes(h_cov)
    _, hi = eig_extremes(c_cov)
    recorded_bound = hi / lo * (1.0 + 1e-9)

    n, n_seeds = 2000, 50
    batch = run_batch(s, n, n_seeds)
    worst_log_l = float(np.abs(batch.cum_log_l).max())
    max_rn = float(np.nanmax(batch.r_n))
    detected = 0
    for i in range(n_seeds):
        series = batch.row(i)
        for threshold in (-1e-9, -10.0, -1e6):
            if decide(series.cum_log_l[n - 1], threshold) is Decision.ATTACK:
                detected += 1
    gate(6, worst_log_l < 1e-9 and detected == 0
         and np.isfinite(max_rn) and max_rn <= recorded_bound,
         f"non-detection regime: logL identically 0 (max {worst_log_l:.1e}), "
         f"0 detections, max r_n = {max_rn:.6f} <= recorded bound {recorded_bound:.6f}")


def test_criterion_7_structural_checks():
    s1 = scenario_from_dict(preset("example1"))
    holds1, unreachable1 = honest_influence_check(s1.model, s1.attack[0])
    refused = False
    try:
        run_montecarlo(s1)
    except AssumptionViolation:
        refused = True
    s2 = scenario_from_dict(preset("example2"))
    holds2, unreachable2 = honest_influence_check(s2.model, s2.attack[0])
    gate(7, (not holds1) and unreachable1 == frozenset({1}) and refused
         and holds2 and not unreachable2,
         "structural checks: decoupled example fails the influence check and "
         "is refused; coupled example passes")


def test_criterion_8_mdp_testbed():
    s = mdp_scenario_from_dict(preset("mdp-detect"))
    k_h = induced_kernel(s.mdp, s.honest_policy)
    k_c = induced_kernel(s.mdp, s.corrupt_policy)
    drift = analytic_drift(k_h, k_c, s.mdp.initial)

    def log_ratios(mdp, policy, n, base, count, k_h, k_c, chunk=10):
        """Series of seeds split_seed(base, 0..count-1), ``chunk`` seeds per engine call."""
        return np.concatenate([
            path_log_ratio(simulate_paths(mdp, policy, n,
                                          [split_seed(base, i)
                                           for i in range(lo, min(lo + chunk, count))]),
                           k_h, k_c)
            for lo in range(0, count, chunk)])

    # ergodic drift over 100 seeds at n = 1e5
    n_long = 100_000
    finals = log_ratios(s.mdp, s.corrupt_policy, n_long, s.seed_base, 100, k_h, k_c)[:, -1]
    emp = float(finals.mean()) / n_long
    drift_ok = abs(emp - drift) <= 0.05 * abs(drift)

    # likelihood ratio below 1e-6 by n = 20/|drift| on >= 95% of seeds
    n_star = math.ceil(20.0 / abs(drift))
    n_decay_seeds = 400
    series = log_ratios(s.mdp, s.corrupt_policy, n_star, s.seed_base + 1, n_decay_seeds,
                        k_h, k_c, chunk=n_decay_seeds)
    below = int(np.sum(np.exp(series[:, n_star]) < 1e-6))
    decay_ok = below / n_decay_seeds >= 0.95

    # kernel-level mimicry pins the series at zero, from +0.0 at x_0
    sm = mdp_scenario_from_dict(preset("mdp-mimic"))
    k_h2 = induced_kernel(sm.mdp, sm.honest_policy)
    k_c2 = induced_kernel(sm.mdp, sm.corrupt_policy)
    series = log_ratios(sm.mdp, sm.corrupt_policy, 2000, 9, 5, k_h2, k_c2)
    mimic_ok = series[:, 0].tobytes() == np.zeros(5).tobytes()
    mimic_ok &= float(np.abs(series).max()) <= 1e-12

    # discrete martingale mean at n = 10 over 1e4 seeds
    series = log_ratios(s.mdp, s.corrupt_policy, 10, s.seed_base + 2, 10_000,
                        k_h, k_c, chunk=10_000)
    mart = math.fsum(np.exp(series[:, -1]).tolist()) / 10_000
    mart_ok = 0.9 <= mart <= 1.1

    gate(8, drift_ok and decay_ok and mimic_ok and mart_ok,
         f"finite testbed: empirical drift {emp:.5f} vs analytic {drift:.5f} "
         f"(within 5%), ratio < 1e-6 on {below}/{n_decay_seeds} seeds at n={n_star}, "
         f"mimic series flat at zero, martingale mean {mart:.4f}")


def test_criterion_9_reproducibility(tmp_path):
    data = preset("fdi")
    data["seeds"]["count"] = 3
    data["horizon"] = 40
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    mdp_data = preset("mdp-detect")
    mdp_data["seeds"]["count"] = 3
    mdp_data["horizon"] = 100
    mdp_path = tmp_path / "mdp.json"
    mdp_path.write_text(json.dumps(mdp_data))

    ok = True
    # montecarlo: two CLI invocations, bytewise-identical outputs
    for d in ("mc1", "mc2"):
        assert cli.main(["montecarlo", str(scenario_path), "--out", str(tmp_path / d)]) == 0
    for name in ("run_00000.csv", "run_00001.csv", "run_00002.csv", "runs.csv"):
        ok &= (tmp_path / "mc1" / name).read_bytes() == (tmp_path / "mc2" / name).read_bytes()
    s1 = json.loads((tmp_path / "mc1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "mc2" / "summary.json").read_text())
    s1.pop("runtime_seconds"), s2.pop("runtime_seconds")
    ok &= s1 == s2

    # one batch, the same seeds in two groups and short tiles, and each seed on its own
    s = scenario_from_dict(json.loads(scenario_path.read_text()))
    whole = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "whole")))
    sim = harness.simulation_plan(s.model, s.honest, s.attack)
    det = harness.detection_plan(s.model, s.honest, s.attack[1], s.attack[0], s.horizon)
    with pytest.MonkeyPatch.context() as mp:
        # groups of 2 and 1 seeds, tiles of one common block of 2 seeds
        mp.setattr(harness, "_TILE_BLOCKS", 1)
        mp.setattr(numerics, "TILE_CELLS",
                   2 * max(sim.columns, det.columns) * max(sim.block, det.block))
        chunked = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "chunked")))
    a, b = whole.summary_dict(), chunked.summary_dict()
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    ok &= a == b and whole.rows == chunked.rows
    ok &= (tmp_path / "whole" / "runs.csv").read_bytes() == \
        (tmp_path / "chunked" / "runs.csv").read_bytes()
    for i in range(3):
        states = simulate_ensemble(s.model, s.honest, s.attack, s.horizon,
                                   [split_seed(s.seed_base, i)]).states
        (alone,) = series_csv_tile(detect_ensemble(states, s.model, s.honest, s.attack[1],
                                                   s.attack[0]), 0)
        name = f"run_{i:05d}.csv"
        ok &= (tmp_path / "whole" / name).read_bytes() == \
            (tmp_path / "chunked" / name).read_bytes() == alone.encode()

    # single-trajectory and detection outputs
    for cmd, fname in (("simulate", "traj{}.csv"), ("detect", "series{}.csv")):
        for k in (1, 2):
            assert cli.main([cmd, str(scenario_path),
                             "--out", str(tmp_path / fname.format(k))]) == 0
        ok &= (tmp_path / fname.format(1)).read_bytes() == \
            (tmp_path / fname.format(2)).read_bytes()

    # finite-testbed batch
    for d in ("md1", "md2"):
        assert cli.main(["mdp", str(mdp_path), "--out", str(tmp_path / d)]) == 0
    for i in range(3):
        ok &= (tmp_path / "md1" / f"run_{i:05d}.csv").read_bytes() == \
            (tmp_path / "md2" / f"run_{i:05d}.csv").read_bytes()

    gate(9, ok, "reproducibility: repeated CLI runs, a whole batch, the same seeds in "
                "two chunks and each seed alone produce identical outputs "
                "(wall time excluded)")


def test_criterion_10_mdp_drift_from_the_initial_law():
    def batch(corrupt, honest, initial, count, horizon, base=1):
        """Batch summary of a two-action MDP: action 0 is the corrupt kernel, 1 the honest."""
        n = len(initial)
        return run_mdp_batch(mdp_scenario_from_dict({
            "name": "chain", "horizon": horizon, "seeds": {"base": base, "count": count},
            "mdp": {"kernel": [corrupt, honest], "initial": initial},
            "honest_policy": [[0.0, 1.0]] * n, "corrupt_policy": [[1.0, 0.0]] * n,
        }))

    def agrees(summary):
        """The batch mean drift against the analytic one: within 5 standard
        errors, or 1e-12 when every path is the same (its standard error is
        then 0 up to rounding)."""
        gap = abs(summary["mean_drift"] - summary["analytic_drift"])
        return gap <= max(5.0 * summary["drift_stderr"], 1e-12)

    cases = {
        # two absorbing corrupt states, started in the one the honest law leaves
        "reducible": (batch([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.25, 0.75]],
                            [0.0, 1.0], 20, 200), math.log(0.75)),
        # a swap, which has no limit in law but a Cesaro one
        "periodic": (batch([[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]],
                           [1.0, 0.0], 20, 200), math.log(0.5)),
        # half the paths end where the honest law leaves w.p. 0.25, half agree
        "mixture": (batch([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                          [[0.0, 0.5, 0.5], [0.0, 0.75, 0.25], [0.0, 0.0, 1.0]],
                          [1.0, 0.0, 0.0], 400, 1000), 0.5 * math.log(0.75)),
    }
    ok = all(abs(summary["analytic_drift"] - exact) <= 1e-12 and agrees(summary)
             for summary, exact in cases.values())
    data = preset("mdp-mimic")
    data["seeds"]["count"], data["horizon"] = 5, 200
    mimic = run_mdp_batch(mdp_scenario_from_dict(data))
    ok &= mimic["analytic_drift"] == 0.0 == mimic["mean_drift"]
    gate(10, ok, "finite testbed from the initial law: " + ", ".join(
        f"{name} drift {summary['analytic_drift']:.6f} (exact {exact:.6f}, batch "
        f"{summary['mean_drift']:.6f} +- {summary['drift_stderr']:.1e})"
        for name, (summary, exact) in cases.items()) + "; mimic 0.0")
