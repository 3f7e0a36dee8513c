import numpy as np

from cps_sentinel.model import (
    AttackConfig,
    CpsModel,
    honest_influence_check,
    validate_attack,
    validate_model,
)
from cps_sentinel.numerics import DiagonalPsd, Dirac, GaussianLaw, make_spd


def two_agent_model(dynamics, gains=(1.0, 1.0), noise=None, excitation=(1.0, 1.0)):
    return CpsModel(
        n_agents=2,
        dynamics=dynamics,
        actuator_gains=gains,
        process_noise=np.eye(2) if noise is None else noise,
        excitation=excitation,
        initial_law=Dirac([0.0, 0.0]),
    )


class TestValidateModel:
    def test_valid_two_agent_model(self):
        m = two_agent_model([[0.5, 0.1], [0.0, 0.5]])
        assert validate_model(m) == []

    def test_indefinite_noise_reported(self):
        m = two_agent_model([[0.5, 0.1], [0.0, 0.5]],
                            noise=[[1.0, 2.0], [2.0, 1.0]])  # determinant -3
        issues = validate_model(m)
        assert any(v.code == "NotPositiveDefinite" for v in issues)
        assert any(v.path == "model.process_noise" for v in issues)

    def test_dimension_mismatch_reported(self):
        m = CpsModel(n_agents=2, dynamics=np.eye(3), actuator_gains=[1.0, 1.0],
                     process_noise=np.eye(2), excitation=[1.0, 1.0],
                     initial_law=Dirac([0.0, 0.0]))
        issues = validate_model(m)
        assert any(v.code == "DimMismatch" and v.path == "model.dynamics"
                   for v in issues)

    def test_too_many_agents_name_the_fixed_limit(self):
        n = 33
        m = CpsModel(n_agents=n, dynamics=0.5 * np.eye(n), actuator_gains=np.ones(n),
                     process_noise=np.eye(n), excitation=np.ones(n),
                     initial_law=Dirac(np.zeros(n)))
        caps = [v for v in validate_model(m) if v.code == "DimCap"]
        assert [(v.path, v.message) for v in caps] == [
            ("model.n_agents", "n_agents 33 exceeds the fixed limit 32")]

    def test_negative_excitation_reported(self):
        m = two_agent_model(np.eye(2), excitation=(1.0, -0.5))
        assert any(v.code == "NegativeEntry" for v in validate_model(m))

    def test_all_defects_reported_together(self):
        m = CpsModel(n_agents=2, dynamics=np.eye(3), actuator_gains=[1.0],
                     process_noise=[[1.0, 2.0], [2.0, 1.0]], excitation=[-1.0, 1.0],
                     initial_law=Dirac([0.0, 0.0, 0.0]))
        issues = validate_model(m)
        paths = {v.path for v in issues}
        assert {"model.dynamics", "model.actuator_gains", "model.process_noise",
                "model.excitation", "model.initial_law"} <= paths

    def test_violations_keep_their_codes_paths_and_order(self):
        m = CpsModel(n_agents=2, dynamics=np.eye(3), actuator_gains=[1.0],
                     process_noise=[[1.0, 2.0], [2.0, 1.0]], excitation=[-1.0, 1.0],
                     initial_law=Dirac([0.0, 0.0, 0.0]))
        issues = validate_model(m)
        assert [(v.path, v.code) for v in issues] == [
            ("model.dynamics", "DimMismatch"), ("model.actuator_gains", "DimMismatch"),
            ("model.process_noise", "NotPositiveDefinite"),
            ("model.excitation", "NegativeEntry"), ("model.initial_law", "DimMismatch")]
        assert [v.message for v in issues[:2]] == ["expected shape (2, 2), got (3, 3)",
                                                   "expected shape (2,), got (1,)"]
        m = CpsModel(n_agents=2, dynamics=[[np.nan, 0.0], [0.0, 1.0]],
                     actuator_gains=[1.0, np.inf], process_noise=np.eye(2),
                     excitation=[np.nan, -1.0], initial_law=Dirac([0.0, 0.0]))
        assert [(v.path, v.code, v.message) for v in validate_model(m)] == [
            ("model.dynamics", "NonFinite", "entries must be finite"),
            ("model.actuator_gains", "NonFinite", "entries must be finite"),
            ("model.excitation", "NonFinite", "entries must be finite")]
        m = two_agent_model(np.eye(2), excitation=(1.0, 1.0, 1.0))
        assert [(v.code, v.message) for v in validate_model(m)] == [
            ("DimMismatch", "expected shape (2,), got (3,)")]

    def test_gaussian_initial_law_accepted(self):
        m = CpsModel(n_agents=2, dynamics=np.eye(2), actuator_gains=[1.0, 1.0],
                     process_noise=np.eye(2), excitation=[1.0, 1.0],
                     initial_law=GaussianLaw([0.0, 0.0], make_spd(np.eye(2))))
        assert validate_model(m) == []


class TestValidateAttack:
    def test_valid_config(self):
        m = two_agent_model(np.eye(2))
        assert validate_attack(m, AttackConfig((1,))) == []

    def test_empty_set_rejected(self):
        m = two_agent_model(np.eye(2))
        assert any(v.code == "Empty" for v in validate_attack(m, AttackConfig(())))

    def test_all_actuators_malicious_rejected(self):
        m = two_agent_model(np.eye(2))
        issues = validate_attack(m, AttackConfig((1, 2)))
        assert any(v.code == "AllActuatorsMalicious" for v in issues)

    def test_unactuated_agent_rejected(self):
        m = two_agent_model(np.eye(2), gains=(1.0, 0.0))
        issues = validate_attack(m, AttackConfig((2,)))
        assert any(v.code == "NoActuator" for v in issues)

    def test_unordered_rejected(self):
        m = CpsModel(n_agents=3, dynamics=np.eye(3), actuator_gains=[1.0, 1.0, 1.0],
                     process_noise=np.eye(3), excitation=[1.0, 1.0, 1.0],
                     initial_law=Dirac([0.0, 0.0, 0.0]))
        issues = validate_attack(m, AttackConfig((2, 1)))
        assert any(v.code == "NotIncreasing" for v in issues)

    def test_out_of_range_rejected(self):
        m = two_agent_model(np.eye(2))
        issues = validate_attack(m, AttackConfig((3,)))
        assert any(v.code == "OutOfRange" for v in issues)


class TestInfluenceCheck:
    def test_decoupled_network_fails(self):
        # two agents with no communication: the attacked one is unreachable
        m = two_agent_model([[0.5, 0.0], [0.0, 0.7]])
        holds, unreachable = honest_influence_check(m, AttackConfig((1,)))
        assert holds is False
        assert unreachable == frozenset({1})

    def test_triangular_coupling_passes(self):
        # agent 2 (honest) influences agent 1 through the off-diagonal term
        m = two_agent_model([[0.5, 0.3], [0.0, 0.7]])
        holds, unreachable = honest_influence_check(m, AttackConfig((1,)))
        assert holds is True
        assert unreachable == frozenset()

    def test_no_attack_mode_every_actuated_agent_is_a_source(self):
        m = two_agent_model([[0.5, 0.0], [0.0, 0.7]])
        holds, unreachable = honest_influence_check(m, None)
        assert holds is True and unreachable == frozenset()

    def test_unactuated_agent_needs_a_path(self):
        m = two_agent_model([[0.5, 0.0], [0.0, 0.7]], gains=(1.0, 0.0))
        holds, unreachable = honest_influence_check(m, None)
        assert holds is False and unreachable == frozenset({2})

    def test_strongly_connected_with_one_honest_source(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = 5
            a = np.zeros((n, n))
            for i in range(n):  # ring + random extras: strongly connected
                a[(i + 1) % n, i] = 1.0
            extra = rng.random((n, n)) < 0.3
            a[extra] = 1.0
            gains = np.zeros(n)
            gains[int(rng.integers(0, n))] = 1.0
            m = CpsModel(n_agents=n, dynamics=a, actuator_gains=gains,
                         process_noise=np.eye(n), excitation=np.ones(n),
                         initial_law=Dirac(np.zeros(n)))
            holds, unreachable = honest_influence_check(m, None)
            assert holds and not unreachable

    def test_monotone_in_honest_actuated_set(self):
        # enlarging the honest actuated set never turns true into false
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = 5
            a = (rng.random((n, n)) < 0.25).astype(float)
            gains = (rng.random(n) < 0.7).astype(float)
            m = CpsModel(n_agents=n, dynamics=a, actuator_gains=gains,
                         process_noise=np.eye(n), excitation=np.ones(n),
                         initial_law=Dirac(np.zeros(n)))
            actuated = [i + 1 for i in range(n) if gains[i] != 0.0]
            if len(actuated) < 3:
                continue
            small_malicious = AttackConfig((actuated[0],))
            large_malicious = AttackConfig(tuple(actuated[:2]))
            held_small, _ = honest_influence_check(m, small_malicious)
            held_large, _ = honest_influence_check(m, large_malicious)
            # fewer malicious agents = more honest sources: can only improve
            if held_large:
                assert held_small


def test_noise_law_keeps_diagonal_form():
    m = two_agent_model(np.eye(2), noise=[[2.0, 0.0], [0.0, 3.0]])
    assert isinstance(m.noise_law.cov, DiagonalPsd)
    m2 = two_agent_model(np.eye(2), noise=[[2.0, 0.5], [0.5, 3.0]])
    assert not isinstance(m2.noise_law.cov, DiagonalPsd)
