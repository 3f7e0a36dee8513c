import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cps_sentinel import cli, harness
from cps_sentinel.detection import classify, rn_series, series_csv_text
from cps_sentinel.harness import (
    AssumptionViolation,
    PRESETS,
    ValidationError,
    load_scenario,
    mdp_scenario_from_dict,
    preset,
    run_mdp_batch,
    _write_runs_table,
    run_montecarlo,
    scenario_from_dict,
)
from cps_sentinel.model import honest_influence_check
from cps_sentinel.numerics import split_seed
from cps_sentinel.simulator import simulate


def run_in_chunks(s, chunk, out_dir):
    """run_montecarlo with the seeds split into engine calls of ``chunk`` seeds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_chunk_seeds", lambda _: chunk)
        return run_montecarlo(s, out_dir=out_dir)


def assert_batch_matches_chunks_and_per_seed(s, chunk, tmp_path):
    """A whole batch, the same seeds in chunks, and each seed alone agree exactly.

    Compares per-seed CSV bytes, runs.csv bytes, rows and the summary.
    """
    whole = run_montecarlo(s, out_dir=tmp_path / "whole")
    chunked = run_in_chunks(s, chunk, tmp_path / "chunked")
    a, b = whole.summary_dict(), chunked.summary_dict()
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b
    assert whole.rows == chunked.rows
    assert (tmp_path / "whole" / "runs.csv").read_bytes() == \
        (tmp_path / "chunked" / "runs.csv").read_bytes()
    corrupt, cfg = (s.attack[1], s.attack[0]) if s.attack else (None, None)
    for i, row in enumerate(whole.rows):
        traj = simulate(s.model, s.honest, s.attack, s.horizon, split_seed(s.seed_base, i))
        series = rn_series(traj, s.model, s.honest, corrupt, cfg)
        name = f"run_{i:05d}.csv"
        assert (tmp_path / "whole" / name).read_bytes() == \
            (tmp_path / "chunked" / name).read_bytes() == series_csv_text(series).encode()
        assert row["log_l"] == series.log_l_at(s.horizon)
        assert row["decision"] == classify(series, s.horizon, s.threshold).value


LINEAR_PRESETS = ["identity", "replacement", "fdi", "dos", "mimic", "example1", "example2"]


def small(name, count=3, horizon=40):
    data = preset(name)
    data["seeds"]["count"] = count
    data["horizon"] = horizon
    return scenario_from_dict(data)


class TestPresets:
    @pytest.mark.parametrize("name", LINEAR_PRESETS)
    def test_linear_presets_validate(self, name):
        s = scenario_from_dict(preset(name))
        assert s.name == name
        assert s.model.n_agents == 2

    @pytest.mark.parametrize("name", ["mdp-detect", "mdp-mimic"])
    def test_mdp_presets_validate(self, name):
        s = mdp_scenario_from_dict(preset(name))
        assert s.mdp.n_states == 2

    def test_example1_influence_fails(self):
        s = scenario_from_dict(preset("example1"))
        holds, unreachable = honest_influence_check(s.model, s.attack[0])
        assert not holds and unreachable == frozenset({1})

    def test_example2_influence_passes(self):
        s = scenario_from_dict(preset("example2"))
        holds, unreachable = honest_influence_check(s.model, s.attack[0])
        assert holds and not unreachable

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset("nope")


class TestScenarioValidation:
    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(preset("example2")))
        s = load_scenario(path)
        assert s.name == "example2" and s.horizon == 100

    def test_load_scenario_parse_error(self, tmp_path):
        from cps_sentinel.harness import ParseError
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        with pytest.raises(ParseError):
            load_scenario(path)
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "missing.json")

    def test_bad_process_noise_names_the_field(self):
        data = preset("identity")
        data["model"]["process_noise"] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert any(v.path == "model.process_noise" for v in err.value.issues)

    def test_multiple_issues_reported_together(self):
        data = preset("identity")
        data["model"]["process_noise"] = [[1.0, 2.0], [2.0, 1.0]]
        data["horizon"] = 0
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        paths = {v.path for v in err.value.issues}
        assert "horizon" in paths

    def test_attack_parameter_sizes_checked(self):
        data = preset("fdi")
        data["attack"]["offsets"] = [0.2, 0.3]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert any(v.path == "attack.offsets" for v in err.value.issues)

    def test_missing_threshold_reported(self):
        data = preset("identity")
        del data["threshold"]
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_honest_gain_shape_checked(self):
        data = preset("identity")
        data["honest"] = {"kind": "linear", "gain": [[1.0]]}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert any(v.path == "honest.gain" for v in err.value.issues)

    def test_fdi_schedule_length_checked(self):
        data = preset("fdi")
        data["attack"]["offsets"] = [[0.2]] * 10  # shorter than the horizon
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert any(v.code == "ScheduleTooShort" for v in err.value.issues)

    @pytest.mark.parametrize("honest", [
        {"kind": "zero"},
        {"kind": "affine", "gain": [[0.1, 0.0], [0.0, 0.1]], "offset": [1.0, -1.0]},
        {"kind": "window", "lag_gains": [[[1.0, 0.0], [0.0, 1.0]],
                                         [[0.5, 0.0], [0.0, 0.5]]]},
    ])
    def test_honest_policy_kinds_parse(self, honest):
        data = preset("identity")
        data["honest"] = honest
        s = scenario_from_dict(data)
        summary = run_montecarlo(s)
        assert summary.detection_fraction == 0.0

    @pytest.mark.parametrize("attack", [
        {"malicious_set": [1], "kind": "replacement", "mode": "sign_flip"},
        {"malicious_set": [1], "kind": "replacement", "mode": "constant",
         "values": [0.3]},
        {"malicious_set": [1], "kind": "dos"},
    ])
    def test_attack_kinds_parse_and_run(self, attack):
        data = preset("example2")
        data["attack"] = attack
        data["seeds"]["count"] = 2
        data["horizon"] = 30
        summary = run_montecarlo(scenario_from_dict(data))
        assert summary.n_runs == 2


class TestRunMontecarlo:
    def test_single_run_matches_manual_composition(self):
        s = small("replacement", count=1, horizon=60)
        summary = run_montecarlo(s)
        seed = split_seed(s.seed_base, 0)
        traj = simulate(s.model, s.honest, s.attack, s.horizon, seed)
        series = rn_series(traj, s.model, s.honest, s.attack[1], s.attack[0])
        row = summary.rows[0]
        assert row["seed"] == seed
        assert row["log_l"] == series.log_l_at(s.horizon)
        assert row["r_n"] == float(series.r_n[-1])
        assert row["decision"] == classify(series, s.horizon, s.threshold).value

    def test_no_attack_identity_gives_zero_stat(self):
        s = small("identity", count=4, horizon=50)
        summary = run_montecarlo(s)
        assert summary.detection_fraction == 0.0
        assert all(row["log_l"] == 0.0 for row in summary.rows)

    def test_mimic_never_detected(self):
        s = small("mimic", count=4, horizon=50)
        summary = run_montecarlo(s)
        assert summary.detection_fraction == 0.0

    def test_replacement_detects(self):
        s = small("replacement", count=20, horizon=120)
        summary = run_montecarlo(s)
        assert summary.detection_fraction >= 0.95
        assert summary.mean_drift < 0.0

    def test_refuses_assumption_violation_without_override(self):
        s = small("example1")
        with pytest.raises(AssumptionViolation):
            run_montecarlo(s)
        summary = run_montecarlo(s, override_assumption2=True)
        assert summary.n_runs == s.seed_count

    def test_outputs_are_byte_identical_across_reruns(self, tmp_path):
        s = small("replacement", count=3, horizon=30)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_montecarlo(s, out_dir=dir_a)
        run_montecarlo(s, out_dir=dir_b)
        for name in ("run_00000.csv", "run_00001.csv", "run_00002.csv", "runs.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        sa = json.loads((dir_a / "summary.json").read_text())
        sb = json.loads((dir_b / "summary.json").read_text())
        sa.pop("runtime_seconds"), sb.pop("runtime_seconds")
        assert sa == sb

    def test_batch_matches_chunks_and_per_seed(self, tmp_path):
        s = small("fdi", count=6, horizon=30)
        assert_batch_matches_chunks_and_per_seed(s, 4, tmp_path)

    def test_summary_json_keys_exact(self, tmp_path):
        s = small("identity", count=2, horizon=20)
        run_montecarlo(s, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"scenario", "n_runs", "n_ok", "n_failed", "failure_codes",
                                "horizon", "threshold", "detection_fraction", "mean_drift",
                                "drift_stderr", "runtime_seconds"}
        assert summary["n_ok"] == 2 and summary["n_failed"] == 0
        assert summary["failure_codes"] == {}

    def test_per_seed_errors_recorded_without_aborting(self):
        data = preset("identity")
        data["model"]["dynamics"] = [[10.0, 0.0], [0.0, 10.0]]  # wildly unstable
        data["horizon"] = 500
        data["seeds"]["count"] = 2
        s = scenario_from_dict(data)
        summary = run_montecarlo(s)
        assert all(r["error"] is not None and "NonFiniteState" in r["error"]
                   for r in summary.rows)
        assert summary.n_failed == 2 and summary.n_ok == 0
        assert summary.failure_codes == {"NonFiniteState": 2}
        assert summary.detection_fraction is None  # no run, so no verdict

    def test_error_cells_are_quoted_in_runs_table(self, tmp_path):
        rows = [{"run_index": 0, "seed": 11, "log_l": -1.5, "r_n": None,
                 "decision": "attack", "error": None},
                {"run_index": 1, "seed": 12, "log_l": None, "r_n": None,
                 "decision": None, "error": 'Boom: a, b\nsecond "line"'}]
        _write_runs_table(tmp_path / "runs.csv", rows)
        with open(tmp_path / "runs.csv", newline="") as fp:
            table = list(csv.reader(fp))
        assert table[0] == ["run_index", "seed", "logL", "r_n", "decision", "error"]
        assert table[1] == ["0", "11", "-1.5", "", "attack", ""]
        assert table[2] == ["1", "12", "", "", "", 'Boom: a, b\nsecond "line"']
        assert len(table) == 3


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["replacement", "fdi", "dos", "mimic", "identity"]),
       count=st.integers(1, 7), horizon=st.integers(1, 25), chunk=st.integers(1, 8),
       base=st.integers(0, 2 ** 32))
def test_chunking_never_changes_a_seed(tmp_path_factory, name, count, horizon, chunk, base):
    data = preset(name)
    data["seeds"] = {"base": base, "count": count}
    data["horizon"] = horizon
    assert_batch_matches_chunks_and_per_seed(scenario_from_dict(data), chunk,
                                             tmp_path_factory.mktemp("runs"))


class TestMdpBatch:
    def test_detect_pair_batch(self, tmp_path):
        data = preset("mdp-detect")
        data["seeds"]["count"] = 5
        data["horizon"] = 500
        s = mdp_scenario_from_dict(data)
        summary = run_mdp_batch(s, out_dir=tmp_path)
        assert summary["analytic_drift"] < 0.0
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "run_00004.csv").exists()

    def test_mimic_pair_flat_series(self):
        data = preset("mdp-mimic")
        data["seeds"]["count"] = 2
        data["horizon"] = 200
        s = mdp_scenario_from_dict(data)
        summary = run_mdp_batch(s)
        assert summary["analytic_drift"] == 0.0
        assert summary["mean_drift"] == 0.0


class TestCli:
    def write_preset(self, tmp_path, name, **tweak):
        data = preset(name)
        for key, value in tweak.items():
            data[key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return path

    def test_preset_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert cli.main(["preset", "replacement", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["name"] == "replacement"

    def test_check_valid_scenario(self, tmp_path, capsys):
        path = self.write_preset(tmp_path, "example2")
        assert cli.main(["check", str(path)]) == 0
        assert "influence check: holds" in capsys.readouterr().out

    def test_check_reports_failed_influence(self, tmp_path, capsys):
        path = self.write_preset(tmp_path, "example1")
        assert cli.main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fails" in out and "[1]" in out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["check", str(bad)]) == 1

    def test_validation_error_exit_code(self, tmp_path):
        data = preset("identity")
        data["model"]["process_noise"] = [[1.0, 2.0], [2.0, 1.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["montecarlo", str(path)]) == 1

    def test_montecarlo_refusal_and_override(self, tmp_path, capsys):
        path = self.write_preset(tmp_path, "example1",
                                 seeds={"base": 1, "count": 2}, horizon=20)
        assert cli.main(["montecarlo", str(path), "--out", str(tmp_path / "o")]) == 1
        assert cli.main(["montecarlo", str(path), "--override-assumption2",
                         "--out", str(tmp_path / "o2")]) == 0

    def test_simulate_writes_csv(self, tmp_path):
        path = self.write_preset(tmp_path, "identity", horizon=10)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", str(path), "--out", str(out), "--seed", "7"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,x_1")
        assert len(lines) == 12

    def test_detect_emits_summary(self, tmp_path, capsys):
        path = self.write_preset(tmp_path, "replacement", horizon=50,
                                 seeds={"base": 1, "count": 1})
        out = tmp_path / "series.csv"
        assert cli.main(["detect", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decision"] == "attack"
        assert out.read_text().startswith("t,logL,r_n")

    def test_numeric_error_exit_code(self, tmp_path):
        data = preset("identity")
        data["model"]["dynamics"] = [[10.0, 0.0], [0.0, 10.0]]
        data["horizon"] = 500
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        assert cli.main(["simulate", str(path)]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        path = self.write_preset(tmp_path, "identity", horizon=10)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv("CPS_SENTINEL_SEED", "99")
        assert cli.main(["simulate", str(path), "--out", str(out1)]) == 0
        monkeypatch.delenv("CPS_SENTINEL_SEED")
        assert cli.main(["simulate", str(path), "--out", str(out2),
                         "--seed", str(split_seed(99, 0))]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mdp_subcommand(self, tmp_path, capsys):
        data = preset("mdp-detect")
        data["seeds"]["count"] = 3
        data["horizon"] = 200
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(data))
        assert cli.main(["mdp", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_runs"] == 3

    def mdp_file(self, tmp_path, **tweak):
        data = preset("mdp-detect")
        data.update(horizon=20, seeds={"base": 1, "count": 2}, **tweak)
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(data))
        return path

    def test_mdp_batch_failure_exits_two_with_an_error_line(self, tmp_path, capsys):
        # a periodic corrupt chain has no stationary law, so the batch raises
        data = preset("mdp-detect")
        data["mdp"] = {"kernel": [[[0.0, 1.0], [1.0, 0.0]]], "initial": [1.0, 0.0]}
        data["honest_policy"] = data["corrupt_policy"] = [[1.0], [1.0]]
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(data))
        assert cli.main(["mdp", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: ConvergenceFailure: ")
        assert len(captured.err.splitlines()) == 1

    def test_mdp_threshold_in_the_file_is_rejected(self, tmp_path, capsys):
        path = self.mdp_file(tmp_path, threshold=-10.0)
        assert cli.main(["mdp", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threshold" in err

    def test_mdp_threshold_override_is_rejected(self, tmp_path, capsys):
        path = self.mdp_file(tmp_path)
        assert cli.main(["mdp", str(path), "--threshold", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threshold" in err

    def test_overrides_are_validated(self, tmp_path, capsys):
        data = preset("fdi")
        data["attack"]["offsets"] = [[0.2]] * 10
        data["horizon"] = 10
        path = tmp_path / "fdi.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / "o")
        assert cli.main(["montecarlo", str(path), "--seeds", "2", "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["montecarlo", str(path), "--horizon", "50", "--out", out]) == 1
        assert "ScheduleTooShort" not in capsys.readouterr().out
        for flag in ("--horizon", "--seeds"):
            assert cli.main(["montecarlo", str(path), flag, "0", "--out", out]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_env_seed_is_validated(self, tmp_path, monkeypatch, capsys):
        path = self.write_preset(tmp_path, "identity", horizon=10)
        monkeypatch.setenv("CPS_SENTINEL_SEED", "1.5")
        assert cli.main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: CPS_SENTINEL_SEED must be an integer")

    def test_overrides_reach_the_batch(self, tmp_path, monkeypatch, capsys):
        path = self.write_preset(tmp_path, "identity", horizon=10,
                                 seeds={"base": 1, "count": 2})
        monkeypatch.setenv("CPS_SENTINEL_SEED", "5")
        assert cli.main(["montecarlo", str(path), "--horizon", "7", "--seeds", "3",
                         "--threshold", "-2.5", "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["horizon"], summary["n_runs"], summary["threshold"]) == (7, 3, -2.5)
        runs = (tmp_path / "o" / "runs.csv").read_text().splitlines()
        assert runs[1].split(",")[1] == str(split_seed(5, 0))

    @pytest.mark.parametrize("command", ["check", "simulate", "montecarlo", "mdp"])
    def test_non_object_json_is_a_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_seeds_exit_two(self, tmp_path, capsys):
        data = preset("identity")
        data["model"]["dynamics"] = [[10.0, 0.0], [0.0, 10.0]]
        data["horizon"] = 500
        data["seeds"]["count"] = 2
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        assert cli.main(["montecarlo", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (summary["n_ok"], summary["n_failed"]) == (0, 2)
        assert summary["failure_codes"] == {"NonFiniteState": 2}
        assert summary["detection_fraction"] is None
        assert captured.err.startswith("numeric error: 2 of 2 seeds failed")

    def test_cli_reruns_are_byte_identical(self, tmp_path):
        path = self.write_preset(tmp_path, "fdi", horizon=25,
                                 seeds={"base": 3, "count": 2})
        for d in ("r1", "r2"):
            assert cli.main(["montecarlo", str(path), "--out", str(tmp_path / d)]) == 0
        for name in ("run_00000.csv", "run_00001.csv", "runs.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()


def test_all_presets_have_builders():
    assert set(PRESETS) == {"identity", "replacement", "fdi", "dos", "mimic",
                            "example1", "example2", "mdp-detect", "mdp-mimic"}


# Malformed input and overrides: every subcommand, every preset, one JSON
# node swapped for an out-of-kind value, random run-setting overrides.

SWAP_VALUES = [None, True, 0, -1, 1.5, "x", [], {}, [[1.5]]]
COMMANDS = ["check", "simulate", "detect", "montecarlo", "mdp"]


def json_nodes(value, path=()):
    """The path (keys and indices) of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def swapped(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def small_preset(name):
    """A preset cut to a few seeds and steps, so that each command takes milliseconds."""
    data = preset(name)
    data["horizon"] = min(data["horizon"], 12)
    data["seeds"]["count"] = 3
    return data


def run_cli(argv):
    """Exit code, stdout and stderr of an in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def is_integer_field(path):
    return path in {("horizon",), ("seeds", "base"), ("seeds", "count"), ("model", "n_agents")} \
        or (len(path) == 3 and path[:2] == ("attack", "malicious_set"))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PRESETS)), command=st.sampled_from(COMMANDS),
       value=st.sampled_from(SWAP_VALUES),
       horizon=st.none() | st.integers(-2, 30), seeds=st.none() | st.integers(-2, 4),
       threshold=st.none() | st.floats())
def test_malformed_input_never_crashes(data, name, command, value, horizon, seeds, threshold):
    scenario = small_preset(name)
    path = data.draw(st.sampled_from(list(json_nodes(scenario))), label="path")
    overrides = {"--horizon": horizon, "--seeds": seeds, "--threshold": threshold}
    argv = [command]
    if command != "check":
        argv += [f"{flag}={v}" for flag, v in overrides.items() if v is not None]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "scenario.json"
        file.write_text(json.dumps(swapped(scenario, path, value)))
        code, out, err = run_cli(argv[:1] + [str(file)] + argv[1:])
    assert code in (0, 1, 2)
    if code != 0:
        assert err.splitlines()[-1].startswith(("error: ", "numeric error: "))
    if command in ("montecarlo", "mdp") and out:
        json.loads(out, parse_constant=reject_constant)
    overridden = (path == ("horizon",) and horizon is not None and command != "check") or \
        (path == ("seeds", "count") and seeds is not None and command != "check")
    if is_integer_field(path) and not overridden and type(value) is not int:
        assert code == 1, (path, value)


@pytest.mark.parametrize("name, path, value", [
    ("identity", ("model", "initial"), 5),
    ("replacement", ("model", "n_agents"), 2.0),
    ("replacement", ("attack", "malicious_set"), [1.5]),
    ("replacement", ("attack", "malicious_set"), [True]),
    ("identity", ("horizon",), True),
    ("identity", ("seeds", "count"), True),
    ("mdp-detect", ("seeds", "base"), True),
    ("mdp-detect", ("seeds", "count"), 2.5),
    ("identity", ("model", "n_agents"), True),
    ("identity", ("threshold",), True),
    ("identity", ("threshold",), float("nan")),
    ("identity", ("threshold",), 10 ** 400),
    ("identity", ("outputs",), 5),
    ("identity", ("honest", "gain", 0, 0), None),
    ("replacement", ("attack", "values", 0), None),
    ("mdp-detect", ("mdp", "kernel", 0, 0, 0), None),
    ("mdp-detect", ("honest_policy",), [[1.0]]),
])
def test_malformed_fields_exit_one_with_an_error_line(tmp_path, name, path, value):
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(swapped(small_preset(name), path, value)))
    code, out, err = run_cli(["mdp" if name.startswith("mdp") else "montecarlo", str(file)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_mdp_count_and_seed_codes_match_the_linear_ones():
    codes = {}
    for name in ("identity", "mdp-detect"):
        parse = mdp_scenario_from_dict if name.startswith("mdp") else scenario_from_dict
        for key, value in (("count", 0), ("base", "x")):
            data = small_preset(name)
            data["seeds"][key] = value
            with pytest.raises(ValidationError) as err:
                parse(data)
            codes[name, key] = [(v.path, v.code) for v in err.value.issues]
    assert codes["identity", "count"] == codes["mdp-detect", "count"] == \
        [("seeds.count", "BadCount")]
    assert codes["identity", "base"] == codes["mdp-detect", "base"] == \
        [("seeds.base", "BadSeed")]
