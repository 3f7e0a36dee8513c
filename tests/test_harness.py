import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cps_sentinel import cli, harness, numerics
from cps_sentinel import mdp as mdp_module
from cps_sentinel.detection import NonFiniteLogRatio, decide, detect_ensemble, series_csv_tile
from cps_sentinel.harness import (
    AssumptionViolation,
    PRESETS,
    ValidationError,
    json_text,
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
from cps_sentinel.simulator import simulate_ensemble


def run_in_chunks(s, chunk, out):
    """run_montecarlo with the seeds in groups of ``chunk`` and tiles of one common block.

    A group's tile budget of one common block for ``chunk`` seeds; a
    smaller last group runs longer tiles in the same budget.
    """
    block, columns = common_block(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_TILE_BLOCKS", 1)
        mp.setattr(numerics, "TILE_CELLS", chunk * block * columns)
        return run_montecarlo(dataclasses.replace(s, outputs=str(out)))


def seed_alone(s, seed):
    """Seed ``seed`` of ``s`` through the whole-path APIs: its row's error text, or its series."""
    ens = simulate_ensemble(s.model, s.honest, s.attack, s.horizon, [seed])
    corrupt, cfg = (s.attack[1], s.attack[0]) if s.attack else (None, None)
    error = ens.error(0)
    if error is None:
        series = detect_ensemble(ens.states, s.model, s.honest, corrupt, cfg).row(0)
        bad = ~np.isfinite(series.cum_log_l)
        if not bad.any():
            return None, series
        error = NonFiniteLogRatio(int(bad.argmax()) + 1, seed)
    return f"{type(error).__name__}: {error}", None


def assert_batch_matches_chunks_and_per_seed(s, chunk, tmp_path):
    """A whole batch, the same seeds in chunks, and each seed alone agree exactly.

    Compares per-seed CSV bytes, runs.csv bytes, rows and the summary.
    """
    whole = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "whole")))
    chunked = run_in_chunks(s, chunk, tmp_path / "chunked")
    a, b = whole.summary_dict(), chunked.summary_dict()
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b
    assert whole.rows == chunked.rows
    assert (tmp_path / "whole" / "runs.csv").read_bytes() == \
        (tmp_path / "chunked" / "runs.csv").read_bytes()
    for i, row in enumerate(whole.rows):
        _, series = seed_alone(s, split_seed(s.seed_base, i))
        name = f"run_{i:05d}.csv"
        assert (tmp_path / "whole" / name).read_bytes() == \
            (tmp_path / "chunked" / name).read_bytes() == next(series_csv_tile(series, 0)).encode()
        assert row["log_l"] == series.cum_log_l[-1]
        assert row["r_n"] == (float(series.r_n[-1]) if series.r_defined[-1] else None)
        assert row["decision"] == decide(series.cum_log_l[-1], s.threshold).value


LINEAR_PRESETS = ["identity", "replacement", "fdi", "dos", "mimic", "example1", "example2"]


def overflowing_replacement():
    """The replacement preset on an unstable network whose log ratio overflows."""
    data = preset("replacement")
    data["model"]["dynamics"] = [[2.0, 0.3], [0.0, 2.0]]
    data["horizon"] = 1000
    data["seeds"]["count"] = 3
    return data


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

    def test_editing_a_preset_leaves_every_later_preset_unchanged(self):
        before = {name: json_text(preset(name)) for name in PRESETS}
        for name in PRESETS:
            data = preset(name)
            if "model" in data:
                data["model"]["initial"]["point"][0] = 5.0
                data["model"]["dynamics"][0][0] = 9.0
                data["honest"]["gain"][1][1] = 9.0
                data["seeds"]["count"] = 1
                if data["attack"] is not None:
                    data["attack"]["malicious_set"].append(2)
            else:
                data["mdp"]["kernel"][0][0][0] = 0.0
                data["honest_policy"][0][0] = 0.0
        assert {name: json_text(preset(name)) for name in PRESETS} == before
        assert preset("replacement")["model"]["initial"]["point"] == [0.0, 0.0]

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
        _, series = seed_alone(s, seed)
        row = summary.rows[0]
        assert row["seed"] == seed
        assert row["log_l"] == series.cum_log_l[-1]
        assert row["r_n"] == float(series.r_n[-1])
        assert row["decision"] == decide(series.cum_log_l[-1], s.threshold).value

    def test_no_attack_identity_gives_zero_stat(self):
        s = small("identity", count=4, horizon=50)
        summary = run_montecarlo(s)
        assert summary.detection_fraction == 0.0
        assert all(row["log_l"] == 0.0 for row in summary.rows)

    def test_a_tie_with_the_threshold_stays_honest(self):
        # every logL of an unattacked batch is exactly 0.0
        s = small("identity", count=4, horizon=50)
        at = run_montecarlo(dataclasses.replace(s, threshold=0.0))
        assert [row["decision"] for row in at.rows] == ["honest"] * 4
        assert at.detection_fraction == 0.0
        above = run_montecarlo(dataclasses.replace(s, threshold=5e-324))
        assert [row["decision"] for row in above.rows] == ["attack"] * 4
        assert above.detection_fraction == 1.0

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
        run_montecarlo(dataclasses.replace(s, outputs=str(dir_a)))
        run_montecarlo(dataclasses.replace(s, outputs=str(dir_b)))
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
        run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path)))
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

    def test_an_overflowing_log_ratio_is_a_failed_seed(self, tmp_path):
        # the states stay finite (about 2^1000) but their residual energies overflow
        summary = run_montecarlo(dataclasses.replace(scenario_from_dict(overflowing_replacement()),
                                                     outputs=str(tmp_path)))
        assert summary.n_failed == 3 and summary.n_ok == 0
        assert summary.failure_codes == {"NonFiniteLogRatio": 3}
        assert summary.detection_fraction is None and summary.mean_drift is None
        for r in summary.rows:
            assert r["decision"] is None and r["log_l"] is None
            assert r["error"].startswith("NonFiniteLogRatio: log likelihood ratio is not "
                                         "finite from step ")
            assert r["error"].endswith(f"(seed {r['seed']})")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv", "summary.json"]
        with open(tmp_path / "runs.csv", newline="") as fp:
            table = list(csv.reader(fp))
        assert [row[2:5] for row in table[1:]] == [["", "", ""]] * 3

    def test_a_failed_log_ratio_leaves_the_other_seeds_as_they_were(self, tmp_path,
                                                                    monkeypatch):
        s = small("replacement", count=4, horizon=30)
        want = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "plain")))
        real = harness.detect_tile

        def overflow_seed_2(*args):
            batch = real(*args)  # the whole horizon is one tile
            batch.cum_log_l[2, 17:] = math.nan
            return batch

        monkeypatch.setattr(harness, "detect_tile", overflow_seed_2)
        got = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "failed")))
        assert got.failure_codes == {"NonFiniteLogRatio": 1}
        assert got.rows[2]["error"] == ("NonFiniteLogRatio: log likelihood ratio is not "
                                        f"finite from step 18 (seed {got.rows[2]['seed']})")
        assert [r for k, r in enumerate(got.rows) if k != 2] == \
            [r for k, r in enumerate(want.rows) if k != 2]
        assert not (tmp_path / "failed" / "run_00002.csv").exists()
        for k in (0, 1, 3):
            name = f"run_{k:05d}.csv"
            assert (tmp_path / "failed" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

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


@pytest.mark.parametrize("kind", ["montecarlo", "mdp"])
def test_a_rerun_over_longer_stale_files_writes_a_fresh_runs_bytes(tmp_path, kind):
    if kind == "montecarlo":
        def run(out):
            s = small("replacement", count=3, horizon=30)
            run_montecarlo(dataclasses.replace(s, outputs=str(out)))
    else:
        data = preset("mdp-detect")
        data["seeds"]["count"], data["horizon"] = 3, 50

        def run(out):
            run_mdp_batch(mdp_scenario_from_dict(dict(data, outputs=str(out))))
    fresh, rerun, old = tmp_path / "fresh", tmp_path / "rerun", tmp_path / "old"
    run(fresh)
    names = sorted(p.name for p in fresh.iterdir())
    assert "summary.json" in names and "run_00002.csv" in names
    rerun.mkdir()
    old.mkdir()
    stale = "x" * 100_000
    for name in names:
        (rerun / name).write_text(stale)
        os.link(rerun / name, old / name)
    run(rerun)
    for name in names:
        got, want = (rerun / name).read_text(), (fresh / name).read_text()
        if name == "summary.json":
            got, want = json.loads(got), json.loads(want)
            got.pop("runtime_seconds"), want.pop("runtime_seconds")
        assert got == want
        # replaced by a new file, not truncated in place: the old one is intact
        assert (old / name).read_text() == stale


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
        summary = run_mdp_batch(dataclasses.replace(s, outputs=str(tmp_path)))
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

    @pytest.mark.parametrize("command", ["preset", "simulate", "detect"])
    def test_out_is_written_fresh_not_truncated_in_place(self, tmp_path, capsys, command):
        out, link = tmp_path / "out", tmp_path / "link"
        out.write_text("old bytes\n")
        os.link(out, link)
        argv = self.out_argv(tmp_path, command)
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert link.read_text() == "old bytes\n"
        assert out.read_text() != "old bytes\n"
        assert not os.path.samefile(out, link)

    def out_argv(self, tmp_path, command):
        if command == "preset":
            return ["preset", "replacement"]
        return [command, str(self.write_preset(tmp_path, "replacement")), "--horizon", "5"]

    def plain_out(self, tmp_path, argv):
        """What ``argv --out`` writes to a new regular file."""
        plain = tmp_path / "plain"
        assert cli.main(argv + ["--out", str(plain)]) == 0
        return plain.read_text()

    @pytest.mark.parametrize("command", ["preset", "simulate", "detect"])
    def test_out_writes_through_a_symlink(self, tmp_path, capsys, command):
        target, out = tmp_path / "target", tmp_path / "out"
        target.write_text("old bytes\n")
        out.symlink_to(target)
        argv = self.out_argv(tmp_path, command)
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.is_symlink()
        assert target.read_text() == self.plain_out(tmp_path, argv)

    @pytest.mark.parametrize("command", ["preset", "simulate", "detect"])
    def test_out_writes_into_a_fifo(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        os.mkfifo(out)
        # a reader that does not wait for the writer; each output fits the pipe buffer
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = self.out_argv(tmp_path, command)
            assert cli.main(argv + ["--out", str(out)]) == 0
            assert stat.S_ISFIFO(os.lstat(out).st_mode)
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert b"".join(chunks).decode() == self.plain_out(tmp_path, argv)

    @pytest.mark.parametrize("command", ["preset", "simulate", "detect"])
    def test_out_naming_a_directory_is_an_error_line(self, tmp_path, capsys, command):
        out = tmp_path / "dir"
        out.mkdir()
        assert cli.main(self.out_argv(tmp_path, command) + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("via", ["--out", "outputs"])
    @pytest.mark.parametrize("command", ["montecarlo", "mdp"])
    def test_batch_outputs_under_a_file_are_an_error_line(self, tmp_path, capsys, command, via):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = str(blocker / "o")
        name = "replacement" if command == "montecarlo" else "mdp-detect"
        tweak = {"horizon": 5, "seeds": {"base": 1, "count": 2}}
        if via == "outputs":
            tweak["outputs"] = out
        argv = [command, str(self.write_preset(tmp_path, name, **tweak))]
        if via == "--out":
            argv += ["--out", out]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""

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

    def test_detect_with_a_per_step_fdi_schedule(self, tmp_path, capsys):
        # a time-varying offset has no stationary drift: null, not an error
        path = self.write_preset(tmp_path, "fdi", horizon=20,
                                 attack={"malicious_set": [1], "kind": "fdi",
                                         "offsets": [[0.1 * k] for k in range(20)]})
        assert cli.main(["detect", str(path), "--out", str(tmp_path / "s.csv")]) == 0
        text = capsys.readouterr().out
        assert '"drift_estimate": null' in text
        assert json.loads(text)["n"] == 20

    def test_detect_prints_a_positive_zero_drift_for_the_mimic(self, tmp_path, capsys):
        path = self.write_preset(tmp_path, "mimic", horizon=50)
        assert cli.main(["detect", str(path), "--out", str(tmp_path / "s.csv")]) == 0
        text = capsys.readouterr().out
        assert '"drift_estimate": 0.0' in text
        assert math.copysign(1.0, json.loads(text)["drift_estimate"]) == 1.0

    def test_numeric_error_exit_code(self, tmp_path):
        data = preset("identity")
        data["model"]["dynamics"] = [[10.0, 0.0], [0.0, 10.0]]
        data["horizon"] = 500
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        assert cli.main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("command", ["montecarlo", "detect"])
    def test_an_overflowing_log_ratio_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(overflowing_replacement()))
        out = tmp_path / "o"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and len(err.splitlines()) == 1
        assert "NonFiniteLogRatio: log likelihood ratio is not finite from step " in err
        if command == "detect":
            assert not out.exists()  # no series of a failed run

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_a_negative_seed_names_the_option(self, tmp_path, capsys, command):
        path = self.write_preset(tmp_path, "identity", horizon=10)
        assert cli.main([command, str(path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == \
            "error: --seed must be a non-negative integer, got -1\n"

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

    def test_periodic_mdp_batch_exits_zero_with_zero_drift(self, tmp_path, capsys):
        # a periodic corrupt chain has a Cesaro limit law, so its drift is exact
        data = preset("mdp-detect")
        data["mdp"] = {"kernel": [[[0.0, 1.0], [1.0, 0.0]]], "initial": [1.0, 0.0]}
        data["honest_policy"] = data["corrupt_policy"] = [[1.0], [1.0]]
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(data))
        assert cli.main(["mdp", str(path), "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        assert summary["analytic_drift"] == 0.0 == summary["mean_drift"]

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


@pytest.mark.parametrize("name, path, value, words", [
    ("replacement", ("model", "actuator_gains"), [[1.0], [1.0]],
     ("model.actuator_gains", "(2, 1)")),
    ("replacement", ("model", "excitation"), [[0.16], [1.0]], ("model.excitation", "(2, 1)")),
    ("replacement", ("model", "excitation"), [[1.0, 0.0], [0.0, 1.0]],
     ("model.excitation", "(2, 2)")),
    ("replacement", ("model", "initial", "point"), [[0.0], [0.0]],
     ("model.initial: point", "(2, 1)")),
    ("replacement", ("model", "initial"),
     {"kind": "gaussian", "mean": [[0.0], [0.0]], "cov": [1.0, 1.0]},
     ("model.initial: mean", "(2, 1)")),
    ("mimic", ("attack", "self_excitation"), [[0.16]], ("attack: self_excitation", "(1, 1)")),
], ids=["actuator_gains", "excitation", "excitation-matrix", "initial-point", "initial-mean",
        "self_excitation"])
def test_a_nested_vector_field_is_named_with_its_shape_as_written(tmp_path, name, path, value,
                                                                  words):
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(swapped(preset(name), path, value)))
    code, out, err = run_cli(["detect", str(file), "--horizon", "5"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert all(word in err for word in words), err


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


# ---------------------------------------------------------------------------
# The linear batch in time tiles


def chain_scenario(n=16, horizon=100, count=3, base=7):
    """An n-agent chain with full process noise, a 3-lag window law and mimicry on every
    4th agent: the simulator's blocks are 64 // n steps and the detector's 1."""
    a = 0.5 * np.eye(n) + 0.2 * np.eye(n, k=-1) + 0.1 * np.eye(n, k=1)
    noise = 0.5 * np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    attacked = list(range(4, n + 1, 4))
    return {"name": "chain", "horizon": horizon, "seeds": {"base": base, "count": count},
            "threshold": -10.0,
            "model": {"n_agents": n, "dynamics": a.tolist(), "actuator_gains": [1.0] * n,
                      "process_noise": noise.tolist(), "excitation": [1.0] * n,
                      "initial": {"kind": "dirac", "point": [0.0] * n}},
            "honest": {"kind": "window", "lag_gains": [(-0.2 * np.eye(n)).tolist(),
                                                       (-0.05 * np.eye(n)).tolist(),
                                                       (0.02 * np.eye(n)).tolist()]},
            "attack": {"malicious_set": attacked, "kind": "mimic",
                       "self_excitation": [0.5] * len(attacked)}}


def common_block(s):
    cfg, corrupt = s.attack if s.attack is not None else (None, None)
    sim = harness.simulation_plan(s.model, s.honest, s.attack)
    det = harness.detection_plan(s.model, s.honest, corrupt, cfg, s.horizon)
    return math.lcm(sim.block, det.block), max(sim.columns, det.columns)


def run_in_tiles(s, blocks, out):
    """run_montecarlo in one group with tiles of ``blocks`` common blocks (None: one tile)."""
    block, columns = common_block(s)
    cells = 1 << 62 if blocks is None else blocks * block * columns * s.seed_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_TILE_BLOCKS", 1)
        mp.setattr(numerics, "TILE_CELLS", cells)
        return run_montecarlo(dataclasses.replace(s, outputs=str(out)), override_assumption2=True)


def output_bytes(out):
    """Every output file's bytes, the summary without its run time."""
    files = {}
    for p in sorted(out.iterdir()):
        if p.name == "summary.json":
            summary = json.loads(p.read_text())
            summary.pop("runtime_seconds")
            files[p.name] = summary
        else:
            files[p.name] = p.read_bytes()
    return files


def fdi_schedule(horizon=1700, count=4):
    data = preset("fdi")
    data.update(horizon=horizon, seeds={"base": 3, "count": count})
    data["attack"]["offsets"] = [[0.0]] + [[0.3 * math.sin(0.01 * t)] for t in range(1, horizon)]
    return data


def overflowing_states(horizon=317, count=12, base=0):
    """Seeds of a wide initial law whose states overflow near step 316, and some do not."""
    data = preset("replacement")
    data["model"].update(dynamics=[[0.5, 0.1], [0.2, 0.5]], actuator_gains=[1.0, 2.0],
                         process_noise=[[0.5, 0.1], [0.1, 0.5]], excitation=[0.5, 1.0],
                         initial={"kind": "gaussian", "mean": [0.0, 0.0], "cov": [1e300, 1.0]})
    data["attack"]["values"] = [2.66]
    data.update(horizon=horizon, seeds={"base": base, "count": count})
    return data


TILED = {
    "replacement": lambda: dict(preset("replacement"), horizon=1700,
                                seeds={"base": 3_000_000, "count": 5}),
    "mimic": lambda: dict(preset("mimic"), horizon=1700, seeds={"base": 7_000_000, "count": 5}),
    "fdi-schedule": fdi_schedule,
    "chain-mimic": lambda: chain_scenario(horizon=150, count=5),
    "overflowing-states": overflowing_states,
    "overflowing-log-ratio": overflowing_replacement,
}


@pytest.mark.parametrize("name", sorted(TILED))
def test_tiles_never_change_an_output_byte(tmp_path, name):
    s = scenario_from_dict(TILED[name]())
    block, _ = common_block(s)
    assert s.horizon > 2 * block  # the shortest tiles split the horizon at least twice
    want = run_in_tiles(s, None, tmp_path / "whole")
    files = output_bytes(tmp_path / "whole")
    for blocks in (1, 7):
        got = run_in_tiles(s, blocks, tmp_path / str(blocks))
        assert got.rows == want.rows
        assert output_bytes(tmp_path / str(blocks)) == files
    if name.startswith("overflowing"):  # and some seed fails after its second tile
        steps = [int(r["error"].split(" from step ")[-1].split(" at step ")[-1].split()[0])
                 for r in want.rows if r["error"] is not None]
        assert max(steps) > 2 * block
    for i, row in enumerate(want.rows):  # and each seed alone, through the whole-path API
        error, series = seed_alone(s, split_seed(s.seed_base, i))
        assert row["error"] == error
        if error is None:
            assert files[f"run_{i:05d}.csv"] == next(series_csv_tile(series, 0)).encode()


def test_the_default_tiles_hold_a_block_or_about_the_cell_budget():
    replacement = scenario_from_dict(dict(preset("replacement"), seeds={"base": 1, "count": 40}))
    chain = scenario_from_dict(chain_scenario(horizon=500, count=16))
    steps = {}
    for s in (replacement, chain):
        cfg, corrupt = s.attack
        sim = harness.simulation_plan(s.model, s.honest, s.attack)
        det = harness.detection_plan(s.model, s.honest, corrupt, cfg, s.horizon)
        block, columns = max(sim.block, det.block), max(sim.columns, det.columns)
        steps[s.name] = (sim.block, det.block, harness._group_seeds(columns, block),
                         numerics.tile_steps(s.seed_count, columns, block))
    # the replacement preset: blocks of 32 and 16 steps, 6 stacked residual
    # columns; a tile of 8 blocks of 42 seeds fits 64k cells, so the 40 seeds
    # of the bench workload are one group, and 500 steps two tiles of 256
    assert steps["replacement"] == (32, 16, 42, 256)
    # 16 seeds of the 16-agent chain: 48 stacked residual columns per seed
    # and step, so 6 tiles of 84 steps cover 500
    assert steps["chain"] == (4, 1, 42, 84)


def one_block_tiles(monkeypatch, s):
    """Run ``s`` as one group in tiles of one common block; returns the block."""
    block, columns = common_block(s)
    monkeypatch.setattr(harness, "_TILE_BLOCKS", 1)
    monkeypatch.setattr(numerics, "TILE_CELLS", s.seed_count * block * columns)
    return block


def overflow_seed_1(monkeypatch, tile_lo):
    """Make seed row 1's log ratio non-finite from the second step of the tile at ``tile_lo``."""
    real = harness.detect_tile

    def detect(plan, path, lo, carry):
        series = real(plan, path, lo, carry)
        if lo == tile_lo:
            series.cum_log_l[1, 1:] = math.inf
            carry[:, 1] = math.nan  # its log ratio stays non-finite
        return series

    monkeypatch.setattr(harness, "detect_tile", detect)


def test_a_seed_that_fails_in_a_later_tile_leaves_the_others_as_without_it(tmp_path,
                                                                           monkeypatch):
    s = scenario_from_dict(chain_scenario(horizon=40, count=4))
    block = one_block_tiles(monkeypatch, s)
    assert block == 4
    want = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "plain")))
    overflow_seed_1(monkeypatch, 2 * block)  # its third tile
    got = run_montecarlo(dataclasses.replace(s, outputs=str(tmp_path / "failed")))
    seed = split_seed(s.seed_base, 1)
    assert got.rows[1]["error"] == ("NonFiniteLogRatio: log likelihood ratio is not finite "
                                    f"from step {2 * block + 2} (seed {seed})")
    assert not (tmp_path / "failed" / "run_00001.csv").exists()
    others = [0, 2, 3]
    assert [got.rows[k] for k in others] == [want.rows[k] for k in others]
    for k in others:
        name = f"run_{k:05d}.csv"
        assert (tmp_path / "failed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    lines = {d: (tmp_path / d / "runs.csv").read_text().splitlines() for d in ("plain", "failed")}
    assert [lines["failed"][k + 1] for k in others] == [lines["plain"][k + 1] for k in others]
    # the summary is the plain batch's without seed 1
    ok = [want.rows[k] for k in others]
    mean, stderr = harness._drift_stats([r["log_l"] / s.horizon for r in ok])
    assert (got.n_ok, got.n_failed, got.failure_codes) == (3, 1, {"NonFiniteLogRatio": 1})
    assert (got.mean_drift, got.drift_stderr) == (mean, stderr)
    assert got.detection_fraction == sum(r["decision"] == "attack" for r in ok) / 3


@pytest.mark.parametrize("kind", ["NonFiniteState", "NonFiniteLogRatio"])
def test_a_failed_seed_leaves_no_stale_csv_of_an_earlier_run(tmp_path, kind):
    out = tmp_path / "out"
    first = dict(preset("replacement"), horizon=50, seeds={"base": 0, "count": 12})
    run_montecarlo(scenario_from_dict(dict(first, outputs=str(out))))
    failing = overflowing_states() if kind == "NonFiniteState" else dict(
        overflowing_replacement(), seeds={"base": 0, "count": 12})
    # a symlink at a seed's path is written through and left in place, as _create does
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    (out / "run_00000.csv").unlink()
    (out / "run_00000.csv").symlink_to(target)
    summary = run_montecarlo(scenario_from_dict(dict(failing, outputs=str(out))),
                             override_assumption2=True)
    assert summary.failure_codes.get(kind, 0) > 0
    for i, row in enumerate(summary.rows):
        path = out / f"run_{i:05d}.csv"
        if i == 0:
            assert path.is_symlink()
        elif row["error"] is not None:
            assert not path.exists(), path.name
        else:
            assert path.read_text().count("\n") == failing["horizon"] + 1


@pytest.mark.parametrize("tile, kept", [(0, "kept\n"), (2, "")],
                         ids=["first-tile", "later-tile"])
def test_a_failed_seed_leaves_a_symlinked_file_as_it_was_or_empty(tmp_path, monkeypatch,
                                                                  tile, kept):
    # a seed that fails in its first tile never opens its path; one that
    # fails later truncates what it wrote through the link
    s = scenario_from_dict(chain_scenario(horizon=40, count=4))
    overflow_seed_1(monkeypatch, tile * one_block_tiles(monkeypatch, s))
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    (out / "run_00001.csv").symlink_to(target)
    got = run_montecarlo(dataclasses.replace(s, outputs=str(out)))
    assert got.rows[1]["error"].startswith("NonFiniteLogRatio: ")
    assert (out / "run_00001.csv").is_symlink()
    assert target.read_text() == kept
    assert all((out / f"run_{k:05d}.csv").read_text().count("\n") == s.horizon + 1
               for k in (0, 2, 3))


def assert_mdp_tiles_keep_to_the_cell_budget(monkeypatch, name, count):
    """An MDP tile counts 4 cells per seed and step, and its candidate table 4 per entry."""
    s = mdp_scenario_from_dict(dict(preset(name), seeds={"base": 5, "count": count}))
    groups, blocks = [], []
    real_tiles, real_steps = harness._path_tiles, mdp_module.tile_steps

    def recorded_tiles(mdp, policy, n, seeds, steps):
        groups.append((len(seeds), steps))
        return real_tiles(mdp, policy, n, seeds, steps)

    def recorded_steps(n_seeds, columns, block=1):  # the sampler's candidate block
        blocks.append((n_seeds, columns, real_steps(n_seeds, columns, block)))
        return blocks[-1][-1]

    monkeypatch.setattr(harness, "_path_tiles", recorded_tiles)
    monkeypatch.setattr(mdp_module, "tile_steps", recorded_steps)
    run_mdp_batch(s)
    assert sum(n_seeds for n_seeds, _ in groups) == count
    assert [n_seeds for n_seeds, _, _ in blocks] == [n_seeds for n_seeds, _ in groups]
    for (n_seeds, steps), (_, columns, block) in zip(groups, blocks):
        assert n_seeds <= harness._GROUP_SEEDS
        assert columns == 4 * s.mdp.n_states
        assert n_seeds * steps * 4 <= numerics.TILE_CELLS
        assert n_seeds * block * columns <= numerics.TILE_CELLS
    if (name, count) == ("mdp-detect", 100):
        # the tiles that keep the bench workload's memory where it is
        assert (groups, blocks[0][-1]) == ([(100, 163)], 81)


BUDGET_CASES = ([(name, count) for name in LINEAR_PRESETS + ["chain"]
                 for count in (1, 40, 200, 256)]
                + [(name, count) for name in ("mdp-detect", "mdp-mimic")
                   for count in (1, 40, 100, 256, 300)])


@pytest.mark.parametrize("name, count", BUDGET_CASES)
def test_every_tile_keeps_to_the_cell_budget_whatever_the_seed_count(monkeypatch, name, count):
    if name.startswith("mdp"):
        assert_mdp_tiles_keep_to_the_cell_budget(monkeypatch, name, count)
        return
    data = (chain_scenario(horizon=100, count=count) if name == "chain"
            else dict(preset(name), seeds={"base": 5, "count": count}))
    s = scenario_from_dict(data)
    block, columns = common_block(s)
    cfg, corrupt = s.attack if s.attack is not None else (None, None)
    sim = harness.simulation_plan(s.model, s.honest, s.attack)
    det = harness.detection_plan(s.model, s.honest, corrupt, cfg, s.horizon)
    groups = []
    real = harness.path_tiles

    def recorded(plan, horizon, seeds, steps, *args):
        starts = []
        groups.append((len(seeds), steps, starts))
        for tile in real(plan, horizon, seeds, steps, *args):
            starts.append(tile.lo)
            yield tile

    monkeypatch.setattr(harness, "path_tiles", recorded)
    run_montecarlo(s, override_assumption2=True)
    assert sum(n_seeds for n_seeds, _, _ in groups) == count
    alone = block * columns > numerics.TILE_CELLS  # one block of one seed exceeds the budget
    for n_seeds, steps, starts in groups:
        assert n_seeds <= harness._GROUP_SEEDS
        assert starts == list(range(0, s.horizon, steps))
        assert all(lo % sim.block == 0 and lo % det.block == 0 for lo in starts)
        if alone:
            assert (n_seeds, steps) == (1, block)
        else:
            assert n_seeds * steps * columns <= numerics.TILE_CELLS
            assert n_seeds == 1 or steps >= harness._TILE_BLOCKS * block


def test_linear_batch_memory_stays_per_tile_whatever_the_seed_count():
    # replacement seeds run in groups of 42, in tiles of 256 steps, so 64
    # seeds already hold every tile-sized buffer; four times as many may
    # hold no more
    def peak(count):
        s = scenario_from_dict(dict(preset("replacement"), seeds={"base": 7, "count": count}))
        tracemalloc.start()
        try:
            run_montecarlo(s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # whatever a first batch allocates once
    assert peak(256) <= 1.1 * peak(64)


@pytest.mark.parametrize("files", [False, True], ids=["no-outputs", "outputs"])
@pytest.mark.parametrize("name", ["replacement", "chain"])
def test_linear_batch_memory_stays_per_tile_whatever_the_horizon(tmp_path, name, files):
    # the replacement preset runs tiles of 2720 steps of 4 seeds (10912 of the
    # one seed whose CSV is written) and the chain tiles of 340 (1364), so
    # a horizon of 20k steps already holds every tile-sized buffer; five
    # times longer may hold no more
    count = 1 if files else 4

    def peak(horizon):
        data = (dict(preset("replacement"), horizon=horizon, seeds={"base": 7, "count": count})
                if name == "replacement" else chain_scenario(horizon=horizon, count=count))
        s = scenario_from_dict(data)
        tracemalloc.start()
        try:
            out = str(tmp_path / str(horizon)) if files else None
            run_montecarlo(dataclasses.replace(s, outputs=out))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # whatever a first batch allocates once
    assert peak(100_000) <= 1.1 * peak(20_000)


@pytest.mark.parametrize("kind", ["montecarlo", "mdp"])
def test_a_rerun_with_fewer_seeds_leaves_only_its_own_run_files(tmp_path, kind):
    out = tmp_path / "out"

    def run(count):
        if kind == "montecarlo":
            s = small("replacement", count=count, horizon=30)
            run_montecarlo(dataclasses.replace(s, outputs=str(out)))
        else:
            data = dict(preset("mdp-detect"), horizon=50, seeds={"base": 1, "count": count})
            run_mdp_batch(mdp_scenario_from_dict(dict(data, outputs=str(out))))

    run(5)
    # what is not a regular run file of an earlier batch stays, as _discard leaves it
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    (out / "run_00004.csv").unlink()
    (out / "run_00004.csv").symlink_to(target)
    os.mkfifo(out / "run_00007.csv")
    (out / "run_00008.csv").mkdir()
    for name in ("run_9.csv", "run_000003.csv", "notes.txt"):
        (out / name).write_text("not a run file\n")
    run(2)
    own = {"run_00000.csv", "run_00001.csv", "summary.json"} | (
        {"runs.csv"} if kind == "montecarlo" else set())
    assert {p.name for p in out.iterdir()} == own | {
        "run_00004.csv", "run_00007.csv", "run_00008.csv", "run_9.csv", "run_000003.csv",
        "notes.txt"}
    assert (out / "run_00004.csv").is_symlink() and target.read_text() == "kept\n"
    assert stat.S_ISFIFO(os.lstat(out / "run_00007.csv").st_mode)


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_cli_memory_stays_per_tile_whatever_the_horizon(tmp_path, capsys, command):
    # one replacement seed runs tiles of 10912 steps (detect) or 16384
    # (simulate), so 20k steps already hold every tile-sized buffer; five
    # times longer may hold no more
    path = tmp_path / "replacement.json"
    path.write_text(json.dumps(preset("replacement")))

    def peak(horizon):
        tracemalloc.start()
        try:
            assert cli.main([command, str(path), "--horizon", str(horizon),
                             "--out", str(tmp_path / f"{horizon}.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # whatever a first run allocates once
    assert peak(100_000) <= 1.1 * peak(20_000)


def one_seed_tiles(s, command):
    """The block and the cells per step of a tile of the one seed of ``command``."""
    if command == "simulate":
        plan = harness.simulation_plan(s.model, s.honest, s.attack)
        return plan.block, plan.columns
    return common_block(s)


@pytest.mark.parametrize("name", ["replacement", "fdi-schedule", "chain-mimic"])
@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_one_seed_commands_write_the_same_bytes_in_any_tiles(tmp_path, capsys, monkeypatch,
                                                             command, name):
    data = TILED[name]()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path), "--out", str(tmp_path / "default.csv")]) == 0
    with pytest.MonkeyPatch.context() as mp:
        block, columns = one_seed_tiles(scenario_from_dict(data), command)
        mp.setattr(numerics, "TILE_CELLS", block * columns)
        assert cli.main([command, str(path), "--out", str(tmp_path / "blocks.csv")]) == 0
    default = (tmp_path / "default.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == default
    assert default.count(b"\n") == data["horizon"] + 1 + (command == "simulate")
    if command == "detect":
        # the one seed of detect is run 0 of a batch
        assert cli.main(["montecarlo", str(path), "--seeds", "1", "--override-assumption2",
                         "--out", str(tmp_path / "batch")]) == 0
        assert (tmp_path / "batch" / "run_00000.csv").read_bytes() == default


@pytest.mark.parametrize("tiled", [False, True], ids=["one-tile", "tiles-of-7-blocks"])
@pytest.mark.parametrize("command, data", [("simulate", overflowing_states),
                                           ("detect", overflowing_replacement)])
def test_a_failed_one_seed_run_prints_one_error_line_and_whole_earlier_tiles(
        tmp_path, capsys, monkeypatch, command, data, tiled):
    data = data()
    s = scenario_from_dict(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    seed, error = next((seed, error) for seed in (split_seed(s.seed_base, i) for i in range(12))
                       for error, _ in [seed_alone(s, seed)] if error is not None)
    step = int(error.split(" step ")[1].split()[0])
    block, columns = one_seed_tiles(s, command)
    if tiled:
        monkeypatch.setattr(numerics, "TILE_CELLS", 7 * block * columns)
    tile = numerics.tile_steps(1, columns, block)
    lo = (step - 1) // tile * tile  # the failing tile's first step
    assert 0 < lo if tiled else lo == 0
    # what the tiles before it wrote: the same command's CSV of lo steps,
    # less its terminal state
    if lo:
        assert cli.main([command, str(path), "--seed", str(seed), "--horizon", str(lo),
                         "--out", str(tmp_path / "prefix.csv")]) == 0
        capsys.readouterr()
    lines = (tmp_path / "prefix.csv").read_text().splitlines(True) if lo else []
    prefix = "".join(lines[:-1] if command == "simulate" else lines)

    argv = [command, str(path), "--seed", str(seed)]
    out = tmp_path / "out.csv"
    out.write_text("an earlier run\n")
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"numeric error: {error}\n")
    assert not out.exists()
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (prefix, f"numeric error: {error}\n")
