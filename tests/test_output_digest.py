"""``scripts/output_digest.py``: two runs agree, and a changed output byte shows."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_two_runs_give_equal_digests_and_a_changed_byte_changes_one(tmp_path, monkeypatch):
    monkeypatch.setenv("CPS_SENTINEL_SEED", "1")  # ignored by the script
    for side in ("a", "b"):
        assert output_digest.main(["--out", str(tmp_path / side)]) == 0
    first, second = (json.loads((tmp_path / side / "digest.json").read_text())
                     for side in ("a", "b"))
    # the summaries' run times differ, and are masked
    assert first == second
    assert {"stdout.txt", "montecarlo/mimic/run_00049.csv", "montecarlo/example1/runs.csv",
            "mdp/mdp-mimic/run_00299.csv", "mdp/mdp-detect/summary.json",
            "simulate/fdi.csv", "detect/fdi.csv", "scenarios/zero-variance.json",
            "montecarlo/zero-variance/run_00049.csv", "simulate/zero-variance.csv",
            "detect/zero-variance.csv", "mdp/mdp-forbidden-move/run_00299.csv",
            "scenarios/window-fdi-schedule.json", "montecarlo/window-fdi-schedule/run_00049.csv",
            "simulate/window-fdi-schedule.csv", "detect/window-fdi-schedule.csv"} <= first.keys()
    assert json.loads((tmp_path / "a" / "mdp" / "mdp-detect" / "summary.json").read_text())[
        "n_runs"] == 300
    target = tmp_path / "a" / "mdp" / "mdp-detect" / "run_00123.csv"
    data = target.read_bytes()
    target.write_bytes(data[:-2] + (b"7" if data[-2:-1] != b"7" else b"8") + data[-1:])
    changed = output_digest.digest(tmp_path / "a")
    assert [name for name in first if changed[name] != first[name]] == [
        "mdp/mdp-detect/run_00123.csv"]
