"""scipy stays out of every run that does not solve a Lyapunov equation.

Loading scipy costs about 300 ms and 28 MB, and only the ``lyapunov``
branch of ``detection.expected_step_drift`` uses it. This process already
holds scipy (the test oracles import it), so each check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cps_sentinel.detection import expected_step_drift
from cps_sentinel.harness import preset, scenario_from_dict

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each command line in turn and prints, as one JSON object, the
# scipy modules loaded after each step and the stdout of the last one.
SCRIPT = r"""
import contextlib, io, json, sys
steps = json.loads(sys.argv[1])
loaded = {}

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import cps_sentinel
from cps_sentinel import cli
loaded["import"] = scipy_modules()
for label, argv in steps:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, (label, code)
    loaded[label] = scipy_modules()
print(json.dumps({"loaded": loaded, "last_stdout": out.getvalue()}))
"""


def run_fresh(steps):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(steps)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_run_but_a_lyapunov_drift_loads_scipy(tmp_path):
    rep, mdp = str(tmp_path / "replacement.json"), str(tmp_path / "mdp.json")
    small = ["--horizon", "20", "--seeds", "2"]
    steps = [
        ["preset", ["preset", "replacement", "--out", rep]],
        ["preset mdp", ["preset", "mdp-detect", "--out", mdp]],
        ["check", ["check", rep]],
        ["simulate", ["simulate", rep, "--horizon", "20", "--out", str(tmp_path / "t.csv")]],
        ["montecarlo", ["montecarlo", rep, *small, "--out", str(tmp_path / "mc")]],
        ["mdp", ["mdp", mdp, *small, "--out", str(tmp_path / "mdp")]],
        ["detect", ["detect", rep, "--horizon", "20", "--out", str(tmp_path / "s.csv")]],
    ]
    result = run_fresh(steps)
    assert result["loaded"] == {label: [] for label in ["import"] + [label for label, _ in steps]}
    # detect reports a drift: replacement's is in closed form, with no solve
    assert json.loads(result["last_stdout"])["drift_estimate"] is not None


def test_the_lyapunov_drift_loads_scipy_and_keeps_its_bits(tmp_path):
    s = scenario_from_dict(preset("dos"))
    cfg, corrupt = s.attack
    expected = expected_step_drift(s.model, s.honest, corrupt, cfg)
    assert expected.method == "lyapunov"
    path = str(tmp_path / "dos.json")
    result = run_fresh([
        ["preset dos", ["preset", "dos", "--out", path]],
        ["detect dos", ["detect", path, "--horizon", "20", "--out", str(tmp_path / "d.csv")]],
    ])
    assert result["loaded"]["preset dos"] == []
    assert "scipy.linalg" in result["loaded"]["detect dos"]
    assert json.loads(result["last_stdout"])["drift_estimate"] == expected.value
