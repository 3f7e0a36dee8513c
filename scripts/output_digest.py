"""Digest of every output of a fixed set of command-line runs.

    python3 scripts/output_digest.py --out DIR

Runs the command-line interface of the package in the tree this script
sits in (its ``src/``, unless the process has imported the package
already), in this process: ``montecarlo`` on the seven
linear presets at 50 seeds and 600 steps (the 40-odd seeds of a group
and a few time tiles each), ``mdp`` on both MDP presets at 300 seeds and
400 steps (two groups), and ``simulate`` and ``detect`` on the ``fdi``
preset at 600 steps. Three written scenarios cover what no preset does:
``zero-variance`` (``replacement``'s model with a zero excitation
variance on agent 2, and a mimic on agent 1 with zero own excitation, so
that some normals are scaled to -0.0) runs ``montecarlo``, ``simulate``
and ``detect`` like the linear presets; ``window-fdi-schedule`` (a 3-lag
window honest law and an FDI attack with one offset per step for 25,000
steps) runs ``montecarlo`` like the linear presets, and ``simulate`` and
``detect`` at 25,000 steps, several one-seed tiles; and
``mdp-forbidden-move`` (a corrupt kernel that forbids the move 0 -> 1 the
honest one allows) runs ``mdp`` like the MDP presets. Every output goes under ``DIR``, and ``DIR/digest.json`` maps
each output's path relative to ``DIR`` to its sha256, the value of a
``runtime_seconds`` field replaced by ``null`` first. Two trees whose
digests are equal wrote the same bytes; run the script copied into an
export of another revision to compare it with this one. The
``CPS_SENTINEL_SEED`` variable is ignored, so that the digest depends on
the program alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINEAR = ("identity", "replacement", "fdi", "dos", "mimic", "example1", "example2")
MDP = ("mdp-detect", "mdp-mimic")
WRITTEN = {
    "zero-variance": {
        "name": "zero-variance",
        "model": {"n_agents": 2, "dynamics": [[0.5, 0.3], [0.0, 0.5]],
                  "actuator_gains": [1.0, 1.0], "process_noise": [[0.04, 0.0], [0.0, 2.0]],
                  "excitation": [0.16, 0.0], "initial": {"kind": "dirac", "point": [0.0, 0.0]}},
        "honest": {"kind": "linear", "gain": [[-0.2, 0.0], [0.0, -0.2]]},
        "attack": {"malicious_set": [1], "kind": "mimic", "self_excitation": [0.0]},
        "horizon": 600, "seeds": {"base": 2025, "count": 50}, "threshold": -10.0,
    },
    "window-fdi-schedule": {
        "name": "window-fdi-schedule",
        "model": {"n_agents": 2, "dynamics": [[0.5, 0.3], [0.0, 0.5]],
                  "actuator_gains": [1.0, 1.0], "process_noise": [[0.04, 0.0], [0.0, 2.0]],
                  "excitation": [0.16, 1.0], "initial": {"kind": "dirac", "point": [0.0, 0.0]}},
        "honest": {"kind": "window", "lag_gains": [[[-0.2, 0.0], [0.0, -0.2]],
                                                   [[0.1, 0.0], [0.0, 0.05]],
                                                   [[-0.05, 0.0], [0.02, -0.05]]]},
        "attack": {"malicious_set": [1], "kind": "fdi",
                   "offsets": [[((t * 37) % 11 - 5) / 10] for t in range(25_000)]},
        "horizon": 600, "seeds": {"base": 2025, "count": 50}, "threshold": -10.0,
    },
    "mdp-forbidden-move": {
        "name": "mdp-forbidden-move",
        "mdp": {"kernel": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
                "initial": [0.5, 0.5]},
        "honest_policy": [[0.5, 0.5], [0.5, 0.5]],
        "corrupt_policy": [[1.0, 0.0], [0.2, 0.8]],
        "horizon": 400, "seeds": {"base": 2025, "count": 300},
    },
}
_RUNTIME = re.compile(rb'("runtime_seconds": )[^,\n}]+')


def commands(out: Path) -> list[list[str]]:
    """The command lines, in order; each writes under ``out``."""
    runs = [["preset", name, "--out", str(out / "scenarios" / f"{name}.json")]
            for name in LINEAR + MDP]
    # example1 fails the influence check on purpose
    runs += [["montecarlo", str(out / "scenarios" / f"{name}.json"), "--seeds", "50",
              "--horizon", "600", "--override-assumption2", "--out", str(out / "montecarlo" / name)]
             for name in LINEAR + ("zero-variance", "window-fdi-schedule")]
    runs += [["mdp", str(out / "scenarios" / f"{name}.json"), "--seeds", "300",
              "--horizon", "400", "--out", str(out / "mdp" / name)]
             for name in MDP + ("mdp-forbidden-move",)]
    runs += [[cmd, str(out / "scenarios" / f"{name}.json"), "--horizon", horizon,
              "--out", str(out / cmd / f"{name}.csv")]
             for name, horizon in (("fdi", "600"), ("zero-variance", "600"),
                                   ("window-fdi-schedule", "25000"))
             for cmd in ("simulate", "detect")]
    return runs


def run(out: Path) -> None:
    """Run every command line; ``out/stdout.txt`` gathers each one and what it printed."""
    sys.path.insert(0, str(ROOT / "src"))
    from cps_sentinel import cli

    os.environ.pop("CPS_SENTINEL_SEED", None)
    for folder in ("scenarios", "simulate", "detect"):
        (out / folder).mkdir(parents=True, exist_ok=True)
    for name, scenario in WRITTEN.items():
        (out / "scenarios" / f"{name}.json").write_text(json.dumps(scenario, indent=2) + "\n")
    log = []
    for argv in commands(out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        line = " ".join(argv).replace(str(out), "DIR")
        if code != 0:
            raise SystemExit(f"cps-sentinel {line} exited with {code}")
        log += [f"$ cps-sentinel {line}\n", stdout.getvalue()]
    (out / "stdout.txt").write_text("".join(log))


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out`` but ``digest.json``, by relative path."""
    sums = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.is_file() and name != "digest.json":
            sums[name] = hashlib.sha256(_RUNTIME.sub(rb"\1null", path.read_bytes())).hexdigest()
    return sums


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the outputs")
    args = parser.parse_args(argv)
    run(args.out)
    sums = digest(args.out)
    (args.out / "digest.json").write_text(json.dumps(sums, indent=2, sort_keys=True) + "\n")
    print(f"{len(sums)} outputs, digest in {args.out / 'digest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
