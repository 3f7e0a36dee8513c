"""Benchmark workloads: scenario generators, batch sizes and reference batches.

Every workload is a scenario file that a user could hand to the
``montecarlo`` or ``mdp`` subcommand. The benchmark seed only moves
``seeds.base``; the network, policies and sizes are fixed here, so runs
with different seeds do the same amount of work on different draws.

The reference batch of each workload uses the fixed seed base
``REFERENCE_BASE``. Its per-seed results are recorded in
``reference.json`` and pin the statistic and the seed-to-draw mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_BASE = 2025
SEED_STRIDE = 1_000_000  # seed bases of distinct benchmark seeds never share a run seed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "montecarlo" or "mdp"
    writes_files: bool
    seeds: int
    horizon: int
    tiny_seeds: int
    tiny_horizon: int
    reference_seeds: int
    reference_horizon: int
    calibration: str  # kernel of worker.calibrate that resembles the workload's work


WORKLOADS = {
    w.name: w for w in (
        Workload("mc-replacement", "montecarlo", False,
                 seeds=40, horizon=500, tiny_seeds=8, tiny_horizon=200,
                 reference_seeds=4, reference_horizon=500, calibration="numeric"),
        Workload("mc-wide-window-files", "montecarlo", True,
                 seeds=16, horizon=500, tiny_seeds=8, tiny_horizon=200,
                 reference_seeds=4, reference_horizon=500, calibration="numeric"),
        Workload("mdp-detect-files", "mdp", True,
                 seeds=100, horizon=2000, tiny_seeds=16, tiny_horizon=500,
                 reference_seeds=8, reference_horizon=1000, calibration="text"),
    )
}


def _replacement() -> dict:
    """The ``replacement`` preset: N=2, stationary feedback, agent 2 replaced."""
    return {
        "name": "mc-replacement",
        "model": {
            "n_agents": 2,
            "dynamics": [[0.5, 0.3], [0.0, 0.5]],
            "actuator_gains": [1.0, 1.0],
            "process_noise": [[0.04, 0.0], [0.0, 2.0]],
            "excitation": [0.16, 1.0],
            "initial": {"kind": "dirac", "point": [0.0, 0.0]},
        },
        "honest": {"kind": "linear", "gain": [[-0.2, 0.0], [0.0, -0.2]]},
        "attack": {"malicious_set": [1], "kind": "replacement",
                   "mode": "scaled_state", "values": [-0.2]},
        "threshold": -10.0,
    }


def chain_network(n: int = 16) -> dict:
    """An n-agent chain with a 3-lag window law and mimicry on every 4th agent.

    Agent i is driven by i-1 (weight 0.2) and i+1 (weight 0.1), so honest
    agent 1 reaches every agent and the influence check holds. Process
    noise couples neighbours, so the noise law is a full SPD matrix and
    every draw goes through its Cholesky factor.
    """
    dynamics = [[0.0] * n for _ in range(n)]
    noise = [[0.0] * n for _ in range(n)]
    for i in range(n):
        dynamics[i][i] = 0.5
        noise[i][i] = 0.5
        if i > 0:
            dynamics[i][i - 1] = 0.2
            noise[i][i - 1] = noise[i - 1][i] = 0.1
        if i < n - 1:
            dynamics[i][i + 1] = 0.1

    def scaled_identity(c):
        return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]

    attacked = list(range(4, n + 1, 4))
    return {
        "name": "mc-wide-window-files",
        "model": {
            "n_agents": n,
            "dynamics": dynamics,
            "actuator_gains": [1.0] * n,
            "process_noise": noise,
            "excitation": [1.0] * n,
            "initial": {"kind": "dirac", "point": [0.0] * n},
        },
        "honest": {"kind": "window",
                   "lag_gains": [scaled_identity(-0.2), scaled_identity(-0.05),
                                 scaled_identity(0.02)]},
        "attack": {"malicious_set": attacked, "kind": "mimic",
                   "self_excitation": [0.5] * len(attacked)},
        "threshold": -10.0,
    }


def _mdp_detect() -> dict:
    """The ``mdp-detect`` preset: two states, distinct induced kernels."""
    return {
        "name": "mdp-detect-files",
        "mdp": {
            "kernel": [
                [[0.94, 0.06], [0.06, 0.94]],
                [[1.0, 0.0], [0.0, 1.0]],
            ],
            "initial": [1.0, 0.0],
        },
        "honest_policy": [[0.5, 0.5], [0.5, 0.5]],
        "corrupt_policy": [[1.0 / 30.0, 29.0 / 30.0], [1.0 / 30.0, 29.0 / 30.0]],
    }


_BUILDERS = {
    "mc-replacement": _replacement,
    "mc-wide-window-files": chain_network,
    "mdp-detect-files": _mdp_detect,
}


def seed_base(seed: int) -> int:
    return SEED_STRIDE * seed


def scenario(name: str, *, base: int, seeds: int, horizon: int,
             outputs: str | None) -> dict:
    """The scenario file contents of workload ``name``.

    Horizon and seed count are written into the file, so they go through
    the same validation as any user's file.
    """
    data = _BUILDERS[name]()
    data["horizon"] = horizon
    data["seeds"] = {"base": base, "count": seeds}
    if outputs is not None:
        data["outputs"] = outputs
    return data
