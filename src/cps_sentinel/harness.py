"""Scenario ingestion, presets, and Monte Carlo orchestration.

Scenarios are JSON with explicit row-major matrices and string-tagged
policy kinds; statistical parameters carry no defaults, so a file either
states its covariances or fails validation. Batch runs derive one stream
per run index, simulate and detect all seeds together on the ensemble
engine, write one detection CSV per seed plus a deterministic summary,
and refuse attack scenarios that violate the honest-influence
requirement unless explicitly overridden.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import Decision, classify, detect_ensemble, write_series_csv
from .mdp import (
    _CHUNK_CELLS,
    FiniteMdp,
    StochasticPolicy,
    analytic_drift,
    induced_kernel,
    path_log_ratio,
    simulate_paths,
)
from .model import (
    AttackConfig,
    CpsModel,
    Violation,
    honest_influence_check,
    validate_attack,
    validate_model,
)
from .numerics import DiagonalPsd, Dirac, GaussianLaw, split_seed
from .policies import (
    Affine,
    CorruptPolicy,
    DoS,
    Fdi,
    HistoryWindow,
    HonestPolicy,
    LinearFeedback,
    Mimic,
    Replacement,
    Zero,
)
from .simulator import simulate_ensemble


class ParseError(Exception):
    """The scenario file is not readable JSON of the expected shape."""


class ValidationError(Exception):
    """The scenario parsed but its contents are invalid."""

    def __init__(self, issues: list[Violation]):
        self.issues = issues
        super().__init__("; ".join(str(v) for v in issues))


class AssumptionViolation(Exception):
    """Attack scenario whose influence graph leaves agents unreachable."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    name: str
    model: CpsModel
    honest: HonestPolicy
    attack: tuple[AttackConfig, CorruptPolicy] | None
    horizon: int
    seed_base: int
    seed_count: int
    threshold: float
    outputs: str | None


@dataclass
class RunSummary:
    """Aggregate of one Monte Carlo batch plus the per-seed rows."""

    scenario: str
    n_runs: int
    n_ok: int
    n_failed: int
    failure_codes: dict[str, int]
    horizon: int
    threshold: float
    detection_fraction: float | None
    mean_drift: float | None
    drift_stderr: float | None
    runtime_seconds: float
    rows: list[dict] = field(repr=False, default_factory=list)

    def summary_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_runs": self.n_runs,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "failure_codes": self.failure_codes,
            "horizon": self.horizon,
            "threshold": self.threshold,
            "detection_fraction": self.detection_fraction,
            "mean_drift": self.mean_drift,
            "drift_stderr": self.drift_stderr,
            "runtime_seconds": self.runtime_seconds,
        }


def read_scenario_json(path) -> dict:
    """The JSON object stored in a scenario file, not yet validated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return data


def with_overrides(data: dict, *, horizon: int | None = None,
                   threshold: float | None = None, seed_count: int | None = None,
                   seed_base: int | None = None, outputs: str | None = None) -> dict:
    """A copy of a scenario mapping with run settings replaced.

    Apply overrides before :func:`scenario_from_dict` or
    :func:`mdp_scenario_from_dict`, so that an overridden value passes the
    same validation as one written in the file. ``None`` leaves a setting
    as it is; any other value, zero included, replaces it.
    """
    data = dict(data)
    for key, value in (("horizon", horizon), ("threshold", threshold), ("outputs", outputs)):
        if value is not None:
            data[key] = value
    if isinstance(data.get("seeds"), dict):
        seeds = dict(data["seeds"])
        for key, value in (("count", seed_count), ("base", seed_base)):
            if value is not None:
                seeds[key] = value
        data["seeds"] = seeds
    return data


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, reporting all defects together."""
    return scenario_from_dict(read_scenario_json(path))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("a scenario must be a JSON object")
    issues: list[Violation] = []

    def bad(path, code, message):
        issues.append(Violation(path, code, message))

    name = data.get("name", "unnamed")
    model = None
    md = data.get("model")
    if not isinstance(md, dict):
        bad("model", "Missing", "scenario needs a 'model' object")
    else:
        model, model_issues = _parse_model(md)
        issues.extend(model_issues)

    honest = None
    hd = data.get("honest")
    if not isinstance(hd, dict):
        bad("honest", "Missing", "scenario needs an 'honest' policy object")
    else:
        try:
            honest = _parse_honest(hd)
        except (ValueError, TypeError, KeyError) as exc:
            bad("honest", "BadPolicy", str(exc))

    attack = None
    ad = data.get("attack")
    if ad is not None:
        if not isinstance(ad, dict):
            bad("attack", "BadType", "'attack' must be an object or null")
        else:
            try:
                attack = _parse_attack(ad)
            except (ValueError, TypeError, KeyError) as exc:
                bad("attack", "BadAttack", str(exc))

    horizon = data.get("horizon")
    if not isinstance(horizon, int) or horizon < 1:
        bad("horizon", "BadHorizon", f"horizon must be a positive integer, got {horizon!r}")
    seeds = data.get("seeds")
    seed_base, seed_count = 0, 0
    if not isinstance(seeds, dict) or "base" not in seeds or "count" not in seeds:
        bad("seeds", "Missing", "scenario needs seeds: {base, count}")
    else:
        seed_base, seed_count = seeds["base"], seeds["count"]
        if not isinstance(seed_base, int):
            bad("seeds.base", "BadSeed", "seed base must be an integer")
        if not isinstance(seed_count, int) or seed_count < 1:
            bad("seeds.count", "BadCount", "seed count must be a positive integer")
    threshold = data.get("threshold")
    if not isinstance(threshold, (int, float)):
        bad("threshold", "Missing", "scenario needs a log-domain threshold")

    if model is not None and not issues:
        issues.extend(validate_model(model))
        issues.extend(_check_honest_sizes(model, honest))
        if attack is not None:
            issues.extend(validate_attack(model, attack[0]))
            issues.extend(_check_attack_sizes(model, attack, horizon))
    if issues:
        raise ValidationError(issues)
    return Scenario(name=name, model=model, honest=honest, attack=attack,
                    horizon=horizon, seed_base=seed_base, seed_count=seed_count,
                    threshold=float(threshold), outputs=data.get("outputs"))


def _parse_model(md: dict) -> tuple[CpsModel | None, list[Violation]]:
    issues: list[Violation] = []
    for key in ("n_agents", "dynamics", "actuator_gains", "process_noise",
                "excitation", "initial"):
        if key not in md:
            issues.append(Violation(f"model.{key}", "Missing", f"model needs '{key}'"))
    if issues:
        return None, issues
    init = md["initial"]
    try:
        if init.get("kind") == "dirac":
            initial = Dirac(init["point"])
        elif init.get("kind") == "gaussian":
            cov = np.asarray(init["cov"], dtype=float)
            if cov.ndim == 1:
                initial = GaussianLaw(init["mean"], DiagonalPsd(cov))
            else:
                from .numerics import make_spd
                initial = GaussianLaw(init["mean"], make_spd(cov))
        else:
            raise ValueError(f"initial.kind must be 'dirac' or 'gaussian', got {init.get('kind')!r}")
    except (ValueError, TypeError, KeyError) as exc:
        return None, [Violation("model.initial", "BadInitial", str(exc))]
    try:
        model = CpsModel(n_agents=md["n_agents"], dynamics=md["dynamics"],
                         actuator_gains=md["actuator_gains"],
                         process_noise=md["process_noise"],
                         excitation=md["excitation"], initial_law=initial)
    except (ValueError, TypeError) as exc:
        return None, [Violation("model", "BadModel", str(exc))]
    return model, issues


def _parse_honest(hd: dict) -> HonestPolicy:
    kind = hd.get("kind")
    if kind == "zero":
        return Zero()
    if kind == "linear":
        return LinearFeedback(np.asarray(hd["gain"], dtype=float))
    if kind == "affine":
        return Affine(np.asarray(hd["gain"], dtype=float),
                      np.asarray(hd["offset"], dtype=float))
    if kind == "window":
        return HistoryWindow(tuple(np.asarray(g, dtype=float) for g in hd["lag_gains"]))
    raise ValueError(f"unknown honest policy kind {kind!r}")


def _parse_attack(ad: dict) -> tuple[AttackConfig, CorruptPolicy]:
    cfg = AttackConfig(tuple(ad["malicious_set"]))
    kind = ad.get("kind")
    if kind == "replacement":
        mode = ad.get("mode", "constant")
        if mode in ("constant", "scaled_state"):
            pol = Replacement(mode, values=np.asarray(ad["values"], dtype=float))
        elif mode == "sign_flip":
            pol = Replacement.sign_flip()
        else:
            raise ValueError(f"unknown replacement mode {mode!r}")
    elif kind == "fdi":
        pol = Fdi(np.asarray(ad["offsets"], dtype=float))
    elif kind == "dos":
        pol = DoS()
    elif kind == "mimic":
        pol = Mimic(DiagonalPsd(np.asarray(ad["self_excitation"], dtype=float)))
    else:
        raise ValueError(f"unknown attack kind {kind!r}")
    return cfg, pol


def _check_honest_sizes(model: CpsModel, honest) -> list[Violation]:
    n = model.n_agents
    square = (n, n)
    if isinstance(honest, LinearFeedback) and honest.stationary \
            and np.shape(honest.gain) != square:
        return [Violation("honest.gain", "DimMismatch",
                          f"expected shape {square}, got {np.shape(honest.gain)}")]
    if isinstance(honest, Affine):
        issues = []
        if np.shape(honest.gain) != square:
            issues.append(Violation("honest.gain", "DimMismatch",
                                    f"expected shape {square}, got {np.shape(honest.gain)}"))
        if np.shape(honest.offset) != (n,):
            issues.append(Violation("honest.offset", "DimMismatch",
                                    f"expected length {n}, got {np.shape(honest.offset)}"))
        return issues
    if isinstance(honest, HistoryWindow):
        return [Violation(f"honest.lag_gains[{k}]", "DimMismatch",
                          f"expected shape {square}, got {g.shape}")
                for k, g in enumerate(honest.lag_gains) if g.shape != square]
    return []


def _check_attack_sizes(model: CpsModel, attack, horizon) -> list[Violation]:
    cfg, pol = attack
    m_count = cfg.malicious_count
    issues = []
    if isinstance(pol, Replacement) and pol.mode in ("constant", "scaled_state") \
            and pol.values.shape != (m_count,):
        issues.append(Violation("attack.values", "DimMismatch",
                                f"expected {m_count} entries, got {pol.values.shape}"))
    if isinstance(pol, Fdi):
        if pol.offsets.shape[-1] != m_count:
            issues.append(Violation("attack.offsets", "DimMismatch",
                                    f"expected {m_count} offsets per step, "
                                    f"got {pol.offsets.shape}"))
        elif pol.offsets.ndim == 2 and isinstance(horizon, int) \
                and pol.offsets.shape[0] < horizon:
            issues.append(Violation("attack.offsets", "ScheduleTooShort",
                                    f"offset schedule covers {pol.offsets.shape[0]} "
                                    f"steps but the horizon is {horizon}"))
    if isinstance(pol, Mimic) and pol.self_excitation.dim != m_count:
        issues.append(Violation("attack.self_excitation", "DimMismatch",
                                f"expected {m_count} variances, got {pol.self_excitation.dim}"))
    return issues


def _chunk_seeds(s: Scenario) -> int:
    """Seeds per engine call: the noise block and states of a call stay near 32 MB."""
    return max(1, (1 << 22) // (s.horizon * 3 * s.model.n_agents))


def run_montecarlo(s: Scenario, *, override_assumption2: bool = False,
                   out_dir=None) -> RunSummary:
    """Simulate, detect, and classify one batch of independent seeds.

    Refuses attack scenarios whose network leaves some agent untouched by
    honest excitation (``override_assumption2`` runs them anyway, for
    studying exactly that failure mode). All seeds run through the
    ensemble engine (:func:`simulate_ensemble`, :func:`detect_ensemble`)
    in one call, or in chunks when one call's arrays would pass about
    32 MB; a seed's result does not depend on the chunking. A seed whose
    state overflows is recorded with its ``NonFiniteState`` message and
    counted in ``n_failed`` and, by exception name, in ``failure_codes``;
    the others run on.
    """
    if s.attack is not None:
        holds, unreachable = honest_influence_check(s.model, s.attack[0])
        if not holds and not override_assumption2:
            raise AssumptionViolation(
                f"agents {sorted(unreachable)} are not reachable from any honest "
                "actuated agent; detection guarantees do not apply "
                "(pass override_assumption2 to run anyway)")
    start = time.perf_counter()
    cfg, corrupt = s.attack if s.attack is not None else (None, None)
    chunk_seeds = _chunk_seeds(s)
    out_path = Path(out_dir) if out_dir is not None else (
        Path(s.outputs) if s.outputs else None)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rows = []
    failure_codes: dict[str, int] = {}
    for lo in range(0, s.seed_count, chunk_seeds):
        indices = range(lo, min(lo + chunk_seeds, s.seed_count))
        ens = simulate_ensemble(s.model, s.honest, s.attack, s.horizon,
                                [split_seed(s.seed_base, i) for i in indices])
        done = ens.failed_at == 0  # failed runs have no meaningful path to detect on
        batch = None
        if done.any():
            batch = detect_ensemble(ens.states if done.all() else ens.states[done],
                                    s.model, s.honest, corrupt, cfg)
        position = np.cumsum(done) - 1
        for k, index in enumerate(indices):
            row = {"run_index": index, "seed": ens.seeds[k], "log_l": None, "r_n": None,
                   "decision": None, "error": None}
            error = ens.error(k)
            if error is not None:
                code = type(error).__name__
                row["error"] = f"{code}: {error}"
                failure_codes[code] = failure_codes.get(code, 0) + 1
            else:
                series = batch.row(position[k])
                row["log_l"] = series.log_l_at(s.horizon)
                row["r_n"] = float(series.r_n[-1]) if series.r_defined[-1] else None
                row["decision"] = classify(series, s.horizon, s.threshold).value
                if out_path is not None:
                    with open(out_path / f"run_{index:05d}.csv", "w") as fp:
                        write_series_csv(series, fp)
            rows.append(row)
    if out_path is not None:
        _write_runs_table(out_path / "runs.csv", rows)

    ok = [r for r in rows if r["error"] is None]
    n_detect = sum(1 for r in ok if r["decision"] == Decision.ATTACK.value)
    drifts = [r["log_l"] / s.horizon for r in ok]
    mean_drift = float(np.mean(drifts)) if drifts else None
    drift_stderr = (float(np.std(drifts, ddof=1) / math.sqrt(len(drifts)))
                    if len(drifts) > 1 else None)
    summary = RunSummary(
        scenario=s.name, n_runs=s.seed_count, n_ok=len(ok), n_failed=len(rows) - len(ok),
        failure_codes=failure_codes,
        horizon=s.horizon, threshold=s.threshold,
        detection_fraction=(n_detect / len(ok)) if ok else None,
        mean_drift=mean_drift, drift_stderr=drift_stderr,
        runtime_seconds=time.perf_counter() - start,
        rows=rows,
    )
    if out_path is not None:
        (out_path / "summary.json").write_text(
            json.dumps(summary.summary_dict(), sort_keys=True, indent=2) + "\n")
    return summary


def _write_runs_table(path: Path, rows: list[dict]) -> None:
    """One line per seed; cells that need it (an error message) are quoted."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["run_index", "seed", "logL", "r_n", "decision", "error"])
        for r in rows:
            writer.writerow([
                r["run_index"], r["seed"],
                "" if r["log_l"] is None else repr(float(r["log_l"])),
                "" if r["r_n"] is None else repr(float(r["r_n"])),
                r["decision"] or "",
                r["error"] or "",
            ])


@dataclass(frozen=True)
class MdpScenario:
    name: str
    mdp: FiniteMdp
    honest_policy: StochasticPolicy
    corrupt_policy: StochasticPolicy
    horizon: int
    seed_base: int
    seed_count: int
    outputs: str | None


def load_mdp_scenario(path) -> MdpScenario:
    return mdp_scenario_from_dict(read_scenario_json(path))


def mdp_scenario_from_dict(data: dict) -> MdpScenario:
    if not isinstance(data, dict):
        raise ParseError("a scenario must be a JSON object")
    issues: list[Violation] = []
    try:
        mdp = FiniteMdp(np.asarray(data["mdp"]["kernel"], dtype=float),
                        np.asarray(data["mdp"]["initial"], dtype=float))
    except (ValueError, KeyError, TypeError) as exc:
        issues.append(Violation("mdp", "BadMdp", str(exc)))
        mdp = None
    honest = corrupt = None
    for key in ("honest_policy", "corrupt_policy"):
        try:
            pol = StochasticPolicy(np.asarray(data[key], dtype=float))
            if key == "honest_policy":
                honest = pol
            else:
                corrupt = pol
        except (ValueError, KeyError, TypeError) as exc:
            issues.append(Violation(key, "BadPolicy", str(exc)))
    horizon = data.get("horizon")
    if not isinstance(horizon, int) or horizon < 1:
        issues.append(Violation("horizon", "BadHorizon",
                                f"horizon must be a positive integer, got {horizon!r}"))
    seeds = data.get("seeds", {})
    if not isinstance(seeds, dict) or not isinstance(seeds.get("base"), int) \
            or not isinstance(seeds.get("count"), int) or seeds.get("count", 0) < 1:
        issues.append(Violation("seeds", "Missing", "scenario needs seeds: {base, count}"))
    if "threshold" in data:
        issues.append(Violation("threshold", "Unsupported", "an MDP scenario has no threshold"))
    if issues:
        raise ValidationError(issues)
    return MdpScenario(name=data.get("name", "unnamed"), mdp=mdp,
                       honest_policy=honest, corrupt_policy=corrupt,
                       horizon=horizon, seed_base=seeds["base"],
                       seed_count=seeds["count"], outputs=data.get("outputs"))


def run_mdp_batch(s: MdpScenario, out_dir=None) -> dict:
    """Simulate corrupt-policy paths and track the kernel log ratio series.

    The seeds run in chunks of about ``_CHUNK_CELLS`` path entries: one
    :func:`simulate_paths` and one :func:`path_log_ratio` call per chunk,
    and only the final values outlive it. Each seed's series is its own
    CSV, ``t,log_ratio``; every distinct value of a chunk is formatted
    once, with ``repr``, and shared by the rows that hold it.
    """
    start = time.perf_counter()
    k_h = induced_kernel(s.mdp, s.honest_policy)
    k_c = induced_kernel(s.mdp, s.corrupt_policy)
    drift = analytic_drift(k_h, k_c)
    finals = np.empty(s.seed_count)
    out_path = Path(out_dir) if out_dir is not None else (
        Path(s.outputs) if s.outputs else None)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        layout = [""] * (2 * (s.horizon + 1))
        layout[0::2] = ["t,log_ratio\n0,"] + [f"\n{t}," for t in range(1, s.horizon + 1)]
    width = max(1, _CHUNK_CELLS // (s.horizon + 1))
    for lo in range(0, s.seed_count, width):
        hi = min(lo + width, s.seed_count)
        paths = simulate_paths(s.mdp, s.corrupt_policy, s.horizon,
                               [split_seed(s.seed_base, i) for i in range(lo, hi)])
        series = path_log_ratio(paths, k_h, k_c, s.mdp.initial, s.mdp.initial)
        finals[lo:hi] = series[:, -1]
        if out_path is not None:
            _write_log_ratio_csvs(out_path, lo, series, layout)
    per_step = finals / s.horizon
    summary = {
        "scenario": s.name,
        "n_runs": s.seed_count,
        "horizon": s.horizon,
        "analytic_drift": drift,
        "mean_drift": float(np.mean(per_step)),
        "drift_stderr": float(np.std(per_step, ddof=1) / math.sqrt(len(per_step)))
        if len(per_step) > 1 else None,
        "runtime_seconds": time.perf_counter() - start,
    }
    if out_path is not None:
        (out_path / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def _write_log_ratio_csvs(out_path: Path, first: int, series: np.ndarray,
                          layout: list[str]) -> None:
    """Write row k of ``series`` to ``run_{first + k}.csv`` as ``t,log_ratio`` lines.

    ``layout`` holds the line prefixes at its even positions; a file is
    its join with the row's values at the odd ones, plus a newline. Every
    distinct value (bit pattern, so -0.0 and 0.0 keep their own text) is
    formatted once, with ``repr``; no string outlives the call.
    """
    bits, inverse = np.unique(series.view(np.int64), return_inverse=True)
    # np.float64 is a float, so its repr is the float's; iterating the
    # array keeps no list of Python floats alive beside the strings
    texts = np.array(list(map(float.__repr__, bits.view(np.float64))), dtype=object)
    lines = list(layout)
    for k, row in enumerate(inverse.reshape(series.shape)):
        lines[1::2] = texts[row].tolist()
        with open(out_path / f"run_{first + k:05d}.csv", "w") as fp:
            fp.write("".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Presets: one runnable scenario per regime of interest.

_BASE_MODEL = {
    "n_agents": 2,
    "dynamics": [[0.5, 0.3], [0.0, 0.5]],
    "actuator_gains": [1.0, 1.0],
    "process_noise": [[0.04, 0.0], [0.0, 2.0]],
    "excitation": [0.16, 1.0],
    "initial": {"kind": "dirac", "point": [0.0, 0.0]},
}

_FEEDBACK = {"kind": "linear", "gain": [[-0.2, 0.0], [0.0, -0.2]]}


def _preset_identity() -> dict:
    return {
        "name": "identity",
        "model": dict(_BASE_MODEL),
        "honest": dict(_FEEDBACK),
        "attack": None,
        "horizon": 200,
        "seeds": {"base": 2025, "count": 20},
        "threshold": -10.0,
    }


def _preset_replacement() -> dict:
    return {
        "name": "replacement",
        "model": dict(_BASE_MODEL),
        "honest": dict(_FEEDBACK),
        "attack": {"malicious_set": [1], "kind": "replacement",
                   "mode": "scaled_state", "values": [-0.2]},
        "horizon": 2000,
        "seeds": {"base": 2025, "count": 200},
        "threshold": -10.0,
    }


def _preset_fdi() -> dict:
    return {
        "name": "fdi",
        "model": dict(_BASE_MODEL),
        "honest": dict(_FEEDBACK),
        "attack": {"malicious_set": [1], "kind": "fdi", "offsets": [0.2]},
        "horizon": 400,
        "seeds": {"base": 2025, "count": 100},
        "threshold": -10.0,
    }


def _preset_dos() -> dict:
    return {
        "name": "dos",
        "model": dict(_BASE_MODEL),
        "honest": dict(_FEEDBACK),
        "attack": {"malicious_set": [1], "kind": "dos"},
        "horizon": 200,
        "seeds": {"base": 2025, "count": 100},
        "threshold": -10.0,
    }


def _preset_mimic() -> dict:
    return {
        "name": "mimic",
        "model": dict(_BASE_MODEL),
        "honest": dict(_FEEDBACK),
        "attack": {"malicious_set": [1], "kind": "mimic", "self_excitation": [0.16]},
        "horizon": 2000,
        "seeds": {"base": 2025, "count": 50},
        "threshold": -10.0,
    }


def _preset_example1() -> dict:
    return {
        "name": "example1",
        "model": {
            "n_agents": 2,
            "dynamics": [[0.5, 0.0], [0.0, 0.6]],
            "actuator_gains": [1.0, 1.0],
            "process_noise": [[1.0, 0.0], [0.0, 1.0]],
            "excitation": [1.0, 1.0],
            "initial": {"kind": "dirac", "point": [0.0, 0.0]},
        },
        "honest": dict(_FEEDBACK),
        "attack": {"malicious_set": [1], "kind": "replacement",
                   "mode": "constant", "values": [0.0]},
        "horizon": 100,
        "seeds": {"base": 2025, "count": 10},
        "threshold": -10.0,
    }


def _preset_example2() -> dict:
    preset = _preset_example1()
    preset["name"] = "example2"
    preset["model"]["dynamics"] = [[0.5, 0.3], [0.0, 0.6]]
    return preset


def _preset_mdp_detect() -> dict:
    return {
        "name": "mdp-detect",
        "mdp": {
            "kernel": [
                [[0.94, 0.06], [0.06, 0.94]],
                [[1.0, 0.0], [0.0, 1.0]],
            ],
            "initial": [1.0, 0.0],
        },
        "honest_policy": [[0.5, 0.5], [0.5, 0.5]],
        "corrupt_policy": [[1.0 / 30.0, 29.0 / 30.0], [1.0 / 30.0, 29.0 / 30.0]],
        "horizon": 1000,
        "seeds": {"base": 2025, "count": 100},
    }


def _preset_mdp_mimic() -> dict:
    return {
        "name": "mdp-mimic",
        "mdp": {
            "kernel": [
                [[0.94, 0.06], [0.06, 0.94]],
                [[1.0, 0.0], [0.0, 1.0]],
                [[0.97, 0.03], [0.03, 0.97]],
            ],
            "initial": [1.0, 0.0],
        },
        "honest_policy": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
        "corrupt_policy": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        "horizon": 1000,
        "seeds": {"base": 2025, "count": 100},
    }


PRESETS = {
    "identity": _preset_identity,
    "replacement": _preset_replacement,
    "fdi": _preset_fdi,
    "dos": _preset_dos,
    "mimic": _preset_mimic,
    "example1": _preset_example1,
    "example2": _preset_example2,
    "mdp-detect": _preset_mdp_detect,
    "mdp-mimic": _preset_mdp_mimic,
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
