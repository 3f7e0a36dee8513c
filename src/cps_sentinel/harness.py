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
import sys
import time
from dataclasses import dataclass, field, fields
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
from .numerics import DiagonalPsd, Dirac, GaussianLaw, make_spd, split_seed
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
        """Every field but the per-seed rows."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def json_text(mapping: dict) -> str:
    """Sorted, indented JSON of ``mapping`` plus a newline, strict about numbers.

    A non-finite top-level number (the drift of a path the honest law
    forbids, say) is written as ``null``: strict JSON has no NaN or
    Infinity token.
    """
    mapping = {key: None if isinstance(value, float) and not math.isfinite(value) else value
               for key, value in mapping.items()}
    return json.dumps(mapping, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _run_settings(data: dict, issues: list[Violation]) -> dict:
    """Name, horizon, seeds and outputs, checked alike for both kinds of scenario.

    Defects go into ``issues``; the settings come back as keyword arguments
    of :class:`Scenario` and :class:`MdpScenario`.
    """
    horizon = data.get("horizon")
    if not _is_int(horizon) or horizon < 1:
        issues.append(Violation("horizon", "BadHorizon",
                                f"horizon must be a positive integer, got {horizon!r}"))
    seeds = data.get("seeds")
    seed_base = seed_count = None
    if not isinstance(seeds, dict) or "base" not in seeds or "count" not in seeds:
        issues.append(Violation("seeds", "Missing", "scenario needs seeds: {base, count}"))
    else:
        seed_base, seed_count = seeds["base"], seeds["count"]
        if not _is_int(seed_base):
            issues.append(Violation("seeds.base", "BadSeed", "seed base must be an integer"))
        if not _is_int(seed_count) or seed_count < 1:
            issues.append(Violation("seeds.count", "BadCount",
                                    "seed count must be a positive integer"))
    outputs = data.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        issues.append(Violation("outputs", "BadType", "outputs must be a directory path"))
    return {"name": data.get("name", "unnamed"), "horizon": horizon, "seed_base": seed_base,
            "seed_count": seed_count, "outputs": outputs}


def _out_path(out_dir, outputs: str | None) -> Path | None:
    """A batch's output directory, created: ``out_dir``, else the scenario's ``outputs``."""
    if out_dir is None and not outputs:
        return None
    path = Path(out_dir if out_dir is not None else outputs)
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, reporting all defects together."""
    return scenario_from_dict(read_scenario_json(path))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("a scenario must be a JSON object")
    issues: list[Violation] = []

    def bad(path, code, message):
        issues.append(Violation(path, code, message))

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

    settings = _run_settings(data, issues)
    threshold = data.get("threshold")
    # finite as a float: NaN, infinities and integers past the float range fail
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool) \
            or not abs(threshold) <= sys.float_info.max:
        bad("threshold", "Missing" if threshold is None else "BadThreshold",
            "scenario needs a finite log-domain threshold")

    if model is not None and not issues:
        issues.extend(validate_model(model))
    if not issues:  # policies and the attacked set are checked against a valid model
        issues.extend(_check_honest_sizes(model, honest))
        if attack is not None:
            issues.extend(validate_attack(model, attack[0]))
            issues.extend(_check_attack_sizes(model, attack, settings["horizon"]))
    if issues:
        raise ValidationError(issues)
    return Scenario(model=model, honest=honest, attack=attack, threshold=float(threshold),
                    **settings)


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
        if not isinstance(init, dict):
            raise ValueError("initial must be an object with a 'kind'")
        if init.get("kind") == "dirac":
            initial = Dirac(init["point"])
        elif init.get("kind") == "gaussian":
            cov = np.asarray(init["cov"], dtype=float)
            if cov.ndim == 1:
                initial = GaussianLaw(init["mean"], DiagonalPsd(cov))
            else:
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
    agents = ad["malicious_set"]
    if not isinstance(agents, list) or not all(_is_int(i) for i in agents):
        raise ValueError(f"malicious_set must be a list of agent numbers, got {agents!r}")
    cfg = AttackConfig(tuple(agents))
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
    arrays = []
    if isinstance(honest, LinearFeedback) and honest.stationary:
        arrays = [("honest.gain", honest.gain, (n, n))]
    elif isinstance(honest, Affine):
        arrays = [("honest.gain", honest.gain, (n, n)), ("honest.offset", honest.offset, (n,))]
    elif isinstance(honest, HistoryWindow):
        arrays = [(f"honest.lag_gains[{k}]", g, (n, n)) for k, g in enumerate(honest.lag_gains)]
    return _check_arrays(arrays)


def _check_attack_sizes(model: CpsModel, attack, horizon) -> list[Violation]:
    cfg, pol = attack
    m_count = cfg.malicious_count
    issues = []
    if isinstance(pol, Replacement) and pol.mode in ("constant", "scaled_state"):
        issues.extend(_check_arrays([("attack.values", pol.values, (m_count,))]))
    if isinstance(pol, Mimic):
        issues.extend(_check_arrays([("attack.self_excitation", pol.self_excitation.diag,
                                      (m_count,))]))
    if isinstance(pol, Fdi):
        if pol.offsets.shape[-1] != m_count:
            issues.append(Violation("attack.offsets", "DimMismatch",
                                    f"expected {m_count} offsets per step, "
                                    f"got {pol.offsets.shape}"))
        elif pol.offsets.ndim == 2 and pol.offsets.shape[0] < horizon:
            issues.append(Violation("attack.offsets", "ScheduleTooShort",
                                    f"offset schedule covers {pol.offsets.shape[0]} "
                                    f"steps but the horizon is {horizon}"))
    return issues


def _check_arrays(arrays) -> list[Violation]:
    """One violation per (path, array, shape) whose array has another shape or a
    non-finite entry."""
    issues = []
    for path, a, shape in arrays:
        if np.shape(a) != shape:
            issues.append(Violation(path, "DimMismatch",
                                    f"expected shape {shape}, got {np.shape(a)}"))
        elif not np.isfinite(a).all():
            issues.append(Violation(path, "NonFinite", "entries must be finite"))
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
    out_path = _out_path(out_dir, s.outputs)

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
    mean_drift, drift_stderr = _drift_stats([r["log_l"] / s.horizon for r in ok])
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
        (out_path / "summary.json").write_text(json_text(summary.summary_dict()))
    return summary


def _drift_stats(drifts) -> tuple[float | None, float | None]:
    """Mean per-step drift of a batch and its standard error, over finite drifts only."""
    drifts = np.asarray(drifts, dtype=float)
    finite = drifts[np.isfinite(drifts)]
    mean = float(np.mean(drifts)) if drifts.size else None
    stderr = float(np.std(finite, ddof=1) / math.sqrt(finite.size)) if finite.size > 1 else None
    return mean, stderr


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
    policies = {}
    for key in ("honest_policy", "corrupt_policy"):
        try:
            policies[key] = StochasticPolicy(np.asarray(data[key], dtype=float))
            if mdp is not None:
                induced_kernel(mdp, policies[key])  # checks the shape against the MDP
        except (ValueError, KeyError, TypeError) as exc:
            issues.append(Violation(key, "BadPolicy", str(exc)))
    settings = _run_settings(data, issues)
    if "threshold" in data:
        issues.append(Violation("threshold", "Unsupported", "an MDP scenario has no threshold"))
    if issues:
        raise ValidationError(issues)
    return MdpScenario(mdp=mdp, **policies, **settings)


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
    out_path = _out_path(out_dir, s.outputs)
    if out_path is not None:
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
    mean_drift, drift_stderr = _drift_stats(finals / s.horizon)
    summary = {
        "scenario": s.name,
        "n_runs": s.seed_count,
        "horizon": s.horizon,
        "analytic_drift": drift,
        "mean_drift": mean_drift,
        "drift_stderr": drift_stderr,
        "runtime_seconds": time.perf_counter() - start,
    }
    if out_path is not None:
        (out_path / "summary.json").write_text(json_text(summary))
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
