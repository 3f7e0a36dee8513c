"""Scenario ingestion, presets, and Monte Carlo orchestration.

Scenarios are JSON with explicit row-major matrices and string-tagged
policy kinds; statistical parameters carry no defaults, so a file either
states its covariances or fails validation. Batch runs of both testbeds
derive one stream per run index; they and the one-seed runs of the
command line's ``simulate`` and ``detect`` go through one loop that runs
groups of seeds together in time tiles and appends one CSV per seed. Each
batch writes a deterministic summary and leaves only its own run CSVs in
its directory. Attack scenarios that violate the
honest-influence requirement are refused unless explicitly overridden.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import stat
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .detection import (
    Decision,
    DetectionPlan,
    NonFiniteLogRatio,
    decide,
    detect_tile,
    detection_plan,
    series_csv_tile,
)
from .mdp import (
    FiniteMdp,
    StochasticPolicy,
    _log_ratio_tiles,
    _path_tiles,
    analytic_drift,
    induced_kernel,
    log_ratio_csv_tile,
)
from .model import (
    AttackConfig,
    CpsModel,
    Violation,
    check_arrays,
    honest_influence_check,
    validate_attack,
    validate_model,
)
from .numerics import DiagonalPsd, Dirac, GaussianLaw, make_spd, split_seed, tile_steps
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
from .simulator import (
    NonFiniteState,
    SimulationPlan,
    path_tiles,
    simulation_plan,
    trajectory_csv_tile,
)


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


def _out_path(outputs: str | None) -> Path | None:
    """A batch's output directory, the scenario's ``outputs``, created; None without one."""
    if not outputs:
        return None
    path = Path(outputs)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _create(path: Path, newline: str | None = None):
    """Open ``path`` for writing as a new file, never truncating one in place.

    An existing regular file is unlinked and created again: truncating a
    file whose old contents still await writeback can stall for seconds.
    Anything else at ``path`` (a symlink, a FIFO, a device) is opened for
    writing as it is, so that output goes through it.
    """
    try:
        return open(path, "x", newline=newline)
    except FileExistsError:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return open(path, "w", newline=newline)
        path.unlink()
        return open(path, "x", newline=newline)


def _discard(path: Path, written: bool) -> None:
    """Remove a regular file at ``path``; leave anything else there (see :func:`_create`).

    A symlink stays, but what was ``written`` through it to a regular file
    is truncated away; a FIFO or a device keeps what went through it.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            path.unlink()
        elif written and stat.S_ISREG(os.stat(path).st_mode):
            os.truncate(path, 0)
    except FileNotFoundError:
        pass


def _write_fresh(path: Path, text: str) -> None:
    """Write ``text`` as the whole of a new file at ``path`` (see :func:`_create`)."""
    with _create(path) as fp:
        fp.write(text)


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
        try:
            pol = Mimic(DiagonalPsd(ad["self_excitation"]))
        except ValueError as exc:
            raise ValueError(f"self_excitation: {exc}") from None
    else:
        raise ValueError(f"unknown attack kind {kind!r}")
    return cfg, pol


def _check_honest_sizes(model: CpsModel, honest) -> list[Violation]:
    n = model.n_agents
    arrays = []
    if isinstance(honest, LinearFeedback):
        arrays = [("honest.gain", honest.gain, (n, n))]
    elif isinstance(honest, Affine):
        arrays = [("honest.gain", honest.gain, (n, n)), ("honest.offset", honest.offset, (n,))]
    elif isinstance(honest, HistoryWindow):
        arrays = [(f"honest.lag_gains[{k}]", g, (n, n)) for k, g in enumerate(honest.lag_gains)]
    return check_arrays(arrays)


def _check_attack_sizes(model: CpsModel, attack, horizon) -> list[Violation]:
    cfg, pol = attack
    m_count = cfg.malicious_count
    issues = []
    if isinstance(pol, Replacement) and pol.mode in ("constant", "scaled_state"):
        issues.extend(check_arrays([("attack.values", pol.values, (m_count,))]))
    if isinstance(pol, Mimic):
        issues.extend(check_arrays([("attack.self_excitation", pol.self_excitation.diag,
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


# A group holds as many seeds, up to _GROUP_SEEDS, as let a tile of
# _TILE_BLOCKS blocks fit TILE_CELLS: shorter tiles of more seeds cost more
# in per-tile calls (one standard_normal per linear seed) than they save.
_TILE_BLOCKS = 8
# A group keeps one file open per seed it writes.
_GROUP_SEEDS = 256


def _group_seeds(columns: int, block: int) -> int:
    """Seeds per group of a batch whose tiles hold ``columns`` cells per seed and step.

    As many as let a tile of ``_TILE_BLOCKS`` blocks of ``block`` steps
    fit ``TILE_CELLS``, at least 1 and at most ``_GROUP_SEEDS``: by
    symmetry, the blocks that a tile of ``_TILE_BLOCKS`` seeds runs.
    """
    return min(_GROUP_SEEDS, tile_steps(_TILE_BLOCKS, columns, block) // block)


def _run_batch(seeds: list, targets: list | None, columns: int, block: int,
               group_tiles) -> None:
    """The batch loop of every run: the run ``seeds`` in groups, in time tiles.

    A group (:func:`_group_seeds`) runs in tiles of whole ``block`` s,
    ``columns`` cells per seed and step (:func:`cps_sentinel.numerics.tile_steps`):
    ``group_tiles(indices, seeds, steps)`` yields per tile the mask of the
    seeds of run ``indices`` still alive and a generator of their CSV
    texts, in row order. ``targets`` holds one output per run, or is None
    when nothing is written: a ``Path`` is opened (:func:`_create`) at the
    first tile that writes it, and discarded (:func:`_discard`) when its
    seed is not alive after the last tile; anything else is a text stream
    (the command line's standard output), written as the texts come and
    never discarded.
    """
    group = _group_seeds(columns, block)
    for first in range(0, len(seeds), group):
        indices = range(first, min(first + group, len(seeds)))
        outs = None if targets is None else targets[first:indices.stop]
        files = [None] * len(indices)
        steps = tile_steps(len(indices), columns, block)
        with ExitStack() as stack:
            for alive, texts in group_tiles(indices, seeds[first:indices.stop], steps):
                if outs is not None:
                    live = np.flatnonzero(alive).tolist()
                    # open before the formatter starts, so that the files'
                    # buffers are not scattered among a tile's texts
                    for k in live:
                        if files[k] is None:
                            files[k] = (stack.enter_context(_create(outs[k]))
                                        if isinstance(outs[k], Path) else outs[k])
                    for k in live:
                        files[k].write(next(texts))
                # no text or formatter of this tile outlives it into the next
                texts.close()
        if outs is not None:
            for k in np.flatnonzero(~alive).tolist():
                if isinstance(outs[k], Path):
                    _discard(outs[k], files[k] is not None)


def _run_files(out_path: Path | None, n_seeds: int) -> list | None:
    """Each run's CSV in a batch's output directory, or None without one."""
    return None if out_path is None else [out_path / f"run_{i:05d}.csv" for i in range(n_seeds)]


def _discard_stale_runs(out_path: Path, n_seeds: int) -> None:
    """Discard the run CSVs of an earlier batch with more seeds (:func:`_discard`'s rule)."""
    for path in out_path.glob("run_*.csv"):
        index = path.name[4:-4]
        if index.isdecimal() and int(index) >= n_seeds and path.name == f"run_{int(index):05d}.csv":
            _discard(path, False)


def _linear_batch(s: Scenario, seeds: list, targets: list | None) -> list[dict]:
    """Run the linear ``seeds`` through the batch loop; one row per seed (:func:`_linear_tiles`).

    Its groups and time tiles are sized to the wider of the simulator's
    noise planes and the detector's stacked residuals, in whole common
    blocks.
    """
    cfg, corrupt = s.attack if s.attack is not None else (None, None)
    sim = simulation_plan(s.model, s.honest, s.attack)
    det = detection_plan(s.model, s.honest, corrupt, cfg, s.horizon)
    rows: list[dict] = []
    # one engine's block is a whole number of the other's
    # (cps_sentinel.numerics.block_steps), so the larger is the common block
    _run_batch(seeds, targets, max(sim.columns, det.columns), max(sim.block, det.block),
               lambda indices, group, steps: _linear_tiles(s, sim, det, indices, group, steps,
                                                           rows))
    return rows


def run_detect(s: Scenario, seed: int, target) -> dict:
    """Detect along the path of one ``seed``, writing its series CSV to ``target``.

    The batch loop of :func:`run_montecarlo` on the one seed, with no
    influence check; ``target`` is as in :func:`_run_batch`. Returns the
    seed's row: its error text, or its final logL, r_n and decision.
    """
    return _linear_batch(s, [seed], [target])[0]


def run_simulate(s: Scenario, seed: int, target) -> str | None:
    """Write the trajectory CSV of one ``seed`` to ``target`` (see :func:`_run_batch`).

    Returns the error text of a run whose state overflowed, or None.
    """
    plan = simulation_plan(s.model, s.honest, s.attack)
    failed_at = []

    def group_tiles(indices, seeds, steps):
        for tile in path_tiles(plan, s.horizon, seeds, steps, keep_controls=True):
            yield tile.failed_at == 0, trajectory_csv_tile(tile, s.horizon)
        failed_at.append(int(tile.failed_at[0]))

    _run_batch([seed], [target], plan.columns, plan.block, group_tiles)
    return f"NonFiniteState: {NonFiniteState(failed_at[0], seed)}" if failed_at[0] else None


def run_montecarlo(s: Scenario, *, override_assumption2: bool = False) -> RunSummary:
    """Simulate, detect, and classify one batch of independent seeds.

    Refuses attack scenarios whose network leaves some agent untouched by
    honest excitation (``override_assumption2`` runs them anyway, for
    studying exactly that failure mode). The seeds run through the batch
    loop (:func:`_linear_batch`) in groups and time tiles, so memory stays
    per tile whatever the horizon and the seed count; a seed's result does not
    depend on its group or the tiles. A seed whose state
    (``NonFiniteState``) or final logL (``NonFiniteLogRatio``) is not
    finite gets no decision and no CSV, and is counted in ``n_failed`` and,
    by exception name, in ``failure_codes``; the others run on.
    """
    if s.attack is not None:
        holds, unreachable = honest_influence_check(s.model, s.attack[0])
        if not holds and not override_assumption2:
            raise AssumptionViolation(
                f"agents {sorted(unreachable)} are not reachable from any honest "
                "actuated agent; detection guarantees do not apply "
                "(pass override_assumption2 to run anyway)")
    start = time.perf_counter()
    out_path = _out_path(s.outputs)
    rows = _linear_batch(s, [split_seed(s.seed_base, i) for i in range(s.seed_count)],
                         _run_files(out_path, s.seed_count))
    if out_path is not None:
        _discard_stale_runs(out_path, s.seed_count)
        _write_runs_table(out_path / "runs.csv", rows)

    ok = [r for r in rows if r["error"] is None]
    failure_codes: dict[str, int] = {}
    for r in rows:
        if r["error"] is not None:
            code = r["error"].split(":", 1)[0]
            failure_codes[code] = failure_codes.get(code, 0) + 1
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
        _write_fresh(out_path / "summary.json", json_text(summary.summary_dict()))
    return summary


def _linear_tiles(s: Scenario, sim: SimulationPlan, det: DetectionPlan, indices: range,
                  seeds: list, steps: int, rows: list):
    """The tiles of a linear group (see :func:`_run_batch`); then its rows go on ``rows``.

    Each tile is simulated (:func:`path_tiles`) and detected
    (:func:`detect_tile`, whose carry continues each seed's sums); a seed
    dies at the tile in which its state or its logL stops being finite.
    """
    carry = det.fresh_carry(len(seeds))
    bad_log_l = np.zeros(len(seeds), dtype=int)  # first non-finite logL step, or 0
    for tile in path_tiles(sim, s.horizon, seeds, steps):
        series = detect_tile(det, tile.path, tile.lo, carry)
        bad = ~np.isfinite(series.cum_log_l)
        new = (bad_log_l == 0) & bad.any(axis=1)
        bad_log_l[new] = tile.lo + bad[new].argmax(axis=1) + 1
        alive = (tile.failed_at == 0) & (bad_log_l == 0)
        yield alive, series_csv_tile(series if alive.all() else series.row(alive), tile.lo)
    log_l = series.cum_log_l[:, -1].tolist()
    r_n = [r if defined else None for r, defined
           in zip(series.r_n[:, -1].tolist(), series.r_defined[:, -1].tolist())]
    for k, index in enumerate(indices):
        row = {"run_index": index, "seed": seeds[k], "log_l": None, "r_n": None,
               "decision": None, "error": None}
        error = (NonFiniteState(tile.failed_at[k], seeds[k]) if tile.failed_at[k]
                 else NonFiniteLogRatio(bad_log_l[k], seeds[k]) if bad_log_l[k] else None)
        if error is not None:
            row["error"] = f"{type(error).__name__}: {error}"
        else:
            row["log_l"], row["r_n"] = log_l[k], r_n[k]
            row["decision"] = decide(log_l[k], s.threshold).value
        rows.append(row)


def _drift_stats(drifts) -> tuple[float | None, float | None]:
    """Mean per-step drift of a batch and its standard error, over finite drifts only."""
    drifts = np.asarray(drifts, dtype=float)
    finite = drifts[np.isfinite(drifts)]
    mean = float(np.mean(drifts)) if drifts.size else None
    stderr = float(np.std(finite, ddof=1) / math.sqrt(finite.size)) if finite.size > 1 else None
    return mean, stderr


def _write_runs_table(path: Path, rows: list[dict]) -> None:
    """One line per seed; cells that need it (an error message) are quoted."""
    with _create(path, newline="") as fp:
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


def run_mdp_batch(s: MdpScenario) -> dict:
    """Simulate corrupt-policy paths and track the kernel log ratio series.

    The seeds run through the batch loop (:func:`_run_batch`), a tile
    counted at 4 cells per seed and step (its uniforms and their
    time-major copy), so memory stays per tile. Each tile is sampled and
    its log ratio continued (:mod:`cps_sentinel.mdp`); each seed's series
    is its own CSV, ``t,log_ratio`` (:func:`cps_sentinel.mdp.log_ratio_csv_tile`).
    """
    start = time.perf_counter()
    k_h = induced_kernel(s.mdp, s.honest_policy)
    k_c = induced_kernel(s.mdp, s.corrupt_policy)
    drift = analytic_drift(k_h, k_c, s.mdp.initial)
    finals = np.empty(s.seed_count)
    out_path = _out_path(s.outputs)

    def group_tiles(indices, seeds, steps):
        alive, lo = np.ones(len(seeds), dtype=bool), 0
        for series in _log_ratio_tiles(_path_tiles(s.mdp, s.corrupt_policy, s.horizon, seeds,
                                                    steps), k_h, k_c):
            yield alive, log_ratio_csv_tile(series, lo)
            lo += series.shape[1]
        finals[indices] = series[:, -1]

    _run_batch([split_seed(s.seed_base, i) for i in range(s.seed_count)],
               _run_files(out_path, s.seed_count), 4, 1, group_tiles)
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
        _discard_stale_runs(out_path, s.seed_count)
        _write_fresh(out_path / "summary.json", json_text(summary))
    return summary


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

# the two examples replace agent 1 by zero; example2's coupling lets agent 2 reach agent 1
_EXAMPLE_MODEL = dict(_BASE_MODEL, dynamics=[[0.5, 0.0], [0.0, 0.6]],
                      process_noise=[[1.0, 0.0], [0.0, 1.0]], excitation=[1.0, 1.0])

_FEEDBACK = {"kind": "linear", "gain": [[-0.2, 0.0], [0.0, -0.2]]}

# name: (attack, horizon, seed count) of the presets on _BASE_MODEL under _FEEDBACK
_LINEAR_PRESETS = {
    "identity": (None, 200, 20),
    "replacement": ({"malicious_set": [1], "kind": "replacement",
                     "mode": "scaled_state", "values": [-0.2]}, 2000, 200),
    "fdi": ({"malicious_set": [1], "kind": "fdi", "offsets": [0.2]}, 400, 100),
    "dos": ({"malicious_set": [1], "kind": "dos"}, 200, 100),
    "mimic": ({"malicious_set": [1], "kind": "mimic", "self_excitation": [0.16]}, 2000, 50),
}


def _linear_preset(name: str, attack: dict | None, horizon: int, count: int,
                   model: dict = _BASE_MODEL) -> dict:
    return {"name": name, "model": model, "honest": _FEEDBACK, "attack": attack,
            "horizon": horizon, "seeds": {"base": 2025, "count": count}, "threshold": -10.0}


_ZERO_REPLACEMENT = {"malicious_set": [1], "kind": "replacement",
                     "mode": "constant", "values": [0.0]}

PRESETS = {
    **{name: _linear_preset(name, *row) for name, row in _LINEAR_PRESETS.items()},
    "example1": _linear_preset("example1", _ZERO_REPLACEMENT, 100, 10, _EXAMPLE_MODEL),
    "example2": _linear_preset("example2", _ZERO_REPLACEMENT, 100, 10,
                               dict(_EXAMPLE_MODEL, dynamics=[[0.5, 0.3], [0.0, 0.6]])),
    "mdp-detect": {
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
    },
    "mdp-mimic": {
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
    },
}


def preset(name: str) -> dict:
    """A deep copy of the built-in scenario ``name``: the caller may edit any of it."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])
