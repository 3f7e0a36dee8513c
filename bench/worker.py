"""One benchmark process: a set-up probe, or the timed batches of one workload.

``run.py`` starts this file in a fresh interpreter, so ``setup`` times a
cold ``import cps_sentinel`` and the peak resident memory of ``measure``
belongs to the workload alone. The result is one JSON line on stdout.

    worker.py setup KIND SCENARIO
    worker.py measure JOB.json
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any import of numpy or cps_sentinel

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The batch mean drift must lie within this many standard errors of the
# closed-form drift. The drift of these workloads has no transient (the
# honest-vs-corrupt mean gap is zero), so only sampling error separates
# them. A t statistic exceeds 5 with probability 1.6e-3 for the 8 seeds of
# a tiny batch and at most 1.6e-4 for the 16 to 100 seeds of a full one.
ORACLE_STDERRS = 5.0
MIN_TIMED_BATCHES = 3
CALIBRATION_NUMPY_OPS = 10_000
CALIBRATION_PYTHON_OPS = 200_000
CALIBRATION_TEXT_LINES = 40_000


def load(kind: str, path):
    from cps_sentinel import harness

    if kind == "mdp":
        return harness.load_mdp_scenario(path)
    s = harness.load_scenario(path)
    if s.attack is not None:
        holds, unreachable = harness.honest_influence_check(s.model, s.attack[0])
        if not holds:
            raise harness.AssumptionViolation(f"agents {sorted(unreachable)} unreachable")
    return s


def setup(kind: str, path: str) -> dict:
    load(kind, path)
    return {"setup_s": time.perf_counter() - _T0}


def oracle_drift(kind: str, s) -> tuple[float, str]:
    """Independent per-step drift: closed-form Gaussian or kernel-level value."""
    if kind == "mdp":
        from cps_sentinel.mdp import analytic_drift, induced_kernel

        return (analytic_drift(induced_kernel(s.mdp, s.honest_policy),
                               induced_kernel(s.mdp, s.corrupt_policy)), "analytic_drift")
    from cps_sentinel.detection import expected_step_drift

    cfg, corrupt = s.attack
    d = expected_step_drift(s.model, s.honest, corrupt, cfg)
    return d.value, d.method


def run_batch(kind: str, s) -> tuple[float, float, object, str | None]:
    """Wall and CPU seconds of one batch call, its result, and any error."""
    from cps_sentinel import harness

    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = harness.run_mdp_batch(s) if kind == "mdp" else harness.run_montecarlo(s)
        error = None
    except Exception as exc:  # a batch that raises counts every seed as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - w0, time.process_time() - c0, result, error


def calibrate(kernel: str) -> float:
    """Seconds the machine takes, right now, for a fixed piece of work.

    On a shared host, other tenants change the speed of the same code by
    up to 2x over tens of seconds. Timing a fixed kernel next to every
    batch lets the batch be measured in units of the machine's current
    speed. The kernel imitates the workload's own mix and uses nothing of
    cps_sentinel, so a change to the program cannot move it:
    ``"numeric"`` runs small numpy operations and interpreter arithmetic,
    ``"text"`` formats floats into CSV lines.
    """
    if kernel == "text":
        t0 = time.perf_counter()
        n = 0
        for i in range(CALIBRATION_TEXT_LINES):
            n += len(f"{i},{math.sin(i) * 50.0!r}\n")
        return time.perf_counter() - t0
    import numpy as np

    a = np.array([[0.5, 0.3], [0.0, 0.5]])
    v = np.ones(2)
    t0 = time.perf_counter()
    y = v
    for _ in range(CALIBRATION_NUMPY_OPS):
        y = a @ y + v
    x = 0
    for i in range(CALIBRATION_PYTHON_OPS):
        x += i * i
    return time.perf_counter() - t0


def _file_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def _last_cell(path: Path) -> float:
    last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return float(last.split(b",")[1])


def outcome(kind: str, s, result, error, outputs: Path | None) -> dict:
    """Per-seed results and file checks of one batch (untimed).

    ``digest`` covers everything a rerun must reproduce bit for bit: the
    per-seed values and the bytes of every output file except the summary,
    whose ``runtime_seconds`` is wall-clock.
    """
    out = {"seeds": s.seed_count, "failed": s.seed_count if error else 0,
           "errors": [error] if error else [], "file_problems": [], "output_bytes": 0}
    h = hashlib.sha256()
    if error is None:
        if kind == "mdp":
            out.update(mean_drift=result["mean_drift"], drift_stderr=result["drift_stderr"],
                       detection_fraction=None)
            h.update(repr(sorted((k, v) for k, v in result.items()
                                 if k != "runtime_seconds")).encode())
        else:
            rows = result.rows
            errors = [r["error"] for r in rows if r.get("error")]
            per_seed = [r["log_l"] for r in rows]
            out.update(mean_drift=result.mean_drift, drift_stderr=result.drift_stderr,
                       detection_fraction=result.detection_fraction,
                       failed=len(errors) + max(0, s.seed_count - len(rows)),
                       errors=errors[:5], per_seed=per_seed)
            h.update(repr([(r["run_index"], r["seed"], r["log_l"], r["r_n"], r["decision"],
                            r["error"]) for r in rows]).encode())
    if outputs is not None and error is None:
        problems = out["file_problems"]
        runs = [f"run_{i:05d}.csv" for i in range(s.seed_count)]
        expected = dict.fromkeys(runs, s.horizon + (2 if kind == "mdp" else 1))
        if kind != "mdp":
            expected["runs.csv"] = s.seed_count + 1
        for name, lines in expected.items():
            if not (outputs / name).is_file():
                problems.append(f"missing {name}")
            elif (n := _file_rows(outputs / name)) != lines:
                problems.append(f"{name}: {n} lines, expected {lines}")
        summary = outputs / "summary.json"
        if not summary.is_file():
            problems.append("missing summary.json")
        elif (n := json.loads(summary.read_text()).get("n_runs")) != s.seed_count:
            problems.append(f"summary.json: n_runs {n}, expected {s.seed_count}")
        if kind == "mdp":
            out["per_seed"] = [_last_cell(outputs / r) for r in runs if (outputs / r).is_file()]
        files = sorted(p for p in outputs.rglob("*") if p.is_file())
        out["output_bytes"] = sum(p.stat().st_size for p in files)
        for p in files:
            if p.name != "summary.json":
                h.update(p.name.encode())
                h.update(p.read_bytes())
    out["digest"] = h.hexdigest()
    return out


def _fresh(outputs: Path | None) -> None:
    if outputs is not None and outputs.exists():
        shutil.rmtree(outputs)


def timed_batches(kind: str, s, job: dict, outputs: Path | None) -> list[dict]:
    """The batch repeated for ``job["seconds"]``, each between two calibrations."""
    batches = []
    calibrations = []
    start = time.perf_counter()
    while True:
        _fresh(outputs)
        calibrations.append(calibrate(job["calibration"]))
        wall, cpu, result, error = run_batch(kind, s)
        batches.append({"wall_s": wall, "cpu_s": cpu,
                        **outcome(kind, s, result, error, outputs)})
        if (len(batches) >= MIN_TIMED_BATCHES
                and time.perf_counter() - start + wall > job["seconds"]):
            break
    calibrations.append(calibrate(job["calibration"]))
    for i, b in enumerate(batches):
        b["calib_s"] = (calibrations[i] + calibrations[i + 1]) / 2
    return batches


def traced_batches(kind: str, job: dict, outputs: Path | None) -> tuple[list[dict], list[dict]]:
    """Pairs of an untraced and a traced batch, for ``job["seconds"]``.

    Each batch loads the scenario afresh, so the traced one also records
    validation. Pairs alternate which batch runs first, so neither side
    always follows the other's file deletions. The last traced batch's
    spans are saved to ``job["spans"]``.
    """
    from tracer import Tracer

    tracer = Tracer()
    batches = []
    traced = []

    def untraced_batch():
        _fresh(outputs)
        s = load(kind, job["scenario"])
        wall, cpu, result, error = run_batch(kind, s)
        batches.append({"wall_s": wall, "cpu_s": cpu,
                        **outcome(kind, s, result, error, outputs)})

    def traced_batch():
        _fresh(outputs)
        tracer.clear()
        tracer.install()
        try:
            s = load(kind, job["scenario"])
            wall, cpu, result, error = run_batch(kind, s)
        finally:
            tracer.uninstall()
        traced.append({"wall_s": wall, "cpu_s": cpu, "layers": tracer.layer_totals(),
                       "spans": tracer.span_count,
                       **outcome(kind, s, result, error, outputs)})

    start = time.perf_counter()
    while True:
        first, second = ((untraced_batch, traced_batch) if len(traced) % 2 == 0
                         else (traced_batch, untraced_batch))
        first()
        second()
        pair_s = batches[-1]["wall_s"] + traced[-1]["wall_s"]
        if time.perf_counter() - start + pair_s > job["seconds"]:
            break
    tracer.save(job["spans"])
    return batches, traced


def measure(job: dict) -> dict:
    from cps_sentinel import harness  # noqa: F401  (loads every module before tracing)

    kind = job["kind"]
    outputs = Path(job["outputs"]) if job["outputs"] else None
    ref_outputs = Path(job["reference_outputs"]) if job["reference_outputs"] else None

    # The reference batch doubles as warm-up: lazy imports and caches fill here.
    ref_s = load(kind, job["reference_scenario"])
    _fresh(ref_outputs)
    _, _, ref_result, ref_error = run_batch(kind, ref_s)
    reference = outcome(kind, ref_s, ref_result, ref_error, ref_outputs)

    s = load(kind, job["scenario"])
    oracle, oracle_method = oracle_drift(kind, s)
    if job["trace"]:
        batches, traced = traced_batches(kind, job, outputs)
    else:
        batches, traced = timed_batches(kind, s, job, outputs), []
    _fresh(outputs)
    _fresh(ref_outputs)

    import numpy
    import scipy

    return {
        "reference": reference,
        "oracle": oracle,
        "oracle_method": oracle_method,
        "seed_steps": s.seed_count * s.horizon,
        "batches": batches,
        "traced": traced,
        "checks": gate(batches, traced, oracle),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(numpy),
    }


def gate(batches: list[dict], traced: list[dict], oracle: float) -> list[dict]:
    """Correctness checks on the measured batches; each has name, ok, detail."""
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    first = batches[0]
    every = batches + traced
    failed = sum(b["failed"] for b in every)
    check("no_failed_seeds", failed == 0,
          f"{failed} failed; {sorted({e for b in every for e in b['errors']})[:3]}")
    problems = sorted({p for b in every for p in b["file_problems"]})
    check("output_files", not problems, "; ".join(problems[:5]))
    mean, stderr = first.get("mean_drift"), first.get("drift_stderr")
    if mean is None or stderr is None or not math.isfinite(oracle):
        check("drift_vs_oracle", False, f"mean_drift {mean}, stderr {stderr}, oracle {oracle}")
    else:
        gap = abs(mean - oracle)
        check("drift_vs_oracle", gap <= ORACLE_STDERRS * stderr,
              f"mean_drift {mean:.6g}, oracle {oracle:.6g}, gap {gap:.3g}, stderr {stderr:.3g}")
    check("rerun_identical", all(b["digest"] == first["digest"] for b in batches),
          "every timed batch reproduces the first one's per-seed results and files")
    if traced:
        check("trace_identical", all(b["digest"] == first["digest"] for b in traced),
              "traced batches reproduce the untraced per-seed results and files")
        counts = [{k: v["calls"] for k, v in b["layers"].items()} for b in traced]
        check("trace_calls_repeat", all(c == counts[0] for c in counts),
              "call counts are equal in every traced batch")
    return checks


def _blas_info(numpy) -> str | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode of show_config
        return None



def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        result = setup(argv[1], argv[2])
    elif len(argv) == 2 and argv[0] == "measure":
        result = measure(json.loads(Path(argv[1]).read_text()))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
