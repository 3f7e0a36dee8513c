"""cps-sentinel benchmark: Monte Carlo batch throughput, set-up time, memory.

    python3 bench/run.py --workload mc-replacement --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a generated scenario file run through ``run_montecarlo`` or
``run_mdp_batch``, the calls behind the ``montecarlo`` and ``mdp``
subcommands, in a fresh worker process. The worker repeats the batch for
``--seconds`` and reports every batch's wall and CPU time, plus the time of
a fixed calibration kernel run before and after it (see
``worker.calibrate``). BLAS thread settings are inherited unchanged and
recorded. See README.md for the metrics and what each layer should move.

``--trace 0`` reports the end-to-end metrics (medians over batches, times
in units of the calibration kernel, raw seconds printed alongside);
``--trace 1`` alternates untraced and traced batches and reports per-layer
self time and call counts. Both modes run the correctness gate: no failed
seed, mean drift within a few standard errors of the closed-form oracle,
a fixed-seed reference batch equal to ``reference.json``, every output
file present with the right row count, and reruns (traced or not) equal
bit for bit. The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any
check fails. A record with provenance and every check is written under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from tracer import LAYERS  # noqa: E402
from workloads import REFERENCE_BASE, WORKLOADS, scenario, seed_base  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # every child process of one workload ends within this
# Relative tolerance of the reference comparison: wide enough for last-bit
# drift from reordered floating-point arithmetic, far below the percent-level
# change of a different statistic or a different seed-to-draw mapping.
REFERENCE_RTOL = 1e-9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("seed_steps_per_calib", "1/calib"),
    ("cpu_calib_per_mstep", "calib"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
_VALIDATE = ("model.validate_model", "model.validate_attack", "model.honest_influence_check")
PER_LAYER = tuple(
    pair for mod, fn in LAYERS if f"{mod}.{fn}" not in _VALIDATE
    for pair in ((f"{mod}.{fn}.self_s", "s"), (f"{mod}.{fn}.calls", "count"))
) + (
    ("model.validate_s", "s"),
    ("harness.output_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not end within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "cps_sentinel").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(worker: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "blas": worker["blas"],
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def check_reference(observed: dict, recorded: dict | None) -> list[str]:
    """Differences between a reference batch and its recorded values."""
    if recorded is None:
        return ["no recorded reference"]
    problems = []

    def close(name, got, want):
        if got is None or want is None:
            if got != want:
                problems.append(f"{name}: {got!r} != {want!r}")
        elif not abs(got - want) <= REFERENCE_RTOL * max(1.0, abs(want)):
            problems.append(f"{name}: {got!r} != {want!r}")

    if observed["failed"]:
        problems.append(f"{observed['failed']} seeds failed: {observed['errors'][:3]}")
        return problems
    close("mean_drift", observed["mean_drift"], recorded["mean_drift"])
    if observed["detection_fraction"] != recorded["detection_fraction"]:
        problems.append(f"detection_fraction: {observed['detection_fraction']!r} != "
                        f"{recorded['detection_fraction']!r}")
    got, want = observed.get("per_seed", []), recorded["per_seed"]
    if len(got) != len(want):
        problems.append(f"per-seed results: {len(got)} values, expected {len(want)}")
    else:
        for i, (g, w) in enumerate(zip(got, want)):
            close(f"seed {i} final log ratio", g, w)
    return problems


def _metrics(trace: int, worker: dict, setup_times: list[float]) -> dict:
    if not trace:
        steps = worker["seed_steps"]
        batches = worker["batches"]
        values = {
            "seed_steps_per_calib": median(
                [steps / b["wall_s"] * b["calib_s"] for b in batches]),
            "cpu_calib_per_mstep": median(
                [b["cpu_s"] / b["calib_s"] / (steps / 1e6) for b in batches]),
            "setup_s": median(setup_times),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    else:
        traced = worker["traced"]
        values = {}
        for mod, fn in LAYERS:
            name = f"{mod}.{fn}"
            if name in _VALIDATE:
                continue
            values[f"{name}.self_s"] = median([b["layers"][name]["self_s"] for b in traced])
            values[f"{name}.calls"] = traced[-1]["layers"][name]["calls"]
        values["model.validate_s"] = median(
            [sum(b["layers"][n]["self_s"] for n in _VALIDATE) for b in traced])
        values["harness.output_bytes"] = traced[-1]["output_bytes"]
        values["trace.spans"] = traced[-1]["spans"]
        values["trace.overhead_ratio"] = (median([b["wall_s"] for b in traced])
                                          / median([b["wall_s"] for b in worker["batches"]]))
        units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _raw(worker: dict) -> dict:
    """Uncalibrated wall-clock figures, for the report and the record."""
    steps = worker["seed_steps"]
    batches = worker["batches"]
    raw = {"seed_steps_per_s": (median([steps / b["wall_s"] for b in batches]), "1/s"),
           "cpu_s_per_mstep": (median([b["cpu_s"] / (steps / 1e6) for b in batches]), "s")}
    if "calib_s" in batches[0]:
        raw["calib_s"] = (median([b["calib_s"] for b in batches]), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str,
                 reference_path: Path) -> dict:
    w = WORKLOADS[name]
    seeds, horizon = (w.seeds, w.horizon) if size == "full" else (w.tiny_seeds, w.tiny_horizon)
    run_dir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    results = WORK / "results"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        outputs = str(run_dir / "out") if w.writes_files else None
        ref_outputs = str(run_dir / "ref-out") if w.writes_files else None
        main_file = run_dir / "scenario.json"
        ref_file = run_dir / "reference-scenario.json"
        main_file.write_text(json.dumps(scenario(
            name, base=seed_base(seed), seeds=seeds, horizon=horizon, outputs=outputs)))
        ref_file.write_text(json.dumps(scenario(
            name, base=REFERENCE_BASE, seeds=w.reference_seeds, horizon=w.reference_horizon,
            outputs=ref_outputs)))
        stem = results / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
        job = {"kind": w.kind, "seconds": seconds, "trace": trace, "calibration": w.calibration,
               "scenario": str(main_file), "outputs": outputs,
               "reference_scenario": str(ref_file), "reference_outputs": ref_outputs,
               "spans": str(stem) + ".spans.npz"}
        (run_dir / "job.json").write_text(json.dumps(job))
        deadline = time.monotonic() + RUN_LIMIT_S
        worker = _run_child(["measure", str(run_dir / "job.json")], deadline)
        setup_times = ([] if trace else
                       [_run_child(["setup", w.kind, str(main_file)], deadline)["setup_s"]
                        for _ in range(SETUP_REPEATS)])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    recorded = json.loads(reference_path.read_text()).get(name)
    ref_problems = check_reference(worker["reference"], recorded)
    checks = worker["checks"] + [{"name": "reference", "ok": not ref_problems,
                                  "detail": "; ".join(ref_problems[:5])}]
    every = worker["batches"] + worker["traced"] + [worker["reference"]]
    attempted = sum(b["seeds"] for b in every)
    failed = sum(b["failed"] for b in every)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "seeds": seeds, "horizon": horizon,
        "provenance": provenance(worker),
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "metrics": _metrics(trace, worker, setup_times),
        "raw": _raw(worker),
        "checks": checks,
        "oracle": {"drift": worker["oracle"], "method": worker["oracle_method"]},
        "reference_observed": worker["reference"] | {"base": REFERENCE_BASE},
        "batch_wall_s": [b["wall_s"] for b in worker["batches"]],
        "batch_cpu_s": [b["cpu_s"] for b in worker["batches"]],
        "batch_calib_s": [b.get("calib_s") for b in worker["batches"]],
        "traced_wall_s": [b["wall_s"] for b in worker["traced"]],
        "setup_s": setup_times,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({record['seeds']} seeds x {record['horizon']} steps per batch, "
          f"{len(record['batch_wall_s'])} batches)")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in record["raw"].items():
        print(f"  raw {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_fraction = {record['failed_fraction']:.6g} 1")
    for c in record["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAIL'} {c['detail']}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny batches, for the benchmark's own tests")
    p.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                   help="recorded reference batch results")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if "CPS_SENTINEL_SEED" in os.environ:
        print("error: CPS_SENTINEL_SEED is set; it rebases every seed, so unset it",
              file=sys.stderr)
        return 2
    if not (SRC / "cps_sentinel" / "__init__.py").is_file():
        print(f"error: no cps_sentinel package under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, args.size,
                                args.reference) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        _report(r)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
