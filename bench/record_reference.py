"""Rewrite ``reference.json`` from the program as it is now.

    PYTHONPATH=src python3 bench/record_reference.py

Run it only when a change is meant to alter the per-seed results (a new
statistic or a new seed-to-draw mapping), and say so where the change is
described; last-bit drift from reordered arithmetic passes the existing
reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker
from workloads import REFERENCE_BASE, WORKLOADS, scenario

BENCH = Path(__file__).resolve().parent


def record(name: str, tmp: Path) -> dict:
    w = WORKLOADS[name]
    outputs = tmp / name if w.writes_files else None
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(scenario(name, base=REFERENCE_BASE, seeds=w.reference_seeds,
                                        horizon=w.reference_horizon,
                                        outputs=str(outputs) if outputs else None)))
    s = worker.load(w.kind, path)
    _, _, result, error = worker.run_batch(w.kind, s)
    got = worker.outcome(w.kind, s, result, error, outputs)
    if got["failed"] or got["file_problems"]:
        raise SystemExit(f"{name}: reference batch failed: {got['errors'] or got['file_problems']}")
    return {"base": REFERENCE_BASE, "seeds": w.reference_seeds, "horizon": w.reference_horizon,
            "mean_drift": got["mean_drift"], "detection_fraction": got["detection_fraction"],
            "per_seed": got["per_seed"]}


def main() -> int:
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        data = {name: record(name, tmp) for name in sorted(WORKLOADS)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
