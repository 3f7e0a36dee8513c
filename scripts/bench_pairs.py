"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 scripts/bench_pairs.py --parent REV --first-seed 41 --out BENCH_11.json \
        --what "one batch writer for the detection CSVs"

Exports the parent revision (required: the commit the change is measured
against, which is ``HEAD`` only while the change is uncommitted) twice with
``git archive`` into a temporary directory, and the change the same way:
the working tree is written into a git tree object through a temporary
index (its tracked and untracked files less the ignored ones, as
``git add -A`` sees them; the repository's own index is untouched), and
that tree is exported twice. It then runs
``python3 bench/run.py --workload all --seed S --seconds 30 --trace 0``
once for each side (parent and change) for each of ten seeds
(``--first-seed``, ``--first-seed + 1``, ...), alternating which side runs
first. Each side has its two exports, taken in turn so that no run uses
the tree of the run just before it (:func:`run_order`): runs that followed
one in their own tree read lower on the file workloads (``BENCH_19.json``),
whose output files that run had just written. Both sides run from the same
kind of tree: in ``BENCH_26.json`` the same source read 111.4k seed steps
per calibration unit on ``mdp-detect-files`` from the working tree and
90.9k from a copy of it. Both sides run the same benchmark code and
settings: the change's ``bench/`` and the parent's must agree, or the
script stops before running anything. The output JSON holds every run's
per-workload record (metrics, checks, provenance) and, per workload and
end-to-end metric, each side's median and quartiles, the ratio of the
medians, the pairs the change won (ties count for neither), whether the
medians differ by more than the parent's interquartile range, whether
that shows a gain (``gain_shown``), how much going second in a pair moves
each side (``second_over_first``), and the no-regression verdict
against the metric's bound in ``BENCHMARK.json`` (``within_bound``,
``unresolved``; see :func:`summarize`). The temporary trees are removed
at the end, and every benchmark process has ended when the script
returns.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per record
SECONDS = 30  # bench/run.py --seconds of every run


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def export(tree: str, dest: Path) -> None:
    """Extract the commit or tree ``tree`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", tree))) as tar:
        tar.extractall(dest, filter="data")


def working_tree() -> str:
    """The working tree written as a git tree object, through a temporary index; its hash."""
    with tempfile.TemporaryDirectory() as tmp:
        env = os.environ | {"GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def _bench_files(tree: Path) -> dict:
    """The benchmark's code and data in ``tree``: path -> bytes."""
    files = {p.relative_to(tree): p.read_bytes() for p in (tree / "bench").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts}
    return files | {Path("BENCHMARK.json"): (tree / "BENCHMARK.json").read_bytes()}


def run_order(pairs: int) -> list[list[tuple[str, int]]]:
    """Each pair's two runs in order, as (side, which of the side's two trees).

    Pairs alternate which side runs first, the parent first in pair 0. A
    side's runs meet across a pair boundary (second in one pair, first in
    the next), and there it changes tree; its runs take tree 0 and tree 1
    alike as often first as second in their pair, so the tree does not
    stand in for the order. Runs of different sides never share a tree.
    """
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        tree = {"parent": i // 2 % 2, "change": (i + 1) // 2 % 2}
        order.append([(side, tree[side]) for side in sides])
    return order


def run_side(tree: Path, seed: int) -> list[dict]:
    """One ``bench/run.py --workload all`` run in ``tree``: its per-workload records."""
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: ran, but a correctness check failed
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    names = sorted(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    workloads = sorted({name.rsplit(".", 1)[0] for name in names})
    records = []
    for workload in workloads:
        # the newest record of this workload and seed is the one just written
        paths = (tree / ".bench_work" / "results").glob(f"{workload}-seed{seed}-trace0-*.json")
        record = json.loads(max(paths, key=lambda p: p.stat().st_mtime).read_text())
        records.append({key: record[key] for key in (
            "workload", "seed", "seconds", "seeds", "horizon", "correct", "attempted", "failed",
            "failed_fraction", "metrics", "raw", "oracle", "provenance", "checks")}
            | {"batches": len(record["batch_wall_s"])})
    return records


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def _second_over_first(pairs: list[dict], side: str, values: list[float]) -> float | None:
    """Median of ``side``'s values from pairs it ran second in over those it ran first in."""
    first = [v for pair, v in zip(pairs, values) if pair["first"] == side]
    second = [v for pair, v in zip(pairs, values) if pair["first"] != side]
    if not first or not second:
        return None
    return median(second) / median(first)


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the wins and the verdict.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each with its
    ``name``, ``better`` direction and relative ``bound``. ``gain_shown``:
    the change won at least 9 in 10 of the pairs, and its median is better
    than the parent's by more than the parent's interquartile range, both
    in the metric's ``better`` direction. ``within_bound``:
    the change's median is worse than the parent's by no more than the
    bound times the parent's median. ``unresolved``: the parent's
    interquartile spread is wider than that same bound, so a regression of
    the bound's size could hide in it, unless every change run is better
    than every parent run. ``second_over_first``: per side, the median of
    its runs that went second in their pair over the median of those that
    went first, which shows how much the order of a pair moves the metric.
    """
    summary: dict[str, dict] = {}
    for k, parent_rec in enumerate(pairs[0]["parent"]):
        workload = parent_rec["workload"]
        summary[workload] = {}
        for metric in end_to_end:
            name, direction, bound = metric["name"], metric["better"], metric["bound"]
            sides = {side: [pair[side][k]["metrics"][name]["value"] for pair in pairs]
                     for side in ("parent", "change")}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            parent, change = _stats(sides["parent"]), _stats(sides["change"])
            worse_by = sign * (parent["median"] - change["median"])
            parent_iqr = parent["q3"] - parent["q1"]
            beats_every = (min(sign * c for c in sides["change"])
                           > max(sign * p for p in sides["parent"]))
            order = {side: _second_over_first(pairs, side, sides[side])
                     for side in ("parent", "change")}
            summary[workload][name] = {
                "better": direction, "parent": parent, "change": change,
                "second_over_first": order,
                "ratio_change_over_parent": change["median"] / parent["median"],
                "change_wins": f"{wins}/{len(pairs)}",
                "median_gap_over_parent_iqr": abs(worse_by) > parent_iqr,
                "gain_shown": 10 * wins >= 9 * len(pairs) and -worse_by > parent_iqr,
                "bound": bound,
                "within_bound": worse_by <= bound * abs(parent["median"]),
                "unresolved": parent_iqr > bound * abs(parent["median"]) and not beats_every,
            }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--what", required=True, help="one line: the change being measured")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    change = working_tree()
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: [tmp / f"{side}-0", tmp / f"{side}-1"] for side in ("parent", "change")}
        for side, rev in (("parent", commit), ("change", change)):
            for tree in trees[side]:
                export(rev, tree)
        if _bench_files(trees["parent"][0]) != _bench_files(trees["change"][0]):
            print("error: bench/ or BENCHMARK.json differs between the parent and the "
                  "working tree", file=sys.stderr)
            return 2
        pairs = []
        for i, runs in enumerate(run_order(PAIRS)):
            seed = args.first_seed + i
            pair = {"seed": seed, "first": runs[0][0], "trees": dict(runs)}
            for side, tree in runs:
                pair[side] = run_side(trees[side][tree], seed)
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{r['workload']} {r['metrics']['seed_steps_per_calib']['value']:.5g}"
                    for r in pair[side]), file=sys.stderr)
            pairs.append(pair)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    host = {k: v for k, v in pairs[0]["change"][0]["provenance"].items()
            if k not in ("git_commit", "source_sha256")}
    result = {
        "what": args.what,
        "command": f"python3 bench/run.py --workload all --seed S --seconds {SECONDS} "
                   "--trace 0",
        "produced_by": shlex.join(["python3", "scripts/bench_pairs.py", "--parent", commit,
                                   "--first-seed", str(args.first_seed), "--out",
                                   str(args.out), "--what", args.what]),
        "pairs": [{"seed": pair["seed"], "first": pair["first"], "trees": pair["trees"],
                   "correct": all(r["correct"] for side in ("parent", "change")
                                  for r in pair[side])} for pair in pairs],
        "parent": {"git_commit": commit,
                   "source_sha256": pairs[0]["parent"][0]["provenance"]["source_sha256"],
                   "note": "run from two `git archive` exports of this commit (trees 0 "
                           "and 1), so its records carry git_commit null"},
        "change": {"parent_commit": commit, "git_tree": change,
                   "source_sha256": pairs[0]["change"][0]["provenance"]["source_sha256"],
                   "note": "run from two `git archive` exports (trees 0 and 1) of the "
                           "working tree written as this git tree through a temporary "
                           "index, so its records carry git_commit null; source_sha256 is "
                           "bench/run.py's hash of src/cps_sentinel/*.py"},
        "host": host | {"note": "runs alternate which side goes first, and no run uses "
                                "the tree of the run before it"},
        "summary": summarize(pairs, end_to_end),
        "records": [r | {"side": side} for pair in pairs for side in ("parent", "change")
                    for r in pair[side]],
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(pair["correct"] for pair in result["pairs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
