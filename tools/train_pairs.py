"""Alternating `trajrl train` pairs of two source trees: same bits, which is faster.

    python3 tools/train_pairs.py PARENT CHANGE CONFIG --pairs N --seed S [--pin-blas]

PARENT and CHANGE are checkouts; each run imports `trajrl` from its `src/`
(PYTHONPATH=<checkout>/src).  Pair i trains CONFIG at seed S + i once from
each checkout, the parent first in even pairs and the change first in odd
ones, each into a fresh output directory.  Without --pin-blas the runs see
BLAS's default thread counts (the BLAS_ENV variables are unset); with it,
each is set to 1.

For each seed, the two runs' network checkpoints must match byte for byte,
and their reports.csv outside its `*_s` (phase time) columns.  Exit 1 on the
first difference.  Otherwise print each side's median and interquartile range
of timings.json's total_s and of cpu_s, and in how many pairs the change's was
lower on each.  cpu_s is the user and system CPU time of the run and of the
child processes it reaped (getrusage's RUSAGE_CHILDREN around the run), so it
counts a forked eval or half-solve that total_s overlaps.  Exit 2 on usage
errors and on a run that fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NETWORKS = ("actor.json", "critic.json", "std_critic.json")
METRICS = ("total_s", "cpu_s")


def _cpu_s() -> float:
    """User and system CPU seconds of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _train(checkout: Path, config: Path, seed: int, out: Path,
           pin_blas: bool) -> dict[str, float]:
    """total_s and cpu_s of one `trajrl train` run from checkout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = str(checkout / "src")
    if pin_blas:
        env.update(dict.fromkeys(BLAS_ENV, "1"))
    cpu0 = _cpu_s()
    run = subprocess.run(
        [sys.executable, "-m", "trajrl.cli", "train", str(config),
         "--seed", str(seed), "--out", str(out)],
        env=env, capture_output=True, text=True)
    cpu_s = _cpu_s() - cpu0
    if run.returncode:
        raise RuntimeError(f"train from {checkout} at seed {seed} exited "
                           f"{run.returncode}: {run.stderr.strip()}")
    return {"total_s": json.loads((out / "timings.json").read_text())["total_s"],
            "cpu_s": cpu_s}


def _reports(out: Path) -> list[dict]:
    """reports.csv without its phase-time columns."""
    with open(out / "reports.csv", newline="") as fh:
        return [{k: v for k, v in row.items() if not k.endswith("_s")}
                for row in csv.DictReader(fh)]


def _differences(a: Path, b: Path) -> list[str]:
    diffs = [name for name in NETWORKS
             if (a / name).read_bytes() != (b / name).read_bytes()]
    if _reports(a) != _reports(b):
        diffs.append("reports.csv")
    return diffs


def _spread(times: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {statistics.median(times):.3f} s, IQR {q3 - q1:.3f} s"


def _pair(times: dict[str, float]) -> str:
    return f"{times['total_s']:.3f} s (cpu {times['cpu_s']:.3f} s)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("config", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pin-blas", action="store_true")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="train_pairs_") as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            outs = {side: Path(tmp) / f"{seed}-{side}" for side in order}
            try:
                for side in order:
                    times[side].append(_train(sides[side], args.config.resolve(),
                                              seed, outs[side], args.pin_blas))
            except RuntimeError as err:
                print(err, file=sys.stderr)
                return 2
            print(f"seed {seed}: parent {_pair(times['parent'][-1])}, "
                  f"change {_pair(times['change'][-1])}", flush=True)
            diffs = _differences(outs["parent"], outs["change"])
            if diffs:
                print(f"seed {seed}: {', '.join(diffs)} differ")
                return 1
    for side in sides:
        print(f"{side}: " + "; ".join(
            f"{m} {_spread([t[m] for t in times[side]])}" for m in METRICS))
    wins = [sum(c[m] < p[m] for p, c in zip(times["parent"], times["change"]))
            for m in METRICS]
    print(f"change lower in {wins[0]} of {args.pairs} pairs on total_s, "
          f"{wins[1]} on cpu_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
