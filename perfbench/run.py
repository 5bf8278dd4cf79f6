"""The trajrl benchmark: one workload per invocation, run from the root of a
source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload call runs in a fresh single process (perfbench/worker.py) with
the BLAS thread count pinned to one.  With --trace 0 the calls are repeated
for about S seconds and the end-to-end metrics are reported as medians; with
--trace 1 traced and untraced calls alternate and the per-layer metrics of
the traced calls are reported.  Outputs are checked on every run, outside the
timed region; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Exit codes: 0 with a result line, 1 when a worker fails or runs out of time,
2 when the checkout holds no trajrl source tree.

`--write-reference` instead re-records the workload's committed fixed-seed
reference (`perfbench/reference.json`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from worker import REFERENCE_SEED, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 7        # set-up timings per run, for the setup_s median
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """sha256 over src/ (the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def settings(args, calls: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: "1" for k in BLAS_ENV},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "calls": calls, "source_sha256": source_digest()}


class Runner:
    """Spawns worker processes for one workload within the time limit."""

    def __init__(self, workload: str, tiny: bool):
        self.workload, self.tiny = workload, tiny
        self.t_begin = time.monotonic()
        self.env = child_env()
        self.setup_s: list[float] = []

    def call(self, seed: int, trace=False, setup_only=False,
             spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(seed)]
        cmd += ["--tiny"] * self.tiny + ["--trace"] * trace
        cmd += ["--setup-only"] * setup_only
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = TIME_LIMIT_S - (time.monotonic() - self.t_begin)
        if remaining <= 1.0:
            raise BenchError("out of time")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker timed out after {remaining:.0f} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise BenchError(f"worker exited {proc.returncode}: "
                             + " | ".join(tail))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            self.setup_s.append(out["ready"] - t_spawn)
        return out

    def fill_setup_samples(self, seed: int):
        while len(self.setup_s) < SETUP_SAMPLES:
            self.call(seed, setup_only=True)


def reference_key(workload: str, tiny: bool) -> str:
    return workload + ("/tiny" if tiny else "")


def load_reference(workload: str, tiny: bool) -> dict:
    data = json.loads(REFERENCE_FILE.read_text())
    if data["seed"] != REFERENCE_SEED:
        raise BenchError("reference.json was recorded at another seed")
    return data["workloads"][reference_key(workload, tiny)]


def compare(got, want, path="") -> list[str]:
    """Exact comparison of two JSON-like values; returns the mismatches."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


class Checker:
    """Collects the correctness verdict of every call of a run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summaries: dict[int, dict] = {}

    def check(self, seed: int, out: dict):
        self.attempted += 1
        errs = list(out["errors"])
        errs += compare(out["summary"]["reference"], self.reference, "reference")
        first = self.summaries.setdefault(seed, out["summary"])
        errs += compare(out["summary"], first, f"seed {seed} repeat")
        if errs:
            self.failed += 1
            self.problems.extend(errs)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def measure(args, runner: Runner, checker: Checker) -> dict:
    """Timed calls for about args.seconds; returns the metrics."""
    walls, rss, traced = [], [], []
    spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    deadline = time.monotonic() + args.seconds
    while True:
        t0 = time.monotonic()
        trace = bool(args.trace) and len(traced) < len(walls)
        out = runner.call(args.seed, trace=trace, spans=spans if trace else None)
        checker.check(args.seed, out)
        if trace:
            traced.append(out)
        else:
            walls.append(out["wall_s"])
            rss.append(out["peak_rss_mb"])
        took = time.monotonic() - t0
        if (traced or not args.trace) and time.monotonic() + took > deadline:
            break

    if args.trace:
        rows = [{**o["layers"], **o["outcome"]} for o in traced]
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(o["wall_s"] for o in traced)
            / statistics.median(walls) - 1.0)
        return metrics
    runner.fill_setup_samples(args.seed)
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(runner.setup_s),
            "peak_rss_mb": statistics.median(rss)}


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def write_reference(args) -> int:
    runner = Runner(args.workload, args.tiny)
    out = runner.call(REFERENCE_SEED)
    if out["errors"]:
        raise BenchError("; ".join(out["errors"]))
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() \
        else {"seed": REFERENCE_SEED, "workloads": {}}
    data["workloads"][reference_key(args.workload, args.tiny)] = \
        out["summary"]["reference"]
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {reference_key(args.workload, args.tiny)} at seed "
          f"{REFERENCE_SEED}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trajrl" / "__init__.py").is_file():
        print(f"no trajrl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(args)
        runner = Runner(args.workload, args.tiny)
        checker = Checker(load_reference(args.workload, args.tiny))
        metrics = measure(args, runner, checker)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for msg in checker.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"settings": settings(args, checker.attempted)}))
    unit = units()
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
