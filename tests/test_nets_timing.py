"""`tools/nets_timing.py` on a tiny toy1d config: one JSON line of timings."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# fixed iteration caps, so no calibration solves run
TINY_TOY1D = """\
[model]
name = toy1d
t_max = 10

[solver]
reg_eps = 0.1
max_iter_first = 5
max_iter_later = 5

[nets]
hidden = 8, 8

[trainer]
n_episodes = 4
k_lookahead = 3
minibatch = 8
"""

KERNELS = {"critic_loss", "actor_loss", "std_critic_loss", "adam_step", "polyak",
           "mlp_forward"}


def test_nets_timing_prints_each_kernels_time(tmp_path):
    config = tmp_path / "toy1d.ini"
    config.write_text(TINY_TOY1D)
    run = subprocess.run([sys.executable, str(REPO / "tools" / "nets_timing.py"),
                          str(config), "--reps", "2"],
                         env={**os.environ, "PYTHONPATH": ""},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["minibatch"] == 8 and out["reps"] == 2 and out["buffer_rows"] > 0
    assert set(out["us_per_call"]) == KERNELS
    assert all(us > 0.0 for us in out["us_per_call"].values())
