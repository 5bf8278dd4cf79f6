"""`tools/train_pairs.py` on this repository against itself, and its bit check."""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "train_pairs.py"
_spec = importlib.util.spec_from_file_location("train_pairs", TOOL)
train_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_pairs)

# fixed iteration caps, so no calibration solves run
TINY_TOY1D = """\
[model]
name = toy1d
t_max = 10

[solver]
reg_eps = 0.1
max_iter_first = 5
max_iter_later = 5
eval_max_iter = 5

[nets]
hidden = 8

[trainer]
n_episodes = 4
candidate_multiplier = 2
m_updates = 2
k_lookahead = 3
minibatch = 8
iterations = 2
eval_count = 2
"""


def test_pairs_of_one_tree_keep_the_bits(tmp_path, capsys):
    config = tmp_path / "toy1d.ini"
    config.write_text(TINY_TOY1D)
    args = [str(REPO), str(REPO), str(config), "--pairs", "2", "--seed", "3"]
    assert train_pairs.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    run = r"([\d.]+) s \(cpu ([\d.]+) s\)"
    spread = r"median [\d.]+ s, IQR [\d.]+ s"
    assert len(out) == 5
    for seed, line in zip((3, 4), out):
        times = re.fullmatch(f"seed {seed}: parent {run}, change {run}", line)
        assert times and all(float(t) > 0.0 for t in times.groups())
    for side, line in zip(("parent", "change"), out[2:4]):
        assert re.fullmatch(f"{side}: total_s {spread}; cpu_s {spread}", line)
    assert re.fullmatch(r"change lower in [0-2] of 2 pairs on total_s, [0-2] on cpu_s",
                        out[-1])


def test_differences_skip_phase_times_only(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        for name in train_pairs.NETWORKS:
            (out / name).write_text('{"weights": [[0.5]]}')
    (a / "reports.csv").write_text("iteration,eval_mean_cost,t_to_s\n1,2.5,0.1\n")
    (b / "reports.csv").write_text("iteration,eval_mean_cost,t_to_s\n1,2.5,0.3\n")
    assert train_pairs._differences(a, b) == []
    (b / "critic.json").write_text('{"weights": [[0.25]]}')
    (b / "reports.csv").write_text("iteration,eval_mean_cost,t_to_s\n1,2.6,0.1\n")
    assert train_pairs._differences(a, b) == ["critic.json", "reports.csv"]
