import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trajrl import procs

SRC = Path(__file__).resolve().parents[1] / "src"


class _FakeBlas:
    """A BLAS thread count that procs.Child may read and set."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, n):
        self.calls.append(n)
        self.threads = n


def test_blas_runs_one_thread_while_a_child_is_alive(monkeypatch):
    # both sides run one BLAS thread while the child lives, and this process
    # keeps one once the child is reaped, joined or killed
    blas = _FakeBlas(4)
    monkeypatch.setattr(procs, "_openblas", lambda: (blas.get, blas.set))
    child = procs.Child(blas.get)
    assert blas.threads == 1
    assert child.join() == 1
    assert blas.threads == 1
    with procs.Child(blas.get):
        assert blas.threads == 1 and procs._alive == 1
    assert blas.threads == 1 and procs._alive == 0
    assert blas.calls == [1]


def test_single_threaded_blas_is_left_alone(monkeypatch):
    blas = _FakeBlas(1)
    monkeypatch.setattr(procs, "_openblas", lambda: (blas.get, blas.set))
    assert procs.Child(blas.get).join() == 1
    assert blas.calls == []


def test_numpys_openblas_runs_one_thread_in_a_child():
    # numpy's own OpenBLAS, where its wheel carries one: one thread in the
    # child, and in this process after the join
    blas = procs._openblas()
    if blas is None:
        assert procs.Child(lambda: os.getpid()).join() != os.getpid()
        return
    assert procs.Child(blas[0]).join() == 1
    assert blas[0]() == 1


def _proc_state(pid):
    """The state letter of /proc/<pid>/stat, or None once pid is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_child_dies_with_its_killed_parent():
    # a parent killed while its Child sleeps takes the child with it; the
    # child prints its pid once it runs fn, after it has armed that
    script = ("import os, time\n"
              "from trajrl import procs\n"
              "procs.Child(lambda: print(os.getpid(), flush=True) or time.sleep(60))\n"
              "time.sleep(60)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, text=True) as parent:
        try:
            child = int(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait()
    deadline = time.monotonic() + 5.0
    while _proc_state(child) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.05)
    outlived = _proc_state(child) not in (None, "Z")
    if outlived:
        os.kill(child, signal.SIGKILL)
    assert not outlived, f"child {child} outlived its parent"
