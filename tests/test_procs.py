import os

from trajrl import procs


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
