"""Work on the second CPU, in a forked child process: `solve_batch` solves half
of a large call there, and `train` each iteration's eval, beside what follows
it.  At most min(2, CPUs) processes run: while a Child is alive, neither it nor
its parent forks another (`spare_cpu`).  From the first fork on, numpy's
OpenBLAS runs on one thread in both, so that neither process's BLAS threads
wait on a CPU the other holds; between children it stays there, as a second
BLAS thread gains nothing on this code's small matrices.  A child dies with
its parent, so a killed run leaves no solve or eval computing.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
from pathlib import Path

# Children of this process, or of its parent, not yet reaped.  Module state,
# because the CPUs it rations belong to the whole process, whichever module
# forks.
_alive = 0


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    carry, or None where numpy links another BLAS."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _one_blas_thread():
    """As a Child forks: numpy's OpenBLAS on one thread, here and, inherited,
    in the child, and left so once the child is reaped."""
    blas = _openblas()
    if blas and blas[0]() > 1:
        blas[1](1)


def _die_with(parent: int):
    """In a child: SIGKILL once the parent dies (prctl's PR_SET_PDEATHSIG,
    where libc has it), and exit now if the parent died before that."""
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)    # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def spare_cpu() -> bool:
    """Whether to fork a Child: os.sched_getaffinity (missing on macOS and
    Windows) gives two or more CPUs, and no Child is alive on either side."""
    return (_alive == 0 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class Child:
    """fn() in a forked child process, beside what this process does next.

    The child sends fn's value, or the exception it raised, as one pickle
    through a pipe.  join() waits for it and returns the value or raises the
    exception; a child that exits with a non-zero status or sends nothing
    raises RuntimeError.  kill() ends a child not yet joined at once, as
    leaving a `with` block does, so a parent that raises first does not wait
    for its child.  Either reaps the child, once.
    """

    def __init__(self, fn):
        global _alive
        r, w = os.pipe()
        _one_blas_thread()
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        _alive += 1
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                _die_with(parent)
                try:
                    out = fn()
                except BaseException as exc:  # noqa: BLE001 - sent to the parent
                    out = exc
                with open(w, "wb") as pipe:
                    pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                # no atexit handlers, no flush of inherited buffers, no return
                # into the caller's stack
                os._exit(status)
        os.close(w)
        self._pipe = open(r, "rb")

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc_info):
        self.kill()

    def _reap(self) -> int:
        global _alive
        self._pipe.close()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        _alive -= 1
        return os.waitstatus_to_exitcode(status)

    def join(self):
        try:
            payload = self._pipe.read()
        except BaseException:
            self.kill()
            raise
        status = self._reap()
        if status or not payload:
            raise RuntimeError(f"a child process exited with status {status}"
                               f"{'' if payload else ' and sent no result'}")
        out = pickle.loads(payload)
        if isinstance(out, BaseException):
            raise out
        return out

    def kill(self):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
