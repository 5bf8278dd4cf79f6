"""Work on the second CPU, in a forked child process: `solve_batch` solves half
of a large call there, and `train` each iteration's actor updates and eval,
beside what follows them.  At most min(2, CPUs) processes run: while a Child
is alive, neither it nor its parent forks another (`spare_cpu`).  From the
first fork on, numpy's OpenBLAS runs on one thread in both, so that neither
process's BLAS threads wait on a CPU the other holds; between children it
stays there, as a second BLAS thread gains nothing on this code's small
matrices.  A child dies with its parent, so a killed run leaves no solve,
update or eval computing.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import signal
from pathlib import Path

# Children of this process, or of its parent, not yet reaped.  Module state,
# because the CPUs it rations belong to the whole process, whichever module
# forks.
_alive = 0

# A Child's pipes hold this many bytes where the kernel allows (Linux caps
# F_SETPIPE_SZ at /proc/sys/fs/pipe-max-size, 1 MB by default): a feed of 64-wide
# critics, about 69 KB each, then runs up to 15 of them ahead of its reader,
# where the default 64 KB would hold the writer to one.
PIPE_BYTES = 1 << 20


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


def _widen(fd: int):
    """fd's pipe at PIPE_BYTES where the kernel allows it, else as it is."""
    import fcntl
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):
        pass


def _read_into(fd: int, buffer):
    """Fill buffer with the next bytes from fd; EOFError if it closes first."""
    view = memoryview(buffer).cast("B")
    while view:
        n = os.readv(fd, [view])
        if n == 0:
            raise EOFError("the parent closed the feed")
        view = view[n:]


def _messages(fn, args):
    """What a child sends: each value fn yields, where it is a generator, then
    its value, or the exception it raised."""
    try:
        out = fn(*args)
        if inspect.isgenerator(out):
            out = yield from out
    except BaseException as exc:  # noqa: BLE001 - sent to the parent
        out = exc
    yield out


class Child:
    """fn() in a forked child process, beside what this process does next.

    Child to parent: fn's value, or the exception it raised, crosses as one
    pickle through a pipe; a generator fn first sends each value it yields,
    one pickle each.  recv() returns the next value, join() the last, and
    either raises in its place an exception the child sent; a child that
    exits with a non-zero status or sends nothing more raises RuntimeError.
    Parent to child, with feed=True: send(buffer) writes the buffer's bytes,
    and fn is called as fn(read_into), where read_into(buffer) fills a
    writable buffer with the next of them.  Both pipes hold PIPE_BYTES where
    the kernel allows.  A send() to a child that has ended raises what the
    child sent, not BrokenPipeError.

    kill() ends a child not yet joined at once, as leaving a `with` block
    does, so a parent that raises first does not wait for its child.  join(),
    kill() and a recv() that raises reap the child, once.
    """

    def __init__(self, fn, feed: bool = False):
        global _alive
        r, w = os.pipe()
        feed_r, self._feed = os.pipe() if feed else (None, None)
        fds = [fd for fd in (r, w, feed_r, self._feed) if fd is not None]
        for fd in (w, self._feed):
            if fd is not None:
                _widen(fd)
        _one_blas_thread()
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        _alive += 1
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                args = ()
                if feed:
                    os.close(self._feed)
                    args = (functools.partial(_read_into, feed_r),)
                _die_with(parent)
                with open(w, "wb") as pipe:
                    for out in _messages(fn, args):
                        pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                status = 0
            finally:
                # no atexit handlers, no flush of inherited buffers, no return
                # into the caller's stack
                os._exit(status)
        os.close(w)
        if feed:
            os.close(feed_r)
        self._pipe = open(r, "rb")

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc_info):
        self.kill()

    def _reap(self) -> int:
        global _alive
        self._pipe.close()
        if self._feed is not None:
            os.close(self._feed)
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        _alive -= 1
        return os.waitstatus_to_exitcode(status)

    def send(self, buffer):
        view = memoryview(buffer).cast("B")
        try:
            while view:
                view = view[os.write(self._feed, view):]
            return
        except BrokenPipeError:
            pass
        self.join()         # the child has ended: raise what it sent
        raise BrokenPipeError("a child process ended before reading its feed")

    def recv(self):
        try:
            out = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            status = self._reap()
            raise RuntimeError(f"a child process exited with status {status} "
                               "and sent no result") from None
        except BaseException:
            self.kill()
            raise
        if isinstance(out, BaseException):
            self._reap()
            raise out
        return out

    def join(self):
        out = self.recv()
        status = self._reap()
        if status:
            raise RuntimeError(f"a child process exited with status {status}")
        return out

    def kill(self):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
