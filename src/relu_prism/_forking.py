"""One forked child beside the calling process: the sweep's later seeds,
`verify`'s stored clusters and the later half of a large float text.

The trainer imports `data`, so the fork lives here, where `data` and
`explain` can import it too.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress

from .errors import ChildLostError

# A float text of more floats than this gives its later half to a forked
# child. In the `regions` process (about 100 MB) the fork, the child's start
# and the half sent back cost about 8 ms: forked, a text of 16k floats took
# longer than in one process, one of 32k about as long, and one of 65k 7-18%
# less (lower quartiles of 80 interleaved samples, one BLAS thread). The
# bound is twice that break-even and above the CLI's largest report (about
# 3,600 clusters, 32k floats), so `simulate`, `titanic` and `verify` fork
# nothing for their texts.
_SPLIT_FLOATS = 65_536


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _fork(work):
    """``work()`` in a forked child, beside the block this manager runs.

    Yields None, having forked nothing, where ``os.fork`` does not exist or
    fails, the process may run on one CPU only, or it has more than one
    thread: the caller then does the work itself. Otherwise it yields
    ``join``, which waits for the child and returns what ``work()`` returned
    or raises what it raised, and raises ChildLostError if the child ended
    without sending either. A child not joined when the block ends, on an
    early return or an exception, is killed, not waited for, and reaped.
    """
    if not (hasattr(os, "fork") and _cpus() > 1 and threading.active_count() == 1):
        yield None
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        # The child leaves through os._exit on every path, so it runs no
        # atexit handler and flushes no stdout buffer it inherited. It exits
        # 0 only once its whole result, or its exception, is sent.
        code = 1
        try:
            os.close(read_end)
            try:
                result = work()
            except BaseException as exc:
                result = exc
            with open(write_end, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    status = None

    def join():
        nonlocal status
        # The result is unpickled as it arrives, so its pickled bytes and
        # the result are never held whole together.
        with open(read_end, "rb", closefd=False) as pipe:
            try:
                result = pickle.load(pipe)
            except Exception as exc:
                # A short stream, or one this process cannot load: the rest
                # is read, so that a child still writing can end.
                pipe.read()
                result = exc
        status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise ChildLostError(
                f"the forked child {pid} ended without its result (wait status {status})"
            )
        if isinstance(result, BaseException):
            raise result
        return result

    try:
        os.close(write_end)
        yield join
    finally:
        os.close(read_end)
        if status is None:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _joined_text(head: str, pieces, stop: int, cut: int, floats: int) -> str:
    """``head`` and the strings of ``pieces(0, stop)``, joined once.

    ``pieces(start, stop)`` yields the text of items ``start`` to
    ``stop - 1``. A text of more than ``_SPLIT_FLOATS`` floats is made in
    two halves: this process makes ``pieces(0, cut)`` while one child,
    forked through `_fork`, makes ``pieces(cut, stop)`` and sends it back as
    a list of strings. Where `_fork` forks nothing, or the text is smaller,
    it is made in this process; the bytes are the same either way.
    """
    if floats > _SPLIT_FLOATS and 0 < cut < stop:
        with _fork(lambda: list(pieces(cut, stop))) as join:
            if join is not None:
                parts = [head, *pieces(0, cut)]
                parts += join()
                return "".join(parts)
    return "".join([head, *pieces(0, stop)])
