"""Run independent groups of work in forked children, one group per usable CPU.

Two kinds of work run here: a command's model fits
(``scoreline.cli.run_fits``), and the byte ranges of a large stats file
(``scoreline.ingest``). The work is cut into contiguous groups, this
process runs the first and a forked child each other. A forked child
starts as a copy of this process, so it needs no pickled inputs and no
fresh import; only its result comes back, pickled, down its own pipe.
Forking a process that runs other threads is unsafe, so work runs in this
process alone where another Python thread is alive, or where the platform
has no ``os.fork``. A child's memory is not counted in this process's
peak RSS.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import warnings

from .base import RegressError


class WorkerDied(RegressError):
    """A forked worker ended without sending its result."""


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def split(n_items: int) -> list[slice]:
    """``n_items`` as contiguous groups whose sizes differ by at most one:
    one group per usable CPU but never more than ``n_items``, and a single
    group where this process cannot fork safely or there are no items (an
    empty one)."""
    groups = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        groups = max(1, min(n_items, usable_cpus()))
    bounds = [n_items * g // groups for g in range(groups + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_groups(work, groups: list) -> list:
    """``[work(group) for group in groups]``, with group 0 run here and each
    other group in a forked child, all at once.

    A child's warnings are re-issued here, group by group, and an exception
    it raised is raised here as itself; a child that ends without a result
    raises :class:`WorkerDied`. Every child is reaped before this returns
    or raises, and on an exception here (an interrupt included) the
    children still running are killed first.
    """
    children = []  # (pid, read end of its pipe), in group order
    try:
        for group in groups[1:]:
            children.append(_fork(work, group))
        results = [work(groups[0])]
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(read_fd)
            results.append(_outcome(pid, os.waitstatus_to_exitcode(status), message))
        return results
    finally:
        for pid, read_fd in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read_fd)


def _fork(work, group) -> tuple[int, int]:
    """Start a child that sends ``work(group)``, or the exception it raised,
    and the warnings it issued, down a new pipe; returns (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the child: it writes only to its pipe and leaves by os._exit, so no
    # exit hook, buffered stream or caller's code of this process runs here
    status = 1
    try:
        os.close(read_fd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = (True, work(group))
            except Exception as exc:  # sent to the parent, which raises it
                outcome = (False, exc)
        message = pickle.dumps(
            (outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
        status = 0
    finally:
        os._exit(status)


def _outcome(pid: int, code: int, message: bytes):
    """A reaped child's result: its warnings re-issued, its exception raised."""
    if code or not message:
        ended = (f"was killed by signal {signal.Signals(-code).name}" if code < 0
                 else f"exited with status {code}")
        raise WorkerDied(f"worker process {pid} {ended} before sending its result")
    (ok, value), caught = pickle.loads(message)
    for warning, category, filename, lineno in caught:
        warnings.warn_explicit(warning, category, filename, lineno)
    if not ok:
        raise value
    return value
