"""Independent work fanned out over the CPUs this process may use.

``run(units, work, weights)`` splits an ordered list of independent units
into contiguous shares of about equal weight, at most one per CPU and one
per unit. Each share but the first runs in a worker process forked from
the caller, which sends its result back, pickled, through a pipe of its
own; the caller runs the first share meanwhile. Results come back in input
order: the lists ``work`` returns for the shares, joined. Each share stops
at its first fault, and a share's fault is raised only once every share
before it has succeeded, so the fault raised is the first in input order.

Workers are forked, not spawned: they inherit the caller's memory copy
on write, so whatever it has set up before the call (a trie, a model)
they use without building it again. The package starts no thread.
A worker never forks again, and leaves through ``os._exit``, so it
flushes no inherited stdio and runs no exit handlers. The caller always
reaps its workers: on its own fault, on an interrupt, and when a worker
exits without a result, it kills and waits for every worker it has not
reaped. Where ``os.fork`` is missing, there is one share: the same loop
with no worker. Where a fork fails (no process or memory to spare), the
caller runs the shares not yet forked itself, after the workers' ones.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import warnings
from bisect import bisect_left
from collections.abc import Callable, Sequence
from itertools import accumulate

# (resident set at the fork, peak resident set) of each worker of the last
# ``run`` that succeeded, both ``ru_maxrss`` (KiB on Linux), in share
# order; empty when it forked none.
worker_peaks: list[tuple[int, int]] = []

_in_worker = False


def available_cpus(cpu_max: str = "/sys/fs/cgroup/cpu.max") -> int:
    """The CPUs this process may run on, at most its cgroup's CPU quota
    rounded up. ``cpu_max`` is the cgroup v2 file that holds the quota,
    ``"<quota> <period>"`` in microseconds, or ``"max <period>"`` for none."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    try:
        with open(cpu_max, encoding="ascii") as f:
            quota, period = map(int, f.read().split())
        return max(1, min(cpus, -(-quota // period)))
    except (OSError, ValueError, ZeroDivisionError):  # no file, or "max": no quota
        return cpus


def plan(weights: Sequence[float], cpus: int) -> list[range]:
    """Contiguous, non-empty shares of the units ``range(len(weights))``:
    ``min(cpus, len(weights))`` of them (at least one), each cut placed at
    the unit boundary nearest to an equal part of the total weight."""
    n = max(1, min(cpus, len(weights)))
    total = list(accumulate(weights))
    bounds = [0]
    for k in range(1, n):
        goal = total[-1] * k / n
        j = bisect_left(total, goal)  # the first unit whose running total reaches the goal
        cut = j + 1 if j == 0 or total[j] - goal <= goal - total[j - 1] else j
        bounds.append(min(max(cut, bounds[-1] + 1), len(weights) - n + k))
    bounds.append(len(weights))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run(units: Sequence, work: Callable[[Sequence], list],
        weights: Sequence[float] | None = None) -> list:
    """``work(share)`` for each share of ``units`` (see the module
    docstring), its results joined in share order; ``weights`` are the
    units' costs, 1 each by default."""
    cpus = 1 if _in_worker or not hasattr(os, "fork") else available_cpus()
    shares = plan([1] * len(units) if weights is None else weights, cpus)
    pending: list[tuple[int, int]] = []  # (pid, read end of its pipe) of each unreaped worker
    peaks: list[tuple[int, int]] = []
    tail = len(units)  # the units from here on run in this process, after the workers' shares
    try:
        for share in shares[1:]:
            try:
                pending.append(_fork(units[share.start:share.stop], work,
                                     [fd for _, fd in pending]))
            except OSError:  # no process or memory to spare
                tail = share.start
                break
        out = list(work(units[:shares[0].stop]))
        while pending:
            pid, fd = pending.pop(0)
            data, code = _collect(pid, fd)
            try:
                ok, value, peak = pickle.loads(data)
            except Exception as exc:
                raise RuntimeError(f"worker {pid} exited with code {code} "
                                   "without a result") from exc
            if not ok:
                raise value
            peaks.append(peak)
            out += value
        if tail < len(units):
            out += work(units[tail:])
    except BaseException:
        for pid, fd in pending:
            os.close(fd)
            _stop(pid)
        raise
    worker_peaks[:] = peaks
    return out


def _fork(share: Sequence, work: Callable, inherited: list[int]) -> tuple[int, int]:
    """Fork a worker that runs ``work`` on ``share``; its pid and the read
    end of its pipe. ``inherited`` are the parent's other pipe ends."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 a fork warns when the process has other
            # threads, whose locks would stay held in the child; as an error,
            # the warning would be raised here with the worker running and
            # unreaped. The package starts no thread, and the one pool that
            # numpy may run, its BLAS library's, stops its threads around a
            # fork (pthread_atfork).
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    global _in_worker
    _in_worker = True
    try:
        start = _maxrss()  # a forked process's peak starts at its resident set
        # The objects inherited stay out of the worker's collections, so
        # that those do not write to, and copy, every page that holds one.
        gc.freeze()
        for fd in (read, *inherited):
            os.close(fd)
        try:
            result = True, list(work(share))
        except BaseException as exc:
            result = False, exc
        with open(write, "wb") as pipe:
            pipe.write(_dumps(*result, start))
    finally:
        os._exit(0)


def _maxrss() -> int:
    """This process's peak resident set, ``ru_maxrss``."""
    import resource  # POSIX only, as fork is

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dumps(ok: bool, value, start: int) -> bytes:
    """A worker's message: whether it succeeded, its result or fault, and
    its resident set at the fork and peak."""
    peak = start, _maxrss()
    try:
        return pickle.dumps((ok, value, peak), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # a result or fault that does not pickle
        fault = RuntimeError(f"a worker's {'result' if ok else 'fault'} {type(value).__name__} "
                             f"cannot be sent back: {exc}")
        return pickle.dumps((False, fault, peak), pickle.HIGHEST_PROTOCOL)


def _collect(pid: int, fd: int) -> tuple[bytes, int]:
    """All that worker ``pid`` sends on ``fd``, and its exit code (minus the
    signal that ended it) once it has exited; it is killed if this is
    interrupted."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
        return data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        _stop(pid)
        raise


def _stop(pid: int) -> None:
    """Kill worker ``pid`` and wait for it, if it has not been reaped."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass
