"""Independent fits in forked processes, one per usable CPU.

`map_fits(fn, items)` behaves as the builtin `map(fn, items)`: it returns
an iterator that yields `fn(item)` for each item in order, and raises the
error of the first item whose call fails when the iteration reaches it.
With two or more usable CPUs it first runs the calls in up to
`usable_cpus()` processes: the caller is one, and it forks one child per
spare CPU. The calls are dealt round-robin in index order, so process k of
n runs calls k, k + n, k + 2n, ... A child sends back its results, or the
error that ended its share, by pickle through a pipe, and they are placed
by index. Each call is a pure function of its item, so the output never
depends on which process ran it.

A child that ends without a complete payload (killed, out of memory, or
holding a result or error that does not pickle) has its calls made again
by the caller, in order. Children leave only through `os._exit`, so they
never run the caller's exit handlers or flush its buffered output. Every
child is reaped before `map_fits` returns, and killed first if the caller
raises while they run.
"""

import os
import pickle
import sys
import threading
import warnings

# The name prefix of the Cauchy-PPCA draw worker (models/cauchy_ppca.py).
# It is idle whenever its caller is outside a pass, so a fork never copies
# it midway through a lock.
_DRAW_THREAD_PREFIX = "fsvi-draws"

# Set in a child of `map_fits`: a child counts one usable CPU, so it never
# forks again and never splits a Cauchy pass across threads.
_in_child = False


def usable_cpus():
    """CPUs this process may run on; 1 inside a child of `map_fits`."""
    if _in_child:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork():
    """Linux, and no live thread but the caller and fsvi's draw worker."""
    if not sys.platform.startswith("linux"):
        return False
    current = threading.current_thread()
    return all(
        thread is current or thread.name.startswith(_DRAW_THREAD_PREFIX)
        for thread in threading.enumerate()
    )


def map_fits(fn, items):
    """`map(fn, items)`, with the calls run in parallel when CPUs allow."""
    items = list(items)
    outcomes = {}
    n_procs = min(usable_cpus(), len(items))
    if n_procs >= 2 and _may_fork():
        outcomes = _run_forked(fn, items, n_procs)
    return _in_order(fn, items, outcomes)


def _in_order(fn, items, outcomes):
    for i, item in enumerate(items):
        if i not in outcomes:
            # The serial path, or a call whose process sent nothing back.
            yield fn(item)
            continue
        ok, value = outcomes.pop(i)
        if not ok:
            raise value
        yield value


def _run_share(fn, items, rank, n_procs):
    """{index: (ok, result or error)} of calls rank, rank + n_procs, ...

    The share stops at its first failure: the iteration raises there and
    never reaches a later call of the share.
    """
    outcomes = {}
    for i in range(rank, len(items), n_procs):
        try:
            outcomes[i] = (True, fn(items[i]))
        except Exception as exc:
            outcomes[i] = (False, exc)
            break
    return outcomes


def _child(fn, items, rank, n_procs, read_fd, write_fd):
    global _in_child
    status = 1
    try:
        _in_child = True
        os.close(read_fd)
        outcomes = _run_share(fn, items, rank, n_procs)
        payload = memoryview(pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL))
        while payload:
            payload = payload[os.write(write_fd, payload):]
        status = 0
    finally:
        os._exit(status)


def _read_all(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _load(payload):
    """A child's outcomes, or none if its payload is missing or incomplete."""
    try:
        return pickle.loads(payload)
    except Exception:
        return {}


def _run_forked(fn, items, n_procs):
    """The outcomes by index of the calls, run in up to n_procs processes."""
    children = {}  # pid -> read end of its result pipe, until it is reaped
    try:
        for rank in range(1, n_procs):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork with the draw worker
                    # alive, after the child exists; raised under -W error,
                    # it would lose the child's pid.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                # No process to spare: the caller makes the unsent calls.
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _child(fn, items, rank, n_procs, read_fd, write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        outcomes = _run_share(fn, items, 0, n_procs)
        for pid, read_fd in list(children.items()):
            payload = _read_all(read_fd)
            os.waitpid(pid, 0)
            del children[pid]
            os.close(read_fd)
            outcomes.update(_load(payload))
    finally:
        if children:
            # The caller raised while these ran: stop them before it goes on.
            from signal import SIGKILL

            for pid, read_fd in children.items():
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_fd)
    return outcomes
