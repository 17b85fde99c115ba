"""map_fits: map's results and errors, from forked children when CPUs allow."""

import os
import sys
import threading
import time
import warnings

import pytest

from fsvi import _parallel
from fsvi._parallel import map_fits
from fsvi.exceptions import DataFormatError, NumericalFailureError

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="map_fits forks on Linux only")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # Two usable CPUs on any machine; a child of map_fits still reads one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_in_order_from_the_caller_and_one_child():
    caller = os.getpid()
    out = list(map_fits(lambda i: (i * i, os.getpid()), range(5)))
    assert [value for value, _ in out] == [0, 1, 4, 9, 16]
    # Dealt round-robin: the caller makes the even calls, its child the odd ones.
    assert [pid == caller for _, pid in out] == [True, False, True, False, True]
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised_in", [((1, 2), "child"), ((0, 1), "caller")])
def test_the_lowest_failing_index_raises_with_its_message_and_attributes(
        failing, raised_in):
    caller = os.getpid()

    def fn(i):
        if i in failing:
            where = "caller" if os.getpid() == caller else "child"
            raise NumericalFailureError(f"call {i} failed in the {where}", iteration=10 + i)
        return i

    results = map_fits(fn, range(4))
    assert_no_child_left()
    assert [next(results) for _ in range(failing[0])] == list(range(failing[0]))
    with pytest.raises(NumericalFailureError) as info:
        next(results)
    assert str(info.value) == f"call {failing[0]} failed in the {raised_in}"
    assert info.value.iteration == 10 + failing[0]


def test_a_childs_error_keeps_its_type_and_line():
    def fn(i):
        if i == 1:
            raise DataFormatError("bad cell", line=7)
        return i

    with pytest.raises(DataFormatError, match="bad cell") as info:
        list(map_fits(fn, range(2)))
    assert info.value.line == 7 and info.value.exit_code == 3
    assert_no_child_left()


def test_a_child_that_sends_nothing_has_its_calls_made_by_the_caller():
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            os._exit(3)
        return i, os.getpid()

    assert list(map_fits(fn, range(3))) == [(i, caller) for i in range(3)]
    assert_no_child_left()


def test_a_result_that_does_not_pickle_is_made_again_by_the_caller():
    caller = os.getpid()
    out = list(map_fits(lambda i: (i, os.getpid(), lambda: i), range(3)))
    assert [(i, pid) for i, pid, _ in out] == [(i, caller) for i in range(3)]
    assert [make() for *_, make in out] == [0, 1, 2]
    assert_no_child_left()


def test_children_are_killed_and_reaped_when_the_caller_is_interrupted():
    caller = os.getpid()

    def fn(i):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        map_fits(fn, range(2))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def _pids_with_a_live_thread(name):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name=name)
    thread.start()
    try:
        return set(map_fits(lambda i: os.getpid(), range(4)))
    finally:
        stop.set()
        thread.join()


def test_a_live_thread_of_another_kind_makes_the_map_serial():
    assert _pids_with_a_live_thread("other") == {os.getpid()}
    assert len(_pids_with_a_live_thread(f"{_parallel._DRAW_THREAD_PREFIX}_0")) == 2


def test_a_map_inside_a_child_runs_serially():
    def inner(_):
        return os.getpid()

    def fn(i):
        return os.getpid(), _parallel.usable_cpus(), set(map_fits(inner, range(4)))

    (caller, caller_cpus, caller_pids), (child, child_cpus, child_pids) = map_fits(
        fn, range(2))
    assert caller == os.getpid() and child != caller
    assert (caller_cpus, len(caller_pids)) == (2, 2)
    assert (child_cpus, child_pids) == (1, {child})
    assert_no_child_left()


def test_one_item_or_one_cpu_runs_in_the_caller(monkeypatch):
    caller = os.getpid()
    assert list(map_fits(lambda i: os.getpid(), range(1))) == [caller]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert list(map_fits(lambda i: os.getpid(), range(3))) == [caller] * 3


def test_a_fork_that_fails_leaves_every_call_to_the_caller(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    caller = os.getpid()
    assert list(map_fits(lambda i: (i, os.getpid()), range(3))) == [
        (i, caller) for i in range(3)]


def test_a_fork_warning_raised_as_an_error_loses_no_child(monkeypatch):
    # Python 3.12+ warns in the parent, after the fork, when other threads
    # are alive; under -W error that warning is raised from os.fork.
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("fork with threads", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    caller = os.getpid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = list(map_fits(lambda i: os.getpid(), range(4)))
    assert [pid == caller for pid in out] == [True, False, True, False]
    assert_no_child_left()
