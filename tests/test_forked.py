import os
import select
import signal

import pytest

from forking import children_left, deadline
from viapkit import forked


def pid_per_index(jobs, n):
    """{i: pid of the process that ran index i} for n indices on `jobs` processes; helper pids."""
    pids = {}
    with deadline(60), forked.Helpers(jobs, lambda i: os.getpid(), pids.__setitem__, n) as h:
        h.run()
        return pids, [proc.pid for proc in h.procs]


def test_helper_k_takes_the_indices_congruent_to_k():
    pids, (helper,) = pid_per_index(2, 4)
    assert pids == {0: helper, 1: os.getpid(), 2: helper, 3: os.getpid()}
    assert not children_left()


def test_the_main_process_takes_no_index_when_the_helpers_cover_them():
    pids, (helper,) = pid_per_index(2, 1)
    assert pids == {0: helper}
    assert not children_left()


@pytest.mark.parametrize("fail, raised, done", [
    # the helper takes 0, 2, 4 and this process 1, 3, 5; each stops at its first failure
    ({3, 4}, 3, {0, 1, 2}),
    ({2, 3}, 2, {0, 1}),
])
def test_the_lowest_failing_index_raises(fail, raised, done):
    def work(i):
        if i in fail:
            raise ValueError(i)
        return i

    kept = {}
    with deadline(60), forked.Helpers(2, work, kept.__setitem__, 6) as h:
        with pytest.raises(ValueError) as info:
            h.run()
    assert info.value.args == (raised,)
    assert set(kept) == done
    assert not children_left()


def test_never_more_helpers_than_indices():
    pids, helpers = pid_per_index(9, 4)
    assert len(helpers) == 4
    assert pids == dict(enumerate(helpers))
    assert not children_left()


def test_one_job_forks_nothing():
    pids, helpers = pid_per_index(1, 3)
    assert helpers == []
    assert pids == {0: os.getpid(), 1: os.getpid(), 2: os.getpid()}


def test_zero_jobs_is_refused():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        forked.Helpers(0, lambda i: i, lambda i, r: None, 1)


class ExitWhilePickled:
    def __reduce__(self):
        os._exit(3)


def die_within_a_message(i):
    # the bytes go down the pipe before the pickler reaches the object that ends the process
    return bytes(200_000), ExitWhilePickled()


def test_helper_that_dies_within_a_message_is_named():
    with deadline(60), forked.Helpers(2, die_within_a_message, lambda i, r: None, 1) as h:
        with pytest.raises(RuntimeError, match="died with exit code 3"):
            h.run()
    assert not children_left()


def test_helper_killed_within_a_message_is_named():
    def work(i):
        if i == 0:
            return bytes(10_000_000)  # far more than a pipe holds, so the helper blocks within it
        helper = h.procs[0]
        select.select([helper.answer], [], [])
        os.kill(helper.pid, signal.SIGKILL)

    # the pickle stream stops inside the bytes, not between two opcodes
    with deadline(60), forked.Helpers(2, work, lambda i, r: None, 2) as h:
        with pytest.raises(RuntimeError, match="died with exit code -9"):
            h.run()
    assert not children_left()


def fail_on_index_one(i):
    if i == 1:
        raise ValueError(i)
    return i


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("work, raised", [
    (lambda i: i, None),
    (fail_on_index_one, ValueError),
    (die_within_a_message, RuntimeError),
])
def test_a_round_leaves_no_open_pipe(work, raised):
    before = len(os.listdir("/proc/self/fd"))
    with deadline(60), forked.Helpers(3, work, lambda i, r: None, 4) as h:
        if raised is None:
            h.run()
        else:
            with pytest.raises(raised):
                h.run()
    assert len(os.listdir("/proc/self/fd")) == before
    assert not children_left()
