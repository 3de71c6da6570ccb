import os

import pytest

from forking import children_left, deadline
from viapkit import forked


def pid_per_index(helpers, n):
    """{i: pid of the process that ran index i} for n indices on `helpers` helpers; helper pids."""
    pids = {}
    with deadline(60), forked.Helpers(helpers, lambda i: os.getpid(), pids.__setitem__, n) as h:
        h.run()
        return pids, [proc.pid for proc in h.procs]


def test_helper_k_takes_the_indices_congruent_to_k():
    pids, (helper,) = pid_per_index(1, 4)
    assert pids == {0: helper, 1: os.getpid(), 2: helper, 3: os.getpid()}
    assert not children_left()


def test_the_main_process_takes_no_index_when_the_helpers_cover_them():
    pids, (helper,) = pid_per_index(1, 1)
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
    with deadline(60), forked.Helpers(1, work, kept.__setitem__, 6) as h:
        with pytest.raises(ValueError) as info:
            h.run()
    assert info.value.args == (raised,)
    assert set(kept) == done
    assert not children_left()
