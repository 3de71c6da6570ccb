"""Test helpers for the stages that fork helper processes."""

import os
import signal
import time
from contextlib import contextmanager


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def children_left() -> bool:
    """Whether this process has a child process it has not reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return False
    return True


def fail_in_a_helper(monkeypatch, module, name, marker, fail):
    """Make calls of module.name in a helper process call fail(); calls on the
    main process wait until one has (it touches marker), so the failure surely
    happens off the main process."""
    real, main_pid = getattr(module, name), os.getpid()

    def call(*args, **kwargs):
        if os.getpid() != main_pid:
            marker.touch()
            fail()
        while not marker.exists():
            time.sleep(0.01)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, call)
