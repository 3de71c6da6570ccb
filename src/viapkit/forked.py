"""Work split over this process and helper processes forked from it.

Rendering, training and the sweep each hand independent pieces of work to
helpers forked once per call. A helper shares everything its parent held
when it was forked; only the arguments of each round and the results go
through pipes, pickled. The helpers are plain os.fork children talking over
os.pipe, so nothing here imports multiprocessing, and a helper costs this
process no shared memory of its own: every result lands in this process's
own arrays, where the work would have written it on one process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
import sys

# the length before each pickled message
_WORD = struct.Struct("=Q")


def resolve_jobs(jobs: int | None) -> int:
    """The processes a stage works on; None means every core this process may use.

    Working beside the main process forks it, so where os.fork does not
    exist every stage works on this process alone.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1; got {jobs}")
    if not hasattr(os, "fork"):
        return 1
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return jobs


def _read_into(fd: int, buf) -> None:
    """Fill buf from fd; EOFError if every writer closed it first."""
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            raise EOFError
        view = view[got:]


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, _WORD.pack(len(data)))
    _write_all(fd, data)


def _recv(fd: int):
    head = bytearray(_WORD.size)
    _read_into(fd, head)
    body = bytearray(_WORD.unpack(head)[0])
    _read_into(fd, body)
    return pickle.loads(body)


def _portable(exc: BaseException, name: str) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError that carries its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"a {name} process raised {exc!r}")
    return exc


class _Helper:
    """A forked helper: its pid, the pipe ends this process keeps, its exit code once reaped."""

    def __init__(self, pid: int, command: int, answer: int):
        self.pid, self.command, self.answer = pid, command, answer
        self.exitcode = None

    def reap(self) -> None:
        if self.exitcode is None:
            _, status = os.waitpid(self.pid, 0)
            self.exitcode = os.waitstatus_to_exitcode(status)


class Helpers:
    """This process and `helpers` forked ones, calling work(*args, i) for every i < n.

    Every result comes back to this process, which stores it with
    keep(i, result). The helpers are forked when the context is entered,
    so they share everything this process holds then. The indices are
    split once among the helpers + 1 processes: helper k takes every i with
    i % (helpers + 1) == k and this process takes the rest, so with
    n <= helpers it takes none. start(*args) sends args down each helper's
    pipe; a helper works through its indices in order, then pickles its
    results back, one message per index, so this process holds one result
    of theirs at a time. finish() works through this process's indices,
    then reads every helper's results; between the two, this process may
    do other work. run(*args) is start then finish.

    Each process stops at its first failing index; the others finish their
    own share. finish() raises the exception of the lowest failing index,
    the one a loop over i in order would have raised first (every lower
    index came before it on its own process), with its type and args (one
    that does not pickle arrives as a RuntimeError carrying its repr). A
    helper that died raises a RuntimeError naming it. Leaving the context
    kills and reaps every helper. With no helpers nothing is forked and
    this process takes every index.
    """

    def __init__(self, helpers: int, work, keep, n: int, name: str = "helper"):
        self.helpers, self.work, self.keep, self.n, self.name = helpers, work, keep, n, name
        self.procs: list[_Helper] = []
        self.args = ()

    def __enter__(self):
        if self.helpers == 0:
            return self
        # a line still in a buffer would be written again by a helper that flushes it
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(OSError):
                stream.flush()
        try:
            for _ in range(self.helpers):
                self._fork()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        import signal

        for proc in self.procs:
            if proc.exitcode is None:
                os.kill(proc.pid, signal.SIGKILL)
        for proc in self.procs:
            proc.reap()
            os.close(proc.command)
            os.close(proc.answer)
        self.procs = []

    def _fork(self) -> None:
        k = len(self.procs)
        command, answer = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                import signal

                # ^C reaches the main process, which kills us
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # so that our pipes read EOF, or fail to write, once the main process is gone
                for fd in (command[1], answer[0], *(fd for p in self.procs
                                                     for fd in (p.command, p.answer))):
                    os.close(fd)
                self._serve(k, command[0], answer[1])
                code = 0
            finally:
                os._exit(code)
        os.close(command[0])
        os.close(answer[1])
        self.procs.append(_Helper(pid, command[1], answer[0]))

    def _died(self, proc: _Helper) -> RuntimeError:
        proc.reap()
        return RuntimeError(f"{self.name} process {proc.pid} died with exit code {proc.exitcode}")

    def run(self, *args) -> None:
        self.start(*args)
        self.finish()

    def start(self, *args) -> None:
        self.args = args
        for proc in self.procs:
            try:
                _send(proc.command, args)
            except BrokenPipeError:  # the helper died since the last round
                raise self._died(proc) from None

    def finish(self) -> None:
        failures = []

        def take(i, ok, value):
            if ok:
                self.keep(i, value)
            else:
                failures.append((i, value))

        for answer in self._drain(self.helpers, self.args, Exception):
            take(*answer)
        for proc in self.procs:
            for answer in iter(lambda: self._answer(proc), None):
                take(*answer)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]

    def _answer(self, proc: _Helper):
        """The helper's next message: (i, ok, result or exception), or None after its last."""
        try:
            return _recv(proc.answer)
        except EOFError:  # a helper that dies closes its end of the pipe
            raise self._died(proc) from None

    def _drain(self, k, args, catch):
        """Call work on process k's indices in order; yield (i, ok, result).

        An exception of type catch is yielded as (i, False, exception) and
        ends the drain; any other propagates.
        """
        for i in range(k, self.n, self.helpers + 1):
            try:
                result = self.work(*args, i)
            except catch as exc:
                yield i, False, exc
                return
            yield i, True, result

    def _serve(self, k: int, command: int, answer: int) -> None:
        """Helper k's loop: drain for each args received, then send its results and None."""
        try:
            while True:
                args = _recv(command)
                done = list(self._drain(k, args, BaseException))
                for i, ok, value in done:
                    _send(answer, (i, ok, value if ok else _portable(value, self.name)))
                _send(answer, None)
                del done
        except (EOFError, BrokenPipeError):  # the main process is gone
            return
