"""Work split over this process and helper processes forked from it.

Rendering, training and the sweep each hand independent pieces of work to
helpers forked once per call; Helpers alone decides how many. A helper
shares everything its parent held when it was forked; only the arguments
of each round and the results go through pipes, as pickle streams. The
helpers are plain os.fork children talking over os.pipe, so nothing here
imports multiprocessing, and a helper costs this process no shared memory
of its own: every result lands in this process's own arrays, where the
work would have written it on one process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys


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


def _send(file, obj) -> None:
    pickle.dump(obj, file, protocol=pickle.HIGHEST_PROTOCOL)
    file.flush()


def _portable(exc: BaseException, name: str) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError that carries its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"a {name} process raised {exc!r}")
    return exc


class _Helper:
    """A forked helper: its pid, the pipe files this process keeps, its exit code once reaped."""

    def __init__(self, pid: int, command, answer):
        self.pid, self.command, self.answer = pid, command, answer
        self.exitcode = None

    def reap(self) -> None:
        if self.exitcode is None:
            _, status = os.waitpid(self.pid, 0)
            self.exitcode = os.waitstatus_to_exitcode(status)


class Helpers:
    """work(*args, i) for every i < n, on `jobs` processes: this one and helpers forked from it.

    jobs is the process count the caller asks for (resolve_jobs; None means
    every core). This process forks min(jobs - 1, n) helpers, so never more
    helpers than work items. Every result comes back to this process, which
    stores it with keep(i, result). The helpers are forked when the context
    is entered, so they share everything this process holds then. The
    indices are split once among the helpers + 1 processes: helper k takes
    every i with i % (helpers + 1) == k and this process takes the rest, so
    with n <= helpers it takes none. start(*args) sends args down each
    helper's pipe; a helper works through its indices in order, then pickles
    its results back, one message per index, so this process holds one
    result of theirs at a time. finish() works through this process's
    indices, then reads every helper's results; between the two, this
    process may do other work. run(*args) is start then finish.

    Each process stops at its first failing index; the others finish their
    own share. finish() raises the exception of the lowest failing index,
    the one a loop over i in order would have raised first (every lower
    index came before it on its own process), with its type and args (one
    that does not pickle arrives as a RuntimeError carrying its repr). A
    helper that died raises a RuntimeError naming it. Leaving the context
    kills and reaps every helper. With no helpers nothing is forked and
    this process takes every index.
    """

    def __init__(self, jobs: int | None, work, keep, n: int, name: str = "helper"):
        self.helpers = min(resolve_jobs(jobs) - 1, n)
        self.work, self.keep, self.n, self.name = work, keep, n, name
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
            # a command cut off by a dead helper cannot be flushed; the fd still closes
            with contextlib.suppress(BrokenPipeError):
                proc.command.close()
            proc.answer.close()
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
                # so that our pipes read EOF, or fail to write, once the main process is gone;
                # the other helpers' files are closed by fd, since flushing them here must not happen
                for fd in (command[1], answer[0], *(f.fileno() for p in self.procs
                                                     for f in (p.command, p.answer))):
                    os.close(fd)
                self._serve(k, open(command[0], "rb"), open(answer[1], "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(command[0])
        os.close(answer[1])
        self.procs.append(_Helper(pid, open(command[1], "wb"), open(answer[0], "rb")))

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
            return pickle.load(proc.answer)
        # a helper that dies closes its end of the pipe, between messages or within one
        except (EOFError, pickle.UnpicklingError):
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

    def _serve(self, k: int, commands, answers) -> None:
        """Helper k's loop: drain for each args received, then send its results and None."""
        try:
            while True:
                args = pickle.load(commands)
                done = list(self._drain(k, args, BaseException))
                for i, ok, value in done:
                    _send(answers, (i, ok, value if ok else _portable(value, self.name)))
                _send(answers, None)
                del done
        except (EOFError, pickle.UnpicklingError, BrokenPipeError):  # the main process is gone
            return
