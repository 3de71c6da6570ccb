"""One benchmark run in a fresh process: set up, then run viapkit commands.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the checkout root, workload, seed, mode and where to write the
result. The worker imports viapkit from ``<root>/src``, writes the workload's
inputs, prints ``ready`` and, unless the mode is ``setup``, waits for one line
on stdin before it starts the timed region. Each command goes through
``viapkit.cli.main`` with the argv a user would type; the program's own
output goes to a log file per iteration. Iterations run in a closed loop:
the next starts only if it is expected to end within ``seconds`` of the
first start.

Modes: ``setup`` (exit after ready), ``plain`` (timers around the four
stage calls only) and ``traced`` (every public function wrapped).

In ``plain`` mode a ``speed.SpeedSampler`` runs through the timed region.
Every time the worker records (iteration walls, stage spans) is read from a
clock that leaves out the sampler's own time, and each iteration also gets
its ``wall_norm_s``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import speed
import tracing
import workloads


def _openblas_threads():
    """Thread count the OpenBLAS linked into numpy reports, or None for another BLAS."""
    # dlsym on numpy's core extension also searches the libraries it links.
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed core to _core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }


def _run_command(cli, argv, log_path) -> int:
    with open(log_path, "a") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        try:
            return int(cli.main(argv))
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from viapkit import attacks, cli, evaluate, nn, render, train

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"viapkit was imported from {cli.__file__}, not from {src}")
    modules = {"render": render, "nn": nn, "train": train, "attacks": attacks,
               "evaluate": evaluate, "cli": cli}

    def iteration_dir(i):
        return os.path.join(spec["work_dir"], f"iter{i}")

    commands = workloads.prepare(spec["workload"], spec["seed"], iteration_dir(0))
    sampler = speed.SpeedSampler()  # built in every mode, so set-up costs the same
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0
    sys.stdin.readline()

    sampling = spec["mode"] == "plain"
    perf = time.perf_counter
    clock = (lambda: perf() - sampler.spent) if sampling else perf
    tracer = tracing.Tracer(f"{spec['workload']}-{spec['seed']}-{spec['mode']}", clock)
    if spec["mode"] == "traced":
        tracing.install_full_trace(tracer, modules)
    else:
        tracing.install_stage_timers(tracer, modules)

    iterations = []
    if sampling:
        sampler.start()
    first_start = clock()
    try:
        while True:
            i = len(iterations)
            if i > 0:
                commands = workloads.prepare(spec["workload"], spec["seed"], iteration_dir(i))
            record = {"dir": iteration_dir(i), "commands": [], "span_from": len(tracer.spans)}
            first_sample = len(sampler.samples)
            start = clock()
            for argv in commands:
                t0 = clock()
                code = _run_command(cli, argv, os.path.join(iteration_dir(i), "program.log"))
                record["commands"].append({"argv": argv, "exit": code, "wall_s": clock() - t0})
                tracer.command += 1
                if code != 0:
                    break
            end = clock()
            record["wall_s"] = end - start
            record["span_to"] = len(tracer.spans)
            if sampling:
                # A region shorter than one interval (a command that failed
                # at once) gets one kernel run of its own, after it.
                samples = sampler.samples[first_sample:] or [sampler.kernel.time()]
                record["wall_norm_s"] = speed.normalized(record["wall_s"], samples)
                record["speed_samples"] = len(samples)
                record["kernel_mean_s"] = sum(samples) / len(samples)
            iterations.append(record)
            if (len(iterations) >= spec["max_iterations"]
                    or end - first_start + record["wall_s"] > spec["seconds"]):
                break
    finally:
        sampler.stop()
        tracer.restore()

    for record in iterations:
        record["stages"] = tracing.stage_times(
            tracer.spans[record.pop("span_from"):record.pop("span_to")])
    result = {
        "iterations": iterations,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if spec["mode"] == "traced":
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["functions"] = tracing.function_table(tracer.spans)
        result["spans"] = len(tracer.spans)
        result["wrapper_cost_s"] = tracing.wrapper_cost()
        tracer.write_jsonl(spec["spans_path"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
