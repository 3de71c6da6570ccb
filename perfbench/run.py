"""viapkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 30 --trace 0

Run from anywhere; it works on the checkout that holds this file and reads
and writes only inside it (scratch files under ``.perfbench/``).

Each run starts fresh worker processes (``worker.py``) with the BLAS thread
count pinned to 1. One client drives the program in a closed loop: each
command starts after the previous one exits. With ``--trace 0`` it reports
the end-to-end metrics; set-up is measured several times and its median
reported. Set-up and wall time are reported at a fixed machine speed
(``setup_s``, ``wall_norm_s``; see ``speed.py``) as well as raw. With
``--trace 1`` it runs the workload once with every public function wrapped,
checks its outputs against the recorded untraced ones, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Without the viapkit
sources under ``src/`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench"
# Set-up is short and noisy, so each plain run measures it this many times
# in throwaway processes, each between SETUP_KERNEL_RUNS speed-kernel runs
# before and as many after, which give its speed (see speed.py).
SETUP_PROBES = 7
SETUP_KERNEL_RUNS = 25
# Every worker must have ended this long after the run started.
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fixed so that set and dict layouts, and with them timings, do not change
# from run to run.
WORKER_ENV = dict(BLAS_ENV, PYTHONHASHSEED="0")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# Printed, but not part of the JSON result: the raw wall and set-up times
# and the stage times. On a shared 2-core machine the machine's own speed
# moved them by 15-25% between runs (see speed.py), more than any bound that
# could still catch a regression.
EXTRA = ((("wall_s", "s"), ("setup_raw_s", "s"))
         + tuple((stage, "s") for stage in tracing.STAGES.values()))

# Per-layer metrics in the JSON result of a traced run: every time that is
# non-zero on both workloads, and the counts. The rest of the traced
# metrics (attack and scoring times, which render-train-wide never runs)
# are printed.
PER_LAYER = (
    "render.render.s", "render.render.calls", "render.save_dataset.s",
    "nn.conv1.fwd.s", "nn.conv2.fwd.s", "nn.conv1.bwd_param.s", "nn.conv2.bwd_param.s",
    "nn.conv2.bwd_input.s", "nn.conv1.bwd_input.calls", "nn.conv2.bwd_input.calls",
    "nn.pool1.fwd.s", "nn.pool2.fwd.s", "nn.pool1.bwd.s", "nn.pool2.bwd.s",
    "nn.dense.fwd.s", "nn.relu.s", "nn.softmax_cross_entropy.s",
    "nn.conv1.im2col_bytes", "nn.conv2.im2col_bytes",
    "nn.forward_graph.calls", "nn.forward_graph.rows",
    "nn.Graph.backward.calls", "nn.Graph.backward.rows", "nn.Graph.backward.s",
    "nn.loss_and_input_grad.calls", "nn.loss_and_input_grad.rows",
    "nn.loss_and_param_grad.calls", "nn.loss_and_param_grad.rows",
    "nn.save_params.s", "nn.load_params.calls", "render.load_dataset.calls",
    "train.train.s", "train.evaluate_clean.s", "train.evaluate_clean.calls",
    "attacks.craft.fgsm.calls", "attacks.craft.fgsm-t.calls", "attacks.craft.bim.calls",
    "attacks.craft.bim-t.calls", "attacks.craft.viap.calls", "attacks.craft.viap-t.calls",
    "evaluate.emit_report.bytes", "cli.main.s", "trace.overhead_s",
)

def unit_of(metric: str) -> str:
    if metric.endswith("im2col_bytes"):
        return "bytes_computed"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".calls", ".rows")):
        return "count"
    return "s"


def tail_percentile(values: list):
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    n = len(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

class RunFailed(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker, time its set-up, let it run; (setup_s, result)."""
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **WORKER_ENV)
    with open(work.with_suffix(".stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
            cwd=str(ROOT), env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RunFailed(f"worker did not get ready: {_tail(work)}")
            if spec["mode"] != "setup":
                proc.stdin.write("go\n")
                proc.stdin.flush()
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker still running at the {DEADLINE_S:.0f} s deadline") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    if code != 0:
        raise RunFailed(f"worker exited {code}: {_tail(work)}")
    if spec["mode"] == "setup":
        return setup_s, None
    with open(spec["result"]) as fh:
        return setup_s, json.load(fh)


def _tail(work: Path) -> str:
    text = work.with_suffix(".stderr").read_text().strip().splitlines()
    return text[-1] if text else "(no output)"


def worker_spec(args, mode: str, work: Path, **extra) -> dict:
    spec = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed, "mode": mode,
        "work_dir": str(work), "seconds": args.seconds, "max_iterations": 1_000_000,
        "result": str(work.with_suffix(".result.json")),
    }
    spec.update(extra)
    return spec


def judge(workload: str, result: dict, ref: dict, label: str) -> tuple[int, list, list]:
    """(failed iterations, observations, report lines) of one worker result."""
    failed, observed, lines = 0, [], []
    for i, it in enumerate(result["iterations"]):
        failures = [f"`viapkit {' '.join(c['argv'][:1])}` exited {c['exit']}"
                    for c in it["commands"] if c["exit"] != 0]
        notes, obs = [], None
        if not failures:
            try:
                obs = checks.observe(workload, it["dir"])
            except (OSError, KeyError, ValueError) as exc:
                failures.append(f"outputs unreadable: {exc}")
            else:
                failures, notes = checks.check(workload, obs, ref)
        observed.append(obs)
        failed += bool(failures)
        status = "ok" if not failures else "FAILED: " + "; ".join(failures)
        lines.append(f"check {label} iteration {i}: {status}")
        lines.extend(f"  {n}" for n in notes)
    return failed, observed, lines


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def plain_run(args, ref: dict, work: Path, deadline: float) -> dict:
    kernel = speed.Kernel()
    setups, setups_raw = [], []
    for k in range(SETUP_PROBES):
        before = [kernel.time() for _ in range(SETUP_KERNEL_RUNS)]
        setup_s, _ = run_worker(worker_spec(args, "setup", work / f"probe{k}"), deadline)
        after = [kernel.time() for _ in range(SETUP_KERNEL_RUNS)]
        setups_raw.append(setup_s)
        setups.append(speed.normalized(setup_s, before + after))
        shutil.rmtree(work / f"probe{k}", ignore_errors=True)
    _, result = run_worker(worker_spec(args, "plain", work / "run"), deadline)
    failed, _, lines = judge(args.workload, result, ref, "run")
    its = result["iterations"]
    samples = {
        "setup_s": setups,
        "setup_raw_s": setups_raw,
        "wall_norm_s": [it["wall_norm_s"] for it in its],
        "wall_s": [it["wall_s"] for it in its],
        "peak_rss_mib": [result["peak_rss_mib"]],
    }
    for stage in tracing.STAGES.values():
        values = [it["stages"][stage] for it in its if stage in it["stages"]]
        if values:
            samples[stage] = values
    kernel_means = [it["kernel_mean_s"] for it in its]
    lines.append(f"machine speed: {sum(it['speed_samples'] for it in its)} kernel runs, mean "
                 f"{statistics.mean(kernel_means) * 1e3:.3f} ms against the reference "
                 f"{speed.REFERENCE_KERNEL_S * 1e3:.3f} ms")
    return {"attempted": len(its), "failed": failed, "samples": samples, "lines": lines,
            "environment": result["environment"]}


def traced_run(args, ref: dict, counts_ref: dict, work: Path, deadline: float) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    spans_path = SCRATCH / f"spans-{args.workload}.jsonl"
    _, traced = run_worker(worker_spec(args, "traced", work / "traced", max_iterations=1,
                                       spans_path=str(spans_path)), deadline)
    failed, _, lines = judge(args.workload, traced, ref, "traced")
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["wrapper_cost_s"] * traced["spans"]
    diffs = {k: (layers[k], v) for k, v in counts_ref.items() if layers.get(k) != v}
    lines.append("counts " + ("match the recorded counts" if not diffs
                              else f"DIFFER from the recorded counts: {diffs}"))
    lines.append(f"spans: {traced['spans']} written to {spans_path.relative_to(ROOT)}; "
                 f"wrappers cost {traced['wrapper_cost_s'] * 1e6:.2f} us per span")
    return {"attempted": 1, "failed": failed, "layers": layers, "lines": lines,
            "functions": traced["functions"], "environment": traced["environment"],
            "wall_s": traced["iterations"][0]["wall_s"]}


def repo_facts() -> dict:
    """Source line count and digest; the git commit where the checkout has one."""
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    lines = sum(len(p.read_text().splitlines()) for p in files)
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def print_plain(args, run: dict) -> dict:
    size, text = workloads.INPUT_SIZE[args.workload]
    print(f"input: {text}")
    print(f"{'metric':<14}{'median':>12}{'tail':>20}{'n':>5}  unit")
    metrics = {}
    for name, unit in END_TO_END + EXTRA:
        values = run["samples"].get(name)
        if not values:
            continue
        med = statistics.median(values)
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "n/a (n < 20)"
        print(f"{name:<14}{med:>12.4f}{tail_text:>20}{len(values):>5}  {unit}")
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    wall = statistics.median(run["samples"]["wall_s"])
    print(f"throughput: {size / wall:.3f} views/s ({size} views / median wall_s)")
    return metrics


def print_traced(run: dict) -> dict:
    print(f"wall_s traced {run['wall_s']:.4f} s, of which tracing about "
          f"{run['layers']['trace.overhead_s']:.4f} s")
    print(f"{'per-layer metric':<34}{'value':>16}  unit")
    for name in tracing.layer_metric_names() + ["trace.overhead_s"]:
        value = run["layers"][name]
        shown = f"{value:.4f}" if unit_of(name) == "s" else f"{value:d}"
        flag = "" if name in PER_LAYER else "   (printed only)"
        print(f"{name:<34}{shown:>16}  {unit_of(name)}{flag}")
    print("top wrapped functions by self time:")
    top = sorted(run["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, row in top:
        print(f"  {name:<32}{row['calls']:>9} calls  self {row['self_s']:9.4f} s  "
              f"incl {row['incl_s']:9.4f} s")
    return {name: {"value": run["layers"][name], "unit": unit_of(name)} for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed region; iterations stop when the next would overrun")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "viapkit" / "cli.py").is_file():
        print(f"error: no viapkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    seed = workloads.program_seed(args.seed)
    refs = checks.load_references()
    ref = refs[args.workload][str(seed)]
    work = SCRATCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            run = traced_run(args, ref, refs["counts"][args.workload], work, deadline)
        else:
            run = plain_run(args, ref, work, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(run["environment"], **repo_facts(),
               blas_threads_pinned=int(BLAS_ENV["OPENBLAS_NUM_THREADS"]))
    print(f"viapkit benchmark: workload {args.workload}, seed {args.seed} "
          f"(program --seed {seed}), trace {args.trace}; one client, closed loop")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in run["lines"]:
        print(line)
    metrics = print_traced(run) if args.trace else print_plain(args, run)
    print(f"error_rate: {run['failed']}/{run['attempted']} = "
          f"{run['failed'] / run['attempted']:.4f}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
