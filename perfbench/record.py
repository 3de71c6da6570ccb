"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--workload NAME] [--seeds 0,1,...]

For each workload and program seed it runs the workload once, untraced, and
stores what ``checks.observe`` sees; for each workload it also runs seed 0
traced and stores the call and row counts and the computed im2col bytes.
Entries are merged into ``references.json``. Record only at a commit whose outputs are known good:
every later run is checked against these values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from types import SimpleNamespace

import checks
import run
import workloads


def _once(workload: str, seed: int, mode: str, work) -> dict:
    args = SimpleNamespace(workload=workload, seed=seed, seconds=0.0)
    extra = {"spans_path": str(work.with_suffix(".jsonl"))} if mode == "traced" else {}
    spec = run.worker_spec(args, mode, work, max_iterations=1, **extra)
    _, result = run.run_worker(spec, time.monotonic() + 600)
    it = result["iterations"][0]
    bad = [c for c in it["commands"] if c["exit"] != 0]
    if bad:
        raise SystemExit(f"{workload} seed {seed}: {bad[0]['argv'][0]} exited {bad[0]['exit']}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WHY))
    ap.add_argument("--seeds", default=",".join(map(str, range(workloads.REFERENCE_SEEDS))))
    args = ap.parse_args()
    try:
        refs = checks.load_references()
    except FileNotFoundError:
        refs = {}
    work_root = run.SCRATCH / "record"
    for workload in args.workload or sorted(workloads.WHY):
        for seed in (int(s) for s in args.seeds.split(",")):
            work = work_root / f"{workload}-{seed}"
            result = _once(workload, seed, "plain", work)
            obs = checks.observe(workload, result["iterations"][0]["dir"])
            refs.setdefault(workload, {})[str(seed)] = checks.reference_entry(obs)
            print(f"{workload} seed {seed}: {result['iterations'][0]['wall_s']:.2f} s", flush=True)
            shutil.rmtree(work, ignore_errors=True)
        work = work_root / f"{workload}-traced"
        layers = _once(workload, 0, "traced", work)["layers"]
        # Calls, rows and bytes computed from shapes repeat exactly for every
        # seed; the report's size in bytes depends on the values it holds.
        refs.setdefault("counts", {})[workload] = {
            k: v for k, v in layers.items() if run.unit_of(k) in ("count", "bytes_computed")}
        shutil.rmtree(work, ignore_errors=True)
        work.with_suffix(".jsonl").unlink(missing_ok=True)
        with open(checks.REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
