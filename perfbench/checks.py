"""Output checks: what one workload iteration produced, against references.

``observe`` reads an iteration's output directory. ``check`` compares that
observation with the references recorded for the same program seed in
``references.json`` (written by ``record.py`` at the commit that defined the
benchmark). A check fails the iteration when:

- a command exited non-zero;
- the dataset ``images.f64`` is not bit-identical to the reference;
- sweep-default: the clean-accuracy gate in ``report.json`` does not hold, or
  a cell mean differs from its reference by more than ``CELL_MEAN_TOL``;
- render-train-wide: the trained victim's train or test accuracy is below
  the reference.

Digests of ``report.json`` and of the weights are compared by name and
printed, but a difference alone does not fail the iteration: a change that
reorders floating-point sums may change the last bits while the cell means
stay within tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

# Half a unit in the third decimal: the precision of the README's tables.
CELL_MEAN_TOL = 5e-4

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _best_epoch(log_path) -> dict:
    """The log row whose weights train saves: highest train accuracy, earliest."""
    with open(log_path) as fh:
        rows = list(csv.DictReader(fh))
    best = max(rows, key=lambda r: (float(r["train_acc"]), -int(r["epoch"])))
    return {"train_acc": float(best["train_acc"]), "test_acc": float(best["test_acc"])}


def observe(workload: str, iteration_dir: str) -> dict:
    """The outputs of one finished iteration that the checks look at."""
    if workload == "sweep-default":
        out = os.path.join(iteration_dir, "sweep")
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        return {
            "images_sha256": sha256(os.path.join(out, "dataset", "images.f64")),
            "report_sha256": sha256(os.path.join(out, "report.json")),
            "clean": report["clean"],
            "gate": {"train": report["config"]["gate_train"],
                     "test": report["config"]["gate_test"]},
            "cell_means": {f"{c['family']}/{c['eps']:g}/{c['split']}": c["mean"]
                           for c in report["cells"]},
        }
    return {
        "images_sha256": sha256(os.path.join(iteration_dir, "dataset", "images.f64")),
        "weights_sha256": sha256(os.path.join(iteration_dir, "model", "weights.viapnet")),
        **_best_epoch(os.path.join(iteration_dir, "model", "train_log.csv")),
    }


def reference_entry(observed: dict) -> dict:
    """The part of an observation recorded as a reference."""
    return {k: v for k, v in observed.items() if k != "gate"}


def check(workload: str, observed: dict, ref: dict) -> tuple[list, list]:
    """(failures, notes) of one observation against its reference."""
    failures, notes = [], []
    if observed["images_sha256"] != ref["images_sha256"]:
        failures.append(f"images.f64 sha256 {observed['images_sha256'][:12]} != "
                        f"reference {ref['images_sha256'][:12]}")
    else:
        notes.append(f"images.f64 sha256 {observed['images_sha256']} match")
    if workload == "sweep-default":
        clean, gate = observed["clean"], observed["gate"]
        if not (clean["train_acc"] >= gate["train"] and clean["test_acc"] >= gate["test"]):
            failures.append(f"clean gate failed: {clean}")
        got, want = observed["cell_means"], ref["cell_means"]
        if set(got) != set(want):
            failures.append(f"cells differ: {sorted(set(got) ^ set(want))[:6]}")
        else:
            worst = max(want, key=lambda k: abs(got[k] - want[k]))
            diff = abs(got[worst] - want[worst])
            notes.append(f"max cell-mean diff {diff:.3g} at {worst} (tol {CELL_MEAN_TOL:g})")
            if diff > CELL_MEAN_TOL:
                failures.append(f"cell {worst} mean {got[worst]!r} vs reference {want[worst]!r}")
        digests = ("report_sha256",)
    else:
        for split in ("train_acc", "test_acc"):
            if observed[split] < ref[split]:
                failures.append(f"{split} {observed[split]:.4f} below reference {ref[split]:.4f}")
        notes.append(f"accuracy train {observed['train_acc']:.4f} test {observed['test_acc']:.4f} "
                     f"(reference {ref['train_acc']:.4f} / {ref['test_acc']:.4f})")
        digests = ("weights_sha256",)
    for key in digests:
        same = "match" if observed[key] == ref[key] else "DIFFERS from reference"
        notes.append(f"{key} {observed[key]} {same}")
    return failures, notes


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
