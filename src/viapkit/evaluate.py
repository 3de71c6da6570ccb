"""Evaluation harness: eps sweeps, Welch t-tests, reports.

The sweep reproduces the measurement protocol behind the attack comparison
tables: every attack is crafted on an object's training views only, then
scored on both splits. Untargeted cells track mean softmax mass on the true
label (lower = stronger attack); targeted cells track the target label
(higher = stronger).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from viapkit import attacks, forked, nn, train
from viapkit.attacks import AttackConfig, FAMILIES, SINGLE_STEP_FAMILIES
from viapkit.render import Dataset, ppm_pixels, write_ppm

DEFAULT_EPS_GRID = (0.0, 0.5, 1.0, 3.0, 5.0, 10.0, 15.0, 30.0, 50.0)

# fixed stream tags so target draws and delta inits never share an rng stream
_TARGET_STREAM = 101
_ATTACK_STREAM = 202


class GateFailure(RuntimeError):
    """Clean-accuracy gate failed; attacks on a bad victim measure nothing."""

    def __init__(self, diag: dict):
        self.diag = diag
        super().__init__(
            "clean-accuracy gate failed: "
            + ", ".join(f"{k}={v:.4f}" for k, v in sorted(diag.items()))
        )


# ---------------------------------------------------------------------------
# Welch two-sample t-test (hand-rolled incomplete beta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    label: str
    t: float
    df: float
    p_value: float
    n_a: int
    n_b: int


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    max_iter, eps, tiny = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b); exact 0/1 at the endpoints."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def welch_ttest(sample_a, sample_b, label: str = "a-vs-b") -> TTestResult:
    """Unequal-variance t-test with Welch-Satterthwaite df, two-sided p.

    p comes from the t-distribution survival function expressed through the
    regularized incomplete beta: p = I_{df/(df+t^2)}(df/2, 1/2). Equal means
    give t = 0 and p = 1 exactly.
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("both samples have zero variance; t is undefined")
    na, nb = len(a), len(b)
    sa, sb = va / na, vb / nb
    se2 = sa + sb
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    p = betainc_reg(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(label=label, t=float(t), df=float(df),
                       p_value=float(min(max(p, 0.0), 1.0)), n_a=na, n_b=nb)


# ---------------------------------------------------------------------------
# The eps sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    families: tuple[str, ...] = FAMILIES
    iterations: int = attacks.DEFAULT_ITERATIONS
    seed: int = 0
    rho: float = attacks.DEFAULT_RHO
    step: float | None = None
    literal_eq_step: bool = False
    ttest_eps: float = 5.0
    gate_train: float = 0.95
    gate_test: float = 0.90

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", tuple(self.eps_grid))
        object.__setattr__(self, "families", tuple(self.families))
        if len(self.eps_grid) == 0 or not all(e >= 0 for e in self.eps_grid):
            raise ValueError("eps grid must be non-empty and non-negative")
        for name, values in (("eps_grid", self.eps_grid), ("families", self.families)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        # each family's attack settings, at the grid's largest eps so that the
        # step checks run whenever any eps is positive; bim also checks the
        # iteration count that single-step families ignore
        for family in (*self.families, "bim"):
            self.attack_config(family, max(self.eps_grid))

    def attack_config(
        self, family: str, eps: float, target: int | None = None, seed: int = 0
    ) -> AttackConfig:
        """The config this sweep crafts family at eps with; fgsm families take one step."""
        return AttackConfig(
            family=family, eps=eps, step=self.step,
            iterations=1 if family in SINGLE_STEP_FAMILIES else self.iterations,
            target=target, rho=self.rho, seed=seed, literal_eq_step=self.literal_eq_step,
        )


@dataclass
class Cell:
    """One (family, eps, split) measurement with its raw per-view records."""

    family: str
    eps: float
    split: str
    metric: str           # "true_softmax" or "target_softmax"
    mean: float
    std: float
    n: int
    top1_true: float
    top1_target: float
    values: np.ndarray        # tracked softmax per view, split order
    correct: np.ndarray       # argmax == true label, per view
    hits_target: np.ndarray   # argmax == per-object target, per view

    def to_json_dict(self) -> dict:
        return {
            "family": self.family, "eps": self.eps, "split": self.split,
            "metric": self.metric, "mean": self.mean, "std": self.std, "n": self.n,
            "top1_true": self.top1_true, "top1_target": self.top1_target,
            "values": [float(v) for v in self.values],
            "correct": [bool(v) for v in self.correct],
            "hits_target": [bool(v) for v in self.hits_target],
        }


@dataclass
class SweepResult:
    config: SweepConfig
    clean: dict
    targets: dict                 # object id -> target label
    cells: list = field(default_factory=list)
    ttests: list = field(default_factory=list)
    split_indices: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)        # (family, eps, view idx) -> pixels
    samples_clean: dict = field(default_factory=dict)  # view idx -> pixels

    def cell(self, family: str, eps: float, split: str) -> Cell:
        for c in self.cells:
            if c.family == family and c.eps == eps and c.split == split:
                return c
        raise KeyError(f"no cell ({family}, {eps}, {split})")


def draw_target(seed: int, object_id: int, true_label: int, n_classes: int) -> int:
    """An object's target label at a seed, as sweep and attack both draw it.

    Uniform over labels from the (seed, object) target stream, re-drawing
    until it differs from the true one.
    """
    if n_classes < 2:
        raise ValueError(f"a target label needs at least 2 classes; the dataset has {n_classes}")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _TARGET_STREAM, object_id]))
    )
    t = int(rng.integers(0, n_classes))
    while t == true_label:
        t = int(rng.integers(0, n_classes))
    return t


def attack_seed(seed: int, family: str, eps: float, object_id: int) -> int:
    """The init seed of family's craft at eps on an object, as sweep and attack both derive it."""
    parts = [seed, _ATTACK_STREAM, FAMILIES.index(family), int(round(eps * 1000)), object_id]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _make_cell(family, eps, split, probs, labels, targets_pv) -> Cell:
    is_targeted = attacks.targeted(family)
    pred = np.argmax(probs, axis=1)
    rows = np.arange(len(labels))
    tracked = probs[rows, targets_pv] if is_targeted else probs[rows, labels]
    return Cell(
        family=family, eps=float(eps), split=split,
        metric="target_softmax" if is_targeted else "true_softmax",
        mean=float(tracked.mean()), std=float(tracked.std()), n=len(labels),
        top1_true=float(np.mean(pred == labels)),
        top1_target=float(np.mean(pred == targets_pv)),
        values=tracked, correct=pred == labels, hits_target=pred == targets_pv,
    )


def confidence_sweep(
    params: nn.ModelParams, dataset: Dataset, config: SweepConfig = SweepConfig(),
    jobs: int | None = None,
) -> SweepResult:
    """Craft-on-train / score-on-both sweep over every (family, eps) cell.

    Per object: attacks.craft attacks its training views, and the delta it
    returns (viap's shared delta, or the per-image families' mean training
    noise) is applied to its test views. eps = 0 short-circuits to clean
    images for every family: its cells read the clean forward pass of each
    split that the gate reads. The per-image families share one clean-view
    gradient sign per object and direction (attacks.clean_sign).

    Objects are independent, so each (family, eps) crafts them on `jobs`
    processes (forked.Helpers; never more crafters than objects): this one
    and the crafters, forked once per sweep after the clean signs are
    taken. Scoring stays on this process. Every output bit is the same for
    any jobs.
    """
    train_idx = dataset.indices("train")
    test_idx = dataset.indices("test")
    x_tr, y_tr = dataset.images[train_idx], dataset.labels[train_idx]
    x_te, y_te = dataset.images[test_idx], dataset.labels[test_idx]
    k = dataset.n_classes

    # one clean forward per split serves the gate and every eps = 0 cell
    clean, clean_probs = {}, {}
    for split, x, y in (("train", x_tr, y_tr), ("test", x_te, y_te)):
        logits = nn.forward(params, x)
        clean[f"{split}_acc"], clean[f"{split}_true_softmax"] = train.clean_metrics(logits, y)
        clean_probs[split] = nn.softmax(logits)
    if clean["train_acc"] < config.gate_train or clean["test_acc"] < config.gate_test:
        raise GateFailure(
            {"train_acc": clean["train_acc"], "test_acc": clean["test_acc"],
             "gate_train": config.gate_train, "gate_test": config.gate_test}
        )

    objects = dataset.objects()
    obj_label = {o: int(dataset.labels[dataset.indices(object_id=o)][0]) for o in objects}
    targets = {o: draw_target(config.seed, o, obj_label[o], k) for o in objects}

    tr_pos = {o: np.flatnonzero(dataset.object_ids[train_idx] == o) for o in objects}
    te_pos = {o: np.flatnonzero(dataset.object_ids[test_idx] == o) for o in objects}
    tgt_tr = np.array([targets[int(o)] for o in dataset.object_ids[train_idx]], dtype=np.int64)
    tgt_te = np.array([targets[int(o)] for o in dataset.object_ids[test_idx]], dtype=np.int64)

    # one sample view per class for the image dumps: first test view of the
    # class's first object
    sample_pos = []
    for class_id in range(k):
        cand = np.flatnonzero(dataset.labels[test_idx] == class_id)
        if len(cand):
            sample_pos.append(int(cand[0]))
    result = SweepResult(
        config=config, clean=clean, targets=targets,
        split_indices={"train": train_idx.tolist(), "test": test_idx.tolist()},
    )
    for p in sample_pos:
        result.samples_clean[int(test_idx[p])] = ppm_pixels(x_te[p])

    # fgsm's step and bim's first step take the sign of the gradient at the
    # clean training views, the same at every eps: one call per object and
    # direction (untargeted / targeted) serves them all
    directions = {attacks.targeted(f) for f in config.families if f not in attacks.VIAP_FAMILIES}
    clean_signs = {
        (o, tgt): attacks.clean_sign(
            params, x_tr[tr_pos[o]], np.full(len(tr_pos[o]), targets[o]) if tgt else y_tr[tr_pos[o]]
        )
        for o in objects for tgt in directions if max(config.eps_grid) > 0
    }

    # the objects partition both splits, so every (family, eps > 0) writes
    # every row of one buffer pair
    adv_tr, adv_te = np.empty_like(x_tr), np.empty_like(x_te)

    def craft_object(family, eps, i):
        o = objects[i]
        pos_t, pos_e = tr_pos[o], te_pos[o]
        cfg = config.attack_config(
            family, eps, target=targets[o] if attacks.targeted(family) else None,
            seed=attack_seed(config.seed, family, eps, o),
        )
        adv, delta = attacks.craft(
            params, x_tr[pos_t], y_tr[pos_t], cfg,
            first_sign=clean_signs.get((o, attacks.targeted(family))),
        )
        return adv, attacks.apply_delta(delta, x_te[pos_e])

    def keep_object(i, views):
        adv_tr[tr_pos[objects[i]]], adv_te[te_pos[objects[i]]] = views

    with forked.Helpers(jobs, craft_object, keep_object, len(objects), "crafter") as crafters:
        for family, eps in itertools.product(config.families, config.eps_grid):
            if eps == 0.0:
                probs_tr, probs_te = clean_probs["train"], clean_probs["test"]
            else:
                crafters.run(family, eps)
                probs_tr = nn.softmax(nn.forward(params, adv_tr))
                probs_te = nn.softmax(nn.forward(params, adv_te))
                for p in sample_pos:
                    result.samples[(family, float(eps), int(test_idx[p]))] = ppm_pixels(adv_te[p])
            result.cells.append(_make_cell(family, eps, "train", probs_tr, y_tr, tgt_tr))
            result.cells.append(_make_cell(family, eps, "test", probs_te, y_te, tgt_te))

    result.ttests = _sweep_ttests(result)
    return result


def _sweep_ttests(result: SweepResult) -> list:
    """Welch tests pairing viap against each baseline on the test split."""
    eps = result.config.ttest_eps
    if eps not in result.config.eps_grid:
        return []
    pairs = [("viap", "fgsm"), ("viap", "bim"), ("viap-t", "fgsm-t"), ("viap-t", "bim-t")]
    out = []
    for fam_a, fam_b in pairs:
        if fam_a not in result.config.families or fam_b not in result.config.families:
            continue
        a = result.cell(fam_a, eps, "test").values
        b = result.cell(fam_b, eps, "test").values
        try:
            out.append(welch_ttest(a, b, label=f"{fam_a}-vs-{fam_b}@eps{eps:g}/test"))
        except ValueError:
            # degenerate (both samples constant): skip the pair rather than fake a p
            continue
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_FOOTNOTES = (
    "epsilon values are on the 0-255 scale; images live in [0,1], so the applied bound is eps/255",
    "eps=0 rows are strictly clean images for every family (no init noise applied)",
    "per-image families are crafted on the train split; their test rows apply each object's mean training noise to unseen views",
    "viap families craft one universal delta per object on its training views and apply the identical delta to both splits",
    "untargeted rows track softmax mass on the true label (lower = stronger); targeted rows track the target label (higher = stronger)",
    "each object draws one target label uniformly excluding its true label; all targeted families and eps values share it",
    "summary rows aggregate the per-eps cell means across the whole eps grid",
)


def _fmt_eps(eps: float) -> str:
    return f"{eps:g}"


def emit_report(sweep: SweepResult, ttests: list, out_dir) -> list:
    """Write report.csv / summary.csv / report.json (+ significance.csv, samples/).

    Returns the sorted list of relative paths written. Re-running on the same
    sweep produces byte-identical files: floats are serialized with repr and
    JSON keys are sorted.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    rows = ["family,epsilon,split,metric,mean,std,n"]
    for c in sweep.cells:
        rows.append(
            f"{c.family},{_fmt_eps(c.eps)},{c.split},{c.metric},"
            f"{repr(c.mean)},{repr(c.std)},{c.n}"
        )
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    written.append("report.csv")

    rows = ["family,split,metric,mean,std"]
    for family in sweep.config.families:
        for split in ("train", "test"):
            cells = [c for c in sweep.cells if c.family == family and c.split == split]
            means = np.array([c.mean for c in cells])
            rows.append(
                f"{family},{split},{cells[0].metric},"
                f"{repr(float(means.mean()))},{repr(float(means.std()))}"
            )
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    written.append("summary.csv")

    if ttests:
        rows = ["pair,t,df,p_value,n_a,n_b"]
        for t in ttests:
            rows.append(f"{t.label},{repr(t.t)},{repr(t.df)},{repr(t.p_value)},{t.n_a},{t.n_b}")
        with open(os.path.join(out_dir, "significance.csv"), "w") as fh:
            fh.write("\n".join(rows) + "\n")
        written.append("significance.csv")

    report = {
        "config": asdict(sweep.config),
        "clean": sweep.clean,
        "targets": {str(k): v for k, v in sorted(sweep.targets.items())},
        "split_indices": sweep.split_indices,
        "cells": [c.to_json_dict() for c in sweep.cells],
        "ttests": [asdict(t) for t in ttests],
        "footnotes": list(_FOOTNOTES),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append("report.json")

    if sweep.samples_clean:
        os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
        for view_idx, img in sorted(sweep.samples_clean.items()):
            name = f"samples/clean_{view_idx}.ppm"
            write_ppm(img, os.path.join(out_dir, name))
            written.append(name)
        for (family, eps, view_idx), img in sorted(sweep.samples.items()):
            name = f"samples/{family}_{_fmt_eps(eps)}_{view_idx}.ppm"
            write_ppm(img, os.path.join(out_dir, name))
            written.append(name)

    return sorted(written)
