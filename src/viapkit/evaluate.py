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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from viapkit import attacks, forked, nn, prng, train
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")
        if len(self.eps_grid) == 0 or not all(e >= 0 for e in self.eps_grid):
            raise ValueError("eps grid must be non-empty and non-negative")
        if len(self.families) == 0:
            raise ValueError("families must be non-empty")
        for name, values in (("eps_grid", self.eps_grid), ("families", self.families)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        for name in ("gate_train", "gate_test"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]; got {getattr(self, name)}")
        if not (0.0 <= self.ttest_eps < math.inf):
            raise ValueError(f"ttest_eps must be finite and >= 0; got {self.ttest_eps}")
        # each family's attack settings, at the grid's largest eps so that the
        # step checks run whenever any eps is positive; bim also checks the
        # iteration count that single-step families ignore
        for family in (*self.families, "bim"):
            self.attack_config(family, max(self.eps_grid))

    def attack_config(self, family: str, eps: float, target: int | None = None) -> AttackConfig:
        """This sweep's settings for family at eps; fgsm families take one step.

        attack_object sets the init seed (and an untargeted family's None
        target) before it crafts with them.
        """
        return AttackConfig(
            family=family, eps=eps, step=self.step,
            iterations=1 if family in SINGLE_STEP_FAMILIES else self.iterations,
            target=target, rho=self.rho, literal_eq_step=self.literal_eq_step,
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
    correct: np.ndarray       # prediction == true label, per view
    hits_target: np.ndarray   # prediction == per-object target, per view

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {name: out[name].tolist() for name in ("values", "correct", "hits_target")}


@dataclass
class SweepResult:
    config: SweepConfig
    clean: dict
    targets: dict                 # object id -> target label
    cells: list = field(default_factory=list)
    ttests: list = field(default_factory=list)
    split_indices: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)        # (family, eps, dataset row) -> pixels
    samples_clean: dict = field(default_factory=dict)  # dataset row -> pixels

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
    rng = prng.PCG64([seed, _TARGET_STREAM, object_id])
    t = rng.integers(0, n_classes)
    while t == true_label:
        t = rng.integers(0, n_classes)
    return t


def attack_seed(seed: int, family: str, eps: float, object_id: int) -> int:
    """The init seed of family's craft at eps on an object, as attack_object sets it."""
    parts = [seed, _ATTACK_STREAM, FAMILIES.index(family), int(round(eps * 1000)), object_id]
    return prng.generate_state(parts, 1)[0]


def attack_object(params: nn.ModelParams, dataset: Dataset, config: AttackConfig, seed: int,
                  o: int, first_step=None) -> tuple:
    """Attack object o, as sweep and attack both do.

    The one place that sets what belongs to o: it refuses an object with no
    training views, gives a targeted family config's target, which must lie
    in [0, K), or else draw_target's at seed (an untargeted family gets
    None), and sets the init seed to attack_seed's at seed. attacks.craft
    (given first_step) then attacks o's training views, and the delta it
    returns is applied to o's test views, which it never saw. Returns
    (config crafted with, adv_train, delta, adv_test, logits_train,
    logits_test): one forward a split.
    """
    train_rows, test_rows = (dataset.indices(split, object_id=o) for split in ("train", "test"))
    if len(train_rows) == 0:
        raise ValueError(f"object {o} has no training views")
    family, k, target = config.family, dataset.n_classes, None
    if attacks.targeted(family):
        target = config.target
        if target is None:
            target = draw_target(seed, o, int(dataset.labels[train_rows[0]]), k)
        elif not 0 <= target < k:
            raise ValueError(f"target must lie in [0, {k}); got {target}")
    config = replace(config, target=target, seed=attack_seed(seed, family, config.eps, o))
    adv_train, delta = attacks.craft(params, dataset.images[train_rows],
                                     dataset.labels[train_rows], config, first_step=first_step)
    adv_test = attacks.apply_delta(delta, dataset.images[test_rows])
    return (config, adv_train, delta, adv_test,
            nn.forward(params, adv_train), nn.forward(params, adv_test))


def _make_cell(family, eps, split, logits, labels, targets_pv) -> Cell:
    """A cell scored from its views' logits; targets_pv: per-view targets, one target or None."""
    is_targeted = attacks.targeted(family)
    pred, tracked = train.score_views(logits, targets_pv if is_targeted else labels)
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

    Per object, attack_object crafts on its training views and carries the
    delta (viap's shared delta, or the per-image families' mean training
    noise) to its test views. eps = 0 short-circuits to clean images for
    every family: its cells read the clean forward pass of each split that
    the gate reads. The per-image families share one clean-view first step
    (loss and gradient sign) per object and direction (attacks.clean_sign).

    Objects are independent, so the sweep is one work list of every
    (family, eps > 0, object), run in one round on `jobs` processes
    (forked.Helpers): this one and the crafters, forked after the clean
    signs are taken. Each item attacks its object and sends back the logits
    of its views and their sample pixels, never the views. Every output bit,
    and the order of samples, is the same for any jobs.

    Logits are kept per (family, eps) in one array indexed by dataset row,
    which each cell slices by split and scores as the gate does. Views are
    read from dataset.images by row when a stage needs them, so no split of
    the images is copied.
    """
    images, labels = dataset.images, dataset.labels
    splits = {split: dataset.indices(split) for split in ("train", "test")}
    k = dataset.n_classes

    # one clean forward per split serves the gate and every eps = 0 cell
    clean, clean_logits = {}, np.empty((len(images), k))
    for split, idx in splits.items():
        clean_logits[idx] = nn.forward(params, images, idx)
        clean[f"{split}_acc"], clean[f"{split}_true_softmax"] = train.clean_metrics(
            clean_logits[idx], labels[idx])
    if clean["train_acc"] < config.gate_train or clean["test_acc"] < config.gate_test:
        raise GateFailure(
            {"train_acc": clean["train_acc"], "test_acc": clean["test_acc"],
             "gate_train": config.gate_train, "gate_test": config.gate_test}
        )

    # an object's views as rows of images: (train rows, test rows)
    objects = dataset.objects()
    rows = {o: tuple(dataset.indices(split, object_id=o) for split in splits) for o in objects}
    targets = {o: draw_target(config.seed, o, int(labels[rows[o][0][0]]), k) for o in objects}
    row_target = np.array([targets[int(o)] for o in dataset.object_ids], dtype=np.int64)

    # one sample view per class for the image dumps: the class's first test view
    _, first = np.unique(labels[splits["test"]], return_index=True)
    sample_rows = splits["test"][first].tolist()
    result = SweepResult(
        config=config, clean=clean, targets=targets,
        split_indices={split: idx.tolist() for split, idx in splits.items()},
        samples_clean={r: ppm_pixels(images[r]) for r in sample_rows},
    )

    # fgsm's step and bim's first step take the loss and gradient sign at the
    # clean training views, the same at every eps: one call per object and
    # direction (untargeted / targeted) serves them all
    directions = {attacks.targeted(f) for f in config.families if f not in attacks.VIAP_FAMILIES}
    clean_steps = {
        (o, tgt): attacks.clean_sign(params, images[tr],
                                     np.full(len(tr), targets[o]) if tgt else labels[tr])
        for o, (tr, _) in rows.items() for tgt in directions if max(config.eps_grid) > 0
    }

    # the work list: every (family, eps > 0, object), objects innermost; each
    # item attacks its object and scores its own views on the process it ran on
    work = [(family, eps, o) for family, eps in itertools.product(config.families, config.eps_grid)
            if eps > 0.0 for o in objects]
    logits = {(f, e): np.empty((len(images), k)) for f, e, _ in work}
    samples = [None] * len(work)

    def craft_and_score(i):
        family, eps, o = work[i]
        *_, adv_test, logits_train, logits_test = attack_object(
            params, dataset, config.attack_config(family, eps, targets[o]), config.seed, o,
            clean_steps.get((o, attacks.targeted(family))))
        return (logits_train, logits_test,
                {(family, float(eps), int(r)): ppm_pixels(adv_test[j])
                 for j, r in enumerate(rows[o][1]) if r in sample_rows})

    def keep(i, scored):
        family, eps, o = work[i]
        found = logits[(family, eps)]
        found[rows[o][0]], found[rows[o][1]], samples[i] = scored

    with forked.Helpers(jobs, craft_and_score, keep, len(work), "crafter") as crafters:
        crafters.run()
    for found in samples:
        result.samples.update(found)
    for family, eps in itertools.product(config.families, config.eps_grid):
        found = logits.get((family, eps), clean_logits)
        result.cells += [_make_cell(family, eps, split, found[idx], labels[idx], row_target[idx])
                         for split, idx in splits.items()]

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

    def put(name: str, text: str) -> None:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
        written.append(name)

    rows = ["family,epsilon,split,metric,mean,std,n"]
    for c in sweep.cells:
        rows.append(
            f"{c.family},{_fmt_eps(c.eps)},{c.split},{c.metric},"
            f"{repr(c.mean)},{repr(c.std)},{c.n}"
        )
    put("report.csv", "\n".join(rows) + "\n")

    rows = ["family,split,metric,mean,std"]
    for family in sweep.config.families:
        for split in ("train", "test"):
            cells = [c for c in sweep.cells if c.family == family and c.split == split]
            means = np.array([c.mean for c in cells])
            rows.append(
                f"{family},{split},{cells[0].metric},"
                f"{repr(float(means.mean()))},{repr(float(means.std()))}"
            )
    put("summary.csv", "\n".join(rows) + "\n")

    if ttests:
        rows = ["pair,t,df,p_value,n_a,n_b"]
        for t in ttests:
            rows.append(f"{t.label},{repr(t.t)},{repr(t.df)},{repr(t.p_value)},{t.n_a},{t.n_b}")
        put("significance.csv", "\n".join(rows) + "\n")

    report = {
        "config": asdict(sweep.config),
        "clean": sweep.clean,
        "targets": {str(k): v for k, v in sorted(sweep.targets.items())},
        "split_indices": sweep.split_indices,
        "cells": [c.to_json_dict() for c in sweep.cells],
        "ttests": [asdict(t) for t in ttests],
        "footnotes": list(_FOOTNOTES),
    }
    # streamed: the whole text at once would raise the sweep's peak memory
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
