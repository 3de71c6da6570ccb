"""Victim-classifier training: seeded init, SGD + momentum, clean metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from viapkit import forked, nn, prng

DEFAULT_EPOCHS = 30
DEFAULT_BATCH = 16
DEFAULT_LR = 0.05
DEFAULT_MOMENTUM = 0.9

# Per-layer init gains (L2 norm per conv1 stencil, He-uniform bound factor
# for conv2).  The dense layer starts at exactly zero, so the first updates
# are pure logistic regression on frozen conv features and nothing flows
# back into the convs until the readout has found its footing; with lr 0.05
# + momentum 0.9 the effective step is large, and features much bigger than
# this feed the readout's early oscillations back into the convs hard
# enough to slam every conv2 channel negative within one epoch — after
# which the network is permanently at chance.  GAIN_CONV2 is the scale that
# matters there (it bounds the feature magnitude the dense layer sees);
# GAIN_CONV1 just keeps the first-layer responses comfortably above
# float noise.
GAIN_CONV1 = 10.0
GAIN_CONV2 = 0.05


class TrainingDiverged(RuntimeError):
    """Loss went non-finite mid-run; carries the epoch it happened in."""

    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = DEFAULT_EPOCHS
    batch_size: int = DEFAULT_BATCH
    lr: float = DEFAULT_LR
    momentum: float = DEFAULT_MOMENTUM
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be positive and finite; got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def init_params(
    seed: int,
    height: int = 32,
    width: int = 32,
    channels: int = 3,
    classes: int = 4,
) -> nn.ModelParams:
    """Fixed band-pass first layer, He-style second, zero readout; seeded.

    Conv1 is a deterministic quadrature bank: vertical 3-tap cosine/sine
    stencils at log-spaced periods, constant across columns and color
    channels.  Two things follow by construction: the response to any flat
    patch (the scene background) is exactly zero with zero bias, so no
    channel can be buried by the ~1000 background positions per image that
    otherwise dominate the bias gradient under the aggressive default
    optimizer; and the paired phases give every vertical frequency in the
    2.8-7.2 px band a channel that responds regardless of where the pattern
    sits, which makes the faint horizontal structure that actually
    separates the renderer's classes a large fraction of the feature signal
    instead of rounding error under the pose-driven clutter.  (Random
    stencils work too, but leave notches: a seed whose eight filters all
    happen to null one class's stripe period trains erratically.)
    Conv2 is plain He-uniform mixing; the dense readout starts at zero so
    early training is logistic regression on frozen features (see the gain
    comment above).
    """
    rng = prng.PCG64(seed)

    def he(shape, fan_in, gain):
        bound = gain * math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    n_periods = nn.CONV1_CHANNELS // 2
    periods = 2.8 * (7.2 / 2.8) ** (np.arange(n_periods) / max(n_periods - 1, 1))
    conv1_w = np.empty((3, 3, channels, nn.CONV1_CHANNELS))
    taps = np.arange(-1.0, 2.0)
    for k, period in enumerate(periods):
        omega = 2.0 * np.pi / period
        for phase, v in enumerate((np.cos(omega * taps), np.sin(omega * taps))):
            v = v - v.mean()
            stencil = v / np.sqrt((v * v).sum()) * (GAIN_CONV1 / math.sqrt(3.0 * channels))
            conv1_w[:, :, :, 2 * k + phase] = stencil[:, None, None]

    feat = (height // 4) * (width // 4) * nn.CONV2_CHANNELS
    return nn.ModelParams(
        height, width, channels, classes,
        conv1_w=conv1_w,
        conv1_b=np.zeros(nn.CONV1_CHANNELS),
        conv2_w=he((3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS), 9 * nn.CONV1_CHANNELS, GAIN_CONV2),
        conv2_b=np.zeros(nn.CONV2_CHANNELS),
        dense_w=np.zeros((feat, classes)),
        dense_b=np.zeros(classes),
    )


def train(
    params: nn.ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    rows: np.ndarray | None = None,
    val_rows: np.ndarray | None = None,
    jobs: int | None = None,
) -> tuple[nn.ModelParams, list[dict]]:
    """SGD with momentum over seeded per-epoch shuffles of images[rows].

    labels are aligned with images. Training reads the rows given (every
    row if rows is None) and, when val_rows is given, scores the held-out
    rows each epoch; each batch is read from images as it runs, so images
    may be a whole dataset's pixels and no split of them is ever copied.

    Returns the weights of best_epoch(log) together with the full per-epoch
    log: epoch, mean loss, and evaluate_clean's pair on the training split
    (train_acc, train_true_softmax) and, when val_rows is given, on the
    held-out rows (test_acc, test_true_softmax).

    Each epoch is scored while the next one trains: with jobs > 1 (see
    forked.Helpers) its weights go to one forked scorer process, and
    its accuracies are collected before the next epoch's weights are handed
    over. The log, the snapshot and the first error in epoch order are the
    same for any jobs.
    """
    images = nn.as_f64(images)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(images.shape[0]) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise ValueError("training split is empty")
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images and labels disagree on example count")

    weights = {f: getattr(params, f).copy() for f in nn.PARAM_FIELDS}
    velocity = {f: np.zeros_like(w) for f, w in weights.items()}
    n = len(rows)
    splits = [rows] if val_rows is None else [rows, val_rows]
    scores = []  # the scored epoch's (accuracy, true softmax) on each split
    log = []
    best_weights = None

    def run_epoch(epoch) -> float:
        """One epoch of steps, which rebind the arrays in weights; its mean loss."""
        order = prng.PCG64([config.seed, epoch]).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = rows[order[start : start + config.batch_size]]
            current = params.replace_weights(**weights)
            try:
                loss, grads = nn.loss_and_param_grad(current, images[idx], labels[idx])
            except ValueError as exc:
                raise TrainingDiverged(epoch, str(exc)) from exc
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch)
            loss_sum += loss * len(idx)
            for f in nn.PARAM_FIELDS:
                velocity[f] = config.momentum * velocity[f] - config.lr * grads[f]
                weights[f] = weights[f] + velocity[f]
        return loss_sum / n

    def score(epoch_weights, _):
        current = params.replace_weights(**epoch_weights)
        return [evaluate_clean(current, images, labels, split) for split in splits]

    def keep(_, split_scores):
        scores[:] = split_scores

    def record(epoch, loss, epoch_weights):
        nonlocal best_weights
        scorers.finish()
        entry = {"epoch": epoch, "loss": loss}
        for split, (acc, true_softmax) in zip(("train", "test"), scores):
            entry[f"{split}_acc"], entry[f"{split}_true_softmax"] = acc, true_softmax
        log.append(entry)
        if best_epoch(log) is entry:
            best_weights = epoch_weights

    pending = None  # the epoch being scored: (epoch, loss, its weights)
    try:
        with forked.Helpers(jobs, score, keep, 1, "scorer") as scorers:
            for epoch in range(config.epochs):
                try:
                    loss = run_epoch(epoch)
                finally:
                    # the epoch before is scored first, so its error comes first
                    if pending is not None:
                        record(*pending)
                pending = epoch, loss, dict(weights)
                scorers.start(pending[2])
            record(*pending)
    finally:
        # a training batch's patch matrices are the largest any later stage needs
        nn.free_scratch()

    return params.replace_weights(**best_weights), log


def best_epoch(log: list[dict]) -> dict:
    """The log entry whose weights train returns: highest train accuracy, earliest on ties.

    The snapshot looks at training accuracy only. At some train seeds the
    large default step leaves the run short of the clean gate or at chance;
    dead conv2 channels do not tell those runs apart (9-15 of 16 are dead in
    runs that pass and in runs that fail), and clipping the gradient norm
    was measured to fix them. Keeping the best epoch makes the outcome
    insensitive to a late drop.
    """
    return max(log, key=lambda e: (e["train_acc"], -e["epoch"]))


def evaluate_clean(
    params: nn.ModelParams, images: np.ndarray, labels: np.ndarray, rows=None
) -> tuple[float, float]:
    """(top-1 accuracy, mean softmax mass on the true label) over images[rows].

    labels are aligned with images; rows None means every row.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if rows is not None:
        labels = labels[rows]
    if len(labels) == 0:
        raise ValueError("empty split")
    return clean_metrics(nn.forward(params, images, rows), labels)


def clean_metrics(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """evaluate_clean's (top-1 accuracy, mean true-label softmax) from a split's logits."""
    pred, true_conf = score_views(logits, labels)
    return float(np.mean(pred == labels)), float(np.mean(true_conf))


def score_views(logits: np.ndarray, tracked) -> tuple[np.ndarray, np.ndarray]:
    """Each view's prediction, the argmax of its logits, and its softmax mass on tracked.

    tracked is a label or one per view. A softmax row never ranks: its
    rounding can tie labels that the logits tell apart.
    """
    probs = nn.softmax(logits)
    return np.argmax(logits, axis=1), probs[np.arange(len(logits)), tracked]


def log_csv(log: list[dict]) -> str:
    """Render a training log as the CSV written next to saved weights."""
    lines = ["epoch,loss,train_acc,test_acc"]
    for e in log:
        test = repr(e["test_acc"]) if "test_acc" in e else ""
        lines.append(f"{e['epoch']},{repr(e['loss'])},{repr(e['train_acc'])},{test}")
    return "\n".join(lines) + "\n"
