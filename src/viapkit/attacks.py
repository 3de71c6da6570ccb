"""Adversarial attack families: FGSM, BIM, and view-invariant perturbations.

All epsilons and step sizes in configs are on the 0-255 scale (so eps=5 means
5/255 in image units); conversion happens here, once. The VIAP families craft
a single image-shaped noise field over a stack of views of one object; the
per-image families perturb each image independently.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from viapkit import nn
from viapkit.render import stack_views

FAMILIES = ("fgsm", "fgsm-t", "bim", "bim-t", "viap", "viap-t")
TARGETED_FAMILIES = frozenset({"fgsm-t", "bim-t", "viap-t"})
VIAP_FAMILIES = frozenset({"viap", "viap-t"})
SINGLE_STEP_FAMILIES = frozenset({"fgsm", "fgsm-t"})

DEFAULT_ITERATIONS = 20
DEFAULT_RHO = 0.01
MIN_AUTO_STEP = 0.5  # 0-255 scale

DELTA_MAGIC = b"VIAPDLT1"


def targeted(family: str) -> bool:
    return family in TARGETED_FAMILIES


@dataclass(frozen=True)
class AttackConfig:
    """One attack family plus its knobs; eps/step on the 0-255 scale."""

    family: str
    eps: float
    step: float | None = None       # None -> max(2.5*eps/N, 0.5)/255
    iterations: int | None = None   # None -> 1 for FGSM families, 20 otherwise
    target: int | None = None
    rho: float = DEFAULT_RHO        # VIAP init amplitude, already in [0,1] units
    seed: int = 0
    literal_eq_step: bool = False   # force step = eps, bypassing the step rule

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown attack family {self.family!r}; know {FAMILIES}")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")
        iters = self.iterations
        if iters is None:
            iters = 1 if self.family in SINGLE_STEP_FAMILIES else DEFAULT_ITERATIONS
            object.__setattr__(self, "iterations", iters)
        if iters < 1:
            raise ValueError("iterations must be >= 1")
        if self.family in SINGLE_STEP_FAMILIES and iters != 1:
            raise ValueError(f"{self.family} is single-step; iterations must be 1")
        if self.rho < 0.0:
            raise ValueError("rho must be >= 0")
        if self.step is not None and not (self.step > 0.0):
            raise ValueError("explicit step must be positive")
        if self.eps > 0.0 and not (self.step_unit > 0.0):
            raise ValueError("resolved step is not positive")

    @property
    def eps_unit(self) -> float:
        """eps in [0,1] image units."""
        return self.eps / 255.0

    @property
    def step_unit(self) -> float:
        """Per-iteration step in [0,1] image units."""
        if self.literal_eq_step:
            return self.eps / 255.0
        if self.step is not None:
            return self.step / 255.0
        return max(2.5 * self.eps / self.iterations, MIN_AUTO_STEP) / 255.0

    def with_target(self, target: int) -> "AttackConfig":
        return replace(self, target=int(target))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "eps": self.eps,
            "step": self.step,
            "iterations": self.iterations,
            "target": self.target,
            "rho": self.rho,
            "seed": self.seed,
            "literal_eq_step": self.literal_eq_step,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AttackConfig":
        return cls(**{k: d[k] for k in (
            "family", "eps", "step", "iterations", "target", "rho", "seed",
            "literal_eq_step",
        ) if k in d})


# ---------------------------------------------------------------------------
# Clipping / application
# ---------------------------------------------------------------------------

def clip_ball(adv: np.ndarray, clean: np.ndarray, eps: float) -> np.ndarray:
    """Project into the L-inf eps-ball around clean AND into valid pixel range.

    eps here is in [0,1] image units. Elementwise this is
    min(max(adv, clean-eps, 0), clean+eps, 1).
    """
    if adv.shape != clean.shape:
        raise ValueError("adv and clean shapes differ")
    return np.clip(np.clip(adv, clean - eps, clean + eps), 0.0, 1.0)


def apply_delta(delta: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Add a universal noise field to one image or a stack; clamp to [0,1]."""
    if images.shape[-3:] != delta.shape:
        raise ValueError(f"delta shape {delta.shape} does not match images {images.shape}")
    return np.clip(images + delta, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Per-image families
# ---------------------------------------------------------------------------

def _label_vec(y, batch: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.ndim == 0:
        return np.full(batch, int(y), dtype=np.int64)
    return y


def fgsm_batch(params: nn.ModelParams, images: np.ndarray, labels, eps: float) -> np.ndarray:
    """One ascent step on the true-label loss, per image; range-clamped."""
    images = nn.as_f64(images)
    _, grad = nn.loss_and_input_grad(params, images, _label_vec(labels, images.shape[0]))
    return np.clip(images + (eps / 255.0) * np.sign(grad), 0.0, 1.0)


def fgsm_targeted_batch(
    params: nn.ModelParams, images: np.ndarray, target, eps: float, plus_form: bool = False
) -> np.ndarray:
    """One descent step on the target-label loss (default minus form).

    plus_form=True gives the ascending variant instead, for completeness; it
    pushes confidence off the target rather than toward it.
    """
    images = nn.as_f64(images)
    _, grad = nn.loss_and_input_grad(params, images, _label_vec(target, images.shape[0]))
    sgn = 1.0 if plus_form else -1.0
    return np.clip(images + sgn * (eps / 255.0) * np.sign(grad), 0.0, 1.0)


def bim_batch(
    params: nn.ModelParams,
    images: np.ndarray,
    labels,
    config: AttackConfig,
    trace=None,
) -> np.ndarray:
    """Iterated sign steps with per-iteration ball and range clipping, per image.

    Each image in the stack evolves independently (sign() makes the batch
    mean-loss scaling irrelevant). For family bim-t the step descends the
    target-label loss; labels must then be the target.

    The budget accumulates in its own field rather than by clipping the
    position against the ball: the forms agree mathematically, but only this
    one retraces viap's float arithmetic bit for bit on a single view while
    the range clamp is slack.
    """
    images = nn.as_f64(images)
    y = _label_vec(labels, images.shape[0])
    e = config.eps_unit
    step = config.step_unit
    sgn = -1.0 if targeted(config.family) else 1.0
    adv = images.copy()
    delta = np.zeros_like(images)
    for n in range(config.iterations):
        _, grad = nn.loss_and_input_grad(params, adv, y)
        delta = np.clip(delta + sgn * step * np.sign(grad), -e, e)
        adv = np.clip(images + delta, 0.0, 1.0)
        if trace is not None:
            trace(n, adv)
    return adv


def fgsm(params: nn.ModelParams, view, eps: float) -> np.ndarray:
    return fgsm_batch(params, view.image[None], view.label, eps)[0]


def fgsm_targeted(
    params: nn.ModelParams, view, eps: float, target: int, plus_form: bool = False
) -> np.ndarray:
    if target == view.label:
        raise ValueError("target label equals the true label")
    return fgsm_targeted_batch(params, view.image[None], target, eps, plus_form)[0]


def bim(params: nn.ModelParams, view, config: AttackConfig) -> np.ndarray:
    if targeted(config.family):
        if config.target is None:
            raise ValueError("bim-t needs a target label")
        if config.target == view.label:
            raise ValueError("target label equals the true label")
        y = config.target
    else:
        y = view.label
    return bim_batch(params, view.image[None], y, config)[0]


# ---------------------------------------------------------------------------
# View-invariant perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """A universal noise field: one delta applied unchanged to every view."""

    delta: np.ndarray
    config: AttackConfig
    view_ids: tuple
    final_loss: float

    def __post_init__(self):
        delta = nn.as_f64(self.delta)
        if delta.ndim != 3:
            raise ValueError("delta must be one image-shaped (H, W, C) array")
        if np.abs(delta).max(initial=0.0) > self.config.eps_unit + 1e-12:
            raise ValueError("delta exceeds the eps ball")
        delta = delta.copy()
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "view_ids", tuple(int(v) for v in self.view_ids))

    def apply(self, images: np.ndarray) -> np.ndarray:
        return apply_delta(self.delta, images)


def apply(perturbation: Perturbation, view) -> np.ndarray:
    """clamp(X + delta, 0, 1) — the same delta bits for any view passed in."""
    return apply_delta(perturbation.delta, view.image)


def shared_gradient(
    params: nn.ModelParams, images: np.ndarray, labels
) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient w.r.t. a noise field shared by all views.

    Because every view sees the same additive delta, d(loss)/d(delta) is the
    sum over views of the per-view input gradients; one batched backward pass
    computes it.
    """
    images = nn.as_f64(images)
    loss, grad = nn.loss_and_input_grad(params, images, _label_vec(labels, images.shape[0]))
    return loss, grad.sum(axis=0)


def viap_arrays(
    params: nn.ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    config: AttackConfig,
    is_targeted: bool | None = None,
    view_ids=(),
    trace=None,
) -> Perturbation:
    """Craft a universal delta over a stack of views (array-level core).

    delta starts at U(-rho, rho) projected into the ball, then takes
    sign-of-shared-gradient steps — ascending the true-label loss
    (untargeted) or descending the target-label loss (targeted) — with a
    clamp back to [-eps, +eps] after every update. The crafting batch is the
    raw X_i + delta (no pixel-range clamp); the clamp to [0,1] belongs to
    application time, keeping delta view-independent.
    """
    images = nn.as_f64(images)
    if images.ndim != 4 or images.shape[0] < 1:
        raise ValueError("need a non-empty stack of views")
    if is_targeted is None:
        is_targeted = targeted(config.family)
    true_labels = np.asarray(labels, dtype=np.int64)
    if is_targeted:
        if config.target is None:
            raise ValueError("targeted mode needs a target label in the config")
        if int(config.target) in set(true_labels.tolist()):
            raise ValueError("target label equals a true label of the view stack")
        y = np.full(images.shape[0], int(config.target), dtype=np.int64)
    else:
        y = true_labels

    e = config.eps_unit
    step = config.step_unit
    sgn = -1.0 if is_targeted else 1.0
    shape = images.shape[1:]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    delta = rng.uniform(-config.rho, config.rho, size=shape) if config.rho > 0 else np.zeros(shape)
    delta = np.clip(delta, -e, e)

    for n in range(config.iterations):
        loss, g = shared_gradient(params, images + delta, y)
        delta = np.clip(delta + sgn * step * np.sign(g), -e, e)
        if trace is not None:
            trace(n, delta, loss, g)

    final_loss, _ = nn.softmax_cross_entropy(nn.forward(params, images + delta), y)
    return Perturbation(delta=delta, config=config, view_ids=view_ids, final_loss=final_loss)


def viap(
    params: nn.ModelParams,
    views,
    config: AttackConfig,
    is_targeted: bool | None = None,
    trace=None,
) -> Perturbation:
    """Craft a view-invariant perturbation from a list of labeled views."""
    images, labels = stack_views(views)
    return viap_arrays(
        params, images, labels, config, is_targeted,
        view_ids=[v.view_id for v in views], trace=trace,
    )


# ---------------------------------------------------------------------------
# Perturbation file I/O
# ---------------------------------------------------------------------------

def save_perturbation(p: Perturbation, path) -> None:
    """magic + u32 JSON header length + header + raw little-endian f64 delta."""
    header = {
        "config": p.config.to_json_dict(),
        "view_ids": list(p.view_ids),
        "final_loss": p.final_loss,
        "shape": list(p.delta.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DELTA_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(p.delta, dtype="<f8").tobytes())


def load_perturbation(path) -> Perturbation:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(DELTA_MAGIC)] != DELTA_MAGIC:
        raise ValueError(f"{path}: bad magic, not a perturbation file")
    start = len(DELTA_MAGIC) + 4
    if len(buf) < start:
        raise ValueError(f"{path}: file ends inside the header length")
    (n,) = struct.unpack_from("<I", buf, len(DELTA_MAGIC))
    if start + n > len(buf):
        raise ValueError(f"{path}: header length {n} runs past the end of the file")
    try:
        header = json.loads(buf[start : start + n].decode("utf-8"))
        shape = tuple(int(d) for d in header["shape"])
        payload = len(buf) - start - n
        if payload != 8 * math.prod(shape):
            raise ValueError(f"{payload} payload bytes do not hold a float64 array of shape {shape}")
        return Perturbation(
            delta=np.frombuffer(buf, dtype="<f8", offset=start + n).reshape(shape),
            config=AttackConfig.from_json_dict(header["config"]),
            view_ids=tuple(header["view_ids"]),
            final_loss=header["final_loss"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed perturbation file: {exc}") from exc
