"""Adversarial attack families: FGSM, BIM, and view-invariant perturbations.

All epsilons and step sizes in configs are on the 0-255 scale (so eps=5 means
5/255 in image units); conversion happens here, once. Two sign-step kernels
serve the six families: bim_batch perturbs each image of a stack
independently (fgsm, fgsm-t, bim, bim-t; fgsm is its single eps-sized step),
and viap_arrays crafts one image-shaped noise field shared by a stack of
views of one object (viap, viap-t). craft picks the kernel for a family and
names the one delta that carries its attack to unseen views.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from viapkit import nn, prng, render

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
    step: float | None = None       # None -> max(2.5*eps/N, 0.5)/255; fgsm families ignore it
    iterations: int | None = None   # None -> 1 for FGSM families, 20 otherwise
    target: int | None = None
    rho: float = DEFAULT_RHO        # VIAP init amplitude, already in [0,1] units
    seed: int = 0
    literal_eq_step: bool = False   # force step = eps, bypassing the step rule

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown attack family {self.family!r}; know {FAMILIES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")
        if not (0.0 <= self.eps < math.inf):
            raise ValueError(f"eps must be finite and >= 0; got {self.eps}")
        iters = self.iterations
        if iters is None:
            iters = 1 if self.family in SINGLE_STEP_FAMILIES else DEFAULT_ITERATIONS
            object.__setattr__(self, "iterations", iters)
        if iters < 1:
            raise ValueError("iterations must be >= 1")
        if self.family in SINGLE_STEP_FAMILIES and iters != 1:
            raise ValueError(f"{self.family} is single-step; iterations must be 1")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be >= 0 and <= 1 (image units); got {self.rho}")
        if self.step is not None and not (0.0 < self.step < math.inf):
            raise ValueError(f"explicit step must be positive and finite; got {self.step}")
        if self.eps > 0.0 and not (self.step_unit > 0.0):
            raise ValueError("resolved step is not positive")

    @property
    def eps_unit(self) -> float:
        """eps in [0,1] image units."""
        return self.eps / 255.0

    @property
    def step_unit(self) -> float:
        """Per-iteration step in [0,1] image units; eps itself for fgsm families."""
        if self.literal_eq_step or self.family in SINGLE_STEP_FAMILIES:
            return self.eps_unit
        if self.step is not None:
            return self.step / 255.0
        return max(2.5 * self.eps / self.iterations, MIN_AUTO_STEP) / 255.0


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_delta(delta: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Add a universal noise field to one image or a stack; clamp to [0,1]."""
    if images.shape[-3:] != delta.shape:
        raise ValueError(f"delta shape {delta.shape} does not match images {images.shape}")
    return np.clip(images + delta, 0.0, 1.0)


def _check_in_ball(delta: np.ndarray, config: AttackConfig) -> None:
    """Reject a delta with any coordinate outside config's eps ball."""
    if np.abs(delta).max(initial=0.0) > config.eps_unit + 1e-12:
        raise ValueError("delta exceeds the eps ball")


# ---------------------------------------------------------------------------
# Sign-step kernels
# ---------------------------------------------------------------------------

def loss_labels(config: AttackConfig, labels) -> np.ndarray:
    """Labels whose loss an attack steps on, given the true labels of a stack.

    Untargeted families ascend the true-label loss; targeted ones descend the
    loss of config.target, which must exist and differ from every true label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not targeted(config.family):
        return labels
    if config.target is None:
        raise ValueError(f"{config.family} needs a target label in the config")
    if np.any(labels == config.target):
        raise ValueError(f"target label {config.target} equals a true label of the stack")
    return np.full(labels.shape, int(config.target), dtype=np.int64)


def clean_sign(params: nn.ModelParams, images: np.ndarray, loss_labels) -> tuple[float, np.ndarray]:
    """Loss and int8 gradient sign at the clean images: bim_batch's first step.

    loss_labels are those loss_labels() returns. Neither depends on eps, so
    one call serves every fgsm step and every bim first step on the same
    stack and labels, as bim_batch's first_step.
    """
    loss, grad = nn.loss_and_input_grad(params, images, loss_labels)
    return loss, np.sign(grad).astype(np.int8)


def _sign_steps(grad, delta: np.ndarray, config: AttackConfig, trace=None, first_step=None):
    """BIM's update (Kurakin et al. 2016) on delta; returns the final delta.

    grad(delta) is the (loss, gradient) the step follows; first_step, if
    given, stands for the first call. Each step ascends the loss (untargeted)
    or descends it (targeted) by step_unit times the gradient's sign, and
    clamps delta back to [-eps, +eps]. trace(n, delta, loss, g) sees every
    step's new delta and the loss and gradient it came from.

    The budget accumulates in delta rather than by clipping a position
    against the ball: the forms agree mathematically, but only this one
    walks the same float path for bim's clamped views and viap's raw ones,
    bit for bit on a single view while the range clamp is slack.
    """
    e = config.eps_unit
    step = config.step_unit
    sgn = -1.0 if targeted(config.family) else 1.0
    for n in range(config.iterations):
        loss, g = first_step if n == 0 and first_step is not None else grad(delta)
        delta = np.clip(delta + sgn * step * np.sign(g), -e, e)
        if trace is not None:
            trace(n, delta, loss, g)
    return delta


def bim_batch(
    params: nn.ModelParams,
    images: np.ndarray,
    labels,
    config: AttackConfig,
    trace=None,
    *,
    first_step: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """Sign steps per image, each from the gradient at the range-clamped views.

    The kernel of fgsm, fgsm-t, bim and bim-t; fgsm is one step of size eps.
    labels are the true labels; a targeted family reads its target from
    config. delta starts at zero and each image in the stack evolves
    independently (sign() makes the batch mean-loss scaling irrelevant).
    first_step, if given, is clean_sign() of the same stack and loss labels
    and replaces the first gradient call with the same bits. Returns the
    adversarial views clip(images + delta, 0, 1).
    """
    images = nn.as_f64(images)
    if first_step is not None and first_step[1].shape != images.shape:
        raise ValueError(f"first_step's sign has shape {first_step[1].shape}, not {images.shape}")
    y = loss_labels(config, labels)

    def grad(delta):
        return nn.loss_and_input_grad(params, np.clip(images + delta, 0.0, 1.0), y)

    delta = _sign_steps(grad, np.zeros_like(images), config, trace, first_step)
    return np.clip(images + delta, 0.0, 1.0)


# ---------------------------------------------------------------------------
# View-invariant perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """A delta file's record; final_loss is the attack loss of craft's adv_views."""

    delta: np.ndarray
    config: AttackConfig
    view_ids: tuple
    final_loss: float

    def __post_init__(self):
        delta = nn.as_f64(self.delta)
        if delta.ndim != 3:
            raise ValueError("delta must be one image-shaped (H, W, C) array")
        _check_in_ball(delta, self.config)
        delta = delta.copy()
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        render._require_count("view id", *self.view_ids)
        object.__setattr__(self, "view_ids", tuple(self.view_ids))

    def apply(self, images: np.ndarray) -> np.ndarray:
        return apply_delta(self.delta, images)


def shared_gradient(
    params: nn.ModelParams, images: np.ndarray, labels
) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient w.r.t. a noise field shared by all views.

    Because every view sees the same additive delta, d(loss)/d(delta) is the
    sum over views of the per-view input gradients (the shared-delta form of
    expectation over transformation). The sum is taken before conv1's
    input-grad, so one reduced backward pass computes it.
    """
    graph = nn.forward_graph(params, images)
    loss, dlogits = nn.loss_and_dlogits(graph, labels)
    grad, _ = graph.backward(dlogits, sum_input=True)
    nn.require_finite("input gradient", grad)
    return loss, grad[0]


def viap_arrays(
    params: nn.ModelParams,
    images: np.ndarray,
    labels: np.ndarray,
    config: AttackConfig,
    trace=None,
) -> np.ndarray:
    """Craft one universal delta over a stack of views: the viap / viap-t kernel.

    labels are the true labels; viap-t reads its target from config. delta
    starts at U(-rho, rho) projected into the ball, then takes sign steps on
    the shared gradient. The crafting batch is the raw X_i + delta (no
    pixel-range clamp); the clamp to [0,1] belongs to application time,
    keeping delta view-independent. Returns the final delta.
    """
    images = nn.as_f64(images)
    if images.ndim != 4 or images.shape[0] < 1:
        raise ValueError("need a non-empty stack of views")
    y = loss_labels(config, labels)
    shape = images.shape[1:]
    rng = prng.PCG64(config.seed)
    delta = rng.uniform(-config.rho, config.rho, size=shape) if config.rho > 0 else np.zeros(shape)
    delta = np.clip(delta, -config.eps_unit, config.eps_unit)
    return _sign_steps(lambda d: shared_gradient(params, images + d, y), delta, config, trace)


def craft(
    params: nn.ModelParams, images: np.ndarray, labels, config: AttackConfig,
    *, first_step: tuple[float, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attack a stack of one object's views; returns (adv_views, delta).

    delta carries the attack to unseen views: viap's shared delta, or the
    per-image families' mean noise (a mean of eps-ball noises stays in the ball).
    first_step is passed on to bim_batch; the viap families do not use it.
    """
    if config.family in VIAP_FAMILIES:
        delta = viap_arrays(params, images, labels, config)
        adv_views = apply_delta(delta, images)
    else:
        adv_views = bim_batch(params, images, labels, config, first_step=first_step)
        delta = (adv_views - images).mean(axis=0)
    _check_in_ball(delta, config)
    return adv_views, delta


# ---------------------------------------------------------------------------
# Perturbation file I/O
# ---------------------------------------------------------------------------

def save_perturbation(p: Perturbation, path) -> None:
    """magic + u32 JSON header length + header + raw little-endian f64 delta."""
    header = {
        "config": asdict(p.config),
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


# The JSON types a delta header's config fields may take: None where
# AttackConfig allows it, and no bool where a number is meant.
_CONFIG_TYPES = {
    "family": (str,), "eps": (int, float), "step": (int, float, type(None)),
    "iterations": (int, type(None)), "target": (int, type(None)), "rho": (int, float),
    "seed": (int,), "literal_eq_step": (bool,),
}


def _config_from_header(config) -> AttackConfig:
    """AttackConfig of a delta header's config object; ValueError naming a field of the wrong type."""
    if type(config) is not dict:
        raise ValueError(f"config {config!r} is not an object")
    for name, value in config.items():
        if name in _CONFIG_TYPES and type(value) not in _CONFIG_TYPES[name]:
            raise ValueError(f"config field {name} {value!r} has the wrong type")
    return AttackConfig(**config)


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
        shape, view_ids, final_loss = (header[k] for k in ("shape", "view_ids", "final_loss"))
        render._require_count("shape extent", *shape)
        if type(final_loss) not in (int, float) or not math.isfinite(final_loss):
            raise ValueError(f"final_loss {final_loss!r} is not a finite number")
        payload = len(buf) - start - n
        if payload != 8 * math.prod(shape):
            raise ValueError(f"{payload} payload bytes do not hold a float64 array of shape {shape}")
        return Perturbation(
            delta=np.frombuffer(buf, dtype="<f8", offset=start + n).reshape(shape),
            config=_config_from_header(header["config"]),
            view_ids=view_ids,
            final_loss=final_loss,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed perturbation file: {exc}") from exc
