"""Spans recorded from outside the program, by wrapping its functions.

A Tracer replaces module attributes (and ``nn.Graph.backward``) with thin
wrappers that record one span per call: name, start, end, parent span and
the id of the command it belongs to. Calls inside a module go through the
module's globals, so wrapping the attribute also catches them. Spans stay in
memory until the run ends. The program is single-threaded here (the sweep
runs with ``jobs`` = 1), so one stack of open spans gives every parent.

``restore()`` puts every original function back.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import types

# Stage timers of an untraced run, the only four calls wrapped there, and
# the metric each one gives.
STAGES = {
    "render.generate_dataset": "dataset_s",
    "train.train": "train_s",
    "evaluate.confidence_sweep": "sweep_s",
    "evaluate.emit_report": "report_s",
}

# Modules whose public functions a traced run wraps. Of ``cli`` only
# ``main`` is wrapped: the subcommand handlers (config merge and echo) are
# part of its self time.
TRACED_MODULES = ("render", "nn", "train", "attacks", "evaluate")


def _rows(arr) -> int:
    return int(arr.shape[0])


def _conv_layer(cin: int) -> str:
    # conv2 reads conv1's 8 channels; conv1 reads the image (3 channels).
    return "conv2" if cin == 8 else "conv1"


def _pool_layer(channels: int) -> str:
    return "pool1" if channels == 8 else "pool2"


def _im2col_bytes(shape) -> int:
    # The patch matrix nn._patches builds: (B, H, W, 9*C) float64.
    b, h, w, c = shape
    return b * h * w * 9 * c * 8


# A tag is [key, rows, bytes]: the layer or family a call belongs to, its
# batch size and, where it applies, the bytes it moves.

def _tag_conv2d(args, kwargs, result):
    x, w = args[0], args[1]
    return [_conv_layer(w.shape[2]), _rows(x), _im2col_bytes(x.shape)]


def _tag_conv2d_input_grad(args, kwargs, result):
    dy, w = args[0], args[1]
    return [_conv_layer(w.shape[2]), _rows(dy), _im2col_bytes(dy.shape)]


def _tag_conv2d_param_grad(args, kwargs, result):
    x = args[0]
    return [_conv_layer(x.shape[-1]), _rows(x), _im2col_bytes(x.shape)]


def _tag_maxpool2(args, kwargs, result):
    return [_pool_layer(args[0].shape[-1]), _rows(args[0])]


def _tag_maxpool2_input_grad(args, kwargs, result):
    x_shape = args[2] if len(args) > 2 else kwargs["x_shape"]
    return [_pool_layer(x_shape[-1]), int(x_shape[0])]


def _tag_batch(args, kwargs, result):
    return [None, _rows(args[1])]


def _tag_backward(args, kwargs, result):
    return [None, _rows(args[0].x)]


def _tag_family(family):
    def tag(args, kwargs, result):
        return [family, _rows(args[1])]
    return tag


def _tag_config_family(args, kwargs, result):
    return [args[3].family, _rows(args[1])]


def _tag_emit_report(args, kwargs, result):
    out_dir = args[2] if len(args) > 2 else kwargs["out_dir"]
    return [None, None, sum(os.path.getsize(os.path.join(out_dir, p)) for p in result)]


TAGS = {
    "nn.conv2d": _tag_conv2d,
    "nn.conv2d_input_grad": _tag_conv2d_input_grad,
    "nn.conv2d_param_grad": _tag_conv2d_param_grad,
    "nn.maxpool2": _tag_maxpool2,
    "nn.maxpool2_input_grad": _tag_maxpool2_input_grad,
    "nn.forward_graph": _tag_batch,
    "nn.forward": _tag_batch,
    "nn.loss_and_input_grad": _tag_batch,
    "nn.loss_and_param_grad": _tag_batch,
    "nn.Graph.backward": _tag_backward,
    "attacks.fgsm_batch": _tag_family("fgsm"),
    "attacks.fgsm_targeted_batch": _tag_family("fgsm-t"),
    "attacks.bim_batch": _tag_config_family,
    "attacks.viap_arrays": _tag_config_family,
    "evaluate.emit_report": _tag_emit_report,
}


class Tracer:
    """Records spans around wrapped functions until ``restore()``."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.command = 0
        # (name, start, end, parent index or -1, command, tag)
        self.spans: list = []
        self._open: list = []
        self._installed: list = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = inspect.getattr_static(owner, attr)
        tag = TAGS.get(name)
        spans, open_, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.command, None)
            if tag is not None:
                spans[idx] = (name, start, end, parent, self.command, tag(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                name, start, end, parent, command, tag = s
                fh.write(json.dumps({
                    "run": self.run_id, "command": command, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent, "tag": tag,
                }) + "\n")


def wrapper_cost(calls: int = 50_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    target = types.SimpleNamespace(noop=lambda: None)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        target.noop()
    bare = clock() - t0
    tracer = Tracer("calibration")
    tracer.wrap(target, "noop", "noop")
    t0 = clock()
    for _ in range(calls):
        target.noop()
    wrapped = clock() - t0
    tracer.restore()
    return (wrapped - bare) / calls


def public_functions(module) -> list:
    """Names of the plain functions a module defines and does not mark private."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


def install_stage_timers(tracer: Tracer, modules: dict) -> None:
    for name in STAGES:
        mod, fn = name.split(".")
        tracer.wrap(modules[mod], fn, name)


def install_full_trace(tracer: Tracer, modules: dict) -> None:
    for mod in TRACED_MODULES:
        for fn in public_functions(modules[mod]):
            tracer.wrap(modules[mod], fn, f"{mod}.{fn}")
    tracer.wrap(modules["nn"].Graph, "backward", "nn.Graph.backward")
    tracer.wrap(modules["cli"], "main", "cli.main")


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover.

    ``spans`` holds (name, start, end, parent, ...) tuples where parent is
    an index into the same list, or -1. Children of one span never overlap
    (one thread), so their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def stage_times(spans: list) -> dict:
    """Total time of each pipeline stage call among the spans."""
    out = {}
    for s in spans:
        stage = STAGES.get(s[0])
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + (s[2] - s[1])
    return out

# What each span adds to the per-layer metrics, as (keys, rules). SELF is
# the span's duration minus its wrapped children, INCL the whole duration;
# CALLS counts spans, ROWS sums batch sizes and BYTES sums the tag's byte
# count. ``{key}`` is the layer or attack family from the span's tag.
SELF, INCL, CALLS, ROWS, BYTES = "self", "incl", "calls", "rows", "bytes"

CONVS = ("conv1", "conv2")
POOLS = ("pool1", "pool2")
FAMILIES = ("fgsm", "fgsm-t", "bim", "bim-t", "viap", "viap-t")
_ONE = (None,)
_CRAFT = (("attacks.craft.{key}.s", INCL), ("attacks.craft.{key}.calls", CALLS))

LAYER_RULES = {
    "render.render": (_ONE, (("render.render.s", SELF), ("render.render.calls", CALLS))),
    "render.save_dataset": (_ONE, (("render.save_dataset.s", SELF),)),
    "render.load_dataset": (_ONE, (("render.load_dataset.s", SELF),
                                   ("render.load_dataset.calls", CALLS))),
    "nn.conv2d": (CONVS, (("nn.{key}.fwd.s", SELF), ("nn.{key}.im2col_bytes", BYTES))),
    "nn.conv2d_input_grad": (CONVS, (("nn.{key}.bwd_input.s", SELF),
                                     ("nn.{key}.bwd_input.calls", CALLS),
                                     ("nn.{key}.im2col_bytes", BYTES))),
    "nn.conv2d_param_grad": (CONVS, (("nn.{key}.bwd_param.s", SELF),
                                     ("nn.{key}.im2col_bytes", BYTES))),
    "nn.maxpool2": (POOLS, (("nn.{key}.fwd.s", SELF),)),
    "nn.maxpool2_input_grad": (POOLS, (("nn.{key}.bwd.s", SELF),)),
    "nn.dense": (_ONE, (("nn.dense.fwd.s", SELF),)),
    "nn.relu": (_ONE, (("nn.relu.s", SELF),)),
    "nn.softmax_cross_entropy": (_ONE, (("nn.softmax_cross_entropy.s", SELF),)),
    "nn.forward_graph": (_ONE, (("nn.forward_graph.calls", CALLS),
                                ("nn.forward_graph.rows", ROWS))),
    "nn.Graph.backward": (_ONE, (("nn.Graph.backward.calls", CALLS),
                                 ("nn.Graph.backward.rows", ROWS),
                                 ("nn.Graph.backward.s", SELF))),
    "nn.loss_and_input_grad": (_ONE, (("nn.loss_and_input_grad.calls", CALLS),
                                      ("nn.loss_and_input_grad.rows", ROWS))),
    "nn.loss_and_param_grad": (_ONE, (("nn.loss_and_param_grad.calls", CALLS),
                                      ("nn.loss_and_param_grad.rows", ROWS))),
    "nn.save_params": (_ONE, (("nn.save_params.s", SELF),)),
    "nn.load_params": (_ONE, (("nn.load_params.s", SELF), ("nn.load_params.calls", CALLS))),
    "train.train": (_ONE, (("train.train.s", SELF),)),
    "train.evaluate_clean": (_ONE, (("train.evaluate_clean.s", INCL),
                                    ("train.evaluate_clean.calls", CALLS))),
    "attacks.fgsm_batch": (("fgsm",), _CRAFT + (("attacks.fgsm_batch.s", SELF),)),
    "attacks.fgsm_targeted_batch": (("fgsm-t",), _CRAFT + (("attacks.fgsm_targeted_batch.s", SELF),)),
    "attacks.bim_batch": (("bim", "bim-t"), _CRAFT + (("attacks.bim_batch.s", SELF),)),
    "attacks.viap_arrays": (("viap", "viap-t"), _CRAFT + (("attacks.viap_arrays.s", SELF),)),
    "attacks.apply_delta": (_ONE, (("attacks.apply_delta.s", SELF),)),
    "evaluate.emit_report": (_ONE, (("evaluate.emit_report.s", INCL),
                                    ("evaluate.emit_report.bytes", BYTES))),
    "evaluate.welch_ttest": (_ONE, (("evaluate.welch_ttest.s", INCL),)),
    "cli.main": (_ONE, (("cli.main.s", SELF),)),
}

# Scoring: the forward passes confidence_sweep makes itself (not those of
# the clean gate, which run under train.evaluate_clean).
SCORE_METRIC = "evaluate.score.s"


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for keys, rules in LAYER_RULES.values():
        for template, _ in rules:
            for key in keys:
                name = template.format(key=key)
                if name not in names:
                    names.append(name)
    return names + [SCORE_METRIC]


def layer_metrics(spans: list) -> dict:
    """Per-layer times, counts and bytes from one traced run's spans."""
    out = {m: 0 if not m.endswith(".s") else 0.0 for m in layer_metric_names()}
    selfs = self_times(spans)
    for s, self_s in zip(spans, selfs):
        name, start, end, parent, _, tag = s
        if name == "nn.forward" and parent >= 0 and spans[parent][0] == "evaluate.confidence_sweep":
            out[SCORE_METRIC] += end - start
        for template, kind in LAYER_RULES.get(name, (None, ()))[1]:
            metric = template.format(key=tag[0] if tag else None)
            if kind == SELF:
                out[metric] += self_s
            elif kind == INCL:
                out[metric] += end - start
            elif kind == CALLS:
                out[metric] += 1
            elif kind == ROWS:
                out[metric] += tag[1]
            else:
                out[metric] += tag[2]
    return out


def function_table(spans: list) -> dict:
    """Calls, inclusive and self seconds per wrapped function."""
    table = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s[2] - s[1]
        row["self_s"] += self_s
    return table
