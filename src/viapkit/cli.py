"""Command-line pipeline: dataset | train | attack | sweep.

Every subcommand resolves its configuration from defaults <- JSON config
file <- explicit flags (flags win), prints the resolved config, and writes
it verbatim as config.json into the output directory. Nothing here reads
wall-clock time or any other ambient randomness, so a fixed config + seed
reproduces every output byte. sweep's --jobs (how many processes render,
train and craft; dataset and train use every core) is not a config key: no
output byte depends on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import typing

from viapkit import attacks, evaluate, forked, nn, render
from viapkit import train as train_mod

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_GATE = 3
# the reader closed standard output (say, `| head -1`): the status a shell
# reports for a process that SIGPIPE ends, 128 + 13
EXIT_PIPE = 141

# Each command's defaults are the keyword defaults of what reads them.
DEFAULT_DATASET_CFG = {
    name: p.default
    for name, p in inspect.signature(render.generate_dataset).parameters.items()
    if p.kind is p.KEYWORD_ONLY
}
DEFAULT_TRAIN_CFG = dataclasses.asdict(train_mod.TrainConfig())
# the sweep's seed is the config file's top-level seed
DEFAULT_SWEEP_CFG = {
    k: v for k, v in dataclasses.asdict(evaluate.SweepConfig()).items() if k != "seed"
}
# attack adds the family and eps AttackConfig requires, a drawn target and
# which object to craft on
DEFAULT_ATTACK_CFG = {
    **{f.name: f.default for f in dataclasses.fields(attacks.AttackConfig)},
    "family": "viap", "eps": [5.0], "target": "random", "object": 0,
}

# The type each setting takes, from the same readers. attack reads eps and
# target itself first: one eps, as a number or a one-element list, and
# "random" for the target the sweep draws.
SETTING_TYPES = {
    "dataset": typing.get_type_hints(render.generate_dataset),
    "train": typing.get_type_hints(train_mod.TrainConfig),
    "sweep": typing.get_type_hints(evaluate.SweepConfig),
    "attack": {
        **typing.get_type_hints(attacks.AttackConfig),
        "eps": float | tuple[float, ...], "target": int | typing.Literal["random"], "object": int,
    },
}


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


# A config file is either flat (one command's keys) or split into these
# sections, next to an optional top-level "seed" that only sweep reads.
SECTIONS = ("dataset", "train", "attack", "sweep")


def _check_sections(cfg: dict) -> dict:
    unknown = sorted(set(cfg) - {*SECTIONS, "seed"})
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; expected sections {SECTIONS} or seed")
    if not all(isinstance(cfg.get(k, {}), dict) for k in SECTIONS):
        raise ValueError(f"config sections {SECTIONS} must be JSON objects")
    # the top-level seed is the sweep's, so it takes the sweep's seed type
    _merge({"seed": None}, SETTING_TYPES["sweep"], {k: v for k, v in cfg.items() if k == "seed"})
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """The named section of a config file, or the whole file if it has no sections."""
    return _check_sections(cfg).get(name, {}) if any(k in cfg for k in SECTIONS) else cfg


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


def _fits(value, hint) -> bool:
    """Whether a value read from JSON can stand for a setting of type hint.

    A JSON array stands for a tuple, and a whole number for a float; a bool
    is no number.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is typing.Literal:
        return value in args
    if args:  # a union
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _merge(defaults: dict, types: dict, file_cfg: dict, flags: dict | None = None) -> dict:
    """defaults <- config file values <- flags; a flag left None was not given.

    A file value must fit its setting's type, so null only sets a setting
    whose reader takes None.
    """
    out = dict(defaults)
    for k, v in file_cfg.items():
        if k not in defaults:
            raise ValueError(f"unknown config key {k!r}; expected one of {sorted(defaults)}")
        if not _fits(v, types[k]):
            raise ValueError(f"config key {k!r} takes {_type_name(types[k])}; got {json.dumps(v)}")
        out[k] = v
    out.update((k, v) for k, v in (flags or {}).items() if v is not None)
    return out


def _non_finite(cfg: dict, prefix: str = "") -> str:
    """The first setting in cfg, dotted by section, that holds a NaN or an infinity."""
    for k, v in sorted(cfg.items()):
        try:
            json.dumps(v, allow_nan=False)
        except ValueError:
            return _non_finite(v, f"{prefix}{k}.") if isinstance(v, dict) else prefix + k


def _echo_config(cfg: dict, out_dir, check=lambda: None):
    """Print cfg, write it to out_dir/config.json, then return check().

    check builds the command's settings and raises on a bad one; it runs
    after the echo, so a rejected run leaves its resolved config behind.
    Strict JSON has no NaN or infinity, so a config holding one is written
    nowhere: check runs first and names a setting it rejects, and a setting
    it accepts is named here (ValueError either way).
    """
    try:
        text = json.dumps(cfg, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        check()
        raise ValueError(f"setting {_non_finite(cfg)} is not a finite number") from None
    print("resolved config:")
    print(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            fh.write(text + "\n")
    return check()


# argparse prints an ArgumentTypeError's message, and hides any other's
def _parse_eps(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--eps expects a comma-separated list of numbers: {exc}") from exc


def _parse_target(text: str):
    try:
        return text if text == "random" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--target expects a label id or 'random'; got {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_dataset(args) -> int:
    file_cfg = _section(_load_config_file(args.config), "dataset")
    cfg = _merge(DEFAULT_DATASET_CFG, SETTING_TYPES["dataset"], file_cfg, {"seed": args.seed})
    out = args.out or "runs/dataset"
    _echo_config(cfg, out)
    ds = render.generate_dataset(out_dir=out, **cfg)
    n_train = int(ds.train_mask.sum())
    print(f"wrote {len(ds.labels)} views ({n_train} train / {len(ds.labels) - n_train} test) to {out}")
    return EXIT_OK


def _train_and_save(
    config: train_mod.TrainConfig, ds: render.Dataset, out, jobs: int | None = None
) -> tuple[nn.ModelParams, list[dict]]:
    """Train the victim on ds's train split; write weights.viapnet and train_log.csv.

    Returns the trained weights and the per-epoch log.
    """
    params = train_mod.init_params(config.seed, *ds.images.shape[1:], ds.n_classes)
    params, log = train_mod.train(params, ds.images, ds.labels, config, ds.indices("train"),
                                  ds.indices("test"), jobs=jobs)
    os.makedirs(out, exist_ok=True)
    nn.save_params(params, os.path.join(out, "weights.viapnet"))
    with open(os.path.join(out, "train_log.csv"), "w") as fh:
        fh.write(train_mod.log_csv(log))
    return params, log


def _load_weights(path, ds: render.Dataset, ds_path) -> nn.ModelParams:
    """The weights at path, refused unless their input and class count are the dataset's."""
    params = nn.load_params(path)
    theirs = (params.height, params.width, params.channels, params.classes)
    ours = (*ds.images.shape[1:], ds.n_classes)
    if theirs != ours:
        raise ValueError(f"weights {path} take (height, width, channels, classes) {theirs}, "
                         f"but dataset {ds_path} has {ours}")
    return params


def cmd_train(args) -> int:
    file_cfg = _section(_load_config_file(args.config), "train")
    cfg = _merge(DEFAULT_TRAIN_CFG, SETTING_TYPES["train"], file_cfg, {"seed": args.seed})
    out = args.out or "runs/model"
    tcfg = _echo_config(cfg, out, lambda: train_mod.TrainConfig(**cfg))

    ds = render.load_dataset(args.dataset)
    _, log = _train_and_save(tcfg, ds, out)
    best = train_mod.best_epoch(log)  # the saved weights' epoch, scored as it trained
    print(f"final train acc {best['train_acc']:.4f} "
          f"(true softmax {best['train_true_softmax']:.4f}), "
          f"test acc {best['test_acc']:.4f} (true softmax {best['test_true_softmax']:.4f})")
    print(f"wrote weights.viapnet and train_log.csv to {out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _merge(
        DEFAULT_ATTACK_CFG, SETTING_TYPES["attack"],
        _section(_load_config_file(args.config), "attack"),
        {
            "family": args.family, "eps": args.eps, "iterations": args.iters,
            "target": args.target, "seed": args.seed, "object": args.object,
            "literal_eq_step": True if args.literal_eq_step else None,
        },
    )
    out = args.out or "runs/attack"
    family = cfg["family"]

    def settings() -> attacks.AttackConfig:
        """The attack's config; attack_object sets a "random" target and the seed."""
        eps = cfg["eps"] if isinstance(cfg["eps"], list) else [cfg["eps"]]
        if len(eps) != 1:
            raise ValueError(f"attack crafts at one eps; got {eps} (use sweep for a grid)")
        acfg = attacks.AttackConfig(**{
            **{f.name: cfg[f.name] for f in dataclasses.fields(attacks.AttackConfig)},
            "eps": float(eps[0]), "target": None if cfg["target"] == "random" else cfg["target"],
        })
        if not attacks.targeted(family) and cfg["target"] != "random":
            raise ValueError(f"target {cfg['target']} selects nothing: {family} is untargeted")
        return acfg

    # a bad setting fails here, before the dataset and weights load
    acfg = _echo_config(cfg, out, settings)
    ds = render.load_dataset(args.dataset)
    params = _load_weights(args.weights, ds, args.dataset)
    o = cfg["object"]
    acfg, adv_train, delta, adv_test, logits_train, logits_test = evaluate.attack_object(
        params, ds, acfg, cfg["seed"], o)
    tr, te = (ds.indices(split, object_id=o) for split in ("train", "test"))
    true_label = int(ds.labels[tr[0]])
    loss, _ = nn.softmax_cross_entropy(logits_train, attacks.loss_labels(acfg, ds.labels[tr]))
    pert = attacks.Perturbation(delta, acfg, ds.view_ids[tr].tolist(), loss)

    attacks.save_perturbation(pert, os.path.join(out, "delta.viapdlt"))
    metrics = {"family": family, "eps": acfg.eps, "object": o, "true_label": true_label,
               "target": acfg.target, "final_loss": pert.final_loss}
    # o's share of the sweep's cells: train scores the crafted views, as final_loss does
    for split, idx, adv, logits in (("train", tr, adv_train, logits_train),
                                    ("test", te, adv_test, logits_test)):
        cell = evaluate._make_cell(family, acfg.eps, split, logits, ds.labels[idx], acfg.target)
        metrics[f"{split}_tracked_softmax"] = cell.mean
        metrics[f"{split}_top1_true"] = cell.top1_true
        write_idx = int(idx[0])
        render.write_ppm(ds.images[write_idx], os.path.join(out, f"clean_{split}_{write_idx}.ppm"))
        render.write_ppm(adv[0], os.path.join(out, f"adv_{split}_{write_idx}.ppm"))
    with open(os.path.join(out, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    print(f"wrote delta.viapdlt, metrics.json and sample ppms to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    file_cfg = _check_sections(_load_config_file(args.config))
    seed = args.seed if args.seed is not None else file_cfg.get("seed", evaluate.SweepConfig.seed)
    dataset_cfg = _merge(DEFAULT_DATASET_CFG, SETTING_TYPES["dataset"], file_cfg.get("dataset", {}))
    train_cfg = _merge(DEFAULT_TRAIN_CFG, SETTING_TYPES["train"], file_cfg.get("train", {}))
    sweep_cfg = _merge(
        DEFAULT_SWEEP_CFG, SETTING_TYPES["sweep"], file_cfg.get("sweep", {}),
        {
            "eps_grid": args.eps, "iterations": args.iters,
            "families": None if args.family is None else [
                tok for tok in args.family.split(",") if tok.strip() != ""],
            "literal_eq_step": True if args.literal_eq_step else None,
        },
    )
    out = args.out or "runs/sweep"
    # a bad train or sweep setting fails here, before any rendering or training
    scfg, tcfg = _echo_config(
        {"seed": seed, "dataset": dataset_cfg, "train": train_cfg, "sweep": sweep_cfg}, out,
        lambda: (evaluate.SweepConfig(**sweep_cfg, seed=seed), train_mod.TrainConfig(**train_cfg)),
    )
    jobs = forked.resolve_jobs(args.jobs)

    if args.dataset:
        ds = render.load_dataset(args.dataset)
    else:
        ds = render.generate_dataset(os.path.join(out, "dataset"), jobs, **dataset_cfg)

    if args.weights:
        params = _load_weights(args.weights, ds, args.dataset or os.path.join(out, "dataset"))
    else:
        params, _ = _train_and_save(tcfg, ds, os.path.join(out, "model"), jobs)

    result = evaluate.confidence_sweep(params, ds, config=scfg, jobs=jobs)
    files = evaluate.emit_report(result, result.ttests, out)

    print(f"clean gate: train acc {result.clean['train_acc']:.4f}, "
          f"test acc {result.clean['test_acc']:.4f}")
    if scfg.ttest_eps not in scfg.eps_grid:
        print(f"no Welch t-tests: ttest_eps {scfg.ttest_eps:g} is not on the eps grid")
    for t in result.ttests:
        print(f"t-test {t.label}: t={t.t:.4f} df={t.df:.2f} p={t.p_value:.3e}")
    reports = [f for f in files if not f.startswith("samples/")]
    print(f"wrote {len(result.cells)} cells to {out}: {', '.join(reports)}, "
          f"and {len(files) - len(reports)} sample images in samples/")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viapkit",
        description="view-invariant adversarial perturbation pipeline",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
        return p

    command("dataset", cmd_dataset, "render the multi-view dataset")

    p = command("train", cmd_train, "train the victim classifier")
    p.add_argument("--dataset", default="runs/dataset", help="dataset directory")

    p = command("attack", cmd_attack, "craft a perturbation for one object")
    p.add_argument("--dataset", default="runs/dataset")
    p.add_argument("--weights", default="runs/model/weights.viapnet")
    p.add_argument("--family", choices=attacks.FAMILIES, default=None)
    p.add_argument("--eps", type=_parse_eps, default=None, help="comma list, 0-255 scale")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--target", type=_parse_target, default=None, help="label id or 'random'")
    p.add_argument("--object", type=int, default=None)
    p.add_argument("--literal-eq-step", action="store_true", help="force step = eps")

    p = command("sweep", cmd_sweep, "full eps sweep over all families")
    p.add_argument("--dataset", default=None, help="existing dataset dir (else generated)")
    p.add_argument("--weights", default=None, help="existing weights file (else trained)")
    p.add_argument("--family", default=None, help="comma list restricting families")
    p.add_argument("--eps", type=_parse_eps, default=None, help="comma list, 0-255 scale")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="processes rendering, training and crafting (default: every core)")
    p.add_argument("--literal-eq-step", action="store_true")

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stop quietly; what is left in stdout's buffer goes to /dev/null, so
        # the interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except evaluate.GateFailure as exc:
        print(json.dumps({"error": "gate-failure", "message": str(exc), "diag": exc.diag},
                         sort_keys=True), file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError, json.JSONDecodeError, train_mod.TrainingDiverged) as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
