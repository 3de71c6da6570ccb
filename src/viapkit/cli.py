"""Command-line pipeline: dataset | train | attack | sweep | verify.

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

import numpy as np

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


def _echo_config(cfg: dict, out_dir) -> None:
    text = json.dumps(cfg, indent=2, sort_keys=True)
    print("resolved config:")
    print(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            fh.write(text + "\n")


def _parse_eps(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--eps expects a comma-separated list of numbers: {exc}") from exc


def _parse_target(text: str):
    return text if text == "random" else int(text)


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


def _splits(ds) -> tuple:
    """Copies of ds's ((train images, labels), (test images, labels))."""
    return tuple((ds.images[i], ds.labels[i]) for i in (ds.indices("train"), ds.indices("test")))


def _train_and_save(
    config: train_mod.TrainConfig, splits: tuple, n_classes: int, out, jobs: int | None = None
) -> nn.ModelParams:
    """Train the victim on the train split; write weights.viapnet and train_log.csv."""
    (x_tr, y_tr), test = splits
    params = train_mod.init_params(config.seed, *x_tr.shape[1:], n_classes)
    params, log = train_mod.train(params, x_tr, y_tr, config, val=test, jobs=jobs)
    os.makedirs(out, exist_ok=True)
    nn.save_params(params, os.path.join(out, "weights.viapnet"))
    with open(os.path.join(out, "train_log.csv"), "w") as fh:
        fh.write(train_mod.log_csv(log))
    return params


def cmd_train(args) -> int:
    file_cfg = _section(_load_config_file(args.config), "train")
    cfg = _merge(DEFAULT_TRAIN_CFG, SETTING_TYPES["train"], file_cfg, {"seed": args.seed})
    out = args.out or "runs/model"
    _echo_config(cfg, out)
    tcfg = train_mod.TrainConfig(**cfg)

    ds = render.load_dataset(args.dataset)
    n_classes, splits = ds.n_classes, _splits(ds)
    # the splits are copies: dropping the full image array keeps one copy of
    # each pixel in memory while training
    del ds
    params = _train_and_save(tcfg, splits, n_classes, out)
    (x_tr, y_tr), (x_te, y_te) = splits
    acc_tr, conf_tr = train_mod.evaluate_clean(params, x_tr, y_tr)
    acc_te, conf_te = train_mod.evaluate_clean(params, x_te, y_te)
    print(f"final train acc {acc_tr:.4f} (true softmax {conf_tr:.4f}), "
          f"test acc {acc_te:.4f} (true softmax {conf_te:.4f})")
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
    _echo_config(cfg, out)

    ds = render.load_dataset(args.dataset)
    params = nn.load_params(args.weights)
    family = cfg["family"]
    eps = cfg["eps"] if isinstance(cfg["eps"], list) else [cfg["eps"]]
    if len(eps) != 1:
        raise ValueError(f"attack crafts at one eps; got {eps} (use sweep for a grid)")
    eps = float(eps[0])
    o = cfg["object"]
    tr = ds.indices("train", object_id=o)
    te = ds.indices("test", object_id=o)
    if len(tr) == 0:
        raise ValueError(f"object {o} has no training views")
    imgs, lbls = ds.images[tr], ds.labels[tr]
    true_label = int(lbls[0])

    target = None
    if attacks.targeted(family):
        if cfg["target"] == "random":
            target = evaluate.draw_target(cfg["seed"], o, true_label, ds.n_classes)
        else:
            target = int(cfg["target"])

    # derive the init seed as the sweep does, so an attack reproduces its sweep cell
    acfg = attacks.AttackConfig(**{
        **{f.name: cfg[f.name] for f in dataclasses.fields(attacks.AttackConfig)},
        "eps": eps, "target": target, "seed": evaluate.attack_seed(cfg["seed"], family, eps, o),
    })

    adv, delta = attacks.craft(params, imgs, lbls, acfg)
    loss, _ = nn.softmax_cross_entropy(nn.forward(params, adv), attacks.loss_labels(acfg, lbls))
    pert = attacks.Perturbation(delta, acfg, ds.view_ids[tr].tolist(), loss)

    attacks.save_perturbation(pert, os.path.join(out, "delta.viapdlt"))
    tracked_label = target if attacks.targeted(family) else true_label
    metrics = {"family": family, "eps": eps, "object": o, "true_label": true_label,
               "target": target, "final_loss": pert.final_loss}
    # the train split scores the crafted views, as final_loss and the sweep's train cell do
    for split, idx, adv_split in (("train", tr, adv), ("test", te, pert.apply(ds.images[te]))):
        if len(idx) == 0:
            continue
        logits = nn.forward(params, adv_split)
        probs = nn.softmax(logits)
        metrics[f"{split}_tracked_softmax"] = float(probs[:, tracked_label].mean())
        metrics[f"{split}_top1_true"] = float(np.mean(np.argmax(logits, axis=1) == ds.labels[idx]))
        write_idx = int(idx[0])
        render.write_ppm(ds.images[write_idx], os.path.join(out, f"clean_{split}_{write_idx}.ppm"))
        render.write_ppm(adv_split[0], os.path.join(out, f"adv_{split}_{write_idx}.ppm"))
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
            "families": args.family.split(",") if args.family else None,
            "literal_eq_step": True if args.literal_eq_step else None,
        },
    )
    out = args.out or "runs/sweep"
    _echo_config(
        {"seed": seed, "dataset": dataset_cfg, "train": train_cfg, "sweep": sweep_cfg}, out
    )
    # a bad train or sweep setting fails here, before any rendering or training
    scfg = evaluate.SweepConfig(**sweep_cfg, seed=seed)
    tcfg = train_mod.TrainConfig(**train_cfg)
    jobs = forked.resolve_jobs(args.jobs)

    if args.dataset:
        ds = render.load_dataset(args.dataset)
    else:
        ds = render.generate_dataset(os.path.join(out, "dataset"), jobs, **dataset_cfg)

    if args.weights:
        params = nn.load_params(args.weights)
    else:
        params = _train_and_save(
            tcfg, _splits(ds), ds.n_classes, os.path.join(out, "model"), jobs)

    result = evaluate.confidence_sweep(params, ds, config=scfg, jobs=jobs)
    files = evaluate.emit_report(result, result.ttests, out)

    print(f"clean gate: train acc {result.clean['train_acc']:.4f}, "
          f"test acc {result.clean['test_acc']:.4f}")
    if scfg.ttest_eps not in scfg.eps_grid:
        print(f"no Welch t-tests: ttest_eps {scfg.ttest_eps:g} is not on the eps grid")
    for t in result.ttests:
        print(f"t-test {t.label}: t={t.t:.4f} df={t.df:.2f} p={t.p_value:.3e}")
    print(f"wrote {len(result.cells)} cells to {out}: {', '.join(files)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except AssertionError as exc:
            checks.append((name, False, str(exc)))

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345)))

    def small_model(k=3):
        p = train_mod.init_params(99, 8, 8, 3, k)
        x = rng.uniform(0.05, 0.95, size=(3, 8, 8, 3))
        y = rng.integers(0, k, size=3)
        return p, x, y

    def chk_gradients():
        p, x, y = small_model()
        _, grad = nn.loss_and_input_grad(p, x, y)
        h = 1e-5
        for _ in range(25):
            i = tuple(int(rng.integers(0, s)) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (nn.softmax_cross_entropy(nn.forward(p, xp), y)[0]
                  - nn.softmax_cross_entropy(nn.forward(p, xm), y)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-3)
            assert abs(fd - grad[i]) / denom < 1e-6, f"input grad mismatch at {i}"

    def chk_shared_gradient():
        p, x, y = small_model()
        _, batch_grad = nn.loss_and_input_grad(p, x, y)
        summed = batch_grad.sum(axis=0)
        per_view = np.zeros(x.shape[1:])
        for i in range(x.shape[0]):
            _, g = nn.loss_and_input_grad(p, x[i : i + 1], y[i : i + 1])
            per_view += g[0] / x.shape[0]
        assert np.abs(summed - per_view).max() < 1e-10, "shared-gradient identity broken"

    def chk_ball():
        p, x, y = small_model()
        for _ in range(40):
            eps = float(rng.uniform(0.0, 50.0))
            cfg = attacks.AttackConfig(family="bim", eps=eps, iterations=3)
            seen = []
            attacks.bim_batch(p, x, y, cfg, trace=lambda n, adv: seen.append(adv.copy()))
            for adv in seen:
                assert np.abs(adv - x).max() <= eps / 255.0 + 1e-12, "ball violated"
                assert adv.min() >= 0.0 and adv.max() <= 1.0, "range violated"

    def chk_reductions():
        p, x, y = small_model()
        eps = 4.0
        for i in range(x.shape[0]):
            xi, yi = x[i : i + 1], y[i : i + 1]
            # the closed-form fgsm step: clip(x + eps/255 * sign(grad), 0, 1)
            _, grad = nn.loss_and_input_grad(p, xi, yi)
            closed = np.clip(xi + (eps / 255.0) * np.sign(grad), 0.0, 1.0)
            for family in ("fgsm", "bim"):
                cfg = attacks.AttackConfig(family=family, eps=eps, iterations=1,
                                           literal_eq_step=True)
                got = attacks.bim_batch(p, xi, yi, cfg)
                assert np.array_equal(got, closed), f"{family}(1, step=eps) != closed-form fgsm"

    def chk_welch():
        r = evaluate.welch_ttest([-2.0, -1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, -1.0, -2.0])
        assert r.t == 0.0 and abs(r.p_value - 1.0) < 1e-12, "symmetric samples should give p=1"
        a, b = [1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 9.0]
        r1, r2 = evaluate.welch_ttest(a, b), evaluate.welch_ttest(b, a)
        assert abs(r1.p_value - r2.p_value) < 1e-15, "p not symmetric under swap"
        assert 0.0 < r1.p_value < 1.0, "p out of the open interval"

    check("gradient finite differences", chk_gradients)
    check("shared-perturbation gradient identity", chk_shared_gradient)
    check("eps-ball and pixel-range invariants", chk_ball)
    check("bim/fgsm reduction", chk_reductions)
    check("welch t-test sanity", chk_welch)

    failed = 0
    for name, ok, msg in checks:
        tag = "ok  " if ok else "FAIL"
        print(f"[{tag}] {name}" + (f" -- {msg}" if msg else ""))
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viapkit",
        description="view-invariant adversarial perturbation pipeline",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("dataset", help="render the multi-view dataset")
    common(p)

    p = sub.add_parser("train", help="train the victim classifier")
    common(p)
    p.add_argument("--dataset", default="runs/dataset", help="dataset directory")

    p = sub.add_parser("attack", help="craft a perturbation for one object")
    common(p)
    p.add_argument("--dataset", default="runs/dataset")
    p.add_argument("--weights", default="runs/model/weights.viapnet")
    p.add_argument("--family", choices=attacks.FAMILIES, default=None)
    p.add_argument("--eps", type=_parse_eps, default=None, help="comma list, 0-255 scale")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--target", type=_parse_target, default=None, help="label id or 'random'")
    p.add_argument("--object", type=int, default=None)
    p.add_argument("--literal-eq-step", action="store_true", help="force step = eps")

    p = sub.add_parser("sweep", help="full eps sweep over all families")
    common(p)
    p.add_argument("--dataset", default=None, help="existing dataset dir (else generated)")
    p.add_argument("--weights", default=None, help="existing weights file (else trained)")
    p.add_argument("--family", default=None, help="comma list restricting families")
    p.add_argument("--eps", type=_parse_eps, default=None, help="comma list, 0-255 scale")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="processes rendering, training and crafting (default: every core)")
    p.add_argument("--literal-eq-step", action="store_true")

    p = sub.add_parser("verify", help="run the invariant suite")

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "dataset": cmd_dataset,
        "train": cmd_train,
        "attack": cmd_attack,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
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
