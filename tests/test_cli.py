import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import viapkit
from viapkit import attacks, cli, nn, render, train


TINY_DS = {"objects_per_class": 1, "views_per_object": 4, "seed": 3}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """dataset + quickly trained weights on disk, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"dataset": TINY_DS, "train": {"epochs": 4}}))
    ds_dir = root / "ds"
    assert cli.main(["dataset", "--config", str(cfg), "--out", str(ds_dir)]) == cli.EXIT_OK
    model_dir = root / "model"
    assert cli.main([
        "train", "--config", str(cfg), "--dataset", str(ds_dir), "--out", str(model_dir),
    ]) == cli.EXIT_OK
    return root, cfg, ds_dir, model_dir


def test_train_prints_the_saved_weights_clean_metrics(tiny_run, tmp_path, capsys):
    _, cfg, ds_dir, _ = tiny_run
    out = tmp_path / "model"
    assert cli.main(["train", "--config", str(cfg), "--dataset", str(ds_dir),
                     "--out", str(out)]) == cli.EXIT_OK
    ds = render.load_dataset(ds_dir)
    params = nn.load_params(out / "weights.viapnet")
    (acc_tr, conf_tr), (acc_te, conf_te) = (
        train.evaluate_clean(params, ds.images, ds.labels, ds.indices(split))
        for split in ("train", "test"))
    final = capsys.readouterr().out.splitlines()[-2]
    assert final == (f"final train acc {acc_tr:.4f} (true softmax {conf_tr:.4f}), "
                     f"test acc {acc_te:.4f} (true softmax {conf_te:.4f})")


def test_dataset_outputs(tiny_run):
    _, _, ds_dir, _ = tiny_run
    ds = render.load_dataset(ds_dir)
    assert len(ds.labels) == 16
    echoed = json.loads((ds_dir / "config.json").read_text())
    assert echoed["seed"] == 3
    assert echoed["views_per_object"] == 4


def test_seed_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_DS))
    out = tmp_path / "ds"
    assert cli.main(["dataset", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["seed"] == 11


def test_train_outputs(tiny_run):
    _, _, _, model_dir = tiny_run
    params = nn.load_params(model_dir / "weights.viapnet")
    assert params.classes == 4
    log = (model_dir / "train_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,loss,train_acc,test_acc"
    assert len(log) == 1 + 4


def test_config_echo_printed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_DS))
    cli.main(["dataset", "--config", str(cfg), "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert "resolved config:" in out
    assert '"views_per_object": 4' in out


def test_attack_fgsm(tiny_run, capsys):
    root, cfg, ds_dir, model_dir = tiny_run
    out = root / "atk-fgsm"
    rc = cli.main([
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "fgsm", "--eps", "4", "--object", "1", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    pert = attacks.load_perturbation(out / "delta.viapdlt")
    assert pert.config.family == "fgsm"
    assert np.max(np.abs(pert.delta)) <= 4.0 / 255.0 + 1e-12
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["object"] == 1
    assert "train_tracked_softmax" in metrics
    ds = render.load_dataset(ds_dir)
    params = nn.load_params(model_dir / "weights.viapnet")
    for split in ("train", "test"):
        idx = ds.indices(split, object_id=1)
        pred = np.argmax(nn.forward(params, pert.apply(ds.images[idx])), axis=1)
        assert metrics[f"{split}_top1_true"] == np.mean(pred == ds.labels[idx])
    ppms = list(out.glob("*.ppm"))
    assert len(ppms) == 4  # clean/adv for each split


def test_attack_viap_targeted_random(tiny_run):
    root, cfg, ds_dir, model_dir = tiny_run
    out = root / "atk-viapt"
    rc = cli.main([
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "viap-t", "--eps", "5", "--iters", "3", "--target", "random",
        "--object", "0", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    pert = attacks.load_perturbation(out / "delta.viapdlt")
    assert pert.config.target is not None
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["target"] != metrics["true_label"]


def test_targeted_attacks_reject_the_true_label_as_target(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    ds = render.load_dataset(ds_dir)
    true_label = int(ds.labels[ds.indices(object_id=1)][0])
    for family in ("fgsm-t", "bim-t", "viap-t"):
        out = root / f"atk-bad-target-{family}"
        rc = cli.main([
            "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
            "--family", family, "--eps", "3", "--iters", "1", "--object", "1",
            "--target", str(true_label), "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE, family
        assert "equals a true label" in last_error(capsys)["message"]
        assert not (out / "delta.viapdlt").exists()


@pytest.mark.parametrize("target", [7, -1])
def test_attack_target_outside_the_classes_is_a_usage_error(tiny_run, capsys, target):
    root, _, ds_dir, model_dir = tiny_run
    out = root / f"atk-target-{target}"
    rc = cli.main([
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "bim-t", "--eps", "3", "--iters", "1", "--object", "1",
        "--target", str(target), "--out", str(out),
    ])
    assert rc == cli.EXIT_USAGE
    assert last_error(capsys)["message"] == f"target must lie in [0, 4); got {target}"
    assert not (out / "delta.viapdlt").exists()


@pytest.mark.parametrize("target,config", [(7, False), (1, True)])
def test_untargeted_attack_rejects_an_explicit_target(tiny_run, capsys, target, config):
    root, _, ds_dir, model_dir = tiny_run
    out = root / f"atk-untargeted-{target}"
    cfg = root / f"atk-untargeted-{target}.json"
    cfg.write_text(json.dumps({"attack": {"target": target} if config else {}}))
    argv = [
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "bim", "--eps", "3", "--iters", "1", "--config", str(cfg), "--out", str(out),
    ]
    assert cli.main(argv + ([] if config else ["--target", str(target)])) == cli.EXIT_USAGE
    assert last_error(capsys)["message"] == f"target {target} selects nothing: bim is untargeted"
    assert not (out / "delta.viapdlt").exists()
    # "random", the default, selects nothing either and stays accepted
    assert cli.main(argv + ["--target", "random"]) == cli.EXIT_OK
    assert json.loads((out / "metrics.json").read_text())["target"] is None


def test_attack_random_target_is_the_sweep_target(tiny_run):
    root, _, ds_dir, model_dir = tiny_run
    weights = str(model_dir / "weights.viapnet")
    cfg = root / "sweep-targets.json"
    cfg.write_text(json.dumps({"sweep": {"gate_train": 0.0, "gate_test": 0.0}}))
    seed = 6
    assert cli.main([
        "sweep", "--config", str(cfg), "--dataset", str(ds_dir), "--weights", weights,
        "--family", "viap-t", "--eps", "0", "--seed", str(seed), "--out", str(root / "s-t"),
    ]) == cli.EXIT_OK
    targets = json.loads((root / "s-t" / "report.json").read_text())["targets"]
    for o in (0, 2):
        out = root / f"atk-random-{o}"
        assert cli.main([
            "attack", "--dataset", str(ds_dir), "--weights", weights, "--family", "viap-t",
            "--eps", "3", "--iters", "1", "--target", "random", "--seed", str(seed),
            "--object", str(o), "--out", str(out),
        ]) == cli.EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["target"] == targets[str(o)]


def test_attack_reproduces_its_sweep_cell(tiny_run):
    root, _, ds_dir, model_dir = tiny_run
    weights = str(model_dir / "weights.viapnet")
    cfg = root / "sweep-cells.json"
    cfg.write_text(json.dumps({"sweep": {"gate_train": 0.0, "gate_test": 0.0}}))
    seed, o = 2, 1
    assert cli.main([
        "sweep", "--config", str(cfg), "--dataset", str(ds_dir), "--weights", weights,
        "--eps", "3", "--seed", str(seed), "--out", str(root / "s-cells"),
    ]) == cli.EXIT_OK
    report = json.loads((root / "s-cells" / "report.json").read_text())
    ds = render.load_dataset(ds_dir)
    positions = {
        split: [p for p, i in enumerate(report["split_indices"][split]) if ds.object_ids[i] == o]
        for split in ("train", "test")
    }
    for family in attacks.FAMILIES:
        out = root / f"atk-cell-{family}"
        assert cli.main([
            "attack", "--dataset", str(ds_dir), "--weights", weights, "--family", family,
            "--eps", "3", "--seed", str(seed), "--object", str(o), "--out", str(out),
        ]) == cli.EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        for split, pos in positions.items():
            cell = next(c for c in report["cells"]
                        if (c["family"], c["eps"], c["split"]) == (family, 3.0, split))
            want = np.mean([cell["values"][p] for p in pos])
            assert metrics[f"{split}_tracked_softmax"] == want, (family, split)
            want = np.mean([cell["correct"][p] for p in pos])
            assert metrics[f"{split}_top1_true"] == want, (family, split)


def test_attack_makes_one_kernel_call(tiny_run, kernel_calls):
    root, _, ds_dir, model_dir = tiny_run
    for family in attacks.FAMILIES:
        before = len(kernel_calls)
        assert cli.main([
            "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
            "--family", family, "--eps", "3", "--object", "2",
            "--out", str(root / f"atk-calls-{family}"),
        ]) == cli.EXIT_OK
        assert len(kernel_calls) == before + 1, family
        kernel, config, _, _ = kernel_calls[-1]
        assert config.family == family
        assert kernel == ("viap_arrays" if family in attacks.VIAP_FAMILIES else "bim_batch")


def test_sweep_says_when_no_welch_test_ran(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    cfg = root / "sweep-no-ttest.json"
    cfg.write_text(json.dumps({"sweep": {"gate_train": 0.0, "gate_test": 0.0, "iterations": 1}}))
    for eps, said in (("0,3", True), ("0,5", False)):
        out = root / f"s-ttest-{said}"
        assert cli.main([
            "sweep", "--config", str(cfg), "--dataset", str(ds_dir),
            "--weights", str(model_dir / "weights.viapnet"), "--family", "viap,fgsm",
            "--eps", eps, "--out", str(out),
        ]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert ("no Welch t-tests: ttest_eps 5 is not on the eps grid" in stdout) == said
        assert (out / "significance.csv").exists() != said


def test_sweep_reduced_and_deterministic(tiny_run):
    root, _, ds_dir, model_dir = tiny_run
    cfg = root / "sweep.json"
    cfg.write_text(json.dumps({
        "sweep": {
            "eps_grid": [0.0, 3.0], "families": ["fgsm", "viap"], "iterations": 2,
            "gate_train": 0.0, "gate_test": 0.0,
        }
    }))
    outs = []
    # the process count changes no output byte, config.json included
    for name, jobs in (("s1", "1"), ("s2", "3")):
        out = root / name
        rc = cli.main([
            "sweep", "--config", str(cfg), "--dataset", str(ds_dir),
            "--weights", str(model_dir / "weights.viapnet"), "--out", str(out), "--jobs", jobs,
        ])
        assert rc == cli.EXIT_OK
        outs.append(out)

    a, b = outs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    assert (a / "report.csv").exists()
    assert "jobs" not in json.loads((a / "config.json").read_text())["sweep"]
    # 2 families x 2 eps x 2 splits data rows
    assert len((a / "report.csv").read_text().strip().split("\n")) == 1 + 8


def test_sweep_gate_failure_exit_code(tiny_run, tmp_path, capsys):
    root, _, ds_dir, _ = tiny_run
    bad = tmp_path / "untrained.viapnet"
    nn.save_params(train.init_params(0), bad)
    rc = cli.main([
        "sweep", "--dataset", str(ds_dir), "--weights", str(bad),
        "--out", str(tmp_path / "s"),
    ])
    assert rc == cli.EXIT_GATE
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "gate-failure"
    assert "train_acc" in payload["diag"]


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "m")])
    assert rc == cli.EXIT_USAGE
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "usage"


@pytest.mark.parametrize("argv", [["attack", "--family", "pgd"], ["verify"]],
                         ids=["attack-pgd", "verify"])
def test_unknown_family_rejected_by_parser(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "viapkit", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for word in ("dataset", "train", "attack", "sweep"):
        assert word in proc.stdout


README_COMMANDS = sorted(set(re.findall(
    r"\bviapkit ([a-z][a-z-]*)", (Path(__file__).parents[1] / "README.md").read_text())))


@pytest.mark.parametrize("word", README_COMMANDS)
def test_readme_names_only_existing_commands(capsys, word):
    with pytest.raises(SystemExit) as err:
        cli.main([word, "--help"])
    assert err.value.code == 0


def last_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("command,cfg,key", [
    ("dataset", {"epochz": 1}, "epochz"),
    ("dataset", {"dataset": {"views_per_objekt": 4}}, "views_per_objekt"),
    ("dataset", {"dataset": TINY_DS, "trian": {"epochs": 1}}, "trian"),
    ("train", {"train": {"epochz": 1}}, "epochz"),
    ("attack", {"attack": {"epz": [1.0]}}, "epz"),
    ("sweep", {"sweep": {"famillies": ["fgsm"]}}, "famillies"),
    ("sweep", {"eps_grid": [1.0]}, "eps_grid"),
    ("train", {"train": [1]}, "JSON objects"),
    ("sweep", {"sweep": {"jobs": 2}}, "jobs"),
])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_USAGE
    payload = last_error(capsys)
    assert payload["error"] == "usage"
    assert key in payload["message"]
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("command,cfg,key", [
    ("dataset", {"seed": "abc", "dataset": TINY_DS}, "'seed' takes int"),
    ("dataset", {**TINY_DS, "axis_restrict": 3}, "'axis_restrict' takes str | None"),
    ("train", {"train": {"lr": "fast"}}, "'lr' takes float"),
])
def test_ill_typed_config_value_is_usage_error(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_USAGE
    assert key in last_error(capsys)["message"]
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("cfg,flags,message", [
    ({"sweep": {"step": 0, "iterations": 0}}, [], "must be"),
    ({"sweep": {"step": 0}}, [], "step must be positive"),
    ({"sweep": {"step": -1.0}}, [], "step must be positive"),
    ({"sweep": {"iterations": 0}}, [], "iterations must be >= 1"),
    ({}, ["--iters", "0"], "iterations must be >= 1"),
    ({"sweep": {"rho": -0.1}}, [], "rho must be >= 0"),
    ({"train": {"epochs": 0}}, [], "epochs must be >= 1"),
    ({"train": {"epochs": "3"}}, [], "'epochs' takes int"),
    ({"sweep": {"eps_grid": 5}}, [], "'eps_grid' takes tuple[float, ...]"),
    ({"sweep": {"eps_grid": [0, "3"]}}, [], "'eps_grid' takes tuple[float, ...]"),
    ({"dataset": {"objects_per_class": "2"}}, [], "'objects_per_class' takes int"),
    ({"dataset": {"classes": ["cube", "blob"]}}, [], "blob"),
    ({"dataset": {"objects_per_class": 0}}, [], "objects_per_class must be at least 1"),
    ({"train": {"seed": 1.5}}, [], "'seed' takes int"),
    ({"train": {"seed": None}}, [], "'seed' takes int"),
    ({"train": {"lr": True}}, [], "'lr' takes float"),
    ({"sweep": {"gate_train": "x"}}, [], "'gate_train' takes float"),
    ({"sweep": {"ttest_eps": "5"}}, [], "'ttest_eps' takes float"),
    ({"sweep": {"iterations": None}}, [], "'iterations' takes int"),
    ({"seed": "abc"}, [], "'seed' takes int"),
    ({"sweep": {"iterations": 0, "families": ["fgsm"]}}, [], "iterations must be >= 1"),
    ({"sweep": {"families": ["fgsm", "fgsm"]}}, [], "families repeats a value"),
    ({"sweep": {"eps_grid": [0, 3, 3]}}, [], "eps_grid repeats a value"),
    ({}, ["--jobs", "0"], "jobs must be >= 1"),
    ({}, ["--jobs", "-2"], "jobs must be >= 1"),
    ({"sweep": {"rho": math.inf}}, [], "rho must be >= 0 and <= 1"),
    ({"sweep": {"rho": 1e308}}, [], "rho must be >= 0 and <= 1"),
    ({"sweep": {"step": math.inf}}, [], "step must be positive and finite"),
    ({"sweep": {"eps_grid": [0, math.inf]}}, [], "eps must be finite"),
    ({}, ["--eps", "0,inf"], "eps must be finite"),
    ({}, ["--family", ""], "families must be non-empty"),
    ({"sweep": {"families": []}}, [], "families must be non-empty"),
    ({"sweep": {"gate_train": math.nan}}, [], "gate_train must lie in [0, 1]"),
    ({"sweep": {"gate_test": math.nan}}, [], "gate_test must lie in [0, 1]"),
    ({"sweep": {"gate_train": 1.5}}, [], "gate_train must lie in [0, 1]"),
    ({"sweep": {"gate_test": -0.1}}, [], "gate_test must lie in [0, 1]"),
    ({"sweep": {"ttest_eps": math.inf}}, [], "ttest_eps must be finite and >= 0"),
    ({"sweep": {"ttest_eps": math.nan}}, [], "ttest_eps must be finite and >= 0"),
    ({"sweep": {"ttest_eps": -1}}, [], "ttest_eps must be finite and >= 0"),
])
def test_sweep_rejects_bad_settings_before_any_work(tmp_path, capsys, cfg, flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": TINY_DS, **cfg}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out), *flags]) == cli.EXIT_USAGE
    assert message in last_error(capsys)["message"]
    assert not (out / "dataset").exists()
    assert not (out / "model").exists()


@pytest.mark.parametrize("command,cfg,message", [
    ("train", {"train": {"lr": math.inf}}, "lr must be positive and finite; got inf"),
    ("sweep", {"dataset": TINY_DS, "train": {"lr": math.inf}}, "lr must be positive and finite; got inf"),
    ("sweep", {"dataset": TINY_DS, "train": {"lr": math.nan}}, "lr must be positive and finite; got nan"),
    ("dataset", {**TINY_DS, "camera_radius": math.inf}, "setting camera_radius is not a finite number"),
    ("sweep", {"dataset": {**TINY_DS, "jitter_frac": math.nan}},
     "setting dataset.jitter_frac is not a finite number"),
])
def test_non_finite_setting_is_named_before_any_work(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # Infinity and NaN, which json.load reads back
    out = tmp_path / "out"
    inputs = {"train": ["--dataset", str(tmp_path / "ds")]}  # read only after the settings pass
    argv = [command, "--config", str(path), "--out", str(out), *inputs.get(command, [])]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert last_error(capsys)["message"] == message
    # strict JSON has no Infinity or NaN: no config.json, and no dataset or model
    assert not out.exists()


@pytest.mark.parametrize("command,cfg,flags", [
    ("dataset", {"dataset": TINY_DS}, ["--seed", "-1"]),
    ("dataset", {"dataset": {**TINY_DS, "seed": -1}}, []),
    ("train", {}, ["--seed", "-1"]),
    ("train", {"train": {"seed": -1}}, []),
    ("attack", {}, ["--seed", "-1"]),
    ("attack", {"attack": {"seed": -1}}, []),
    ("sweep", {"dataset": TINY_DS}, ["--seed", "-1"]),
    ("sweep", {"dataset": TINY_DS, "seed": -1}, []),
    ("sweep", {"dataset": TINY_DS, "train": {"seed": -1}}, []),
    ("sweep", {"dataset": {**TINY_DS, "seed": -1}}, []),
])
def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, command, cfg, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    # train and attack would read these only after their settings pass
    inputs = {"train": ["--dataset", str(tmp_path / "ds")],
              "attack": ["--dataset", str(tmp_path / "ds"), "--weights", str(tmp_path / "w")]}
    argv = [command, "--config", str(path), "--out", str(out), *inputs.get(command, []), *flags]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert last_error(capsys)["message"] == "seed must be >= 0; got -1"
    # the echoed config and nothing else: no images, weights, dataset/ or model/
    assert sorted(os.listdir(out)) == ["config.json"]


def test_sectioned_config_with_every_section(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5, "dataset": TINY_DS, "train": {"epochs": 1}, "attack": {"family": "fgsm"},
        "sweep": {"iterations": 2},
    }))
    out = tmp_path / "ds"
    assert cli.main(["dataset", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["seed"] == 3


def test_dataset_reads_config_file_once(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_DS))
    reads = []
    load = cli._load_config_file
    monkeypatch.setattr(cli, "_load_config_file", lambda path: reads.append(path) or load(path))
    assert cli.main(["dataset", "--config", str(cfg), "--out", str(tmp_path / "d")]) == cli.EXIT_OK
    assert reads == [str(cfg)]


def test_attack_config_takes_eps_and_target_forms(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    ds = render.load_dataset(ds_dir)
    true_label = int(ds.labels[ds.indices(object_id=0)][0])
    argv = ["attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet")]
    for i, (section, ok) in enumerate([
        ({"eps": 3}, True),
        ({"eps": [3.0], "family": "fgsm-t", "target": (true_label + 1) % 4}, True),
        ({"eps": 3, "family": "fgsm-t", "target": "random"}, True),
        ({"eps": "3"}, False),
        ({"eps": 3, "target": "first"}, False),
        ({"eps": 3, "object": 0.5}, False),
    ]):
        cfg, out = root / f"atk-forms-{i}.json", root / f"atk-forms-{i}"
        cfg.write_text(json.dumps({"attack": {"family": "fgsm", **section}}))
        rc = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
        assert rc == (cli.EXIT_OK if ok else cli.EXIT_USAGE), section
        assert (out / "config.json").exists() == ok
        if ok:
            assert json.loads((out / "config.json").read_text())["eps"] == section["eps"]
        else:
            assert "takes" in last_error(capsys)["message"]


def test_null_in_config_file_sets_none(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_DS, "axis_restrict": None}))
    out = tmp_path / "ds"
    assert cli.main(["dataset", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["axis_restrict"] is None
    poses = [v["pose"] for v in json.loads((out / "manifest.json").read_text())["views"]]
    # all three axes jitter, not only theta
    assert any(radius != 3.0 for _, _, radius in poses)


def test_attack_rejects_an_eps_list(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    out = root / "atk-eps-list"
    rc = cli.main([
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "fgsm", "--eps", "1,3,5", "--out", str(out),
    ])
    assert rc == cli.EXIT_USAGE
    assert "1.0, 3.0, 5.0" in last_error(capsys)["message"]
    assert not (out / "delta.viapdlt").exists()


def test_attack_at_infinite_eps_is_a_usage_error(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    out = root / "atk-eps-inf"
    rc = cli.main([
        "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
        "--family", "bim", "--eps", "inf", "--out", str(out),
    ])
    assert rc == cli.EXIT_USAGE
    assert "eps must be finite" in last_error(capsys)["message"]
    assert not (out / "delta.viapdlt").exists()


def test_sweep_ends_with_a_count_per_kind_of_file(tiny_run, capsys):
    root, _, ds_dir, model_dir = tiny_run
    cfg, out = root / "s-closing-line.json", root / "s-closing-line"
    cfg.write_text(json.dumps({"sweep": {"gate_train": 0.0, "gate_test": 0.0}}))
    assert cli.main([
        "sweep", "--config", str(cfg), "--dataset", str(ds_dir),
        "--weights", str(model_dir / "weights.viapnet"), "--family", "fgsm,viap",
        "--eps", "0,3", "--iters", "1", "--out", str(out),
    ]) == cli.EXIT_OK
    # one clean view per class, and one per class for each (family, eps > 0)
    assert len(list((out / "samples").iterdir())) == 4 + 2 * 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"wrote 8 cells to {out}: report.csv, report.json, summary.csv, "
        "and 12 sample images in samples/"
    )


def test_malformed_weights_are_usage_errors(tiny_run, tmp_path, capsys):
    _, _, ds_dir, model_dir = tiny_run
    good = (model_dir / "weights.viapnet").read_bytes()
    contents = [good + b"\x00\x00\x00"]
    # the leading arch record swapped for one that is not 4 non-negative integers
    arch_end = len(nn.PARAMS_MAGIC) + 4 + len(b"arch") + 4 + 4 + 4 * 8
    for arch in ([32.5, 32, 3, 4], [[32, 32], [3, 4]], [32, 32, 3]):
        record = io.BytesIO()
        nn._write_record(record, "arch", np.array(arch, dtype=np.float64))
        contents.append(good[: len(nn.PARAMS_MAGIC)] + record.getvalue() + good[arch_end:])
    for i, content in enumerate(contents):
        bad = tmp_path / f"w{i}.viapnet"
        bad.write_bytes(content)
        for argv in (
            ["attack", "--family", "fgsm", "--eps", "2"],
            ["sweep", "--family", "fgsm", "--eps", "0,2"],
        ):
            rc = cli.main(argv + ["--dataset", str(ds_dir), "--weights", str(bad),
                                  "--out", str(tmp_path / argv[0])])
            assert rc == cli.EXIT_USAGE, (i, argv[0])
            assert str(bad) in last_error(capsys)["message"]


@pytest.mark.parametrize("label", [4, -1])
def test_class_id_outside_the_classes_is_a_usage_error(tiny_run, tmp_path, capsys, label):
    _, _, ds_dir, model_dir = tiny_run
    bad = tmp_path / "ds"
    bad.mkdir()
    (bad / "images.f64").write_bytes((ds_dir / "images.f64").read_bytes())
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    for rec in manifest["views"]:
        if rec["object"] == 0:
            rec["class"] = label
    (bad / "manifest.json").write_text(json.dumps(manifest))
    for argv in (
        ["sweep", "--family", "fgsm", "--eps", "0,2", "--weights", str(model_dir / "weights.viapnet")],
        ["train"],
    ):
        rc = cli.main(argv + ["--dataset", str(bad), "--out", str(tmp_path / argv[0])])
        assert rc == cli.EXIT_USAGE
        assert "malformed dataset" in last_error(capsys)["message"]


@pytest.mark.parametrize("arch", [
    pytest.param((32, 32, 3, 3), id="fewer-classes"),
    pytest.param((32, 32, 3, 5), id="more-classes"),
    pytest.param((16, 16, 3, 4), id="image-size"),
])
def test_weights_that_do_not_fit_the_dataset_are_usage_errors(tiny_run, tmp_path, capsys, arch):
    _, _, ds_dir, _ = tiny_run
    assert render.load_dataset(ds_dir).images.shape[1:] == (32, 32, 3)
    weights = tmp_path / "w.viapnet"
    nn.save_params(train.init_params(0, *arch), weights)
    for argv in (
        ["attack", "--family", "fgsm", "--eps", "2"],
        ["sweep", "--family", "fgsm", "--eps", "0,2"],
    ):
        rc = cli.main(argv + ["--dataset", str(ds_dir), "--weights", str(weights),
                              "--out", str(tmp_path / argv[0])])
        assert rc == cli.EXIT_USAGE, argv[0]
        message = last_error(capsys)["message"]
        assert str(weights) in message and str(ds_dir) in message, message
        assert str(arch) in message and "(32, 32, 3, 4)" in message, message


def viapkit_env(**extra) -> dict:
    """The environment of a child process that imports this viapkit."""
    src = str(Path(viapkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_not_a_usage_error(tiny_run, unbuffered):
    # `viapkit attack ... | head -1`: the reader goes away before the command
    # writes; with PYTHONUNBUFFERED the first print fails, without it the
    # flush at the end does
    root, _, ds_dir, model_dir = tiny_run
    proc = subprocess.Popen(
        [sys.executable, "-m", "viapkit", "attack", "--dataset", str(ds_dir),
         "--weights", str(model_dir / "weights.viapnet"), "--iters", "1",
         "--out", str(root / f"atk-pipe-{unbuffered}")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=viapkit_env(PYTHONUNBUFFERED=unbuffered),
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == cli.EXIT_PIPE, err
    assert err == b""


def failing_in_a_helper(tiny_run, name, module, function, failure, argv):
    """Run `viapkit argv` in a new process whose helper processes run `failure`
    when they call module.function; every stage forks at least one helper.

    The main process's calls wait until a helper has started failing (it
    touches a marker file), so the failure surely happens off the main process.
    """
    marker = tiny_run[0] / f"{name}.marker"
    script = f"""
import os, sys, time
from viapkit import {module}, cli, forked

real, main_pid = {module}.{function}, os.getpid()

def call(*args, **kwargs):
    if os.getpid() != main_pid:
        open({str(marker)!r}, "w").close()
        {failure}
    while not os.path.exists({str(marker)!r}):
        time.sleep(0.01)
    return real(*args, **kwargs)

{module}.{function} = call
real_jobs = forked.resolve_jobs
forked.resolve_jobs = lambda jobs: max(real_jobs(jobs), 2)
sys.exit(cli.main({argv!r}))
"""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=viapkit_env())


def sweep_failing_in_a_crafter(tiny_run, name, failure):
    """A CLI sweep of bim on 2 processes whose crafter processes run `failure`."""
    root, _, ds_dir, model_dir = tiny_run
    cfg = root / "sweep-no-gate.json"
    cfg.write_text(json.dumps({"sweep": {"gate_train": 0.0, "gate_test": 0.0}}))
    return failing_in_a_helper(tiny_run, name, "attacks", "craft", failure, [
        "sweep", "--config", str(cfg), "--dataset", str(ds_dir),
        "--weights", str(model_dir / "weights.viapnet"), "--family", "bim", "--eps", "0,5",
        "--iters", "2", "--jobs", "2", "--out", str(root / name)])


def usage_error(proc) -> str:
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "usage"
    return payload["message"]


def test_render_error_in_a_helper_exits_2(tiny_run):
    root, cfg, _, _ = tiny_run
    proc = failing_in_a_helper(tiny_run, "ds-render-error", "render", "render",
                               'raise ValueError("render failed in a helper")',
                               ["dataset", "--config", str(cfg), "--out", str(root / "ds-error")])
    assert usage_error(proc) == "render failed in a helper"


def test_scoring_error_in_a_helper_exits_2(tiny_run):
    root, cfg, ds_dir, _ = tiny_run
    proc = failing_in_a_helper(tiny_run, "train-score-error", "train", "evaluate_clean",
                               'raise ValueError("scoring failed in a helper")',
                               ["train", "--config", str(cfg), "--dataset", str(ds_dir),
                                "--out", str(root / "model-error")])
    assert usage_error(proc) == "scoring failed in a helper"


def test_craft_error_in_a_crafter_process_exits_2(tiny_run):
    proc = sweep_failing_in_a_crafter(
        tiny_run, "s-crafter-error", 'raise ValueError("craft failed in a crafter process")')
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload == {"error": "usage", "message": "craft failed in a crafter process"}


def test_crafter_process_that_dies_fails_the_sweep(tiny_run):
    proc = sweep_failing_in_a_crafter(tiny_run, "s-crafter-died", "os._exit(3)")
    assert proc.returncode == cli.EXIT_INTERNAL, proc.stderr
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "internal"
    assert payload["message"].startswith("RuntimeError: crafter process")
    assert payload["message"].endswith("died with exit code 3")


def test_cli_import_loads_no_process_or_thread_pool():
    # helpers are forked with os.fork, so no stage imports multiprocessing
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, viapkit.cli; "
         "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"],
        capture_output=True, text=True, timeout=120, env=viapkit_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- one copy of the pixels ---------------------------------------------------

def save_noise_dataset(out, views: int, size: int = 16) -> int:
    """Uniform-noise views, 16 per object, 8 of each object's in either split; returns pixel bytes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(views)))
    manifest = render.DatasetManifest(
        classes=render.CLASS_KINDS, image_shape=(size, size, 3), seed=0, jitter_frac=0.0)
    nbytes = size * size * 3 * 8
    for i in range(views):
        o, v = divmod(i, 16)
        manifest.views.append({"index": i, "object": o, "class": o % len(render.CLASS_KINDS),
                               "view": v, "split": "train" if v < 8 else "test",
                               "offset": i * nbytes})
    images = rng.uniform(0.0, 1.0, size=(views, size, size, 3))
    render.save_dataset(render.Dataset(manifest, images), out)
    return images.nbytes


def traced_peak(argv) -> int:
    """Most bytes held under tracemalloc while cli.main(argv) ran, beyond those held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == cli.EXIT_OK
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_train_and_sweep_hold_one_copy_of_the_pixels(tmp_path):
    # How much each command's peak grows per pixel byte when the dataset
    # doubles: 1 for the pixels, plus what each view adds besides (its
    # manifest record, about 0.08, and a split's pooled features, a third
    # of its pixels, held twice while nn.forward concatenates them, about
    # 0.33). A copy of one split would add another 1/2, since each split
    # holds half of the views, and a copy of both 1.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1},
                               "sweep": {"gate_train": 0.0, "gate_test": 0.0}}))
    pixels, peaks = [], []
    for views in (1024, 2048):
        root = tmp_path / str(views)
        pixels.append(save_noise_dataset(root / "ds", views))
        common = ["--config", str(cfg), "--dataset", str(root / "ds")]
        peaks.append((
            traced_peak(["train", *common, "--out", str(root / "model")]),
            traced_peak(["sweep", *common, "--weights", str(root / "model" / "weights.viapnet"),
                         "--eps", "0", "--out", str(root / "sweep")]),
        ))
    for command, small, large in zip(("train", "sweep"), *peaks):
        growth = (large - small) / (pixels[1] - pixels[0])
        assert growth < 1.75, (command, growth)


@pytest.mark.parametrize("argv,message", [
    pytest.param(["sweep", "--eps", "1,x"], "--eps expects a comma-separated list of numbers",
                 id="eps"),
    pytest.param(["attack", "--target", "x"], "--target expects a label id or 'random'",
                 id="target"),
])
def test_flag_parse_errors_show_their_own_message(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


def truncate_blob(ds_dir):
    blob = ds_dir / "images.f64"
    blob.write_bytes(blob.read_bytes()[:-8])


def tag_a_view_val(ds_dir):
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    manifest["views"][0]["split"] = "val"
    (ds_dir / "manifest.json").write_text(json.dumps(manifest))


def relabel_a_view(ds_dir):
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    rec = [r for r in manifest["views"] if r["object"] == 0][1]
    rec["class"] = (rec["class"] + 1) % len(manifest["classes"])
    (ds_dir / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("argv,cfg,edit,message", [
    pytest.param(["dataset"], [TINY_DS], None, "config must be a JSON object", id="config-array"),
    pytest.param(["sweep", "--eps", "-1"], {"dataset": TINY_DS}, None,
                 "eps grid must be non-empty and non-negative", id="negative-eps"),
    pytest.param(["dataset"], {**TINY_DS, "train_views": 4}, None,
                 "train_views must leave at least one view in each split", id="no-test-view"),
    pytest.param(["train", "--dataset", "{ds}"], {}, truncate_blob,
                 "image blob size does not match manifest", id="truncated-blob"),
    pytest.param(["train", "--dataset", "{ds}"], {}, tag_a_view_val, "bad split tag 'val'",
                 id="val-split"),
    pytest.param(["attack", "--dataset", "{ds}", "--weights", "{weights}", "--object", "99"], {},
                 None, "object 99 has no training views", id="absent-object"),
    pytest.param(["train", "--dataset", "{ds}"], {}, relabel_a_view,
                 "object 0's views carry different classes", id="object-of-two-classes"),
])
def test_cli_refusals_exit_2_with_a_named_message(tiny_run, tmp_path, capsys, argv, cfg, edit,
                                                  message):
    _, _, ds_dir, model_dir = tiny_run
    ds = tmp_path / "ds"
    ds.mkdir()
    for name in ("images.f64", "manifest.json"):
        (ds / name).write_bytes((ds_dir / name).read_bytes())
    if edit:
        edit(ds)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [a.format(ds=ds, weights=model_dir / "weights.viapnet") for a in argv]
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    payload = last_error(capsys)
    assert payload["error"] == "usage" and message in payload["message"], payload


def test_attack_scores_with_one_forward_per_split(tiny_run, monkeypatch):
    # final_loss and the train metrics read the same forward of the crafted views
    root, _, ds_dir, model_dir = tiny_run
    forwards = []
    real = nn.forward
    monkeypatch.setattr(nn, "forward", lambda params, x, rows=None:
                        forwards.append(len(x if rows is None else rows)) or real(params, x, rows))
    ds = render.load_dataset(ds_dir)
    for family in ("bim", "viap-t"):
        forwards.clear()
        assert cli.main([
            "attack", "--dataset", str(ds_dir), "--weights", str(model_dir / "weights.viapnet"),
            "--family", family, "--eps", "3", "--iters", "2", "--object", "1",
            "--out", str(root / f"atk-forwards-{family}"),
        ]) == cli.EXIT_OK
        assert forwards == [len(ds.indices(split, object_id=1)) for split in ("train", "test")]
