import math
import os

import numpy as np
import pytest

from forking import deadline, fail_in_a_helper
from viapkit import evaluate, nn, train


def toy_data(rng, n=24, hw=8, classes=4):
    x = rng.uniform(0, 1, size=(n, hw, hw, 3))
    y = rng.integers(0, classes, size=n)
    return x, y


def test_init_deterministic():
    a = train.init_params(3)
    b = train.init_params(3)
    for f in nn.PARAM_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f))
    c = train.init_params(4)
    # the first layer is a fixed filter bank: identical across seeds; the
    # seed only drives the conv2 mixing draw
    assert np.array_equal(a.conv1_w, c.conv1_w)
    assert not np.array_equal(a.conv2_w, c.conv2_w)


def test_init_layer_structure():
    for seed in range(8):
        p = train.init_params(seed)
        # conv1: column-replicated vertical stencils with zero column mean
        assert np.array_equal(p.conv1_w[:, 0], p.conv1_w[:, 1])
        assert np.array_equal(p.conv1_w[:, 0], p.conv1_w[:, 2])
        assert np.max(np.abs(p.conv1_w.sum(axis=0))) < 1e-12
        # per-channel kernel norm is pinned to the layer gain
        norms = np.sqrt((p.conv1_w ** 2).sum(axis=(0, 1, 2)))
        assert np.allclose(norms, train.GAIN_CONV1, rtol=1e-12)
        # conv2 He-uniform bound; everything else starts at zero
        assert np.max(np.abs(p.conv2_w)) <= train.GAIN_CONV2 * np.sqrt(6.0 / 72.0)
        for f in ("conv1_b", "conv2_b", "dense_w", "dense_b"):
            assert not np.any(getattr(p, f)), (seed, f)


def test_init_ignores_flat_patches():
    p = train.init_params(1)
    # a uniform patch of any level must drive every first-layer channel to
    # exactly zero response (zero-mean stencils, zero bias)
    for level in (0.0, 0.5, 0.9):
        flat = np.full((1, 8, 8, 3), level)
        z = nn.conv2d(flat, p.conv1_w, p.conv1_b)
        assert np.max(np.abs(z[0, 4, 4])) < 1e-12  # interior: full 3x3 support


def test_train_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        train.TrainConfig(lr=0.0)
    for lr in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            train.TrainConfig(lr=lr)
    with pytest.raises(ValueError):
        train.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        train.TrainConfig(momentum=1.0)


def test_near_zero_lr_is_a_no_op(rng):
    x, y = toy_data(rng)
    p0 = train.init_params(0, height=8, width=8)
    # a nonzero readout, so predictions are not argmax ties of all-zero logits
    p0 = p0.replace_weights(dense_w=0.1 * rng.standard_normal(p0.dense_w.shape))
    trained, _ = train.train(p0, x, y, train.TrainConfig(epochs=1, lr=1e-9))
    acc0, _ = train.evaluate_clean(p0, x, y)
    acc1, _ = train.evaluate_clean(trained, x, y)
    assert abs(acc0 - acc1) <= 0.02
    assert np.max(np.abs(trained.conv1_w - p0.conv1_w)) < 1e-6


def test_training_descends(victim_run):
    _, log = victim_run
    assert log[-1]["loss"] < log[0]["loss"]


def test_training_deterministic(rng):
    x, y = toy_data(rng)
    cfg = train.TrainConfig(epochs=2, seed=5)
    p0 = train.init_params(2, height=8, width=8)
    a, log_a = train.train(p0, x, y, cfg)
    b, log_b = train.train(p0, x, y, cfg)
    for f in nn.PARAM_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f))
    assert log_a == log_b


def test_returned_weights_match_best_logged_epoch(rng):
    x, y = toy_data(rng, n=32)
    p0 = train.init_params(7, height=8, width=8)
    params, log = train.train(p0, x, y, train.TrainConfig(epochs=5, seed=1))
    best = max(e["train_acc"] for e in log)
    acc, _ = train.evaluate_clean(params, x, y)
    assert acc == best


def test_best_epoch_is_the_earliest_of_tied_epochs():
    log = [{"epoch": e, "loss": 1.0, "train_acc": a}
           for e, a in enumerate((0.5, 0.75, 0.25, 0.75, 0.5))]
    assert train.best_epoch(log) is log[1]
    assert train.best_epoch(log[2:]) is log[3]


def test_divergence_reported_with_epoch(rng):
    # inputs at overflow scale: the first update lands finite, the next
    # forward pass overflows to inf/nan and must surface as a clear error
    x = rng.uniform(1.0, 2.0, size=(24, 8, 8, 3)) * 1e160
    y = rng.integers(0, 4, size=24)
    p0 = train.init_params(0, height=8, width=8)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(train.TrainingDiverged) as err:
            train.train(p0, x, y, train.TrainConfig(epochs=3, lr=1.0))
    assert err.value.epoch >= 0


def test_empty_split_rejected(rng):
    p0 = train.init_params(0, height=8, width=8)
    with pytest.raises(ValueError):
        train.train(p0, np.zeros((0, 8, 8, 3)), np.zeros(0, dtype=int), train.TrainConfig())


def test_evaluate_clean_uniform_model(rng):
    x, y = toy_data(rng)
    p = train.init_params(0, height=8, width=8)
    zeroed = p.replace_weights(
        dense_w=np.zeros_like(p.dense_w), dense_b=np.zeros_like(p.dense_b)
    )
    _, conf = train.evaluate_clean(zeroed, x, y)
    assert conf == pytest.approx(0.25, abs=1e-12)


def test_a_prediction_is_the_argmax_of_the_logits():
    # the two top softmax entries both round to 0.5, so an argmax of the
    # softmax row would pick label 0 where the logits say 1
    logits, labels = np.array([[0.0, 1e-17, -50.0, -50.0]]), np.array([1])
    probs = nn.softmax(logits)
    assert probs[0, 0] == probs[0, 1]
    pred, tracked = train.score_views(logits, labels)
    assert pred.tolist() == [1] and tracked[0] == probs[0, 1]
    assert train.clean_metrics(logits, labels) == (1.0, probs[0, 1])
    for family in ("fgsm", "fgsm-t"):
        cell = evaluate._make_cell(family, 0.0, "test", logits, labels, np.array([0]))
        assert (cell.top1_true, cell.top1_target) == (1.0, 0.0), family


@pytest.mark.parametrize("diverges", [False, True])
def test_training_leaves_no_patch_scratch(rng, diverges):
    x, y = toy_data(rng, n=16)
    p0 = train.init_params(0, height=8, width=8)
    for name in nn._scratch:
        nn._scratch_view(name, (1000,))
    if diverges:
        # the first epoch's weights score non-finite logits
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                train.train(p0, (1.0 + x) * 1e160, y, train.TrainConfig(epochs=3, lr=1.0))
    else:
        train.train(p0, x, y, train.TrainConfig(epochs=1))
    assert {name: buf.size for name, buf in nn._scratch.items()} == {"padded": 0, "cols": 0, "cols_t": 0}


def test_log_csv_layout(rng):
    x, y = toy_data(rng)
    p0 = train.init_params(0, height=8, width=8)
    _, log = train.train(p0, x, y, train.TrainConfig(epochs=2), val_rows=np.arange(len(y)))
    text = train.log_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss,train_acc,test_acc"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        float(cells[1]), float(cells[2]), float(cells[3])


def test_clean_gate_on_default_dataset(default_dataset, victim):
    ds = default_dataset
    tr_acc, _ = train.evaluate_clean(victim, ds.images[ds.indices("train")], ds.labels[ds.indices("train")])
    te_acc, _ = train.evaluate_clean(victim, ds.images[ds.indices("test")], ds.labels[ds.indices("test")])
    assert tr_acc >= 0.95
    assert te_acc >= 0.90


# --- scoring on a forked helper while the next epoch trains -----------------

def test_training_same_for_any_jobs(rng):
    x, y = toy_data(rng, n=40)
    p0 = train.init_params(2, height=8, width=8)
    cfg = train.TrainConfig(epochs=4, seed=3)
    runs = {jobs: train.train(p0, x, y, cfg, np.arange(32), np.arange(32, 40), jobs=jobs)
            for jobs in (1, 2, 3, 5)}  # 5: more processes than the two splits
    params_1, log_1 = runs[1]
    for jobs, (params, log) in runs.items():
        assert train.log_csv(log) == train.log_csv(log_1), jobs
        for f in nn.PARAM_FIELDS:
            assert np.array_equal(getattr(params, f), getattr(params_1, f)), (jobs, f)


def test_training_on_rows_equals_training_on_a_copied_split(rng):
    x, y = toy_data(rng, n=40)
    order = rng.permutation(40)
    rows, val_rows = order[:28], order[28:]
    p0 = train.init_params(4, height=8, width=8)
    cfg = train.TrainConfig(epochs=3, seed=2)
    by_rows = train.train(p0, x, y, cfg, rows, val_rows)
    # the same views copied out in the same order, the held-out ones behind them
    copied = train.train(p0, x[order], y[order], cfg, np.arange(28), np.arange(28, 40))
    forked = train.train(p0, x, y, cfg, rows, val_rows, jobs=2)
    for (params, log), jobs in ((copied, 1), (forked, 2)):
        assert train.log_csv(log) == train.log_csv(by_rows[1]), jobs
        for f in nn.PARAM_FIELDS:
            assert np.array_equal(getattr(params, f), getattr(by_rows[0], f)), (jobs, f)
    # without held-out rows, on the training split alone
    alone, log = train.train(p0, x[rows], y[rows], cfg)
    assert [e["train_acc"] for e in log] == [e["train_acc"] for e in by_rows[1]]
    for f in nn.PARAM_FIELDS:
        assert np.array_equal(getattr(alone, f), getattr(by_rows[0], f)), f


def test_scoring_error_in_a_helper_reaches_the_caller(rng, monkeypatch, tmp_path):
    def fail():
        raise ValueError("scoring failed in a helper")

    x, y = toy_data(rng)
    fail_in_a_helper(monkeypatch, train, "evaluate_clean", tmp_path / "failed", fail)
    with deadline(120), pytest.raises(ValueError) as err:
        train.train(train.init_params(0, height=8, width=8), x, y,
                    train.TrainConfig(epochs=2), val_rows=np.arange(len(y)), jobs=2)
    assert type(err.value) is ValueError
    assert err.value.args == ("scoring failed in a helper",)


def test_scorer_that_dies_stops_training(rng, monkeypatch, tmp_path):
    x, y = toy_data(rng)
    fail_in_a_helper(monkeypatch, train, "evaluate_clean", tmp_path / "died", lambda: os._exit(3))
    with deadline(120), pytest.raises(RuntimeError, match="scorer process .* died with exit code 3"):
        train.train(train.init_params(0, height=8, width=8), x, y,
                    train.TrainConfig(epochs=2), val_rows=np.arange(len(y)), jobs=2)


@pytest.mark.parametrize("scoring_fails", [True, False])
def test_training_failures_come_in_epoch_order(rng, monkeypatch, scoring_fails):
    # epoch 1's steps fail while epoch 0 is being scored: one process trains
    # epoch 0, scores it, then fails in epoch 1, so a failing score of epoch
    # 0 must win; of the two splits, the training split's error comes first
    x, y = toy_data(rng)
    batches = -(-len(y) // train.DEFAULT_BATCH)
    real_grad, real_eval = nn.loss_and_param_grad, train.evaluate_clean
    steps = []

    def grad(*args):
        steps.append(None)
        if len(steps) > batches:
            raise ValueError("step failed")
        return real_grad(*args)

    def evaluate_clean(params, images, labels, rows):
        if scoring_fails:
            raise ValueError(f"scoring {len(rows)} rows failed")
        return real_eval(params, images, labels, rows)

    monkeypatch.setattr(nn, "loss_and_param_grad", grad)
    monkeypatch.setattr(train, "evaluate_clean", evaluate_clean)
    raised = []
    for jobs in (1, 2, 3):
        steps.clear()
        with deadline(120), pytest.raises(Exception) as err:
            train.train(train.init_params(0, height=8, width=8), x, y,
                        train.TrainConfig(epochs=3), val_rows=np.arange(8), jobs=jobs)
        raised.append((type(err.value), str(err.value)))
    if scoring_fails:
        assert raised[0] == (ValueError, f"scoring {len(y)} rows failed")
    else:
        assert raised[0] == (train.TrainingDiverged, "training diverged at epoch 1: step failed")
    assert raised == raised[:1] * 3
