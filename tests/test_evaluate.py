import dataclasses
import itertools
import json
import os
import signal

import numpy as np
import pytest
import scipy.special
import scipy.stats

import oracles
from forking import children_left, deadline, fail_in_a_helper
from viapkit import attacks, evaluate, forked, nn, render, train


# --- incomplete beta / Welch -------------------------------------------------

def test_betainc_matches_scipy():
    for a in (0.5, 1.0, 2.5, 4.0, 17.0):
        for b in (0.5, 1.0, 3.0):
            for x in (0.0, 1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-9, 1.0):
                ours = evaluate.betainc_reg(a, b, x)
                ref = float(scipy.special.betainc(a, b, x))
                assert abs(ours - ref) < 2e-12, (a, b, x)
    assert evaluate.betainc_reg(2.0, 0.5, 0.0) == 0.0
    assert evaluate.betainc_reg(2.0, 0.5, 1.0) == 1.0


def test_welch_frozen_oracle_cases():
    for xs, ys, t_ref, df_ref, p_ref in oracles.WELCH_CASES:
        r = evaluate.welch_ttest(xs, ys)
        assert abs(r.t - t_ref) < 1e-12
        assert abs(r.df - df_ref) < 1e-12
        assert abs(r.p_value - p_ref) < 1e-6
        assert r.n_a == len(xs) and r.n_b == len(ys)


def test_welch_oracle_self_consistency():
    # the frozen numbers must be reproducible from the high-precision series
    # and agree with scipy's independent implementation
    for xs, ys, t_ref, df_ref, p_ref in oracles.WELCH_CASES:
        t, df, p = oracles.welch_reference(xs, ys)
        assert abs(t - t_ref) < 1e-12
        assert abs(df - df_ref) < 1e-12
        assert abs(p - p_ref) < 1e-12
        s = scipy.stats.ttest_ind(xs, ys, equal_var=False)
        assert abs(s.pvalue - p_ref) < 1e-12


def test_welch_mirrored_samples_give_p_one():
    a = [1.0, -1.0, 0.5, -0.5, 0.25, -0.25]
    b = [-v for v in a]
    r = evaluate.welch_ttest(a, b)
    assert r.t == 0.0
    assert r.p_value == 1.0


def test_welch_swap_symmetry(rng):
    for _ in range(5):
        a = rng.normal(0.4, 0.2, size=9)
        b = rng.normal(0.5, 0.25, size=13)
        r1 = evaluate.welch_ttest(a, b)
        r2 = evaluate.welch_ttest(b, a)
        assert abs(r1.p_value - r2.p_value) <= 1e-15
        assert r1.t == pytest.approx(-r2.t, abs=0.0)


def test_welch_degenerate_inputs():
    with pytest.raises(ValueError):
        evaluate.welch_ttest([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        evaluate.welch_ttest([2.0, 2.0, 2.0], [3.0, 3.0])
    # fine if only one sample is constant
    r = evaluate.welch_ttest([2.0, 2.0, 2.0], [3.0, 3.5])
    assert 0.0 <= r.p_value <= 1.0


def test_ttest_result_json():
    r = evaluate.welch_ttest([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], label="x-vs-y")
    d = json.loads(json.dumps(dataclasses.asdict(r)))
    assert d["label"] == "x-vs-y"
    assert set(d) == {"label", "t", "df", "p_value", "n_a", "n_b"}


def test_draw_target_excludes_true():
    drawn = set()
    for true in range(4):
        for seed in range(50):
            t = evaluate.draw_target(seed, 3, true, 4)
            assert t != true and 0 <= t < 4
            drawn.add(t)
            # the first draw of the (seed, object) target stream that is not the true label
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 101, 3])))
            draws = [int(rng.integers(0, 4)) for _ in range(64)]
            assert t == next(d for d in draws if d != true)
    assert drawn == {0, 1, 2, 3}


# --- sweep -------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_sweep(tiny_dataset, victim):
    config = evaluate.SweepConfig(
        eps_grid=(0.0, 3.0), families=("fgsm", "fgsm-t", "viap", "viap-t"),
        iterations=3, gate_train=0.0, gate_test=0.0,
    )
    return evaluate.confidence_sweep(victim, tiny_dataset, config=config)


def test_sweep_cell_structure(tiny_sweep, tiny_dataset):
    assert len(tiny_sweep.cells) == 4 * 2 * 2
    n_tr = len(tiny_dataset.indices("train"))
    n_te = len(tiny_dataset.indices("test"))
    for c in tiny_sweep.cells:
        assert c.n == (n_tr if c.split == "train" else n_te)
        assert len(c.values) == c.n == len(c.correct) == len(c.hits_target)
        assert 0.0 <= c.mean <= 1.0 and c.std >= 0.0
        expected_metric = "target_softmax" if attacks.targeted(c.family) else "true_softmax"
        assert c.metric == expected_metric


def test_sweep_eps_zero_rows_are_clean(tiny_sweep):
    # every family's eps=0 row must equal the clean baseline exactly
    base_u = tiny_sweep.cell("fgsm", 0.0, "test")
    base_t = tiny_sweep.cell("fgsm-t", 0.0, "test")
    assert np.array_equal(tiny_sweep.cell("viap", 0.0, "test").values, base_u.values)
    assert np.array_equal(tiny_sweep.cell("viap-t", 0.0, "test").values, base_t.values)
    # the untargeted cells hold the gate's clean scores, bit for bit
    for family, split in itertools.product(("fgsm", "viap"), ("train", "test")):
        c = tiny_sweep.cell(family, 0.0, split)
        assert c.top1_true == tiny_sweep.clean[f"{split}_acc"], (family, split)
        assert c.mean == tiny_sweep.clean[f"{split}_true_softmax"], (family, split)


def test_eps_zero_cells_rank_by_the_logits_the_gate_scored(tiny_dataset, victim, monkeypatch):
    # each view's true label ties label 0 once the logits go through softmax
    def tied(params, x, rows=None):
        logits = np.full((len(rows), 4), -50.0)
        logits[:, 0] = 0.0
        logits[np.arange(len(rows)), tiny_dataset.labels[rows]] = 1e-17
        return logits

    monkeypatch.setattr(nn, "forward", tied)
    config = evaluate.SweepConfig(eps_grid=(0.0,), gate_train=0.0, gate_test=0.0)
    result = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)
    assert result.clean["train_acc"] == result.clean["test_acc"] == 1.0
    for c in result.cells:
        assert c.top1_true == 1.0 and c.correct.all(), (c.family, c.split)


def test_eps_zero_cells_share_one_clean_forward_per_split(tiny_dataset, victim, monkeypatch):
    forwards = []
    real = nn.forward
    monkeypatch.setattr(nn, "forward", lambda params, x, rows=None:
                        forwards.append(len(x if rows is None else rows)) or real(params, x, rows))
    config = evaluate.SweepConfig(eps_grid=(0.0,), gate_train=0.0, gate_test=0.0)
    result = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)
    assert len(result.cells) == 2 * len(config.families)
    assert sorted(forwards) == sorted(len(tiny_dataset.indices(s)) for s in ("train", "test"))
    # the untargeted cells are those of a forward pass of their own
    for c in (c for c in result.cells if c.metric == "true_softmax"):
        idx = tiny_dataset.indices(c.split)
        probs = nn.softmax(real(victim, tiny_dataset.images[idx]))
        assert np.array_equal(c.values, probs[np.arange(len(idx)), tiny_dataset.labels[idx]])


def test_sweep_targets_shared_and_valid(tiny_sweep, tiny_dataset):
    ds = tiny_dataset
    for o, target in tiny_sweep.targets.items():
        true = int(ds.labels[ds.indices(object_id=o)][0])
        assert target != true
        assert 0 <= target < ds.n_classes


def test_sweep_deterministic_and_jobs_invariant(tiny_dataset, victim):
    # the 8 (family, eps > 0, object) items are split over jobs processes
    # (never more helpers than items), each taking every jobs-th item
    config = evaluate.SweepConfig(
        eps_grid=(0.0, 5.0), families=("viap", "bim"), iterations=2,
        gate_train=0.0, gate_test=0.0,
    )
    a = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)
    others = [evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=j)
              for j in (1, 2, 3, 9, None)]
    for other in others:
        assert len(a.cells) == len(other.cells)
        for ca, cb in zip(a.cells, other.cells):
            assert (ca.family, ca.eps, ca.split) == (cb.family, cb.eps, cb.split)
            for f in ("values", "correct", "hits_target"):
                assert np.array_equal(getattr(ca, f), getattr(cb, f)), (ca.family, ca.eps, f)
        for got, want in ((other.samples, a.samples), (other.samples_clean, a.samples_clean)):
            assert got.keys() == want.keys()
            for key, pixels in got.items():
                assert pixels.dtype == np.uint8 and np.array_equal(pixels, want[key]), key
    assert not children_left()


def test_each_object_is_scored_as_attack_scores_it(tiny_dataset, victim):
    # a cell's rows for an object are the softmax of that object's crafted
    # training views (train) and of its delta on its test views (test)
    ds, eps = tiny_dataset, 3.0
    config = evaluate.SweepConfig(eps_grid=(0.0, eps), iterations=2, gate_train=0.0, gate_test=0.0)
    sweep = evaluate.confidence_sweep(victim, ds, config=config, jobs=2)
    for family in config.families:
        for o in ds.objects():
            tr, te = ds.indices("train", object_id=o), ds.indices("test", object_id=o)
            target = sweep.targets[o] if attacks.targeted(family) else None
            cfg = dataclasses.replace(config.attack_config(family, eps, target=target),
                                      seed=evaluate.attack_seed(config.seed, family, eps, o))
            adv, delta = attacks.craft(victim, ds.images[tr], ds.labels[tr], cfg)
            tracked = int(ds.labels[tr][0]) if target is None else target
            for split, idx, views in (("train", tr, adv),
                                      ("test", te, attacks.apply_delta(delta, ds.images[te]))):
                probs = nn.softmax(nn.forward(victim, views))
                rows = np.searchsorted(ds.indices(split), idx)
                cell = sweep.cell(family, eps, split)
                assert np.array_equal(cell.values[rows], probs[:, tracked]), (family, o, split)
                assert np.array_equal(cell.correct[rows], probs.argmax(axis=1) == ds.labels[idx])


def test_attack_object_sets_the_sweeps_target_and_seed(tiny_dataset, victim):
    # every family crafts with the target the sweep drew (None when
    # untargeted) and the init seed attack_seed derives, whether its settings
    # carry no target, as attack's do for "random", or the drawn one, as the sweep's do
    ds, eps, seed = tiny_dataset, 3.0, 5
    config = evaluate.SweepConfig(eps_grid=(0.0,), seed=seed, gate_train=0.0, gate_test=0.0)
    targets = evaluate.confidence_sweep(victim, ds, config=config, jobs=1).targets
    o = ds.objects()[1]
    for family, given in itertools.product(attacks.FAMILIES, (None, targets[o])):
        cfg, *_ = evaluate.attack_object(
            victim, ds, config.attack_config(family, eps, given), seed, o)
        assert cfg.target == (targets[o] if attacks.targeted(family) else None), (family, given)
        assert cfg.seed == evaluate.attack_seed(seed, family, eps, o), family
        assert cfg.family == family and cfg.eps == eps


def test_attack_object_refuses_what_attack_refuses(tiny_dataset, victim):
    ds = tiny_dataset
    k = ds.n_classes
    bad = {
        "object 99 has no training views": (attacks.AttackConfig("viap-t", 3.0), 99),
        f"target must lie in [0, {k}); got {k}": (attacks.AttackConfig("bim-t", 3.0, target=k), 0),
        f"target must lie in [0, {k}); got -1": (attacks.AttackConfig("fgsm-t", 3.0, target=-1), 0),
    }
    for message, (cfg, o) in bad.items():
        with pytest.raises(ValueError) as err:
            evaluate.attack_object(victim, ds, cfg, 0, o)
        assert str(err.value) == message


def test_sweep_scores_each_object_with_one_forward_per_split(tiny_dataset, victim, monkeypatch):
    forwards = []
    real = nn.forward
    monkeypatch.setattr(nn, "forward", lambda params, x, rows=None:
                        forwards.append(len(x if rows is None else rows)) or real(params, x, rows))
    ds, positive = tiny_dataset, (3.0, 5.0)
    config = evaluate.SweepConfig(eps_grid=(0.0, *positive), families=("fgsm", "viap-t"),
                                  iterations=2, gate_train=0.0, gate_test=0.0)
    evaluate.confidence_sweep(victim, ds, config=config, jobs=1)  # counted here alone
    clean = [len(ds.indices(split)) for split in ("train", "test")]
    per_item = [len(ds.indices(split, object_id=o))
                for _ in config.families for _ in positive for o in ds.objects()
                for split in ("train", "test")]
    assert forwards == clean + per_item


def test_sample_order_is_the_same_for_any_jobs(tiny_dataset, victim):
    config = evaluate.SweepConfig(eps_grid=(0.0, 3.0, 5.0), families=("fgsm", "viap"),
                                  iterations=2, gate_train=0.0, gate_test=0.0)
    orders = [list(evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=j).samples)
              for j in (1, 2, 3, 9)]
    assert len(orders[0]) == 2 * 2 * tiny_dataset.n_classes
    assert all(order == orders[0] for order in orders)


def fail_in_a_crafter(monkeypatch, marker, fail):
    fail_in_a_helper(monkeypatch, attacks, "craft", marker, fail)


ONE_BIM = evaluate.SweepConfig(eps_grid=(0.0, 5.0), families=("bim",), iterations=2,
                               gate_train=0.0, gate_test=0.0)


def test_craft_error_in_a_crafter_process_reaches_the_caller(
        tiny_dataset, victim, monkeypatch, tmp_path):
    def fail():
        raise ValueError("craft failed in a crafter process")

    fail_in_a_crafter(monkeypatch, tmp_path / "failed", fail)
    with deadline(120), pytest.raises(ValueError) as err:
        evaluate.confidence_sweep(victim, tiny_dataset, config=ONE_BIM, jobs=2)
    # the exception crossed a process boundary: an equal one, not the same object
    assert type(err.value) is ValueError
    assert err.value.args == ("craft failed in a crafter process",)
    assert not children_left()


def test_scoring_error_in_a_crafter_process_reaches_the_caller(
        tiny_dataset, victim, monkeypatch, tmp_path):
    def fail():
        raise ValueError("scoring failed in a crafter process")

    marker = tmp_path / "failed"
    # the clean forwards run on this process before any crafter exists: let them through
    marker.touch()
    fail_in_a_helper(monkeypatch, nn, "forward", marker, fail)
    with deadline(120), pytest.raises(ValueError) as err:
        evaluate.confidence_sweep(victim, tiny_dataset, config=ONE_BIM, jobs=2)
    assert type(err.value) is ValueError
    assert err.value.args == ("scoring failed in a crafter process",)
    assert not children_left()


def test_unpicklable_craft_error_arrives_as_runtime_error(
        tiny_dataset, victim, monkeypatch, tmp_path):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def fail():
        raise LocalError("no way back")

    fail_in_a_crafter(monkeypatch, tmp_path / "failed", fail)
    with deadline(120), pytest.raises(RuntimeError, match="LocalError.*no way back"):
        evaluate.confidence_sweep(victim, tiny_dataset, config=ONE_BIM, jobs=2)
    assert not children_left()


def test_crafter_process_that_dies_stops_the_sweep(tiny_dataset, victim, monkeypatch, tmp_path):
    fail_in_a_crafter(monkeypatch, tmp_path / "died", lambda: os._exit(3))
    with deadline(120), pytest.raises(RuntimeError, match="died with exit code 3"):
        evaluate.confidence_sweep(victim, tiny_dataset, config=ONE_BIM, jobs=2)
    assert not children_left()


def test_crafter_process_that_dies_between_cells_stops_the_next():
    with deadline(60), forked.Helpers(2, lambda i: None, lambda i, r: None, 2, "crafter") as crafters:
        crafters.run()
        os.kill(crafters.procs[0].pid, signal.SIGKILL)
        crafters.procs[0].reap()
        with pytest.raises(RuntimeError, match="died with exit code -9"):
            crafters.run()
    assert not children_left()


def test_interrupted_sweep_leaves_no_crafter_process(tiny_dataset, victim, monkeypatch):
    real_craft, main_pid = attacks.craft, os.getpid()

    def craft(*args, **kwargs):
        if os.getpid() == main_pid:
            raise KeyboardInterrupt
        return real_craft(*args, **kwargs)

    monkeypatch.setattr(attacks, "craft", craft)
    with deadline(120), pytest.raises(KeyboardInterrupt):
        evaluate.confidence_sweep(victim, tiny_dataset, config=ONE_BIM, jobs=3)
    assert not children_left()


def test_sweep_leaves_no_stale_rows_between_families(tiny_dataset, victim):
    # each (family, eps > 0) fills its own probability arrays, object by
    # object: bim's cells after viap's must be those of a bim-only sweep
    config = dict(eps_grid=(0.0, 3.0, 5.0), iterations=2, gate_train=0.0, gate_test=0.0)
    both = evaluate.confidence_sweep(
        victim, tiny_dataset, config=evaluate.SweepConfig(families=("viap", "bim"), **config))
    alone = evaluate.confidence_sweep(
        victim, tiny_dataset, config=evaluate.SweepConfig(families=("bim",), **config))
    bim_cells = [c for c in both.cells if c.family == "bim"]
    assert len(bim_cells) == len(alone.cells) == 6
    for a, b in zip(bim_cells, alone.cells):
        assert (a.eps, a.split, a.mean, a.std) == (b.eps, b.split, b.mean, b.std)
        for f in ("values", "correct", "hits_target"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), (a.eps, a.split, f)
    for key, pixels in alone.samples.items():
        assert np.array_equal(both.samples[key], pixels), key


def test_sweep_dispatches_each_family_to_its_kernel(tiny_dataset, victim, kernel_calls):
    config = evaluate.SweepConfig(
        eps_grid=(0.0, 3.0, 5.0), iterations=2, gate_train=0.0, gate_test=0.0,
    )
    # the kernel calls are recorded in this process: craft here alone
    sweep = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)

    ds = tiny_dataset
    train_views = {o: ds.indices("train", object_id=o) for o in ds.objects()}
    seen = []
    for kernel, cfg, images, labels in kernel_calls:
        o = next(o for o, idx in train_views.items()
                 if np.array_equal(images, ds.images[idx]))
        seen.append((cfg.family, cfg.eps, o))
        assert np.array_equal(labels, ds.labels[train_views[o]])  # true labels, always
        want = "viap_arrays" if cfg.family in attacks.VIAP_FAMILIES else "bim_batch"
        assert kernel == want, cfg.family
        assert cfg.target == (sweep.targets[o] if attacks.targeted(cfg.family) else None)
        if cfg.family in attacks.SINGLE_STEP_FAMILIES:
            assert cfg.iterations == 1 and cfg.step_unit == cfg.eps_unit
        else:
            assert cfg.iterations == 2
    expected = [(f, e, o) for f in attacks.FAMILIES for e in (3.0, 5.0) for o in ds.objects()]
    assert sorted(seen) == sorted(expected)


def test_shared_clean_sign_leaves_every_cell_unchanged(tiny_dataset, victim, monkeypatch):
    # fgsm's step and bim's first step reuse one clean-view sign per object
    # and direction; crafting each object without it must give the same bits,
    # down to the float adversarial views and deltas each craft returns
    config = evaluate.SweepConfig(
        eps_grid=(0.0, 0.5, 3.0, 50.0), families=("fgsm", "fgsm-t", "bim", "bim-t"), iterations=3,
        gate_train=0.0, gate_test=0.0,
    )
    real_craft = attacks.craft

    def recording(crafts, keep_sign):
        def craft(*args, first_step=None):
            adv, delta = real_craft(*args, first_step=first_step if keep_sign else None)
            cfg = args[3]
            crafts[(cfg.family, cfg.eps, cfg.seed)] = (first_step is not None, adv.copy(), delta)
            return adv, delta
        return craft

    shared_crafts, plain_crafts = {}, {}
    # the crafts are recorded in this process: craft here alone
    monkeypatch.setattr(attacks, "craft", recording(shared_crafts, keep_sign=True))
    shared = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)
    monkeypatch.setattr(attacks, "craft", recording(plain_crafts, keep_sign=False))
    plain = evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)

    n_objects = len(tiny_dataset.objects())
    assert len(shared_crafts) == len(plain_crafts) == 4 * 3 * n_objects
    assert shared_crafts.keys() == plain_crafts.keys()
    for key, (had_sign, adv, delta) in shared_crafts.items():
        assert had_sign, key
        assert np.array_equal(adv, plain_crafts[key][1]), key
        assert np.array_equal(delta, plain_crafts[key][2]), key
    assert len(shared.cells) == len(plain.cells)
    for a, b in zip(shared.cells, plain.cells):
        assert (a.family, a.eps, a.split, a.mean, a.std) == (b.family, b.eps, b.split, b.mean, b.std)
        for f in ("values", "correct", "hits_target"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), (a.family, a.eps, a.split, f)
    assert shared.samples.keys() == plain.samples.keys()
    for key, img in shared.samples.items():
        assert np.array_equal(img, plain.samples[key]), key


@pytest.mark.parametrize("families", [attacks.FAMILIES, ("fgsm",), ("viap", "bim-t"), ("viap-t",)])
def test_sweep_gradient_call_count(tiny_dataset, victim, monkeypatch, families):
    # per object and eps > 0: N backward passes per viap family, N - 1 per bim
    # family (the first step reuses the clean sign), none for fgsm; plus one
    # clean-view pass per object and direction the per-image families use
    real_backward = nn.Graph.backward
    calls = []

    def backward(self, *args, **kwargs):
        calls.append(self.x.shape[0])
        return real_backward(self, *args, **kwargs)

    monkeypatch.setattr(nn.Graph, "backward", backward)
    n, eps_grid = 3, (0.0, 3.0, 5.0)
    config = evaluate.SweepConfig(
        eps_grid=eps_grid, families=families, iterations=n, gate_train=0.0, gate_test=0.0,
    )
    evaluate.confidence_sweep(victim, tiny_dataset, config=config, jobs=1)  # counted here alone

    per_family = {"fgsm": 0, "fgsm-t": 0, "bim": n - 1, "bim-t": n - 1, "viap": n, "viap-t": n}
    directions = {attacks.targeted(f) for f in families if f not in attacks.VIAP_FAMILIES}
    positive = sum(e > 0 for e in eps_grid)
    per_object = positive * sum(per_family[f] for f in families) + len(directions)
    assert len(calls) == len(tiny_dataset.objects()) * per_object


def test_sweep_gate_failure(tiny_dataset):
    untrained = train.init_params(0)
    with pytest.raises(evaluate.GateFailure) as err:
        evaluate.confidence_sweep(untrained, tiny_dataset)
    assert "train_acc" in err.value.diag


def test_sweep_rejects_one_class_dataset():
    ds = render.generate_dataset(classes=("cube",), objects_per_class=1, views_per_object=2)
    params = train.init_params(0, classes=1)
    config = evaluate.SweepConfig(eps_grid=(0.0,), families=("fgsm",), gate_train=0.0, gate_test=0.0)
    with pytest.raises(ValueError, match="at least 2 classes"):
        evaluate.confidence_sweep(params, ds, config=config)
    with pytest.raises(ValueError, match="at least 2 classes"):
        evaluate.draw_target(0, 0, 0, 1)


def test_sweep_ttests_present(tiny_dataset, victim):
    config = evaluate.SweepConfig(
        eps_grid=(0.0, 5.0), families=("fgsm", "viap"), iterations=2,
        gate_train=0.0, gate_test=0.0, ttest_eps=5.0,
    )
    sweep = evaluate.confidence_sweep(victim, tiny_dataset, config=config)
    labels = [t.label for t in sweep.ttests]
    assert any(l.startswith("viap-vs-fgsm") for l in labels)


# --- report ------------------------------------------------------------------

def test_emit_report_files_and_determinism(tiny_sweep, tmp_path):
    files1 = evaluate.emit_report(tiny_sweep, tiny_sweep.ttests, tmp_path / "a")
    files2 = evaluate.emit_report(tiny_sweep, tiny_sweep.ttests, tmp_path / "b")
    assert files1 == files2
    assert "report.csv" in files1 and "report.json" in files1 and "summary.csv" in files1
    for rel in files1:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    report_rows = (tmp_path / "a" / "report.csv").read_text().strip().split("\n")
    assert report_rows[0] == "family,epsilon,split,metric,mean,std,n"
    assert len(report_rows) - 1 == len(tiny_sweep.cells)  # one row per cell

    data = json.loads((tmp_path / "a" / "report.json").read_text())
    assert len(data["cells"]) == len(tiny_sweep.cells)
    assert data["footnotes"]

    # per-view records in the report are enough to recompute every mean
    for cell, raw in zip(tiny_sweep.cells, data["cells"]):
        assert cell.mean == pytest.approx(np.mean(raw["values"]), abs=1e-12)


def test_emit_report_without_ttests(tiny_sweep, tmp_path):
    files = evaluate.emit_report(tiny_sweep, [], tmp_path / "c")
    assert "significance.csv" not in files
    assert "report.csv" in files


def test_report_samples_are_ppm(tiny_sweep, tmp_path):
    files = evaluate.emit_report(tiny_sweep, [], tmp_path / "d")
    samples = [f for f in files if f.startswith("samples/")]
    assert samples
    clean = [f for f in samples if "clean_" in f]
    assert clean
    for rel in samples:
        assert (tmp_path / "d" / rel).read_bytes().startswith(b"P6\n")
