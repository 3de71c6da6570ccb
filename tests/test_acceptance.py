"""End-to-end acceptance checklist for the package.

One test per sign-off criterion, named so that `pytest -v` reads as the
checklist. Each test also prints a single `criterion NN ...: PASS` line on
success (visible with -rA or -s) so a log skim answers "which ones hold".

The expensive pipeline stages — default dataset, default training run,
default sweep — are built exactly once per module and timed; the clean-gate
and runtime criteria read those measurements instead of re-running stages.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import oracles
from viapkit import attacks, cli, evaluate, nn, render
from viapkit import train as train_mod


def _ok(line: str) -> None:
    print(f"criterion {line}: PASS")


# ---------------------------------------------------------------------------
# Shared timed pipeline
# ---------------------------------------------------------------------------

class PipelineRun:
    def __init__(self):
        t0 = time.perf_counter()
        self.dataset = render.generate_dataset(seed=7)
        t1 = time.perf_counter()
        tr = self.dataset.indices("train")
        te = self.dataset.indices("test")
        self.params, self.log = train_mod.train(
            train_mod.init_params(0),
            self.dataset.images, self.dataset.labels,
            train_mod.TrainConfig(),
            tr, te,
        )
        t2 = time.perf_counter()
        self.sweep = evaluate.confidence_sweep(self.params, self.dataset)
        t3 = time.perf_counter()
        self.t_dataset = t1 - t0
        self.t_train = t2 - t1
        self.t_sweep = t3 - t2
        self.cells = {(c.family, c.eps, c.split): c for c in self.sweep.cells}


@pytest.fixture(scope="module")
def pipeline():
    return PipelineRun()


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        params, x, labels = oracles.safe_config(seed)
        _, g_in = nn.loss_and_input_grad(params, x, labels)
        _, g_par = nn.loss_and_param_grad(params, x, labels)

        coords = [tuple(c) for c in np.ndindex(*x.shape)]
        fd = oracles.fd_input_grad(params, x, labels, coords)
        for k, idx in enumerate(coords):
            worst = max(worst, oracles.rel_err(fd[k], g_in[idx]))

        for f in nn.PARAM_FIELDS:
            shape = getattr(params, f).shape
            coords = [tuple(c) for c in np.ndindex(*shape)]
            fd = oracles.fd_param_grad(params, x, labels, f, coords)
            got = g_par[f]
            for k, idx in enumerate(coords):
                worst = max(worst, oracles.rel_err(fd[k], got[idx]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"
    _ok(f"01 gradient oracle (worst rel err {worst:.1e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. shared-perturbation gradient identity
# ---------------------------------------------------------------------------

def test_criterion_02_shared_gradient_is_sum_of_view_gradients():
    worst = 0.0
    for seed in range(12):
        params, _, _ = oracles.safe_config(seed)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([21, seed])))
        views = int(rng.integers(2, 9))
        x = rng.uniform(0.0, 1.0, size=(views, params.height, params.width, params.channels))
        y = rng.integers(0, params.classes, size=views)
        _, shared = attacks.shared_gradient(params, x, y)
        total = np.zeros(x.shape[1:])
        for i in range(views):
            _, g = nn.loss_and_input_grad(params, x[i : i + 1], y[i : i + 1])
            total += g[0] / views
        worst = max(worst, float(np.abs(shared - total).max()))
    assert worst < 1e-10, f"identity violated by {worst:.3e}"
    _ok(f"02 shared-gradient identity (max abs diff {worst:.1e})")


# ---------------------------------------------------------------------------
# 3. eps-ball and pixel-range fuzz
# ---------------------------------------------------------------------------

def test_criterion_03_ball_and_range_fuzz_1000():
    families = list(attacks.FAMILIES)
    cases = 0
    params = None
    for case in range(1000):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, case])))
        if case % 50 == 0:
            params, _, _ = oracles.safe_config(case // 50)
        family = families[case % len(families)]
        eps = 0.0 if case % 17 == 0 else float(rng.uniform(0.0, 50.0))
        views = int(rng.integers(1, 4))
        x = rng.uniform(0.0, 1.0, size=(views, params.height, params.width, params.channels))
        target = int(rng.integers(0, params.classes))
        if family.endswith("-t"):
            y = rng.integers(0, params.classes - 1, size=views)
            y = y + (y >= target)  # true labels never collide with the target
        else:
            y = rng.integers(0, params.classes, size=views)
        iters = int(rng.integers(1, 6))
        tol = eps / 255.0 + 1e-12

        def in_ball(adv, clean=x):
            assert np.abs(adv - clean).max() <= tol, (family, eps, case)
            assert adv.min() >= 0.0 and adv.max() <= 1.0, (family, eps, case)

        if family not in attacks.VIAP_FAMILIES:
            cfg = attacks.AttackConfig(
                family=family, eps=eps, target=target if family.endswith("-t") else None,
                iterations=1 if family in attacks.SINGLE_STEP_FAMILIES else iters,
            )
            steps = []
            attacks.bim_batch(params, x, y, cfg, trace=lambda n, delta, loss, g: steps.append(
                np.clip(x + delta, 0.0, 1.0)))
            assert len(steps) == cfg.iterations
            for adv in steps:
                in_ball(adv)
        else:
            cfg = attacks.AttackConfig(family=family, eps=eps, iterations=iters,
                                       target=target if family == "viap-t" else None,
                                       seed=case)
            deltas = []
            attacks.viap_arrays(params, x, y, cfg,
                                trace=lambda n, delta, loss, g: deltas.append(delta.copy()))
            assert len(deltas) == iters
            for delta in deltas:
                assert np.abs(delta).max() <= tol, (family, eps, case)
                in_ball(attacks.apply_delta(delta, x))
        cases += 1
    assert cases == 1000
    _ok("03 eps-ball + range fuzz (1000 cases, 0 violations)")


# ---------------------------------------------------------------------------
# 4. family reductions
# ---------------------------------------------------------------------------

def test_criterion_04_bim1_equals_fgsm_and_viap_tracks_bim(pipeline):
    # fgsm, fgsm-t and BIM with one eps-sized step are the closed-form
    # fgsm step, bit for bit
    for case in range(100):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, case])))
        params, _, _ = oracles.safe_config(case % 10)
        x = rng.uniform(0.0, 1.0, size=(1, params.height, params.width, params.channels))
        y = rng.integers(0, params.classes, size=1)
        eps = float(rng.uniform(0.0, 30.0))
        target = int((y[0] + rng.integers(1, params.classes)) % params.classes)
        f = oracles.fgsm_reference(params, x, y, eps)
        ft = oracles.fgsm_reference(params, x, [target], eps, descend=True)
        for family, want in (("fgsm", f), ("fgsm-t", ft), ("bim", f)):
            cfg = attacks.AttackConfig(family=family, eps=eps, iterations=1, target=target,
                                       literal_eq_step=True)
            got = attacks.bim_batch(params, x, y, cfg)
            assert np.array_equal(got, want), f"{family}(1, step=eps) != fgsm on case {case}"

    # single-view VIAP with rho=0 and the literal eps step walks BIM's path:
    # the gradient-sign direction of every iteration matches
    params = pipeline.params
    ds = pipeline.dataset
    eps, iters = 4.0, 20
    for gidx in ds.indices("train", object_id=0)[:4]:
        x1 = ds.images[[int(gidx)]]
        y1 = ds.labels[[int(gidx)]]
        v_dirs = []
        vcfg = attacks.AttackConfig(family="viap", eps=eps, iterations=iters,
                                    rho=0.0, literal_eq_step=True)
        attacks.viap_arrays(params, x1, y1, vcfg,
                            trace=lambda n, delta, loss, g: v_dirs.append(np.sign(g)))
        bcfg = attacks.AttackConfig(family="bim", eps=eps, iterations=iters,
                                    literal_eq_step=True)
        positions = [x1]
        attacks.bim_batch(params, x1, y1, bcfg, trace=lambda n, delta, loss, g: positions.append(
            np.clip(x1 + delta, 0.0, 1.0)))
        for n in range(iters):
            _, g = nn.loss_and_input_grad(params, positions[n], y1)
            assert np.array_equal(v_dirs[n], np.sign(g[0])), f"direction differs at iter {n}"
            # on one view, the reduced (view-summed) backward viap steps on is
            # the plain backward, signs of zeros included
            graph = nn.forward_graph(params, positions[n])
            _, dlogits = nn.loss_and_dlogits(graph, y1)
            summed, _ = graph.backward(dlogits, sum_input=True)
            assert np.array_equal(summed, g) and np.array_equal(np.signbit(summed), np.signbit(g))
    _ok("04 reductions (fgsm, fgsm-t, bim(1) = closed-form fgsm bit-exact x100; "
        "viap directions = bim x4 views; single-view summed backward = plain)")


# ---------------------------------------------------------------------------
# 5. clean training gate
# ---------------------------------------------------------------------------

def test_criterion_05_default_pipeline_clean_gate(pipeline):
    ds = pipeline.dataset
    tr, te = ds.indices("train"), ds.indices("test")
    acc_tr, _ = train_mod.evaluate_clean(pipeline.params, ds.images[tr], ds.labels[tr])
    acc_te, _ = train_mod.evaluate_clean(pipeline.params, ds.images[te], ds.labels[te])
    elapsed = pipeline.t_dataset + pipeline.t_train
    assert acc_tr >= 0.95, f"train accuracy {acc_tr:.4f}"
    assert acc_te >= 0.90, f"test accuracy {acc_te:.4f}"
    assert elapsed < 120.0, f"dataset+train took {elapsed:.1f}s"
    _ok(f"05 clean gate (train {acc_tr:.3f}, test {acc_te:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. untargeted sweep trend
# ---------------------------------------------------------------------------

def test_criterion_06_untargeted_trend(pipeline):
    for family in ("viap", "bim"):
        for eps in (3.0, 5.0, 10.0, 15.0):
            cell = pipeline.cells[(family, eps, "train")]
            assert cell.mean < 1e-3, f"{family} eps={eps} train softmax {cell.mean:.2e}"
    viap5 = pipeline.cells[("viap", 5.0, "test")].mean
    fgsm5 = pipeline.cells[("fgsm", 5.0, "test")].mean
    assert viap5 <= fgsm5 / 5.0, f"viap {viap5:.4f} vs fgsm/5 {fgsm5 / 5.0:.4f}"
    _ok(f"06 untargeted trend (train crushed; test viap {viap5:.2e} <= fgsm/5 {fgsm5 / 5.0:.2e})")


# ---------------------------------------------------------------------------
# 7. targeted sweep trend
# ---------------------------------------------------------------------------

def test_criterion_07_targeted_trend(pipeline):
    grid = [e for e in pipeline.sweep.config.eps_grid if e > 0]
    hit = [pipeline.cells[("viap-t", e, "train")].top1_target for e in (3.0, 5.0, 10.0)]
    assert max(hit) >= 0.95, f"viap-t train target accuracy peaked at {max(hit):.3f}"
    for eps in grid:
        vt = pipeline.cells[("viap-t", eps, "test")].mean
        ft = pipeline.cells[("fgsm-t", eps, "test")].mean
        assert vt > ft, f"eps={eps}: viap-t {vt:.4f} <= fgsm-t {ft:.4f}"
    vt_avg = float(np.mean([pipeline.cells[("viap-t", e, "test")].mean for e in grid]))
    bt_avg = float(np.mean([pipeline.cells[("bim-t", e, "test")].mean for e in grid]))
    assert vt_avg > bt_avg, f"grid average viap-t {vt_avg:.4f} <= bim-t {bt_avg:.4f}"
    _ok(f"07 targeted trend (train hit {max(hit):.2f}; test viap-t > fgsm-t at all eps, "
        f"> bim-t avg {vt_avg:.3f} vs {bt_avg:.3f})")


# ---------------------------------------------------------------------------
# 8. Welch t-test oracle
# ---------------------------------------------------------------------------

def test_criterion_08_welch_matches_high_precision_reference():
    worst = 0.0
    for a, b, t_ref, df_ref, p_ref in oracles.WELCH_CASES:
        r = evaluate.welch_ttest(a, b)
        assert abs(r.t - t_ref) < 1e-9 and abs(r.df - df_ref) < 1e-9
        worst = max(worst, abs(r.p_value - p_ref))
    assert worst < 1e-6, f"worst p-value deviation {worst:.3e}"
    sym = evaluate.welch_ttest([-2.0, -1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, -1.0, -2.0])
    assert abs(sym.p_value - 1.0) <= 1e-12
    _ok(f"08 welch oracle (10 cases, worst |dp| {worst:.1e}; symmetric p=1)")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------

def _tree_bytes(root) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_09_sweep_runs_are_byte_identical(tmp_path):
    argv = ["sweep", "--eps", "0,3,5", "--family", "fgsm,bim,viap,viap-t", "--iters", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == cli.EXIT_OK
    a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    assert sorted(a) == sorted(b), "output file sets differ"
    diff = [k for k in a if a[k] != b[k]]
    assert not diff, f"files differ between runs: {diff}"
    _ok(f"09 determinism ({len(a)} files byte-identical across two cmd_sweep runs)")


# ---------------------------------------------------------------------------
# 10. sweep runtime
# ---------------------------------------------------------------------------

def test_criterion_10_default_sweep_runtime(pipeline):
    n_fam = len(pipeline.sweep.config.families)
    n_eps = len(pipeline.sweep.config.eps_grid)
    assert len(pipeline.sweep.cells) == n_fam * n_eps * 2
    assert pipeline.t_sweep < 600.0, f"default sweep took {pipeline.t_sweep:.1f}s"
    _ok(f"10 sweep runtime ({len(pipeline.sweep.cells)} cells in {pipeline.t_sweep:.1f}s)")
