import dataclasses
import json
import math
import struct

import numpy as np
import pytest

import oracles
from viapkit import attacks, nn, train


def tiny_params(seed=0):
    # init_params starts the readout at zero (no input gradient); give it a
    # random dense layer so attack directions have something to chew on
    params = train.init_params(seed, height=8, width=8)
    r = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 99])))
    return params.replace_weights(dense_w=0.1 * r.standard_normal(params.dense_w.shape))


def interior_batch(rng, n=3, hw=8, lo=0.3, hi=0.7):
    return rng.uniform(lo, hi, size=(n, hw, hw, 3))


# --- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        attacks.AttackConfig("pgd", 5.0)
    with pytest.raises(ValueError):
        attacks.AttackConfig("fgsm", -1.0)
    with pytest.raises(ValueError):
        attacks.AttackConfig("fgsm", 5.0, iterations=5)
    with pytest.raises(ValueError):
        attacks.AttackConfig("bim", 5.0, step=0.0)
    with pytest.raises(ValueError):
        attacks.AttackConfig("viap", 5.0, rho=-0.1)
    with pytest.raises(ValueError):
        attacks.AttackConfig("bim", 5.0, iterations=0)


@pytest.mark.parametrize("field,value,message", [
    ("eps", math.inf, "eps must be finite"),
    ("eps", math.nan, "eps must be finite"),
    ("step", math.inf, "step must be positive and finite"),
    ("step", math.nan, "step must be positive and finite"),
    ("rho", math.inf, "rho must be >= 0 and <= 1"),
    ("rho", 1e308, "rho must be >= 0 and <= 1"),
    ("rho", 1.5, "rho must be >= 0 and <= 1"),
    ("rho", math.nan, "rho must be >= 0 and <= 1"),
])
def test_config_rejects_non_finite_or_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        attacks.AttackConfig("viap", **{"eps": 5.0, field: value})
    # the edges of the ranges stay valid
    attacks.AttackConfig("viap", 255.0, step=1e300, rho=1.0)


def test_config_iteration_defaults():
    assert attacks.AttackConfig("fgsm", 5.0).iterations == 1
    assert attacks.AttackConfig("fgsm-t", 5.0, target=1).iterations == 1
    assert attacks.AttackConfig("bim", 5.0).iterations == 20
    assert attacks.AttackConfig("viap-t", 5.0, target=2).iterations == 20


def test_config_step_resolution():
    # auto step: max(2.5 * eps / N, 0.5) on the 0-255 scale
    assert attacks.AttackConfig("bim", 10.0).step_unit == pytest.approx(1.25 / 255.0)
    assert attacks.AttackConfig("bim", 1.0).step_unit == pytest.approx(0.5 / 255.0)
    assert attacks.AttackConfig("bim", 10.0, step=2.0).step_unit == pytest.approx(2.0 / 255.0)
    literal = attacks.AttackConfig("bim", 10.0, literal_eq_step=True)
    assert literal.step_unit == pytest.approx(10.0 / 255.0)
    assert attacks.AttackConfig("fgsm", 5.0).eps_unit == pytest.approx(5.0 / 255.0)
    # fgsm families step by eps whatever step says
    for family in attacks.SINGLE_STEP_FAMILIES:
        cfg = attacks.AttackConfig(family, 5.0, step=1.0)
        assert cfg.step_unit == cfg.eps_unit


def test_config_json_roundtrip():
    cfg = attacks.AttackConfig("viap-t", 5.0, step=1.5, target=3, rho=0.02, seed=9)
    back = attacks.AttackConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert back == cfg


# --- application -------------------------------------------------------------

def test_apply_delta_zero_is_identity(rng):
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    assert np.array_equal(attacks.apply_delta(np.zeros((8, 8, 3)), x), x)
    out = attacks.apply_delta(np.full((8, 8, 3), 0.5), x)
    assert out.max() <= 1.0


# --- FGSM (one eps-sized step of the bim kernel) -------------------------------

def test_fgsm_zero_eps_unchanged(rng):
    params = tiny_params()
    x = interior_batch(rng)
    y = np.array([0, 1, 2])
    assert np.array_equal(attacks.bim_batch(params, x, y, attacks.AttackConfig("fgsm", 0.0)), x)


def test_fgsm_moves_pixels_by_exactly_eps(rng):
    params = tiny_params()
    x = interior_batch(rng, n=1)
    y = np.array([1])
    _, grad = nn.loss_and_input_grad(params, x, y)
    adv = attacks.bim_batch(params, x, y, attacks.AttackConfig("fgsm", 4.0))
    e = 4.0 / 255.0
    strong = np.abs(grad) > 1e-8
    assert strong.any()
    assert np.array_equal(adv[strong], (x + e * np.sign(grad))[strong])
    assert np.max(np.abs(adv - x)) <= e + 1e-15


def test_fgsm_targeted_descends_target_loss(victim, default_dataset):
    ds = default_dataset
    i = int(ds.indices("test")[0])
    image, label = ds.images[i], int(ds.labels[i])
    target = (label + 1) % ds.n_classes
    cfg = attacks.AttackConfig("fgsm-t", 3.0, target=target)
    adv = attacks.bim_batch(victim, image[None], [label], cfg)
    loss_clean, _ = nn.softmax_cross_entropy(
        nn.forward(victim, image[None]), np.array([target]))
    loss_adv, _ = nn.softmax_cross_entropy(nn.forward(victim, adv), np.array([target]))
    assert loss_adv < loss_clean


def test_fgsm_targeted_plus_form_mirrors(rng):
    # descending the target loss (fgsm-t) mirrors ascending it (fgsm on the
    # target as label) around the clean image
    params = tiny_params()
    x = interior_batch(rng, n=2)
    minus = attacks.bim_batch(params, x, [0, 1], attacks.AttackConfig("fgsm-t", 3.0, target=2))
    plus = attacks.bim_batch(params, x, [2, 2], attacks.AttackConfig("fgsm", 3.0))
    assert np.max(np.abs((minus + plus) - 2 * x)) < 1e-12


def test_fgsm_targeted_rejects_true_label(victim, default_dataset):
    image, label = default_dataset.images[0], int(default_dataset.labels[0])
    cfg = attacks.AttackConfig("fgsm-t", 3.0, target=label)
    with pytest.raises(ValueError):
        attacks.bim_batch(victim, image[None], [label], cfg)


# --- BIM ---------------------------------------------------------------------

def test_bim_ball_invariant_every_iteration(rng):
    params = tiny_params()
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    y = np.array([0, 3])
    cfg = attacks.AttackConfig("bim", 6.0, iterations=5)
    seen = []

    def trace(n, delta, loss, g):
        seen.append(n)
        assert np.max(np.abs(delta)) <= cfg.eps_unit + 1e-12
        adv = np.clip(x + delta, 0.0, 1.0)
        assert np.max(np.abs(adv - x)) <= cfg.eps_unit + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    attacks.bim_batch(params, x, y, cfg, trace=trace)
    assert seen == list(range(5))


def test_bim_trace_loss_is_the_loss_at_each_steps_views(rng):
    # each record's loss and gradient are loss_and_input_grad's at the views
    # the step was taken from: the clean views, then clip(x + previous delta)
    params = tiny_params(1)
    x = rng.uniform(0, 1, size=(3, 8, 8, 3))
    y = np.array([0, 3, 1])
    for cfg in (attacks.AttackConfig("bim", 6.0, iterations=5),
                attacks.AttackConfig("bim-t", 6.0, iterations=5, target=2)):
        records = []
        attacks.bim_batch(params, x, y, cfg,
                          trace=lambda n, delta, loss, g: records.append((delta, loss, g)))
        assert len(records) == 5
        views = x
        for delta, loss, g in records:
            want_loss, want_g = nn.loss_and_input_grad(params, views, attacks.loss_labels(cfg, y))
            assert loss == want_loss
            assert np.array_equal(g, want_g)
            views = np.clip(x + delta, 0.0, 1.0)


def test_bim_reused_first_step_carries_clean_loss(rng):
    params = tiny_params(2)
    x = rng.uniform(0, 1, size=(3, 8, 8, 3))
    y = np.array([2, 0, 1])
    for cfg in (attacks.AttackConfig("fgsm", 4.0), attacks.AttackConfig("bim", 4.0, iterations=3),
                attacks.AttackConfig("fgsm-t", 4.0, target=3)):
        first = attacks.clean_sign(params, x, attacks.loss_labels(cfg, y))
        reused, fresh = [], []
        adv = attacks.bim_batch(params, x, y, cfg, first_step=first,
                                trace=lambda n, delta, loss, g: reused.append((delta, loss, g)))
        want = attacks.bim_batch(params, x, y, cfg,
                                 trace=lambda n, delta, loss, g: fresh.append((delta, loss, g)))
        assert np.array_equal(adv, want)
        assert reused[0][1] == fresh[0][1] == first[0]
        assert np.array_equal(np.sign(reused[0][2]), np.sign(fresh[0][2]))
        for (d_reused, loss_reused, _), (d_fresh, loss_fresh, _) in zip(reused, fresh):
            assert np.array_equal(d_reused, d_fresh) and loss_reused == loss_fresh


def test_bim_single_step_literal_equals_fgsm(rng):
    params = tiny_params(3)
    x = rng.uniform(0, 1, size=(6, 8, 8, 3))
    y = rng.integers(0, 4, size=6)
    closed = oracles.fgsm_reference(params, x, y, 5.0)
    for cfg in (attacks.AttackConfig("bim", 5.0, iterations=1, literal_eq_step=True),
                attacks.AttackConfig("fgsm", 5.0)):
        assert np.array_equal(attacks.bim_batch(params, x, y, cfg), closed)


def test_bim_targeted_needs_valid_target(victim, default_dataset):
    label = int(default_dataset.labels[0])
    x, y = default_dataset.images[:1], [label]
    for family, kernel in (("bim-t", attacks.bim_batch), ("viap-t", attacks.viap_arrays)):
        with pytest.raises(ValueError, match="needs a target"):
            kernel(victim, x, y, attacks.AttackConfig(family, 5.0))
        with pytest.raises(ValueError, match="equals a true label"):
            kernel(victim, x, y, attacks.AttackConfig(family, 5.0, target=label))


# --- shared gradient / VIAP --------------------------------------------------

def test_shared_gradient_is_sum_of_per_view_grads(rng):
    params = tiny_params(1)
    for trial in range(3):
        n = 2 + trial
        x = rng.uniform(0, 1, size=(n, 8, 8, 3))
        y = rng.integers(0, 4, size=n)
        _, g = attacks.shared_gradient(params, x, y)
        total = np.zeros((8, 8, 3))
        for i in range(n):
            # per-view gradient of the batch-mean loss: single-view grad / n
            _, gi = nn.loss_and_input_grad(params, x[i : i + 1], y[i : i + 1])
            total += gi[0] / n
        assert np.max(np.abs(g - total)) < 1e-10


def test_viap_delta_within_ball_and_deterministic(rng):
    params = tiny_params()
    x = interior_batch(rng, n=4)
    y = np.array([0, 1, 2, 3])
    cfg = attacks.AttackConfig("viap", 5.0, iterations=6, seed=12)
    a = attacks.viap_arrays(params, x, y, cfg)
    b = attacks.viap_arrays(params, x, y, cfg)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= cfg.eps_unit + 1e-12
    c = attacks.viap_arrays(params, x, y, attacks.AttackConfig("viap", 5.0, iterations=6, seed=13))
    assert not np.array_equal(a, c)


def test_viap_init_noise_respects_rho(rng):
    params = tiny_params()
    x = interior_batch(rng, n=2)
    cfg = attacks.AttackConfig("viap", 50.0, iterations=1, rho=0.004, seed=5)
    traced = []
    attacks.viap_arrays(params, x, np.array([0, 1]), cfg,
                        trace=lambda n, d, loss, g: traced.append((loss, g)))
    rng0 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    d0 = rng0.uniform(-0.004, 0.004, size=(8, 8, 3))
    assert np.max(np.abs(d0)) <= 0.004
    # rho = 0 starts from an exact zero field
    cfg0 = attacks.AttackConfig("viap", 5.0, iterations=1, rho=0.0)
    deltas = []
    attacks.viap_arrays(params, x, np.array([0, 1]), cfg0,
                        trace=lambda n, d, loss, g: deltas.append(d))
    # after one update every coordinate moved by at most one step
    assert np.max(np.abs(deltas[0])) <= cfg0.step_unit + 1e-15


def test_viap_eps_zero_gives_zero_delta(rng):
    params = tiny_params()
    x = interior_batch(rng, n=2)
    cfg = attacks.AttackConfig("viap", 0.0, iterations=3, seed=2)
    delta = attacks.viap_arrays(params, x, np.array([1, 2]), cfg)
    assert np.array_equal(delta, np.zeros((8, 8, 3)))


def test_viap_validates_inputs(rng):
    params = tiny_params()
    x = interior_batch(rng, n=2)
    with pytest.raises(ValueError):
        attacks.viap_arrays(params, x[:0], np.array([], dtype=np.int64),
                            attacks.AttackConfig("viap", 5.0))
    with pytest.raises(ValueError):
        attacks.viap_arrays(params, x, np.array([0, 1]), attacks.AttackConfig("viap-t", 5.0))
    with pytest.raises(ValueError):
        attacks.viap_arrays(params, x, np.array([0, 1]),
                            attacks.AttackConfig("viap-t", 5.0, target=1))


def test_viap_single_view_matches_bim_directions(rng):
    params = tiny_params(2)
    x = interior_batch(rng, n=1, lo=0.35, hi=0.65)
    y = np.array([2])
    cfg = attacks.AttackConfig("viap", 2.0, iterations=4, rho=0.0, literal_eq_step=True)
    viap_signs, bim_signs = [], []
    attacks.viap_arrays(params, x, y, cfg,
                        trace=lambda n, d, loss, g: viap_signs.append(np.sign(g)))
    prev = [x.copy()]

    def bim_trace(n, delta, loss, g):
        _, g = nn.loss_and_input_grad(params, prev[0], y)
        bim_signs.append(np.sign(g[0]))
        prev[0] = np.clip(x + delta, 0.0, 1.0)

    bim_cfg = attacks.AttackConfig("bim", 2.0, iterations=4, literal_eq_step=True)
    attacks.bim_batch(params, x, y, bim_cfg, trace=bim_trace)
    for a, b in zip(viap_signs, bim_signs):
        assert np.array_equal(a, b)


def test_monotone_pressure_on_victim(victim, default_dataset):
    ds = default_dataset
    obj = ds.objects()[0]
    idx = ds.indices("train", obj)
    images, labels = ds.images[idx], ds.labels[idx]

    cfg = attacks.AttackConfig("viap", 5.0, seed=1)
    first = []
    delta = attacks.viap_arrays(victim, images, labels, cfg,
                                trace=lambda n, d, loss, g: first.append(loss) if n == 0 else None)
    probs_end = nn.softmax(nn.forward(victim, attacks.apply_delta(delta, images)))
    probs_0 = nn.softmax(nn.forward(victim, images))
    true_end = probs_end[np.arange(len(labels)), labels].mean()
    true_0 = probs_0[np.arange(len(labels)), labels].mean()
    assert true_end < true_0

    target = int((labels[0] + 1) % ds.n_classes)
    assert target not in set(labels.tolist())
    tcfg = attacks.AttackConfig("viap-t", 5.0, target=target, seed=1)
    tdelta = attacks.viap_arrays(victim, images, labels, tcfg)
    t_end = nn.softmax(nn.forward(victim, attacks.apply_delta(tdelta, images)))[:, target].mean()
    t_0 = probs_0[:, target].mean()
    assert t_end > t_0


def test_craft_returns_views_and_the_delta_carried_to_unseen_views(rng):
    params = tiny_params(3)
    x = interior_batch(rng, n=3)
    y = np.array([0, 1, 3])
    for family in attacks.FAMILIES:
        cfg = attacks.AttackConfig(
            family, 6.0, iterations=1 if family in attacks.SINGLE_STEP_FAMILIES else 3,
            target=2 if attacks.targeted(family) else None, seed=9,
        )
        adv, delta = attacks.craft(params, x, y, cfg)
        assert adv.shape == x.shape and delta.shape == x.shape[1:]
        assert np.max(np.abs(delta)) <= cfg.eps_unit + 1e-12
        if family in attacks.VIAP_FAMILIES:
            want = attacks.viap_arrays(params, x, y, cfg)
            assert np.array_equal(delta, want)
            assert np.array_equal(adv, attacks.apply_delta(want, x))
        else:
            want = attacks.bim_batch(params, x, y, cfg)
            assert np.array_equal(adv, want)
            assert np.array_equal(delta, (want - x).mean(axis=0))


def test_craft_rejects_a_delta_outside_the_ball(rng, monkeypatch):
    params = tiny_params()
    x = interior_batch(rng, n=2)
    cfg = attacks.AttackConfig("viap", 2.0, iterations=1)
    monkeypatch.setattr(attacks, "viap_arrays", lambda *args: np.full(x.shape[1:], 0.5))
    with pytest.raises(ValueError, match="eps ball"):
        attacks.craft(params, x, np.array([0, 1]), cfg)
    cfg = attacks.AttackConfig("bim", 2.0, iterations=1)
    monkeypatch.setattr(attacks, "bim_batch", lambda *args, **kw: np.clip(x + 0.5, 0.0, 1.0))
    with pytest.raises(ValueError, match="eps ball"):
        attacks.craft(params, x, np.array([0, 1]), cfg)


# --- Perturbation object / io --------------------------------------------------

def test_perturbation_validates_ball():
    cfg = attacks.AttackConfig("viap", 5.0)
    with pytest.raises(ValueError):
        attacks.Perturbation(np.full((8, 8, 3), 0.1), cfg, (), 0.0)
    with pytest.raises(ValueError):
        attacks.Perturbation(np.zeros((8, 8)), cfg, (), 0.0)


def test_perturbation_apply_semantics(rng, default_dataset):
    cfg = attacks.AttackConfig("viap", 8.0)
    delta = rng.uniform(-cfg.eps_unit, cfg.eps_unit, size=(32, 32, 3))
    p = attacks.Perturbation(delta, cfg, (0, 1), 1.0)
    image = default_dataset.images[0]
    out = p.apply(image)
    assert np.array_equal(out, np.clip(image + p.delta, 0.0, 1.0))
    with pytest.raises((ValueError, RuntimeError)):
        p.delta[0, 0, 0] = 0.0


def test_perturbation_roundtrip(tmp_path, rng):
    cfg = attacks.AttackConfig("viap-t", 6.0, target=2, seed=3)
    delta = rng.uniform(-cfg.eps_unit, cfg.eps_unit, size=(8, 8, 3))
    p = attacks.Perturbation(delta, cfg, (4, 5, 6), 0.25)
    path = tmp_path / "d.viapdlt"
    attacks.save_perturbation(p, path)
    back = attacks.load_perturbation(path)
    assert np.array_equal(back.delta, p.delta)
    assert back.config == p.config
    assert back.view_ids == p.view_ids
    assert back.final_loss == p.final_loss
    path2 = tmp_path / "d2.viapdlt"
    attacks.save_perturbation(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_perturbation_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.viapdlt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(ValueError):
        attacks.load_perturbation(path)


def saved_perturbation_bytes(tmp_path) -> bytes:
    cfg = attacks.AttackConfig("viap", 4.0)
    p = attacks.Perturbation(np.full((4, 4, 3), cfg.eps_unit / 2), cfg, (0, 1), 0.5)
    path = tmp_path / "d.viapdlt"
    attacks.save_perturbation(p, path)
    return path.read_bytes()


def test_load_perturbation_rejects_truncated_and_extended_files(tmp_path):
    buf = saved_perturbation_bytes(tmp_path)
    path = tmp_path / "bad.viapdlt"
    for blob in [buf[:cut] for cut in (*range(8, 40), len(buf) - 8, len(buf) - 1)] + [
        buf + b"\x00\x00\x00", buf + b"\x00" * 8,
    ]:
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            attacks.load_perturbation(path)


@pytest.mark.parametrize("field, value, named", [
    ("final_loss", "abc", "final_loss"),
    ("final_loss", None, "final_loss"),
    ("final_loss", True, "final_loss"),
    ("final_loss", [1], "final_loss"),
    ("view_ids", [1.7, True], "view id"),
    ("view_ids", [-3], "view id"),
    ("shape", [4.9, 4, 3], "shape extent"),
    ("shape", [True, 4, 12], "shape extent"),
])
def test_load_perturbation_refuses_a_header_field_it_would_coerce(tmp_path, field, value, named):
    buf = saved_perturbation_bytes(tmp_path)
    magic, start = attacks.DELTA_MAGIC, len(attacks.DELTA_MAGIC) + 4
    (n,) = struct.unpack_from("<I", buf, len(magic))
    head = json.dumps({**json.loads(buf[start : start + n]), field: value}).encode()
    path = tmp_path / "bad.viapdlt"
    path.write_bytes(magic + struct.pack("<I", len(head)) + head + buf[start + n :])
    with pytest.raises(ValueError, match=f"malformed perturbation file: {named} "):
        attacks.load_perturbation(path)


@pytest.mark.parametrize("field, value", [
    ("iterations", 2.5), ("seed", True), ("eps", True), ("target", 1.5),
    ("literal_eq_step", "no"), ("step", False), ("rho", "0.1"), ("family", 3),
])
def test_load_perturbation_refuses_a_config_field_of_the_wrong_type(tmp_path, field, value):
    buf = saved_perturbation_bytes(tmp_path)
    magic, start = attacks.DELTA_MAGIC, len(attacks.DELTA_MAGIC) + 4
    (n,) = struct.unpack_from("<I", buf, len(magic))
    header = json.loads(buf[start : start + n])
    head = json.dumps({**header, "config": {**header["config"], field: value}}).encode()
    path = tmp_path / "bad.viapdlt"
    path.write_bytes(magic + struct.pack("<I", len(head)) + head + buf[start + n :])
    with pytest.raises(ValueError, match=f"malformed perturbation file: config field {field} "):
        attacks.load_perturbation(path)


def test_config_types_cover_every_attack_config_field():
    assert set(attacks._CONFIG_TYPES) == {f.name for f in dataclasses.fields(attacks.AttackConfig)}


@pytest.mark.parametrize("view_ids", [(1.7,), (True,), (0, -1), ("3",)])
def test_perturbation_refuses_a_view_id_that_is_not_a_count(view_ids):
    cfg = attacks.AttackConfig("viap", 4.0)
    with pytest.raises(ValueError, match="view id "):
        attacks.Perturbation(np.zeros((4, 4, 3)), cfg, view_ids, 0.5)


def test_load_perturbation_rejects_bad_headers(tmp_path):
    buf = saved_perturbation_bytes(tmp_path)
    magic, start = attacks.DELTA_MAGIC, len(attacks.DELTA_MAGIC) + 4
    (n,) = struct.unpack_from("<I", buf, len(magic))
    header = json.loads(buf[start : start + n])
    path = tmp_path / "bad.viapdlt"

    def blob(head: bytes) -> bytes:
        return magic + struct.pack("<I", len(head)) + head + buf[start + n :]

    bad = [
        magic + struct.pack("<I", 2**32 - 1) + buf[start:],  # length past the end
        blob(b"{not json"),
        blob(b"\xff\xfe"),
        blob(json.dumps({k: v for k, v in header.items() if k != "config"}).encode()),
        blob(json.dumps({**header, "shape": [4, 4, 4]}).encode()),
        blob(json.dumps({**header, "shape": "abc"}).encode()),
        blob(json.dumps({**header, "config": [1]}).encode()),
    ]
    for b in bad:
        path.write_bytes(b)
        with pytest.raises(ValueError):
            attacks.load_perturbation(path)
