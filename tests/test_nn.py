import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from viapkit import nn


def zero_params(hw=8, channels=3, classes=4):
    feat = (hw // 4) * (hw // 4) * nn.CONV2_CHANNELS
    return nn.ModelParams(
        hw, hw, channels, classes,
        conv1_w=np.zeros((3, 3, channels, nn.CONV1_CHANNELS)),
        conv1_b=np.zeros(nn.CONV1_CHANNELS),
        conv2_w=np.zeros((3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS)),
        conv2_b=np.zeros(nn.CONV2_CHANNELS),
        dense_w=np.zeros((feat, classes)),
        dense_b=np.zeros(classes),
    )


def rand_params(rng, hw=8, channels=3, classes=4, scale=0.5):
    feat = (hw // 4) * (hw // 4) * nn.CONV2_CHANNELS
    u = lambda *s: rng.uniform(-scale, scale, size=s)
    return nn.ModelParams(
        hw, hw, channels, classes,
        conv1_w=u(3, 3, channels, nn.CONV1_CHANNELS),
        conv1_b=u(nn.CONV1_CHANNELS),
        conv2_w=u(3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS),
        conv2_b=u(nn.CONV2_CHANNELS),
        dense_w=u(feat, classes),
        dense_b=u(classes),
    )


# --- forward ---------------------------------------------------------------

def test_zero_weights_give_uniform_softmax(rng):
    params = zero_params(classes=4)
    x = rng.uniform(0, 1, size=(3, 8, 8, 3))
    logits = nn.forward(params, x)
    assert np.array_equal(logits, np.zeros((3, 4)))
    assert np.array_equal(nn.softmax(logits), np.full((3, 4), 0.25))


def test_dense_hand_example():
    out = nn.dense(np.array([[0.5]]), np.array([[2.0, -1.0]]), np.zeros(2))
    assert np.array_equal(out, np.array([[1.0, -0.5]]))


def test_identical_rows_in_identical_out(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(1, 8, 8, 3))
    logits = nn.forward(params, np.repeat(x, 4, axis=0))
    for row in logits[1:]:
        assert np.array_equal(row, logits[0])


def test_forward_is_deterministic(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    assert np.array_equal(nn.forward(params, x), nn.forward(params, x))


def test_forward_rejects_bad_shapes(rng):
    params = rand_params(rng)
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((8, 8, 3)))
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((1, 8, 8, 4)))
    bad = np.zeros((1, 8, 8, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        nn.forward(params, bad)


@pytest.mark.parametrize("batch", [1, 7, 15, 16, 17, 31, 32, 33, 112, 113, 224, 225, 245, 320])
def test_blocked_forward_equals_forward_graph(batch):
    # 245 and 320 rows are past the size at which a whole-batch dense GEMM
    # takes another BLAS kernel than a block-sized one
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(batch)))
    params = rand_params(rng, hw=32)
    x = rng.uniform(0, 1, size=(batch, 32, 32, 3))
    assert np.array_equal(nn.forward(params, x), nn.forward_graph(params, x).logits)


def test_softmax_rows_normalized(rng):
    logits = rng.normal(0, 50, size=(32, 5))
    logits[0] = [1000.0, -1000.0, 0.0, 0.0, 0.0]
    p = nn.softmax(logits)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# --- loss ------------------------------------------------------------------

def test_uniform_logits_loss_is_ln_k():
    loss, probs = nn.softmax_cross_entropy(np.zeros((5, 2)), np.array([0, 1, 0, 1, 1]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    loss4, _ = nn.softmax_cross_entropy(np.zeros((2, 4)), np.array([3, 0]))
    assert loss4 == pytest.approx(math.log(4.0), abs=1e-15)


def test_batch_loss_is_mean_of_singletons(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(6, 8, 8, 3))
    labels = rng.integers(0, 4, size=6)
    whole, _ = nn.loss_and_input_grad(params, x, labels)
    singles = [
        nn.loss_and_input_grad(params, x[i : i + 1], labels[i : i + 1])[0]
        for i in range(6)
    ]
    assert whole == pytest.approx(np.mean(singles), abs=1e-12)


def test_duplicated_image_halves_grad(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(1, 8, 8, 3))
    labels = np.array([2])
    _, g1 = nn.loss_and_input_grad(params, x, labels)
    _, g2 = nn.loss_and_input_grad(params, np.repeat(x, 2, axis=0), np.array([2, 2]))
    assert np.max(np.abs(g2[0] - g1[0] / 2)) < 1e-12
    assert np.max(np.abs(g2[1] - g1[0] / 2)) < 1e-12


def test_label_out_of_range_rejected(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    with pytest.raises(ValueError):
        nn.loss_and_input_grad(params, x, np.array([0, 4]))
    with pytest.raises(ValueError):
        nn.loss_and_input_grad(params, x, np.array([-1, 0]))


def test_grads_are_shape_congruent(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    _, grads = nn.loss_and_param_grad(params, x, np.array([0, 1]))
    assert tuple(grads) == nn.PARAM_FIELDS
    for f in nn.PARAM_FIELDS:
        assert grads[f].shape == getattr(params, f).shape


def test_near_perfect_logits_have_tiny_grads():
    params = zero_params(classes=3)
    logits = np.array([[40.0, 0.0, 0.0]])
    _, probs = nn.softmax_cross_entropy(logits, np.array([0]))
    dlogits = probs - np.array([[1.0, 0.0, 0.0]])
    assert np.max(np.abs(dlogits)) < 1e-12


# --- gradients vs finite differences ---------------------------------------

def test_stacked_oracle_loss_is_the_network_loss():
    def loss(params, x, labels):
        return nn.softmax_cross_entropy(nn.forward(params, x), labels)[0]

    for seed in range(3):
        params, x, labels = oracles.safe_config(seed)
        neg = params.replace_weights(conv2_w=-params.conv2_w)
        want = [loss(params, x, labels), loss(params, 1.0 - x, labels),
                loss(params, x, labels), loss(neg, x, labels)]
        got = [*oracles.stacked_loss(params, np.stack([x, 1.0 - x]), labels),
               *oracles.stacked_loss(params, x[None], labels,
                                     conv2_w=np.stack([params.conv2_w, -params.conv2_w]))]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_input_grad_matches_fd():
    for seed in range(3):
        params, x, labels = oracles.safe_config(seed)
        _, grad = nn.loss_and_input_grad(params, x, labels)
        coords = [tuple(idx) for idx in np.ndindex(x.shape)][::7]
        fd = oracles.fd_input_grad(params, x, labels, coords)
        for k, idx in enumerate(coords):
            assert oracles.rel_err(grad[idx], fd[k]) < 1e-6


def test_param_grad_matches_fd():
    params, x, labels = oracles.safe_config(11)
    _, grads = nn.loss_and_param_grad(params, x, labels)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    for f in nn.PARAM_FIELDS:
        tensor = getattr(params, f)
        all_coords = list(np.ndindex(tensor.shape))
        pick = rng.choice(len(all_coords), size=min(20, len(all_coords)), replace=False)
        coords = [all_coords[i] for i in pick]
        fd = oracles.fd_param_grad(params, x, labels, f, coords)
        for k, idx in enumerate(coords):
            assert oracles.rel_err(grads[f][idx], fd[k]) < 1e-6, f


def test_backward_requires_matching_dlogits(rng):
    params = rand_params(rng)
    g = nn.forward_graph(params, rng.uniform(0, 1, size=(2, 8, 8, 3)))
    with pytest.raises(ValueError):
        g.backward(np.zeros((3, 4)))


def test_grad_determinism(rng):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(2, 8, 8, 3))
    labels = np.array([1, 3])
    l1, g1 = nn.loss_and_input_grad(params, x, labels)
    l2, g2 = nn.loss_and_input_grad(params, x, labels)
    assert l1 == l2 and np.array_equal(g1, g2)


# --- kernels against the reference implementations -------------------------

def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def tied_batch(rng, shape):
    """Random NHWC batch in which two of every three 2x2 windows hold a 4-tuple
    over (-1, -0.0, +0.0, 1): all-zero windows, signed-zero ties, and a
    maximum duplicated between every pair of window positions."""
    b, h, w, c = shape
    x = rng.uniform(-1.0, 1.0, size=shape)
    patterns = np.array(list(itertools.product((-1.0, -0.0, 0.0, 1.0), repeat=4)))
    pick = np.flatnonzero(np.arange(b * (h // 2) * (w // 2) * c) % 3 != 2)
    rows = patterns[np.arange(len(pick)) % len(patterns)]
    for k, (r, s) in enumerate(itertools.product((0, 1), repeat=2)):
        window_pos = x[:, r : h // 2 * 2 : 2, s : w // 2 * 2 : 2]
        flat = window_pos.reshape(-1)
        flat[pick] = rows[:, k]
        window_pos[...] = flat.reshape(window_pos.shape)
    return x


KERNEL_SHAPES = [(1, 9, 11, 3), (7, 13, 32, 8), (112, 16, 15, 16)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_pool_matches_argmax_reference(rng, shape):
    # maxpool2 pools z and applies relu to the pooled array; values, signs and
    # routes must be those of the argmax pool of relu(z)
    z = tied_batch(rng, shape)
    raw_max, _ = oracles.maxpool2_reference(z)
    assert (raw_max < 0.0).any() and (np.signbit(raw_max) & (raw_max == 0.0)).any()
    ref_out, ref_idx = oracles.maxpool2_reference(oracles.relu(z))
    for inp in (z, oracles.relu(z)):
        out, route = nn.maxpool2(inp)
        assert route.dtype == np.int8
        assert_same_bits(out, ref_out)
        assert np.array_equal(route, ref_idx)
        assert not np.signbit(out).any()
    dy = rng.standard_normal(out.shape)
    dy[::2] = -0.0
    assert_same_bits(
        nn.maxpool2_input_grad(dy, route, shape),
        oracles.maxpool2_input_grad_reference(dy, ref_idx, shape),
    )


def test_pool_ties_route_to_the_first_maximum():
    # one window per position k holding the maximum 1.0 at k and at every later position
    x = np.zeros((4, 2, 2, 1))
    for k in range(4):
        x[k].reshape(-1)[k:] = 1.0
    out, route = nn.maxpool2(x)
    assert out.reshape(-1).tolist() == [1.0] * 4
    assert route.reshape(-1).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_patches_match_pad_reference(rng, shape):
    # in blocks of two images, as conv2d and conv2d_input_grad build them
    x = tied_batch(rng, shape)
    ref = oracles.patches_reference(x)
    for i, cols in nn._patch_blocks(x, 2):
        assert_same_bits(cols, ref[i : i + len(cols)])


# the conv1 and conv2 inputs of a batch-16 training step on 32x32 views
TRAIN_SHAPES = [(16, 32, 32, 3), (16, 16, 16, 8)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES + TRAIN_SHAPES)
def test_param_grad_patch_matrix_is_the_transposed_reference(rng, shape):
    # whole-batch, one row per kernel tap, as conv2d_param_grad builds it
    x = tied_batch(rng, shape)
    cols_t = nn._patch_matrix_t(x)
    assert cols_t.flags.c_contiguous
    assert_same_bits(cols_t, oracles.patches_reference(x).reshape(-1, 9 * shape[-1]).T)


def test_param_grad_scratch_keeps_the_whole_batch_sizes(rng, monkeypatch):
    # a batch-16 training step on 32x32x3 views grows only the two patch
    # buffers, to conv1's whole-batch padded input and patch matrix
    monkeypatch.setattr(nn, "_scratch", {"padded": np.empty(0), "cols": np.empty(0)})
    params = rand_params(rng, hw=32)
    nn.loss_and_param_grad(params, rng.uniform(0, 1, size=(16, 32, 32, 3)), rng.integers(0, 4, size=16))
    assert {k: v.size for k, v in nn._scratch.items()} == {"padded": 55_488, "cols": 442_368}


@pytest.mark.parametrize("batch,hw,block_bytes", [
    pytest.param(1, (9, 11), None, id="1-hw0"),
    pytest.param(7, (32, 32), None, id="7-hw1"),
    pytest.param(112, (13, 32), None, id="112-hw2"),
    # the training batch: conv1's weight-gradient GEMM sums R = 16,384 rows
    pytest.param(16, (32, 32), None, id="16-hw1"),
    # conv blocks split the batch mid-way: conv1 forward 3+3+1 images,
    # conv2 forward 4+3, conv2 input grad 2+2+2+1
    pytest.param(7, (32, 32), 3 * 32 * 32 * 27 * 8, id="7-hw1-split-blocks"),
    # every image's patch matrix is larger than a block
    pytest.param(7, (32, 32), 8, id="7-hw1-image-over-block"),
    # odd H and W: conv1 forward 2+2+1 images, conv2 forward 3+2
    pytest.param(5, (9, 11), 2 * 9 * 11 * 27 * 8, id="5-9x11-split-blocks"),
])
def test_graph_matches_reference_kernels(rng, monkeypatch, batch, hw, block_bytes):
    # pooled relu and the pooled relu mask against the full-resolution path
    if block_bytes is not None:
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
    h, w = hw
    feat = (h // 4) * (w // 4) * nn.CONV2_CHANNELS
    u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
    conv1_b = u(nn.CONV1_CHANNELS) - 0.3
    conv1_b[::2] = 0.0  # exact-zero conv outputs, ties at the relu kink, where a patch is all zero
    params = nn.ModelParams(
        h, w, 3, 4,
        conv1_w=u(3, 3, 3, nn.CONV1_CHANNELS), conv1_b=conv1_b,
        conv2_w=u(3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS), conv2_b=u(nn.CONV2_CHANNELS) - 0.3,
        dense_w=u(feat, 4), dense_b=u(4),
    )
    x = rng.uniform(0.0, 1.0, size=(batch, h, w, 3))
    x[::3] = 0.5  # flat images: tied maxima in every interior window
    x[1::3, : h // 2] = 0.0
    labels = rng.integers(0, 4, size=batch)

    graph = nn.forward_graph(params, x)
    dlogits = nn.softmax(graph.logits) - np.eye(4)[labels]
    dx, grads = graph.backward(dlogits, need_input=True, need_params=True)
    new = [graph.logits, graph.p1, graph.p2, dx] + [grads[f] for f in nn.PARAM_FIELDS]
    for a, b in zip(new, oracles.graph_reference(params, x, dlogits)):
        assert_same_bits(a, b)
    # the batch holds windows with no positive value at both pools
    assert (graph.p1 == 0.0).any() and (graph.p2 == 0.0).any()


def oracle_params(rng, shape):
    b, h, w, c = shape
    u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
    return nn.ModelParams(
        h, w, c, 4,
        conv1_w=u(3, 3, c, nn.CONV1_CHANNELS), conv1_b=u(nn.CONV1_CHANNELS),
        conv2_w=u(3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS), conv2_b=u(nn.CONV2_CHANNELS),
        dense_w=u((h // 4) * (w // 4) * nn.CONV2_CHANNELS, 4), dense_b=u(4),
    )


def oracle_param_grads(params, x, labels):
    _, dlogits = nn.loss_and_dlogits(nn.forward_graph(params, x), labels)
    return dlogits, dict(zip(nn.PARAM_FIELDS, oracles.graph_reference(params, x, dlogits)[4:]))


@pytest.mark.parametrize("shape,block_bytes", [
    *(pytest.param(s, None, id="x".join(map(str, s))) for s in TRAIN_SHAPES + KERNEL_SHAPES),
    pytest.param((7, 32, 32, 3), 3 * 32 * 32 * 27 * 8, id="7-hw1-split-blocks"),
    pytest.param((5, 9, 11, 3), 2 * 9 * 11 * 27 * 8, id="5-9x11-split-blocks"),
])
def test_param_grads_read_conv1_matrix_of_the_forward(rng, monkeypatch, shape, block_bytes):
    # a training step builds conv1's K-major matrix once: conv1's forward and
    # its weight gradient read it, and every gradient keeps the oracle's bits
    if block_bytes is not None:
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
    params = oracle_params(rng, shape)
    x = tied_batch(rng, shape)
    labels = rng.integers(0, 4, size=shape[0])
    dlogits, want = oracle_param_grads(params, x, labels)

    builds = []
    monkeypatch.setattr(nn, "_patch_matrix_t", lambda a, f=nn._patch_matrix_t: builds.append(a.shape) or f(a))
    _, grads = nn.loss_and_param_grad(params, x, labels)
    conv2_input = (*shape[:1], shape[1] // 2, shape[2] // 2, nn.CONV1_CHANNELS)
    assert builds == [shape, conv2_input]
    # forward_graph and the input gradient build no K-major matrix; a graph's
    # parameter gradients build both
    graph = nn.forward_graph(params, x)
    nn.loss_and_input_grad(params, x, labels)
    assert builds[2:] == []
    _, graph_grads = graph.backward(dlogits, need_input=False, need_params=True)
    assert builds[2:] == [shape, conv2_input]
    for f in nn.PARAM_FIELDS:
        assert_same_bits(grads[f], want[f])
        assert_same_bits(graph_grads[f], want[f])


@pytest.mark.parametrize("between,rebuilt", [
    ("forward_graph-and-forward", False),
    ("input-grad", False),
    ("kept-graph", True),
    ("param-grad", True),
    ("free-scratch", True),
])
def test_backward_rebuilds_a_conv1_matrix_another_pass_overwrote(rng, monkeypatch, between, rebuilt):
    # a graph that keeps conv1's matrix in the scratch: passes that only use
    # row blocks leave the matrix for its backward; another kept matrix, a
    # training step or a freed scratch replace it, and backward builds it
    # again. Either way the gradients keep the oracle's bits.
    params = rand_params(rng, hw=32)
    x = rng.uniform(0, 1, size=(7, 32, 32, 3))
    labels = rng.integers(0, 4, size=7)
    dlogits, want = oracle_param_grads(params, x, labels)
    graph = nn._graph_keeping_conv1(params, x)
    other = rng.uniform(0, 1, size=(16, 32, 32, 3))
    if between == "forward_graph-and-forward":
        nn.forward_graph(params, other)
        nn.forward(params, other)
    elif between == "input-grad":
        nn.loss_and_input_grad(params, other, rng.integers(0, 4, size=16))
    elif between == "kept-graph":
        nn._graph_keeping_conv1(params, other)
    elif between == "param-grad":
        nn.loss_and_param_grad(params, other, rng.integers(0, 4, size=16))
    else:
        nn.free_scratch()
    builds = []
    monkeypatch.setattr(nn, "_patch_matrix_t", lambda a, f=nn._patch_matrix_t: builds.append(a.shape) or f(a))
    _, grads = graph.backward(dlogits, need_input=False, need_params=True)
    assert builds == [x.shape] * rebuilt + [graph.p1.shape]
    for f in nn.PARAM_FIELDS:
        assert_same_bits(grads[f], want[f])
    # conv2's matrix replaced conv1's: a second backward builds it again
    del builds[:]
    _, again = graph.backward(dlogits, need_input=False, need_params=True)
    assert builds == [x.shape, graph.p1.shape]
    for f in nn.PARAM_FIELDS:
        assert_same_bits(again[f], want[f])


def test_row_blocks_follow_the_block_rule_whatever_ran_before(rng, monkeypatch):
    # inference splits a batch by BLOCK_BYTES alone, on fresh scratch, after a
    # training step and after free_scratch; a training step's conv2 blocks
    # fit in the room of conv1's padded input while its matrix waits in cols
    params = rand_params(rng, hw=32)
    x = rng.uniform(0, 1, size=(16, 32, 32, 3))
    blocks = []

    def patch_blocks(a, n, f=nn._patch_blocks):
        for i, cols in f(a, n):
            blocks.append((a.shape[-1], len(cols)))
            yield i, cols

    monkeypatch.setattr(nn, "_patch_blocks", patch_blocks)
    monkeypatch.setattr(nn, "_scratch", {"padded": np.empty(0), "cols": np.empty(0)})
    inference = [(3, 4)] * 4 + [(8, 7), (8, 7), (8, 2)]
    nn.forward(params, x)
    assert blocks == inference
    del blocks[:]
    nn.loss_and_param_grad(params, x, rng.integers(0, 4, size=16))
    assert blocks == [(8, 2)] * 8 + [(16, 1)] * 16
    for reset in (lambda: None, nn.free_scratch):
        reset()
        del blocks[:]
        nn.forward(params, x)
        assert blocks == inference


def test_scratch_growth_frees_the_old_buffer_first(monkeypatch):
    # growing cols from 2^20 to 2^21 elements holds only the new buffer at its
    # peak (2x 8 MiB), not the old one beside it (3x)
    monkeypatch.setattr(nn, "_scratch", {"padded": np.empty(0), "cols": np.empty(0)})
    tracemalloc.start()
    try:
        nn._scratch_view("cols", (1 << 20,))
        nn._scratch_view("cols", (1 << 21,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nn._scratch["cols"].size == 1 << 21
    assert peak < 2.5 * 8 * (1 << 20), peak / (8 * (1 << 20))


def test_conv_scratch_never_leaks_into_results(rng):
    params = rand_params(rng, hw=32)
    x, other = rng.uniform(0, 1, size=(2, 7, 32, 32, 3))
    dlogits = rng.standard_normal((7, 4))
    graph = nn.forward_graph(params, x)
    dx, grads = graph.backward(dlogits, need_params=True)
    logits = nn.forward(params, x)
    results = {f"graph.{k}": v for k, v in vars(graph).items() if isinstance(v, np.ndarray)}
    results.update({f"grads.{k}": v for k, v in grads.items()}, dx=dx, logits=logits)
    kept = {k: v.copy() for k, v in results.items()}
    # a different batch of the same shape reuses the scratch in place
    nn.forward_graph(params, other).backward(dlogits, need_params=True)
    nn.forward(params, other)
    for name, arr in results.items():
        assert_same_bits(arr, kept[name])
        assert not any(np.shares_memory(arr, buf) for buf in nn._scratch.values()), name
    assert_same_bits(logits, nn.forward(params, x))


@pytest.mark.parametrize("batch", [1, 7])
def test_summed_backward_is_the_sum_of_input_grads(rng, batch):
    params = rand_params(rng)
    x = rng.uniform(0, 1, size=(batch, 8, 8, 3))
    graph = nn.forward_graph(params, x)
    _, dlogits = nn.loss_and_dlogits(graph, rng.integers(0, 4, size=batch))
    plain, _ = graph.backward(dlogits)
    summed, _ = graph.backward(dlogits, sum_input=True)
    assert summed.shape == (1, 8, 8, 3)
    if batch == 1:
        assert_same_bits(summed, plain)
    else:
        assert np.allclose(summed[0], plain.sum(axis=0), rtol=0.0, atol=1e-15)


# --- serialization ----------------------------------------------------------

def test_params_roundtrip_bit_exact(rng, tmp_path):
    params = rand_params(rng, hw=8, channels=2, classes=3)
    path = tmp_path / "w.viapnet"
    nn.save_params(params, path)
    back = nn.load_params(path)
    assert (back.height, back.width, back.channels, back.classes) == (8, 8, 2, 3)
    for f in nn.PARAM_FIELDS:
        assert np.array_equal(getattr(back, f), getattr(params, f))
    # same bytes when written again
    path2 = tmp_path / "w2.viapnet"
    nn.save_params(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.viapnet"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        nn.load_params(path)


def test_model_params_validates_shapes():
    with pytest.raises(ValueError):
        zp = zero_params()
        nn.ModelParams(
            8, 8, 3, 4,
            conv1_w=np.zeros((3, 3, 3, nn.CONV1_CHANNELS + 1)),
            conv1_b=zp.conv1_b, conv2_w=zp.conv2_w, conv2_b=zp.conv2_b,
            dense_w=zp.dense_w, dense_b=zp.dense_b,
        )


def test_model_params_immutable(rng):
    params = rand_params(rng)
    with pytest.raises((ValueError, RuntimeError)):
        params.conv1_w[0, 0, 0, 0] = 1.0


def saved_params_bytes(rng, tmp_path) -> bytes:
    path = tmp_path / "w.viapnet"
    nn.save_params(rand_params(rng, hw=8, channels=2, classes=3), path)
    return path.read_bytes()


def with_arch(buf: bytes, arch) -> bytes:
    """A saved weights file with its leading 4-value arch record replaced by one holding arch."""
    record = io.BytesIO()
    nn._write_record(record, "arch", np.array(arch, dtype=np.float64))
    start = len(nn.PARAMS_MAGIC)
    return buf[:start] + record.getvalue() + buf[start + 4 + len(b"arch") + 4 + 4 + 4 * 8 :]


def test_load_rejects_truncated_files(rng, tmp_path):
    buf = saved_params_bytes(rng, tmp_path)
    path = tmp_path / "cut.viapnet"
    # every cut inside the magic and the first two records' headers, then the tail
    for cut in [*range(1, 160), len(buf) - 8, len(buf) - 1]:
        path.write_bytes(buf[:cut])
        with pytest.raises(ValueError):
            nn.load_params(path)


@pytest.mark.parametrize("extra", [b"\x00\x00\x00", b"\x01\x00\x00\x00a", b"\xff" * 12])
def test_load_rejects_trailing_bytes(rng, tmp_path, extra):
    path = tmp_path / "long.viapnet"
    path.write_bytes(saved_params_bytes(rng, tmp_path) + extra)
    with pytest.raises(ValueError):
        nn.load_params(path)


def test_load_rejects_bad_record_headers(rng, tmp_path):
    buf = saved_params_bytes(rng, tmp_path)
    path = tmp_path / "bad.viapnet"
    name_len = len(nn.PARAMS_MAGIC)
    rank = name_len + 4 + len(b"arch")
    for pos, value in ((name_len, 2**32 - 1), (rank, 2**32 - 1), (rank + 4, 2**31)):
        path.write_bytes(buf[:pos] + value.to_bytes(4, "little") + buf[pos + 4 :])
        with pytest.raises(ValueError):
            nn.load_params(path)
    # a non-finite architecture extent
    height = rank + 4 + 4
    path.write_bytes(buf[:height] + np.array(np.inf, dtype="<f8").tobytes() + buf[height + 8 :])
    with pytest.raises(ValueError, match="non-finite"):
        nn.load_params(path)
    # a second copy of a record
    path.write_bytes(buf + buf[len(nn.PARAMS_MAGIC) :])
    with pytest.raises(ValueError, match="repeated"):
        nn.load_params(path)
    # architecture records that are not 4 non-negative integers
    path.write_bytes(with_arch(buf, [8, 8, 2, 3]))
    assert nn.load_params(path).height == 8  # the record as saved
    for arch in ([8.5, 8, 2, 3], [[8, 8], [2, 3]], [8, 8, 2], [8, 8, 2, 3, 1], [8, 8, -2, 3]):
        path.write_bytes(with_arch(buf, arch))
        with pytest.raises(ValueError, match="arch record") as err:
            nn.load_params(path)
        assert str(path) in str(err.value), arch
