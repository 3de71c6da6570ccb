"""Independent reference computations the test suite checks the package against.

Everything here deliberately avoids the library's backward pass and its
continued-fraction incomplete beta: gradients come from central finite
differences on an independently written loss, and Welch p-values from an
arbitrary-precision hypergeometric series (mpmath).
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf
from numpy.lib.stride_tricks import sliding_window_view

from viapkit import nn, render

FD_H = 1e-5
REL_FLOOR = 1e-3

# Kink margins: an h-sized perturbation moves any pre-activation by at most
# ~h * sum|w|; require every relu input and pool runner-up gap to clear that
# by a wide factor so the loss is C^2 on the whole fd stencil.
_Z_MARGIN = 5e-4
_GAP_MARGIN = 1e-3


def oracle_loss(params: nn.ModelParams, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy recomputed from logits with its own logsumexp."""
    logits = nn.forward(params, x)
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def rel_err(a: float, b: float, floor: float = REL_FLOOR) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_input_grad(params, x, labels, coords, h: float = FD_H) -> np.ndarray:
    out = np.empty(len(coords))
    for k, idx in enumerate(coords):
        xp = x.copy()
        xp[idx] += h
        up = oracle_loss(params, xp, labels)
        xp[idx] -= 2 * h
        dn = oracle_loss(params, xp, labels)
        out[k] = (up - dn) / (2 * h)
    return out


def fd_param_grad(params, x, labels, field: str, coords, h: float = FD_H) -> np.ndarray:
    base = getattr(params, field)
    out = np.empty(len(coords))
    for k, idx in enumerate(coords):
        wp = base.copy()
        wp[idx] += h
        up = oracle_loss(params.replace_weights(**{field: wp}), x, labels)
        wp[idx] -= 2 * h
        dn = oracle_loss(params.replace_weights(**{field: wp}), x, labels)
        out[k] = (up - dn) / (2 * h)
    return out


def _pool_gap(z: np.ndarray) -> float:
    """Smallest gap between a pool window's positive max and its runner-up.

    Windows whose max is <= 0 pool to a constant 0 and cannot produce a kink,
    so they are ignored.
    """
    b, h, w, c = z.shape
    r = np.maximum(z, 0.0)
    win = r.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 5, 2, 4).reshape(b, h // 2, w // 2, c, 4)
    top2 = np.sort(win, axis=-1)[..., -2:]
    gap = top2[..., 1] - top2[..., 0]
    live = top2[..., 1] > 0.0
    return float(gap[live].min()) if live.any() else np.inf


def margins(params: nn.ModelParams, x: np.ndarray) -> tuple[float, float]:
    """(min |relu input|, min pool gap) across both conv stages."""
    z1 = nn.conv2d(x, params.conv1_w, params.conv1_b)
    p1, _ = maxpool2_reference(relu(z1))
    z2 = nn.conv2d(p1, params.conv2_w, params.conv2_b)
    zmin = min(float(np.abs(z1).min()), float(np.abs(z2).min()))
    return zmin, min(_pool_gap(z1), _pool_gap(z2))


def safe_config(seed: int, max_attempts: int = 200):
    """Random small (params, batch, labels) whose loss is smooth around x.

    Draws configurations deterministically from the seed and rejects any
    whose relu inputs or pool gaps sit close enough to a kink that a
    central difference with h=1e-5 could straddle it.
    """
    for attempt in range(max_attempts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, attempt])))
        hw = int(rng.choice([4, 8]))
        channels = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 4))
        feat = (hw // 4) * (hw // 4) * nn.CONV2_CHANNELS

        def u(*shape):
            return rng.uniform(-0.5, 0.5, size=shape)

        params = nn.ModelParams(
            hw, hw, channels, classes,
            conv1_w=u(3, 3, channels, nn.CONV1_CHANNELS),
            conv1_b=u(nn.CONV1_CHANNELS) * 0.1,
            conv2_w=u(3, 3, nn.CONV1_CHANNELS, nn.CONV2_CHANNELS),
            conv2_b=u(nn.CONV2_CHANNELS) * 0.1,
            dense_w=u(feat, classes),
            dense_b=u(classes) * 0.1,
        )
        x = rng.uniform(0.05, 0.95, size=(batch, hw, hw, channels))
        labels = rng.integers(0, classes, size=batch)
        zmin, gap = margins(params, x)
        if zmin > _Z_MARGIN and gap > _GAP_MARGIN:
            return params, x, labels
    raise RuntimeError(f"no kink-free configuration found for seed {seed}")


# --- reference layer kernels -----------------------------------------------
# The argmax pool and the np.pad im2col the package used before its slice-based
# kernels, and the full-resolution relu and relu mask it used before pooling
# first; the package's kernels must match these bit for bit.

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def patches_reference(x: np.ndarray) -> np.ndarray:
    """3x3 zero-padded patch matrix (B, H, W, 9*C), columns (row, col, channel)."""
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(padded, (3, 3), axis=(1, 2))
    b, h, w = x.shape[0], x.shape[1], x.shape[2]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(b, h, w, -1)


def maxpool2_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/2 max pool via argmax (first maximum wins); returns (pooled, argmax 0..3)."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    win = (
        x[:, : h2 * 2, : w2 * 2, :]
        .reshape(b, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h2, w2, c, 4)
    )
    idx = win.argmax(axis=4)
    out = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    return out, idx


def maxpool2_input_grad_reference(dy: np.ndarray, idx: np.ndarray, x_shape: tuple) -> np.ndarray:
    b, h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    dwin = np.zeros((b, h2, w2, c, 4), dtype=np.float64)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=4)
    dx = np.zeros(x_shape, dtype=np.float64)
    dx[:, : h2 * 2, : w2 * 2, :] = (
        dwin.reshape(b, h2, w2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, h2 * 2, w2 * 2, c)
    )
    return dx


def graph_reference(params: nn.ModelParams, x: np.ndarray, dlogits: np.ndarray) -> list:
    """[logits, p1, p2, input grad, *param grads] by the full-resolution path.

    Forward pools relu(z) with the argmax pool; backward scatters each pooled
    gradient back to full resolution and multiplies it by the relu mask
    (z > 0). Convolutions use the np.pad im2col.
    """
    def conv(a, w, b=None):
        out = patches_reference(a) @ w.reshape(-1, w.shape[-1])
        return out if b is None else out + b

    def conv_input_grad(dy, w):
        return conv(dy, np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2)))

    def conv_param_grad(a, dy):
        dw = np.tensordot(patches_reference(a), dy, axes=([0, 1, 2], [0, 1, 2]))
        return dw.reshape(3, 3, a.shape[-1], dy.shape[-1]), dy.sum(axis=(0, 1, 2))

    z1 = conv(x, params.conv1_w, params.conv1_b)
    p1, i1 = maxpool2_reference(relu(z1))
    z2 = conv(p1, params.conv2_w, params.conv2_b)
    p2, i2 = maxpool2_reference(relu(z2))
    flat = p2.reshape(x.shape[0], -1)
    logits = flat @ params.dense_w + params.dense_b

    dp2 = (dlogits @ params.dense_w.T).reshape(p2.shape)
    dz2 = maxpool2_input_grad_reference(dp2, i2, z2.shape) * (z2 > 0.0)
    dp1 = conv_input_grad(dz2, params.conv2_w)
    dz1 = maxpool2_input_grad_reference(dp1, i1, z1.shape) * (z1 > 0.0)
    dw1, db1 = conv_param_grad(x, dz1)
    dw2, db2 = conv_param_grad(p1, dz2)
    return [logits, p1, p2, conv_input_grad(dz1, params.conv1_w),
            dw1, db1, dw2, db2, flat.T @ dlogits, dlogits.sum(axis=0)]


# --- reference rasterizer ---------------------------------------------------
# The per-triangle loop the package used before its chunked rasterizer;
# render.render must match it bit for bit.

def render_reference(shape: render.ShapeSpec, pose: render.CameraPose,
                     size: int = render.IMG_SIZE) -> np.ndarray:
    """render.render drawn one triangle at a time in face order.

    Depth test is strict-less, so the first triangle to claim a pixel at a
    given depth keeps it.
    """
    verts, faces = render.build_mesh(shape)
    bound = float(np.linalg.norm(verts, axis=1).max())
    if pose.radius <= bound:
        raise ValueError(
            f"camera radius {pose.radius} is inside the object (bounding radius {bound:.3f})"
        )

    rot, eye = render._camera_frame(pose)
    pc = (verts - eye) @ rot.T
    depth_v = -pc[:, 2]           # positive distances along the view axis
    focal = 1.0 / math.tan(math.radians(render.FOV_DEGREES) / 2.0)
    ndc = focal * pc[:, :2] / depth_v[:, None]

    light = np.asarray(render.LIGHT_CAM)
    light = light / np.linalg.norm(light)
    albedo = np.asarray(shape.albedo)

    img = np.empty((size, size, 3))
    img[:] = render.BACKGROUND
    zbuf = np.full((size, size), np.inf)
    # pixel-center coordinates in NDC; exact in binary for power-of-two sizes
    xs = (2.0 * np.arange(size) + 1.0 - size) / size
    ys = (size - 1.0 - 2.0 * np.arange(size)) / size

    for f0, f1, f2 in faces:
        z0, z1, z2 = depth_v[f0], depth_v[f1], depth_v[f2]
        if min(z0, z1, z2) <= 1e-9:
            continue  # behind the camera; cannot happen for r > bound
        a, b, c = ndc[f0], ndc[f1], ndc[f2]
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(area2) < 1e-14:
            continue

        lo_x, hi_x = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        lo_y, hi_y = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
        j0 = max(0, int(math.floor((lo_x + 1.0) * size / 2.0 - 0.5)) - 1)
        j1 = min(size - 1, int(math.ceil((hi_x + 1.0) * size / 2.0 - 0.5)) + 1)
        i0 = max(0, int(math.floor((size - 1.0 - hi_y * size) / 2.0)) - 1)
        i1 = min(size - 1, int(math.ceil((size - 1.0 - lo_y * size) / 2.0)) + 1)
        if j0 > j1 or i0 > i1:
            continue

        px = xs[j0 : j1 + 1][None, :]
        py = ys[i0 : i1 + 1][:, None]
        w0 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
        w1 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
        w2 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
        if area2 > 0:
            mask = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)
        else:
            mask = (w0 <= 0.0) & (w1 <= 0.0) & (w2 <= 0.0)
        if not mask.any():
            continue

        inv_z = (w0 / z0 + w1 / z1 + w2 / z2) / area2  # perspective-correct
        with np.errstate(divide="ignore"):
            depth = 1.0 / inv_z
        zsub = zbuf[i0 : i1 + 1, j0 : j1 + 1]
        sel = mask & (depth < zsub)
        if not sel.any():
            continue

        e1 = pc[f1] - pc[f0]
        e2 = pc[f2] - pc[f0]
        n = np.cross(e1, e2)
        n = n / np.linalg.norm(n)
        shade = render.AMBIENT + (1.0 - render.AMBIENT) * abs(float(n @ light))

        # object-space height of each covered fragment (perspective-correct);
        # drives the banding, so the pattern rides on the surface, not the screen
        hz = (
            w0 * (verts[f0, 2] / z0) + w1 * (verts[f1, 2] / z1) + w2 * (verts[f2, 2] / z2)
        ) / area2
        oz = depth[sel] * hz[sel]
        band = np.sin(2.0 * np.pi * oz / shape.band_period)
        color = albedo[None, :] * (shade * (1.0 + render.BAND_AMPLITUDE * band))[:, None]

        zsub[sel] = depth[sel]
        img[i0 : i1 + 1, j0 : j1 + 1][sel] = np.clip(color, 0.0, 1.0)

    return img


# --- closed-form fgsm --------------------------------------------------------

def fgsm_reference(params: nn.ModelParams, x: np.ndarray, labels, eps: float,
                   descend: bool = False) -> np.ndarray:
    """One eps-sized sign step, clip(x +/- eps/255 * sign(grad), 0, 1).

    Ascends the loss of labels (fgsm) or, with descend, descends it (fgsm-t,
    where labels hold the target).
    """
    _, grad = nn.loss_and_input_grad(params, x, labels)
    sgn = -1.0 if descend else 1.0
    return np.clip(x + sgn * (eps / 255.0) * np.sign(grad), 0.0, 1.0)


# --- Welch reference -------------------------------------------------------

def _betainc_series(a, b, x):
    """Regularized incomplete beta I_x(a, b) via the 2F1(1, a+b; a+1; x) series."""
    a, b, x = mpf(a), mpf(b), mpf(x)
    if x == 0:
        return mpf(0)
    if x == 1:
        return mpf(1)
    front = x ** a * (1 - x) ** b / (a * mp.beta(a, b))
    term, total, n = mpf(1), mpf(1), 0
    while True:
        term *= (a + b + n) / (a + 1 + n) * x
        total += term
        n += 1
        if abs(term) < abs(total) * mpf("1e-40"):
            return front * total


# (sample_a, sample_b, t, df, two-sided p) — p computed by welch_reference at
# 50 digits and frozen here; scipy.stats.ttest_ind(equal_var=False) agrees to
# ~1e-14 on every row.
WELCH_CASES = [
    ([1.0, 2.0, 3.0, 4.0, 5.0],
     [2.0, 3.0, 4.0, 5.0, 6.0],
     -1.0, 8.0, 0.34659350708733425),
    ([0.8695, 0.6858, 0.6604, 0.3217, 0.6929],
     [0.363, 0.7776, 1.3759, 0.5926, 0.7579],
     -0.6695178724100971, 6.0893431261517526, 0.52772144591423853),
    ([0.3442, 0.4071, 0.686, 0.4636, 0.3244, 0.4684],
     [0.4637, -0.0224, 0.0465, 0.6951, 1.0779, 0.9103, 0.2552, 0.4738, 0.7485],
     -0.49445513885484885, 10.577639999734884, 0.63109293109629809),
    ([0.5247, 0.3577, 0.3451, 0.4114, 0.2517, 0.5109, 0.6852, 0.1867, 0.3488, 0.3616, 0.493, 0.611],
     [-0.0077, 0.7348, 0.8848, 0.6735, 0.6264, 0.7897, 0.2564],
     -1.1001145396160696, 7.4551384331515378, 0.3055318393953678),
    ([0.4496, 0.5336, 0.4736, 0.754, 0.7491, 0.7771, 0.5234, 0.6064],
     [0.6615, 0.2533, 0.4649, 0.8314, 0.3785, 0.7536, 0.1773, 0.7568],
     0.73476950454842469, 10.714541766288464, 0.47825342651874903),
    ([-0.0191, 0.5058, 0.5695, 0.4842, 0.5996, 0.5012, 0.5564, 0.5291, 0.2427, 0.3676],
     [0.4848, 0.6817, -0.0093, 0.4935, 0.2462, 0.5558, 0.7295, 0.4825, -0.0864, 0.5484,
      1.0955, 0.0217, 0.6622, 0.6386, 0.4939, 0.2552, -0.1583, 0.7278, 0.9072, -0.0729,
      0.8623, 0.4185, 0.7941, 1.1078, 1.1498, 0.0982, 0.8757, 0.8048, 0.3839, 0.7174],
     -1.0738297738901139, 30.342281618756511, 0.29136494038686953),
    ([0.8329, 0.6216, 0.4265, 0.6805, 0.5665, 0.6501, 0.429, 0.637, 0.7874, 0.927,
      0.4193, 0.2046, 0.9513, 0.2842, 0.6372],
     [0.382, 0.1369, 0.7904, 0.5431, 0.8193],
     0.49469630073144305, 5.6745586836969062, 0.63937827930791033),
    ([0.6256, 0.7549, 0.1672, 0.4686, 0.684, 0.7398, 0.5576, 0.3214, 0.864, 0.4589,
      0.6525, 0.2093, 0.5337, 0.5278, 0.399, 0.479, 0.4063, 0.3808, 0.2455, 0.6225],
     [-0.2399, 0.8338, 0.447, 0.2386, 0.535, 0.9069, 0.5999, 0.656, 0.0983, 1.079,
      0.798, 0.4042, 0.5665, 1.246, -0.0186, 0.3968, 0.5749, 0.6499, 0.7558, 0.4591],
     -0.49293401012126095, 28.870088478825295, 0.6257877543085249),
    ([0.4524, 0.0349, 0.5157, 0.4928, 0.4026, 0.5651, 0.7329],
     [-0.0007, 0.2085, 0.4545, 0.1688, 0.4476, 0.182, 0.486, 0.8915, 0.4594, 0.4952, 0.816],
     0.32779893822626339, 15.087871328304733, 0.74756822905267949),
    ([0.2127, 0.1924, 0.2122, 0.2444, 0.4733, 0.8887, 0.1177, 0.8518, 0.4161],
     [0.0186, 0.8995, 0.8521, 0.4855, 0.3284, 0.3066],
     -0.47752398224957962, 9.5581593194163334, 0.64372037427790684),
]


def welch_reference(xs, ys) -> tuple[float, float, float]:
    """(t, df, two-sided p) for Welch's unequal-variance t-test, 50-digit path."""
    with mp.workdps(50):
        xs = [mpf(repr(float(v))) for v in xs]
        ys = [mpf(repr(float(v))) for v in ys]
        na, nb = len(xs), len(ys)
        ma, mb = sum(xs) / na, sum(ys) / nb
        va = sum((v - ma) ** 2 for v in xs) / (na - 1)
        vb = sum((v - mb) ** 2 for v in ys) / (nb - 1)
        sa, sb = va / na, vb / nb
        t = (ma - mb) / mp.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa ** 2 / (na - 1) + sb ** 2 / (nb - 1))
        if t == 0:
            return float(t), float(df), 1.0
        p = _betainc_series(df / 2, mpf("0.5"), df / (df + t * t))
        return float(t), float(df), float(p)
