"""Fixed-architecture CNN with hand-written reverse-mode gradients.

Everything runs on float64 numpy arrays in NHWC layout. The network shape is
frozen: conv 3x3 (C->8, zero-padded) -> relu -> maxpool 2x2 -> conv 3x3
(8->16) -> relu -> maxpool 2x2 -> dense(K). Keeping the architecture fixed
lets the backward pass stay small enough to verify against finite
differences coordinate by coordinate.

Each relu -> maxpool pair runs as one maxpool2 call that pools first and
applies relu to the 4x smaller pooled array; relu is monotone, so the values
and routes are those of pooling the relu output, bit for bit. Every zero the
network pools is +0.0, even where a conv output is -0.0.

Each conv GEMM reads an im2col patch matrix (columns ordered row, col,
channel), built in two per-process scratch buffers, padded and cols, that
every call reuses:

- conv2d and conv2d_input_grad build row-major (B, H, W, 9*C) matrices a
  block of whole images at a time, at most BLOCK_BYTES of patches, with the
  block's zero-padded images in padded and its patches in cols, and run one
  GEMM per image row.
- conv2d_param_grad builds a whole batch's K-major matrix (9*C, B*H*W), one
  row per kernel tap, in cols from a zero-padded channel-first copy in padded,
  for one whole-batch weight-gradient GEMM.
- loss_and_param_grad builds conv1's K-major matrix once per step: conv1's
  forward GEMMs, one per image row, read its transposed (B, H, W, 9*C) view,
  and conv1's weight-gradient GEMM reads it again. While it waits in cols,
  conv2's row blocks put their padded images and patches both in padded, in
  as many whole images as fit where conv1's padded input was (at least one).

The K-major matrix is the row-major one's transpose, stored C-contiguous. A
GEMM packs its A operand into the same panels whether it reads it row-major
or transposed, so a product with either layout has the bits of the product
with the row-major matrix, as long as each GEMM keeps its shape: BLAS rounds
a row by its tile place.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

CONV1_CHANNELS = 8
CONV2_CHANNELS = 16
KERNEL = 3

PARAM_FIELDS = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "dense_w", "dense_b")

PARAMS_MAGIC = b"VIAPNET1"


def require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")


def as_f64(arr) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(arr, dtype=np.float64)


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

# Most bytes of patch matrix in one conv block; a block holds at least one image.
BLOCK_BYTES = 1 << 20
# Patch scratch, one per process, grown on demand: fresh patch-matrix
# temporaries would fault their pages in on every call. No result views it.
_scratch = {"padded": np.empty(0), "cols": np.empty(0)}
# Times cols was written (or let go). A Graph reads its conv1 matrix back only
# while no later write replaced it.
_cols_writes = [0]
# (write number, padded values) of the conv1 matrix loss_and_param_grad keeps
# in cols: while it is the latest write, row blocks leave cols alone.
_kept = [-1, 0]


def _scratch_view(name: str, shape: tuple) -> np.ndarray:
    size = math.prod(shape)
    if _scratch[name].size < size:
        _scratch[name] = np.empty(0)  # free the old buffer before the larger one is allocated
        _scratch[name] = np.empty(size)
    return _scratch[name][:size].reshape(shape)


def free_scratch() -> None:
    """Let the patch scratch go; the next conv grows it again."""
    _scratch.update(padded=np.empty(0), cols=np.empty(0))
    _cols_writes[0] += 1


def _patch_blocks(x: np.ndarray, n: int):
    """Yield (i, patch matrix of x[i : i + m]) for blocks of m <= n images, views of the scratch.

    A block's matrix is its 3x3 zero-padded patches, (m, H, W, 9*C), valid
    until the next block is built. Patch columns are ordered (row, col,
    channel) to match a reshaped (3, 3, C, out) kernel. The 3 pixels x C
    channels of one kernel row are contiguous in the padded image, so one
    strided view covers every patch. While cols keeps a conv1 matrix, a
    block's padded images and matrix both go in the padded buffer, and m is
    cut to the images that fit in the kept room (at least one).
    """
    b, h, w, c = x.shape
    image = ((h + 2) * (w + 2) * c, h * w * KERNEL * KERNEL * c)
    if _kept[0] == _cols_writes[0]:
        n = min(n, max(1, _kept[1] // sum(image)))
        buf = _scratch_view("padded", (n * sum(image),))
        padded, cols = buf[: n * image[0]], buf[n * image[0] :]
    else:
        padded = _scratch_view("padded", (n * image[0],))
        cols = _scratch_view("cols", (n * image[1],))
        _cols_writes[0] += 1
    padded = padded.reshape(n, h + 2, w + 2, c)
    padded[:, :: h + 1] = padded[:, :, :: w + 1] = 0.0  # the border rows, then columns
    cols = cols.reshape(n, h, w, KERNEL, KERNEL * c)
    s = padded.strides
    rows = np.ndarray(cols.shape, padded.dtype, padded, 0, (s[0], s[1], s[2], s[1], s[3]))
    for i in range(0, b, n):
        m = min(n, b - i)
        padded[:m, 1:-1, 1:-1] = x[i : i + m]
        np.copyto(cols[:m], rows[:m])
        yield i, cols[:m].reshape(m, h, w, -1)


def _conv_blocks(x: np.ndarray, w2d: np.ndarray) -> np.ndarray:
    """x's patch matrix @ w2d, (B, H, W, 9*C) @ (9*C, N), built and multiplied a block at a time."""
    b, h, w, _ = x.shape
    n = min(b, max(1, BLOCK_BYTES // (h * w * w2d.shape[0] * x.itemsize)))
    out = np.empty((b, h, w, w2d.shape[1]))
    for i, cols in _patch_blocks(x, n):
        # a GEMM per image row, as unblocked: BLAS rounds a row by its tile place
        np.matmul(cols, w2d, out=out[i : i + len(cols)])
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1, zero-padded ("same") 3x3 convolution. w is (3, 3, Cin, Cout)."""
    out = _conv_blocks(x, w.reshape(-1, w.shape[-1]))
    out += b
    return out


def conv2d_input_grad(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input: correlate dy with the flipped kernel."""
    w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    return _conv_blocks(dy, w_flip.reshape(-1, w_flip.shape[-1]))


def _patch_matrix_t(x: np.ndarray) -> np.ndarray:
    """x's whole-batch patch matrix, transposed: (9*C, B*H*W), a view of the scratch.

    Row (row, col, channel) holds that kernel tap's input under every output
    pixel, in (image, y, x) order. x is copied once, channel first, into a
    zero-padded (C, B, H+2, W+2) array, where each output row's W taps are
    contiguous, so one strided view covers every row.
    """
    b, h, w, c = x.shape
    padded = _scratch_view("padded", (c, b, h + 2, w + 2))
    padded[:, :, :: h + 1] = padded[:, :, :, :: w + 1] = 0.0  # the border rows, then columns
    padded[:, :, 1:-1, 1:-1] = x.transpose(3, 0, 1, 2)
    cols = _scratch_view("cols", (KERNEL, KERNEL, c, b, h, w))
    s = padded.strides
    taps = np.ndarray(cols.shape, padded.dtype, padded, 0, (s[2], s[3], *s))
    np.copyto(cols, taps)
    _cols_writes[0] += 1
    return cols.reshape(KERNEL * KERNEL * c, -1)


def _kept_patch_matrix_t(x: np.ndarray, built: int | None) -> np.ndarray:
    """x's K-major matrix, read back from cols if no write came after write number `built`."""
    if _cols_writes[0] != built:
        return _patch_matrix_t(x)
    return _scratch["cols"][: x.size * KERNEL * KERNEL].reshape(KERNEL * KERNEL * x.shape[-1], -1)


def _param_grad(
    cols_t: np.ndarray, dy: np.ndarray, cin: int, cout: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and bias gradients of a conv whose input has the K-major patch matrix cols_t."""
    # one whole-batch GEMM: a reduction over row blocks would change its bits.
    # BLAS packs the K-major matrix as it packs the row-major one's transposed
    # view, so dw has that product's bits while reading a contiguous operand.
    dw = cols_t @ dy.reshape(-1, cout)
    return dw.reshape(KERNEL, KERNEL, cin, cout), dy.sum(axis=(0, 1, 2))


def conv2d_param_grad(x: np.ndarray, dy: np.ndarray, cout: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. kernel and bias."""
    return _param_grad(_patch_matrix_t(x), dy, x.shape[-1], cout)


def _quadrants(x: np.ndarray) -> list[np.ndarray]:
    """Views of window positions (0,0), (0,1), (1,0), (1,1), cropped to even H, W."""
    h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    return [x[:, r:h2:2, s:w2:2] for r in (0, 1) for s in (0, 1)]


def maxpool2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """relu, then 2x2 max pooling with stride 2; trailing odd row/col is dropped.

    Pools z first and applies relu to the pooled array, which gives the values
    of pooling relu(z). Returns (pooled, route) where route is an int8 array
    holding the window position (0..3, in the order of _quadrants) each
    maximum came from; the first maximum wins ties, as for argmax. A window
    with no positive value pools to +0.0 (np.maximum returns its second
    operand on a tie, so a -0.0 maximum gives +0.0 too) and routes to 0,
    where argmax puts relu(z)'s all-zero window.
    """
    q = _quadrants(z)
    out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    # route = number of leading window positions that miss the maximum
    miss = (q[0] != out) & (out > 0.0)
    route = miss.astype(np.int8)
    for k in (1, 2):
        miss &= q[k] != out
        route += miss
    return np.maximum(out, 0.0, out=out), route


def maxpool2_input_grad(dy: np.ndarray, route: np.ndarray, x_shape: tuple) -> np.ndarray:
    """Send each pooled gradient to its route's position; every other input gets +0.0."""
    odd = x_shape[1] % 2 or x_shape[2] % 2
    dx = np.zeros(x_shape) if odd else np.empty(x_shape)
    for k, q in enumerate(_quadrants(dx)):
        q[...] = np.where(route == k, dy, 0.0)
    return dx


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map on flattened features: (B, F) @ (F, K) + (K,)."""
    return x @ w + b


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus the softmax probabilities."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    probs = e / s
    lse = (m + np.log(s))[:, 0]
    per_example = lse - logits[np.arange(logits.shape[0]), labels]
    return float(per_example.mean()), probs


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """All weights of the classifier plus its input/output dimensions.

    Arrays are copied on construction and frozen read-only, so no caller can
    change the weights another holds.
    """

    height: int
    width: int
    channels: int
    classes: int
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray

    def __post_init__(self):
        if self.height < 4 or self.width < 4:
            raise ValueError("input height/width must be at least 4 (two pooling stages)")
        expected = {
            "conv1_w": (KERNEL, KERNEL, self.channels, CONV1_CHANNELS),
            "conv1_b": (CONV1_CHANNELS,),
            "conv2_w": (KERNEL, KERNEL, CONV1_CHANNELS, CONV2_CHANNELS),
            "conv2_b": (CONV2_CHANNELS,),
            "dense_w": (self.feature_size, self.classes),
            "dense_b": (self.classes,),
        }
        for name, shape in expected.items():
            arr = as_f64(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            require_finite(name, arr)
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def feature_size(self) -> int:
        return (self.height // 4) * (self.width // 4) * CONV2_CHANNELS

    def replace_weights(self, **arrays) -> "ModelParams":
        """New ModelParams with some weight arrays swapped out."""
        return replace(self, **arrays)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Recorded intermediates of one forward pass, consumed by backward().

    Valid only for the batch it was recorded from; replaying the same batch
    reproduces every stored array bit for bit. The conv outputs z1, z2 are
    not kept: backward needs only their shapes, because a pooled output is
    positive exactly where relu passes the gradient at its route. Where
    loss_and_param_grad kept x's K-major patch matrix in the scratch,
    conv1_built is that write's number: backward reads the matrix while no
    later write replaced it, and builds it again otherwise.
    """

    params: ModelParams
    x: np.ndarray
    z1_shape: tuple
    i1: np.ndarray
    p1: np.ndarray
    z2_shape: tuple
    i2: np.ndarray
    p2: np.ndarray
    logits: np.ndarray
    conv1_built: int | None = None

    def backward(
        self, dlogits: np.ndarray, need_input: bool = True, need_params: bool = False,
        sum_input: bool = False,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray] | None]:
        """Backpropagate dlogits; returns (input grad, param grads keyed by PARAM_FIELDS).

        With sum_input the input grad is summed over the batch into one
        (1, H, W, C) array: conv1's input-grad is linear, so it runs once on
        the batch sum of its output grads. The summation order differs from
        summing per-example input grads, so the two agree to rounding, and
        bit for bit on a batch of one.
        """
        if dlogits.shape != self.logits.shape:
            raise ValueError("dlogits shape does not match the recorded forward pass")
        p = self.params
        b = self.x.shape[0]
        flat = self.p2.reshape(b, -1)

        dflat = dlogits @ p.dense_w.T
        dp2 = dflat.reshape(self.p2.shape)
        dz2 = maxpool2_input_grad(dp2 * (self.p2 > 0.0), self.i2, self.z2_shape)
        dp1 = conv2d_input_grad(dz2, p.conv2_w)
        dz1 = maxpool2_input_grad(dp1 * (self.p1 > 0.0), self.i1, self.z1_shape)

        dx = None
        if need_input:
            dx = conv2d_input_grad(dz1.sum(axis=0, keepdims=True) if sum_input else dz1, p.conv1_w)

        grads = None
        if need_params:
            # conv1's first: conv2's matrix is built over it
            cols_t = _kept_patch_matrix_t(self.x, self.conv1_built)
            dw1, db1 = _param_grad(cols_t, dz1, self.x.shape[-1], CONV1_CHANNELS)
            dw2, db2 = conv2d_param_grad(self.p1, dz2, CONV2_CHANNELS)
            grads = {"conv1_w": dw1, "conv1_b": db1, "conv2_w": dw2, "conv2_b": db2,
                     "dense_w": flat.T @ dlogits, "dense_b": dlogits.sum(axis=0)}
        return dx, grads


def _check_batch(params: ModelParams, batch: np.ndarray, finite: bool = True) -> np.ndarray:
    batch = as_f64(batch)
    if batch.ndim != 4:
        raise ValueError(f"batch must be 4-D (B, H, W, C); got shape {batch.shape}")
    if batch.shape[1:] != (params.height, params.width, params.channels):
        raise ValueError(
            f"batch shape {batch.shape[1:]} does not match the architecture "
            f"({params.height}, {params.width}, {params.channels})"
        )
    if batch.shape[0] < 1:
        raise ValueError("batch must contain at least one example")
    if finite:
        require_finite("batch", batch)
    return batch


def forward_graph(params: ModelParams, batch: np.ndarray) -> Graph:
    """Run the network and record every intermediate needed by backward."""
    x = _check_batch(params, batch)
    return _record(params, x, conv2d(x, params.conv1_w, params.conv1_b))


def _graph_keeping_conv1(params: ModelParams, batch: np.ndarray) -> Graph:
    """forward_graph's Graph, its conv1 read from x's K-major matrix, which stays in cols for backward."""
    x = _check_batch(params, batch)
    cols_t = _patch_matrix_t(x)
    b, h, w, c = x.shape
    _kept[:] = _cols_writes[0], b * (h + 2) * (w + 2) * c  # the padded input the build wrote
    # a GEMM per image row on the matrix's transposed view, as conv2d computes them
    z1 = np.matmul(cols_t.T.reshape(b, h, w, -1), params.conv1_w.reshape(-1, CONV1_CHANNELS))
    z1 += params.conv1_b
    return _record(params, x, z1, _kept[0])


def _record(params: ModelParams, x: np.ndarray, z1: np.ndarray, conv1_built=None) -> Graph:
    """The Graph of x from conv1's output z1 on."""
    p1, i1 = maxpool2(z1)
    z2 = conv2d(p1, params.conv2_w, params.conv2_b)
    p2, i2 = maxpool2(z2)
    logits = dense(p2.reshape(x.shape[0], -1), params.dense_w, params.dense_b)
    require_finite("logits", logits)
    return Graph(params=params, x=x, z1_shape=z1.shape, i1=i1, p1=p1,
                 z2_shape=z2.shape, i2=i2, p2=p2, logits=logits, conv1_built=conv1_built)


# Most rows per forward_graph call in forward(). Inference needs no recorded
# graph, so a large batch runs its conv stages in blocks: the activations
# kept then scale with the block, not the batch.
FORWARD_BLOCK = 16


def forward(params: ModelParams, batch: np.ndarray, rows=None) -> np.ndarray:
    """Class logits for batch[rows] (every row if rows is None), shape (len(rows), K).

    Equal to forward_graph's on those rows, bit for bit. The conv stages run
    on ceil(len(rows) / FORWARD_BLOCK) near-equal blocks of rows, none of
    them a single row unless there is one row. A block's rows are read from
    batch when it runs, so batch may be a whole dataset's images. The dense
    layer then runs once on all rows, because BLAS picks its GEMM kernel by
    size: per-block dense products would round differently from a
    whole-batch one (seen at B >= 245).
    """
    x = _check_batch(params, batch, finite=False)  # each block is checked as it runs
    n = x.shape[0] if rows is None else len(rows)
    parts = np.array_split(np.arange(n) if rows is None else rows, -(-n // FORWARD_BLOCK))
    blocks = (x[p[0] : p[-1] + 1] if rows is None else x[p] for p in parts)
    features = np.concatenate([forward_graph(params, block).p2 for block in blocks])
    logits = dense(features.reshape(n, -1), params.dense_w, params.dense_b)
    require_finite("logits", logits)
    return logits


def _check_labels(labels, batch_size: int, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch_size,):
        raise ValueError(f"labels must have shape ({batch_size},); got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ValueError(f"labels must lie in [0, {classes})")
    return labels


def loss_and_dlogits(graph: Graph, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a recorded forward pass and its gradient w.r.t. the logits."""
    labels = _check_labels(labels, graph.x.shape[0], graph.params.classes)
    loss, probs = softmax_cross_entropy(graph.logits, labels)
    dlogits = probs.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    return loss, dlogits


def loss_and_input_grad(
    params: ModelParams, batch: np.ndarray, labels
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the pixels."""
    graph = forward_graph(params, batch)
    loss, dlogits = loss_and_dlogits(graph, labels)
    grad, _ = graph.backward(dlogits, need_input=True, need_params=False)
    require_finite("input gradient", grad)
    return loss, grad


def loss_and_param_grad(
    params: ModelParams, batch: np.ndarray, labels
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its gradients w.r.t. every weight tensor, keyed by PARAM_FIELDS.

    Builds conv1's patches once: its forward and weight gradient read one
    K-major matrix.
    """
    graph = _graph_keeping_conv1(params, batch)
    loss, dlogits = loss_and_dlogits(graph, labels)
    _, grads = graph.backward(dlogits, need_input=False, need_params=True)
    for f, g in grads.items():
        require_finite(f, g)
    return loss, grads


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _write_record(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_params(params: ModelParams, path) -> None:
    """Write weights as magic + (name length, name, rank, extents, f64 payload)."""
    arch = np.array(
        [params.height, params.width, params.channels, params.classes], dtype=np.float64
    )
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        _write_record(fh, "arch", arch)
        for name in PARAM_FIELDS:
            _write_record(fh, name, getattr(params, name))


def _read_record(buf: bytes, pos: int, path) -> tuple[str, np.ndarray, int]:
    """Parse the record at pos; ValueError where a field runs past the end of buf."""

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path}: truncated record, {n} bytes at offset {pos} run past the end")
        pos += n
        return buf[pos - n : pos]

    (name_len,) = struct.unpack("<I", take(4))
    name = take(name_len).decode("utf-8", errors="replace")
    (rank,) = struct.unpack("<I", take(4))
    shape = struct.unpack(f"<{rank}I", take(4 * rank))
    arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
    return name, arr, pos


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(PARAMS_MAGIC)] != PARAMS_MAGIC:
        raise ValueError(f"{path}: bad magic, not a weights file")
    pos = len(PARAMS_MAGIC)
    records: dict[str, np.ndarray] = {}
    while pos < len(buf):
        name, arr, pos = _read_record(buf, pos, path)
        if name in records or name not in ("arch", *PARAM_FIELDS):
            raise ValueError(f"{path}: unexpected or repeated record {name!r}")
        records[name] = arr
    try:
        arch = records.pop("arch")
        require_finite(f"{path}: arch", arch)
        if arch.shape != (4,) or not np.all((arch >= 0) & (arch == np.floor(arch))):
            raise ValueError(f"{path}: arch record {arch.tolist()} is not 4 non-negative integers "
                             "(height, width, channels, classes)")
        h, w, c, k = (int(v) for v in arch)
        return ModelParams(h, w, c, k, **{name: records[name] for name in PARAM_FIELDS})
    except KeyError as exc:
        raise ValueError(f"{path}: missing record {exc}") from exc
