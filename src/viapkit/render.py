"""Software rasterizer and procedural multi-view dataset.

Parametric meshes (cube / sphere / cone / torus) are rendered from spherical
camera poses with a depth-buffered, flat-shaded triangle rasterizer. Camera
poses get multiplicative jitter so every view of an object is unique. The
renderer is pure: same spec + pose in, bit-identical image out.

Conventions: world is z-up, cameras look at the origin, images are
(H, W, 3) float64 in [0, 1], row 0 at the top.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from viapkit import forked

IMG_SIZE = 32
BACKGROUND = (0.9, 0.9, 0.9)
FOV_DEGREES = 45.0
SEGMENTS = 24
AMBIENT = 0.995
# light direction in camera space; x-component 0 keeps renders of rotationally
# symmetric shapes left-right symmetric, which the tests lean on
LIGHT_CAM = (0.0, 0.6, 0.8)

CLASS_KINDS = ("cube", "sphere", "cone", "torus")

# Surfaces are deliberately low-contrast against the 0.9 background, with the
# class identity carried mostly by a faint horizontal banding (see
# _BAND_PERIODS below). Bold per-class colors would let a classifier lean on
# huge-amplitude cues that no small-epsilon noise can touch; keeping every
# discriminative feature within a few gray levels of the background is what
# makes the attack phenomenology of interest reachable at all.
BASE_ALBEDO = (0.898, 0.898, 0.898)

# Per-class banding period (world units along z). The bands are horizontal —
# functions of object-space z only — so they read the same from every azimuth
# of the camera orbit, and pose/size jitter wiggles them by only a pixel or
# so between views. Amplitude is a ~2/255 modulation: strong enough to learn
# from noiseless float renders, small enough to be erased by the pixel
# budgets studied here.
_BAND_PERIODS = (0.62, 0.45, 0.34, 0.27)
BAND_AMPLITUDE = 0.010

DATASET_MAGIC = "viapkit-dataset-v1"


# ---------------------------------------------------------------------------
# Shapes and meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeSpec:
    """One concrete object: a mesh kind plus its instance size/surface."""

    class_id: int
    kind: str
    size: float = 1.0
    albedo: tuple = (0.8, 0.8, 0.8)
    band_period: float = 0.45   # world-z spacing of the albedo bands
    seed: int = 0  # records which jitter draw produced size/albedo

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if not (self.size > 0.0):
            raise ValueError("size must be positive")
        if len(self.albedo) != 3 or any(not (0.0 <= a <= 1.0) for a in self.albedo):
            raise ValueError("albedo components must lie in [0,1]")
        if not (self.band_period > 0.0):
            raise ValueError("band_period must be positive")


def make_object(kind: str, class_id: int, seed: int) -> ShapeSpec:
    """Instance a shape with seeded size/albedo jitter around BASE_ALBEDO.

    The band period is the class's; size and the slight albedo tint are
    per-object and carry no class information. Band placement is nominally
    shared within a class, but size jitter rescales it with the mesh, so
    band positions still drift object to object and view to view.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    size = float(rng.uniform(0.95, 1.05))
    albedo = np.clip(np.array(BASE_ALBEDO) + rng.uniform(-0.002, 0.002, size=3), 0.05, 0.95)
    return ShapeSpec(
        class_id=class_id,
        kind=kind,
        size=size,
        albedo=tuple(albedo),
        band_period=_BAND_PERIODS[class_id % len(_BAND_PERIODS)],
        seed=seed,
    )


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for n equal azimuth steps, exactly mirror-symmetric.

    The second half is written as a reflection of the first so that surfaces
    of revolution come out bit-symmetric about the x-z plane.
    """
    ang = np.arange(n) * (2.0 * np.pi / n)
    c, s = np.cos(ang), np.sin(ang)
    s[0] = 0.0
    for k in range(1, (n + 1) // 2):
        c[n - k] = c[k]
        s[n - k] = -s[k]
    if n % 2 == 0:
        c[n // 2] = -1.0
        s[n // 2] = 0.0
    return c, s


def _quad_faces(v00, v10, v11, v01, flip_diag: bool) -> list:
    # alternate the split diagonal per azimuth hemisphere, keeping the
    # triangle set mirror-symmetric
    if flip_diag:
        return [(v01, v00, v10), (v01, v10, v11)]
    return [(v00, v10, v11), (v00, v11, v01)]


def _mesh_cube(s: float):
    c = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
    )
    verts = 0.5 * s * c
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    faces = []
    for a, b, cc, d in quads:
        faces += [(a, b, cc), (a, cc, d)]
    return verts, np.array(faces, dtype=np.int64)


def _mesh_sphere(s: float, seg: int = SEGMENTS):
    r = 0.75 * s
    cos_a, sin_a = _ring(seg)
    polar = np.arange(seg + 1) * (np.pi / seg)
    sp, cp = np.sin(polar), np.cos(polar)
    verts = np.empty(((seg + 1) * seg, 3))
    for i in range(seg + 1):
        base = i * seg
        verts[base : base + seg, 0] = r * sp[i] * cos_a
        verts[base : base + seg, 1] = r * sp[i] * sin_a
        verts[base : base + seg, 2] = r * cp[i]
    faces = []
    for i in range(seg):
        for j in range(seg):
            jn = (j + 1) % seg
            faces += _quad_faces(
                i * seg + j, (i + 1) * seg + j, (i + 1) * seg + jn, i * seg + jn,
                flip_diag=j >= seg // 2,
            )
    return verts, np.array(faces, dtype=np.int64)


def _mesh_cone(s: float, seg: int = SEGMENTS):
    base_r, half_h = 0.55 * s, 0.70 * s
    cos_a, sin_a = _ring(seg)
    rim = np.stack([base_r * cos_a, base_r * sin_a, np.full(seg, -half_h)], axis=1)
    verts = np.vstack([rim, [[0.0, 0.0, half_h]], [[0.0, 0.0, -half_h]]])
    apex, center = seg, seg + 1
    faces = []
    for j in range(seg):
        jn = (j + 1) % seg
        faces += [(apex, j, jn), (center, jn, j)]
    return verts, np.array(faces, dtype=np.int64)


def _mesh_torus(s: float, seg: int = SEGMENTS):
    ring_r, tube_r = 0.60 * s, 0.25 * s
    cos_a, sin_a = _ring(seg)   # azimuth
    cos_t, sin_t = _ring(seg)   # tube cross-section
    verts = np.empty((seg * seg, 3))
    for u in range(seg):
        rad = ring_r + tube_r * cos_t
        base = u * seg
        verts[base : base + seg, 0] = rad * cos_a[u]
        verts[base : base + seg, 1] = rad * sin_a[u]
        verts[base : base + seg, 2] = tube_r * sin_t
    faces = []
    for u in range(seg):
        un = (u + 1) % seg
        for v in range(seg):
            vn = (v + 1) % seg
            faces += _quad_faces(
                u * seg + v, un * seg + v, un * seg + vn, u * seg + vn,
                flip_diag=u >= seg // 2,
            )
    return verts, np.array(faces, dtype=np.int64)


_MESH_BUILDERS = {
    "cube": _mesh_cube,
    "sphere": _mesh_sphere,
    "cone": _mesh_cone,
    "torus": _mesh_torus,
}


def build_mesh(spec: ShapeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(vertices (V,3), faces (F,3)) for a shape instance."""
    return _MESH_BUILDERS[spec.kind](spec.size)


# ---------------------------------------------------------------------------
# Camera
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraPose:
    """Spherical camera position; the camera always looks at the origin."""

    theta: float  # polar angle from +z, radians
    phi: float    # azimuth, radians
    radius: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ValueError(f"phi {self.phi} outside [0, 2*pi)")
        if not (self.radius > 0.0):
            raise ValueError("radius must be positive")


AXES = ("theta", "phi", "radius")


def sample_camera(
    base: CameraPose, jitter_frac: float, rng: np.random.Generator,
    axis_restrict: str | None = None,
) -> CameraPose:
    """Multiplicative pose jitter: each coordinate scaled by (1 + u), u ~ U(-f, f).

    theta is clamped back to [0, pi] and phi wrapped mod 2*pi. With
    axis_restrict set, only that coordinate is jittered; the draws for the
    other axes still happen, so restricting an axis does not shift the
    stream. jitter_frac = 0 returns the pose unchanged.
    """
    if not (0.0 <= jitter_frac < 1.0):
        raise ValueError("jitter_frac must lie in [0, 1)")
    if axis_restrict is not None and axis_restrict not in AXES:
        raise ValueError(f"axis_restrict must be one of {AXES}")
    u = rng.uniform(-jitter_frac, jitter_frac, size=3)
    if jitter_frac == 0.0:
        return base
    theta, phi, radius = base.theta, base.phi, base.radius
    if axis_restrict in (None, "theta"):
        theta = min(max(theta * (1.0 + u[0]), 0.0), float(np.pi))
    if axis_restrict in (None, "phi"):
        phi = (phi * (1.0 + u[1])) % (2.0 * np.pi)
    if axis_restrict in (None, "radius"):
        radius = radius * (1.0 + u[2])
    return CameraPose(theta, phi, radius)


def _camera_frame(pose: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Rows of R are the camera's right/up/backward axes; eye is its position."""
    st, ct = math.sin(pose.theta), math.cos(pose.theta)
    cp, sp = math.cos(pose.phi), math.sin(pose.phi)
    eye = pose.radius * np.array([st * cp, st * sp, ct])
    zc = eye / np.linalg.norm(eye)
    x = np.cross([0.0, 0.0, 1.0], zc)
    if np.linalg.norm(x) < 1e-12:  # looking straight down an axis pole
        x = np.cross([0.0, 1.0, 0.0], zc)
    xc = x / np.linalg.norm(x)
    yc = np.cross(zc, xc)
    return np.stack([xc, yc, zc]), eye


# ---------------------------------------------------------------------------
# Rasterizer
# ---------------------------------------------------------------------------

# Faces whose coverage and depth are evaluated together; with the faces on
# the last axis, one chunk over a 32x32 window is about 2 MB per array.
FACE_CHUNK = 256


def _edge_functions(ax, ay, bx, by, cx, cy, px, py) -> tuple:
    """Doubled signed areas of (b, c, p), (c, a, p) and (a, b, p) for pixel p."""
    return (
        (cx - bx) * (py - by) - (cy - by) * (px - bx),
        (ax - cx) * (py - cy) - (ay - cy) * (px - cx),
        (bx - ax) * (py - ay) - (by - ay) * (px - ax),
    )


def render(
    shape: ShapeSpec, pose: CameraPose, size: int = IMG_SIZE, mesh: tuple | None = None
) -> np.ndarray:
    """Rasterize one view: perspective projection, z-buffer, banded Lambertian.

    Edge functions are evaluated for a chunk of triangles at a time, over the
    pixel window that holds the chunk's bounding boxes. A pixel goes to
    the triangle of minimum depth among those covering it, and to the lowest
    face index on ties: the pixel a strict-less depth test leaves when the
    triangles are drawn one by one in face order. Shading is two-sided
    (|n.l|) with a constant ambient floor, modulated by the shape's
    horizontal albedo bands; pixels not covered by any triangle are the
    background color exactly. mesh is build_mesh(shape), for a caller that
    renders many views of one shape.
    """
    verts, faces = build_mesh(shape) if mesh is None else mesh
    bound = float(np.linalg.norm(verts, axis=1).max())
    if pose.radius <= bound:
        raise ValueError(
            f"camera radius {pose.radius} is inside the object (bounding radius {bound:.3f})"
        )

    rot, eye = _camera_frame(pose)
    pc = (verts - eye) @ rot.T
    depth_v = -pc[:, 2]           # positive distances along the view axis
    focal = 1.0 / math.tan(math.radians(FOV_DEGREES) / 2.0)
    ndc = focal * pc[:, :2] / depth_v[:, None]

    img = np.empty((size, size, 3))
    img[:] = BACKGROUND
    # pixel-center coordinates in NDC; exact in binary for power-of-two sizes
    xs = (2.0 * np.arange(size) + 1.0 - size) / size
    ys = (size - 1.0 - 2.0 * np.arange(size)) / size

    # per-face setup; a face behind the camera cannot occur for r > bound
    faces = faces[depth_v[faces].min(axis=1) > 1e-9]
    z0, z1, z2 = depth_v[faces].T
    (ax, ay), (bx, by), (cx, cy) = (ndc[faces[:, k]].T for k in range(3))
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    lo_x, hi_x = np.minimum(np.minimum(ax, bx), cx), np.maximum(np.maximum(ax, bx), cx)
    lo_y, hi_y = np.minimum(np.minimum(ay, by), cy), np.maximum(np.maximum(ay, by), cy)
    j0 = np.maximum(0, np.floor((lo_x + 1.0) * size / 2.0 - 0.5) - 1)
    j1 = np.minimum(size - 1, np.ceil((hi_x + 1.0) * size / 2.0 - 0.5) + 1)
    i0 = np.maximum(0, np.floor((size - 1.0 - hi_y * size) / 2.0) - 1)
    i1 = np.minimum(size - 1, np.ceil((size - 1.0 - lo_y * size) / 2.0) + 1)
    keep = np.flatnonzero((np.abs(area2) >= 1e-14) & (j0 <= j1) & (i0 <= i1))
    faces, z0, z1, z2, ax, ay, bx, by, cx, cy, area2 = (
        v[keep] for v in (faces, z0, z1, z2, ax, ay, bx, by, cx, cy, area2)
    )
    i0, i1, j0, j1 = (v[keep].astype(np.int64) for v in (i0, i1, j0, j1))

    # z-buffer, a chunk of faces at a time over the union of their bounding
    # boxes; the faces sit on the last axis, so argmin reads contiguous memory
    pixel = np.arange(size)
    zbuf = np.full((size, size), np.inf)
    winner = np.full((size, size), -1)
    for s in range(0, len(faces), FACE_CHUNK):
        f = slice(s, s + FACE_CHUNK)
        r = slice(i0[f].min(), i1[f].max() + 1)
        c = slice(j0[f].min(), j1[f].max() + 1)
        w0, w1, w2 = _edge_functions(
            ax[f], ay[f], bx[f], by[f], cx[f], cy[f], xs[None, c, None], ys[r, None, None]
        )
        inside = np.where(
            area2[f] > 0,
            (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0),
            (w0 <= 0.0) & (w1 <= 0.0) & (w2 <= 0.0),
        )
        # each face only within its own bounding box, where the per-triangle
        # loop looked: beyond it, rounding can pass a long sliver's edge test
        rows, cols = pixel[r, None, None], pixel[None, c, None]
        inside &= (rows >= i0[f]) & (rows <= i1[f]) & (cols >= j0[f]) & (cols <= j1[f])
        with np.errstate(divide="ignore"):  # perspective-correct depth
            depth = 1.0 / ((w0 / z0[f] + w1 / z1[f] + w2 / z2[f]) / area2[f])
        # NaN and +inf depths never pass a strict-less test against +inf
        depth[~(inside & (depth < np.inf))] = np.inf
        k = depth.argmin(axis=2)
        best = np.take_along_axis(depth, k[..., None], axis=2)[..., 0]
        closer = best < zbuf[r, c]
        zbuf[r, c][closer] = best[closer]
        winner[r, c][closer] = k[closer] + s

    # colour each covered pixel from its winning face
    pi, pj = np.nonzero(winner >= 0)
    f = winner[pi, pj]
    w0, w1, w2 = _edge_functions(ax[f], ay[f], bx[f], by[f], cx[f], cy[f], xs[pj], ys[pi])
    vz = verts[faces[f], 2]
    # object-space height of each covered fragment (perspective-correct);
    # drives the banding, so the pattern rides on the surface, not the screen
    hz = (
        w0 * (vz[:, 0] / z0[f]) + w1 * (vz[:, 1] / z1[f]) + w2 * (vz[:, 2] / z2[f])
    ) / area2[f]
    oz = zbuf[pi, pj] * hz
    band = np.sin(2.0 * np.pi * oz / shape.band_period)

    light = np.asarray(LIGHT_CAM)
    light = light / np.linalg.norm(light)
    lit, face_of = np.unique(f, return_inverse=True)
    tri = pc[faces[lit]]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    # stacked 1x3 @ 3x1 products take the BLAS dot that np.linalg.norm and a
    # 1-D n @ light use, so each face's shade is the one-triangle value
    n /= np.sqrt(n[:, None, :] @ n[:, :, None])[:, 0]
    shade = AMBIENT + (1.0 - AMBIENT) * np.abs((n[:, None, :] @ light[:, None])[:, 0, 0])
    color = np.asarray(shape.albedo)[None, :] * (
        shade[face_of] * (1.0 + BAND_AMPLITUDE * band)
    )[:, None]
    img[pi, pj] = np.clip(color, 0.0, 1.0)
    return img


def ppm_pixels(image: np.ndarray) -> np.ndarray:
    """The uint8 pixels write_ppm writes for an [0,1] float image."""
    return np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)


def write_ppm(image: np.ndarray, path) -> None:
    """Dump an [0,1] float image, or its ppm_pixels, as binary PPM (P6) for eyeballing."""
    h, w = image.shape[:2]
    data = image if image.dtype == np.uint8 else ppm_pixels(image)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    classes: tuple
    image_shape: tuple
    seed: int
    jitter_frac: float
    views: list = field(default_factory=list)  # per-view record dicts

    def validate(self) -> None:
        per_object: dict[int, set] = {}
        seen = set()
        for i, rec in enumerate(self.views):
            key = (rec["object"], rec["view"])
            if key in seen:
                raise ValueError(f"duplicate (object, view) pair {key}")
            seen.add(key)
            if type(rec["class"]) is not int or not 0 <= rec["class"] < len(self.classes):
                raise ValueError(f"view record {i}: class {rec['class']!r} is not an int "
                                 f"in [0, {len(self.classes)})")
            if rec["split"] not in ("train", "test"):
                raise ValueError(f"bad split tag {rec['split']!r}")
            per_object.setdefault(rec["object"], set()).add(rec["split"])
        for obj, splits in per_object.items():
            if splits != {"train", "test"}:
                raise ValueError(f"object {obj} missing a split: has {sorted(splits)}")

    def to_json_dict(self) -> dict:
        return {
            "format": DATASET_MAGIC,
            "classes": list(self.classes),
            "image_shape": list(self.image_shape),
            "seed": self.seed,
            "jitter_frac": self.jitter_frac,
            "views": self.views,
        }


class Dataset:
    """In-memory dataset: stacked images plus aligned label/object/split arrays."""

    def __init__(self, manifest: DatasetManifest, images: np.ndarray):
        manifest.validate()
        if images.shape[0] != len(manifest.views):
            raise ValueError("image count does not match manifest")
        # NaN propagates through min/max and fails both comparisons
        if not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ValueError("dataset pixels outside [0,1] or not finite")
        self.manifest = manifest
        self.images = images
        self.labels = np.array([r["class"] for r in manifest.views], dtype=np.int64)
        self.object_ids = np.array([r["object"] for r in manifest.views], dtype=np.int64)
        self.view_ids = np.array([r["view"] for r in manifest.views], dtype=np.int64)
        self.train_mask = np.array([r["split"] == "train" for r in manifest.views])

    @property
    def n_classes(self) -> int:
        return len(self.manifest.classes)

    def indices(self, split: str | None = None, object_id: int | None = None) -> np.ndarray:
        keep = np.ones(len(self.labels), dtype=bool)
        if split == "train":
            keep &= self.train_mask
        elif split == "test":
            keep &= ~self.train_mask
        elif split is not None:
            raise ValueError(f"unknown split {split!r}")
        if object_id is not None:
            keep &= self.object_ids == object_id
        return np.flatnonzero(keep)

    def objects(self) -> list[int]:
        return sorted(set(int(o) for o in self.object_ids))


def base_viewpoints(n_views: int, radius: float) -> list[CameraPose]:
    """Deterministic pose ring: one elevation, azimuths spread evenly.

    Pose variety between views comes from the azimuth spacing plus the
    multiplicative jitter applied on top; a single base elevation keeps the
    train and held-out views of an object statistically alike, which is what
    lets a handful of training views stand in for the whole orbit.
    """
    poses = []
    for v in range(n_views):
        phi = (2.0 * np.pi * v / n_views) % (2.0 * np.pi)
        poses.append(CameraPose(0.48 * np.pi, phi, radius))
    return poses


def generate_dataset(
    out_dir=None,
    jobs: int | None = None,
    *,
    classes: tuple[str, ...] = CLASS_KINDS,
    objects_per_class: int = 4,
    views_per_object: int = 10,
    train_views: int | None = None,
    seed: int = 7,
    jitter_frac: float = 0.15,
    axis_restrict: str | None = "theta",
    image_size: int = IMG_SIZE,
    camera_radius: float = 3.0,
) -> Dataset:
    """Render the full (class x object x view) grid and split views per object.

    Default config: 4 classes x 4 objects x 10 views = 160 views, 7 train /
    3 test per object. Object size/color jitter and camera jitter are driven
    by per-(object, view) seed sequences, so any subset regenerates
    identically. When out_dir is given, writes images.f64 + manifest.json.

    Jitter defaults to the elevation axis only. Elevation tilt is what makes
    two views of the same object genuinely different images of the same
    stripes; radius jitter mostly rescales the object, and the far tail of
    that scaling pushes the finest class stripes against the raster grid's
    resolving limit where they stop being readable.

    The objects and poses are drawn here; the views are rendered an object
    at a time, on `jobs` processes (forked.Helpers; never more helpers than
    objects). Each view depends only on its shape and pose, so every pixel
    is the same for any jobs, and so is the first error in view order.
    jobs is not a dataset setting: it is positional, and the CLI reads the
    keyword-only parameters as its settings.
    """
    if not classes or not set(classes) <= set(CLASS_KINDS):
        raise ValueError(f"classes must be a non-empty list of {CLASS_KINDS}; got {list(classes)}")
    if objects_per_class < 1:
        raise ValueError("objects_per_class must be at least 1")
    if views_per_object < 2:
        raise ValueError("views_per_object must be at least 2 (both splits need a view)")
    if image_size < 4:
        raise ValueError("image_size must be at least 4 (the victim pools twice)")
    if train_views is None:
        train_views = min(views_per_object - 1, math.ceil(0.7 * views_per_object))
    if not (1 <= train_views <= views_per_object - 1):
        raise ValueError("train_views must leave at least one view in each split")

    bases = base_viewpoints(views_per_object, camera_radius)
    manifest = DatasetManifest(
        classes=tuple(classes),
        image_shape=(image_size, image_size, 3),
        seed=seed,
        jitter_frac=jitter_frac,
    )
    nbytes = image_size * image_size * 3 * 8
    shapes, poses = [], []  # per object; per view, in index order
    for class_id, kind in enumerate(classes):
        for _obj in range(objects_per_class):
            obj_seed = int(
                np.random.SeedSequence([seed, class_id, _obj]).generate_state(1)[0]
            )
            shapes.append(make_object(kind, class_id, obj_seed))
            for view_id in range(views_per_object):
                cam_rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence([seed, class_id, _obj, view_id]))
                )
                pose = sample_camera(bases[view_id], jitter_frac, cam_rng, axis_restrict)
                index = len(poses)
                poses.append(pose)
                manifest.views.append(
                    {
                        "index": index,
                        "object": len(shapes) - 1,
                        "class": class_id,
                        "view": view_id,
                        "split": "train" if view_id < train_views else "test",
                        "pose": [pose.theta, pose.phi, pose.radius],
                        "offset": index * nbytes,
                        "nbytes": nbytes,
                    }
                )

    # an object's views sit at consecutive indices and share one mesh; a
    # helper renders into its own copy of images and sends the rows back
    images = np.empty((len(poses), image_size, image_size, 3))
    views = images.reshape(len(shapes), views_per_object, *images.shape[1:])

    def render_object(o):
        mesh = build_mesh(shapes[o])
        for v in range(views_per_object):
            pose = poses[o * views_per_object + v]
            views[o, v] = render(shapes[o], pose, size=image_size, mesh=mesh)
        return views[o]

    with forked.Helpers(jobs, render_object, views.__setitem__, len(shapes), "renderer") as renderers:
        renderers.run()

    dataset = Dataset(manifest, images)
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    return dataset


def save_dataset(dataset: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "images.f64"), "wb") as fh:
        np.ascontiguousarray(dataset.images, dtype="<f8").tofile(fh)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(dataset.manifest.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(in_dir) -> Dataset:
    """Read a save_dataset directory; view i must sit at index i of images.f64."""
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or raw.get("format") != DATASET_MAGIC:
        raise ValueError(f"{in_dir}: not a dataset directory (format tag mismatch)")
    path = os.path.join(in_dir, "images.f64")
    try:
        shape = tuple(int(d) for d in raw["image_shape"])
        if len(shape) != 3:
            raise ValueError(f"image_shape {list(shape)} is not (height, width, channels)")
        per = math.prod(shape) * 8
        views = list(raw["views"])
        for i, rec in enumerate(views):
            if rec["index"] != i or rec["offset"] != i * per:
                raise ValueError(f"view record {i} is not at index {i}, offset {i * per}")
        manifest = DatasetManifest(
            classes=tuple(raw["classes"]),
            image_shape=shape,
            seed=raw["seed"],
            jitter_frac=raw["jitter_frac"],
            views=views,
        )
        if os.path.getsize(path) != per * len(views):
            raise ValueError("image blob size does not match manifest")
        return Dataset(manifest, np.fromfile(path, dtype="<f8").reshape((len(views),) + shape))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{in_dir}: malformed dataset: {type(exc).__name__}: {exc}") from exc
