import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from forking import deadline, fail_in_a_helper
from viapkit import cli, render


def fresh_rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# --- poses and jitter --------------------------------------------------------

def test_pose_validation():
    render.CameraPose(0.5, 1.0, 3.0)
    with pytest.raises(ValueError):
        render.CameraPose(-0.1, 1.0, 3.0)
    with pytest.raises(ValueError):
        render.CameraPose(0.5, 2.0 * np.pi, 3.0)
    with pytest.raises(ValueError):
        render.CameraPose(0.5, 1.0, 0.0)


def test_zero_jitter_returns_pose_unchanged():
    base = render.CameraPose(0.7, 2.0, 3.0)
    out = render.sample_camera(base, 0.0, fresh_rng())
    assert out == base


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.01, np.pi - 0.01),
    phi=st.floats(0.0, 3.0),
    radius=st.floats(0.5, 10.0),
    frac=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_jitter_relative_bound(theta, phi, radius, frac, seed):
    base = render.CameraPose(theta, phi, radius)
    out = render.sample_camera(base, frac, fresh_rng(seed))
    tol = 1e-12
    assert out.theta <= theta * (1 + frac) + tol
    assert out.theta >= min(theta * (1 - frac), np.pi) - tol
    assert radius * (1 - frac) - tol <= out.radius <= radius * (1 + frac) + tol
    if phi * (1 + frac) < 2.0 * np.pi:  # no wrap: relative bound holds directly
        assert phi * (1 - frac) - tol <= out.phi <= phi * (1 + frac) + tol


def test_axis_restrict_leaves_others_bit_exact():
    base = render.CameraPose(0.9, 1.7, 2.5)
    out = render.sample_camera(base, 0.15, fresh_rng(3), axis_restrict="phi")
    assert out.theta == base.theta
    assert out.radius == base.radius
    assert out.phi != base.phi
    # the restricted draw consumes the same stream slot as the full jitter
    full = render.sample_camera(base, 0.15, fresh_rng(3))
    assert out.phi == full.phi


def test_axis_restrict_validated():
    with pytest.raises(ValueError):
        render.sample_camera(render.CameraPose(0.5, 0.5, 2.0), 0.1, fresh_rng(), axis_restrict="roll")
    with pytest.raises(ValueError):
        render.sample_camera(render.CameraPose(0.5, 0.5, 2.0), 1.0, fresh_rng())


def test_base_viewpoints_layout():
    poses = render.base_viewpoints(10, 3.0)
    assert len(poses) == 10
    assert all(p.radius == 3.0 for p in poses)
    # one base elevation; all the spread is in azimuth
    assert len({round(p.theta, 12) for p in poses}) == 1
    assert len({round(p.phi, 12) for p in poses}) == 10


# --- rendering ---------------------------------------------------------------

def test_render_is_deterministic():
    shape = render.make_object("cone", 2, seed=5)
    pose = render.CameraPose(0.45 * np.pi, 1.1, 3.0)
    a = render.render(shape, pose)
    b = render.render(shape, pose)
    assert np.array_equal(a, b)


def test_uncovered_pixels_are_exact_background():
    shape = render.make_object("cube", 0, seed=1)
    img = render.render(shape, render.CameraPose(0.4 * np.pi, 0.3, 3.0))
    bg = np.array(render.BACKGROUND)
    for corner in (img[0, 0], img[0, -1], img[-1, 0], img[-1, -1]):
        assert np.array_equal(corner, bg)
    assert img.shape == (render.IMG_SIZE, render.IMG_SIZE, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_sphere_render_mirror_symmetric():
    # a sphere on the camera axis with camera-space lighting must produce a
    # left-right symmetric image; the mesh and coverage tests are built so
    # the symmetry is structural, with only summation-order float noise left
    shape = render.make_object("sphere", 1, seed=9)
    for theta in (0.38 * np.pi, 0.55 * np.pi):
        img = render.render(shape, render.CameraPose(theta, 0.0, 3.0))
        assert np.max(np.abs(img - img[:, ::-1, :])) < 1e-12


def reference_cases():
    """(shape, pose, size) covering every kind, jittered poses, both poles,
    a camera just outside the bounding sphere and non-power-of-two sizes."""
    rng = fresh_rng(11)
    cases = []
    for class_id, kind in enumerate(render.CLASS_KINDS):
        shape = render.make_object(kind, class_id, seed=20 + class_id)
        bound = float(np.linalg.norm(render.build_mesh(shape)[0], axis=1).max())
        poses = [
            render.sample_camera(render.CameraPose(0.48 * np.pi, phi, 3.0), 0.15, rng)
            for phi in (0.0, 1.3, 2.9, 4.4)
        ]
        poses += [
            render.CameraPose(0.0, 0.7, 3.0),
            render.CameraPose(float(np.pi), 2.1, 3.0),
            render.CameraPose(0.9, 5.0, bound * (1.0 + 1e-9)),
        ]
        for pose in poses:
            cases += [(shape, pose, size) for size in (render.IMG_SIZE, 17, 31)]
    return cases


def test_render_refuses_a_vertex_at_the_camera():
    # the camera just outside the bounding sphere, over the sphere's pole
    # vertex: a radius the radius check passes, but the vertex sits within
    # 1e-9 of the camera
    shape = render.make_object("sphere", 1, seed=9)
    verts = render.build_mesh(shape)[0]
    bound = float(np.linalg.norm(verts, axis=1).max())
    pose = render.CameraPose(0.0, 0.0, bound * (1.0 + 1e-10))
    assert pose.radius > bound
    with pytest.raises(ValueError, match="inside the object"):
        render.render(shape, pose)


def test_render_matches_per_triangle_reference():
    for shape, pose, size in reference_cases():
        img = render.render(shape, pose, size)
        assert np.array_equal(img, oracles.render_reference(shape, pose, size)), (
            shape.kind, pose, size,
        )


def test_render_keeps_each_face_in_its_bounding_box(monkeypatch):
    # Seen from the pole, camera space is world space shifted along z, so the
    # sliver's first two vertices project exactly onto the image diagonal
    # y = x, which passes through pixel centres. The second sits just in front
    # of the camera, so the edge functions are large and round to "inside" at
    # diagonal pixels beyond the first vertex, outside the sliver's bounding
    # box. The specks in two corners widen the evaluated window over them.
    k = 0.95 * 3.0 / (1.0 / np.tan(np.radians(render.FOV_DEGREES) / 2.0))
    verts = np.array([
        [-0.46510523251541114, -0.46510523251541114, 0.0],
        [-0.0007967582067045718, -0.0007967582067045718, 2.999999746070531],
        [-0.0008047943980753697, -0.0008047943980753511, 2.999999740922377],
        [-k, k, 0.0], [-k + 0.01, k, 0.0], [-k, k - 0.01, 0.0],
        [k, -k, 0.0], [k - 0.01, -k, 0.0], [k, -k + 0.01, 0.0],
    ])
    faces = np.arange(9).reshape(3, 3)
    monkeypatch.setitem(render._MESH_BUILDERS, "cube", lambda size: (verts, faces))
    shape = render.ShapeSpec(0, "cube", 1.0, (0.5, 0.5, 0.5))
    pose = render.CameraPose(0.0, 0.0, 3.0)
    img = render.render(shape, pose)
    assert np.array_equal(img, oracles.render_reference(shape, pose))


def test_render_breaks_a_depth_tie_by_face_order(monkeypatch):
    # Seen from the pole at radius 3, camera space is world space less 3 in
    # z. The apexes (1, 0, 1) and (2, 0, -1) lie on one camera ray, at depth
    # 2 and 4, and project to the same point exactly (a power-of-two scale),
    # so the two faces are one projected triangle in two planes. Its edge
    # b-c lies on x = 0, where the pixel centres of column 8 of a 17-pixel
    # image sit: there w0 is exactly 0, and both faces take the same depth.
    verts = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, -1.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    pose, size = render.CameraPose(0.0, 0.0, 3.0), 17
    rot, eye = render._camera_frame(pose)
    pc = (verts - eye) @ rot.T
    focal = 1.0 / np.tan(np.radians(render.FOV_DEGREES) / 2.0)
    ndc = focal * pc[:, :2] / -pc[:, 2:]
    (bx, by), (cx, cy) = ndc[2], ndc[3]
    assert np.array_equal(ndc[0], ndc[1]) and bx == cx == 0.0

    def depth_at_centre(apex):  # the per-triangle loop's depth at pixel (8, 8), x = y = 0
        (ax, ay), z = ndc[apex], -pc[[apex, 2, 3], 2]
        area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        w = ((cx - bx) * (0.0 - by) - (cy - by) * (0.0 - bx),
             (ax - cx) * (0.0 - cy) - (ay - cy) * (0.0 - cx),
             (bx - ax) * (0.0 - ay) - (by - ay) * (0.0 - ax))
        assert all(v <= 0.0 for v in w) and area2 < 0.0  # covered
        return 1.0 / ((w[0] / z[0] + w[1] / z[1] + w[2] / z[2]) / area2)

    assert depth_at_centre(0) == depth_at_centre(1)  # the tie
    shape = render.ShapeSpec(0, "cube", 1.0, (0.5, 0.5, 0.5))
    imgs = []
    for faces in ([[0, 2, 3], [1, 2, 3]], [[1, 2, 3], [0, 2, 3]]):
        monkeypatch.setitem(render._MESH_BUILDERS, "cube", lambda size, f=np.array(faces): (verts, f))
        imgs.append(render.render(shape, pose, size))
        assert np.array_equal(imgs[-1], oracles.render_reference(shape, pose, size))
    # the first face drawn keeps the tied pixel, and the two faces shade differently
    assert not np.array_equal(imgs[0][8, 8], imgs[1][8, 8])
    # off the edge the nearer face wins in either order
    assert np.array_equal(imgs[0][8, 9], imgs[1][8, 9])


@pytest.mark.parametrize("corners", [
    [[0.001, 0.001, 0.0], [0.002, 0.001, 0.0], [0.001, 0.002, 0.0]],  # between pixel centres
    [[0.1, 0.1, 0.0], [0.2, 0.2, 0.0], [0.3, 0.3, 0.0]],  # zero area
])
def test_render_of_no_covered_pixel_is_background(monkeypatch, corners):
    verts, faces = np.array(corners), np.array([[0, 1, 2]])
    monkeypatch.setitem(render._MESH_BUILDERS, "cube", lambda size: (verts, faces))
    shape = render.ShapeSpec(0, "cube", 1.0, (0.5, 0.5, 0.5))
    img = render.render(shape, render.CameraPose(0.0, 0.0, 3.0), 16)
    assert np.array_equal(img, np.broadcast_to(render.BACKGROUND, (16, 16, 3)))


def test_default_dataset_pixels_pinned(default_dataset):
    blob = np.ascontiguousarray(default_dataset.images, dtype="<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "a2c2c3ffd03a967e22c07cea625827ff582e16f6c101897cab3000b09448b38b"
    )


def test_wide_dataset_pixels_pinned():
    # the 320-view grid the render-train-wide benchmark workload renders
    ds = render.generate_dataset(objects_per_class=4, views_per_object=20)
    blob = np.ascontiguousarray(ds.images, dtype="<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "c1ae937759a029efa57286c31fde6ac427b8465599cbf579777b38b906d2d8b0"
    )


def test_degenerate_pose_rejected():
    shape = render.make_object("torus", 3, seed=2)
    with pytest.raises(ValueError):
        render.render(shape, render.CameraPose(0.5 * np.pi, 0.0, 0.4))


def test_meshes_well_formed():
    for kind in render.CLASS_KINDS:
        spec = render.make_object(kind, render.CLASS_KINDS.index(kind), seed=4)
        verts, tris = render.build_mesh(spec)
        assert np.all(np.isfinite(verts))
        assert tris.min() >= 0 and tris.max() < len(verts)
        assert len(tris) > 0
    cube_spec = render.ShapeSpec(0, "cube", 1.0, (0.5, 0.5, 0.5), seed=0)
    assert len(render.build_mesh(cube_spec)[1]) == 12


def test_shape_spec_validation():
    with pytest.raises(ValueError):
        render.ShapeSpec(0, "pyramid", 1.0, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ValueError):
        render.ShapeSpec(0, "cube", -1.0, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ValueError):
        render.ShapeSpec(0, "cube", 1.0, (0.5, 0.5, 0.5), band_period=0.0, seed=0)
    with pytest.raises(ValueError):
        render.ShapeSpec(0, "cube", 1.0, (1.5, 0.5, 0.5), seed=0)


def test_write_ppm(tmp_path):
    img = render.render(render.make_object("cube", 0, seed=1),
                        render.CameraPose(1.0, 0.5, 3.0))
    path = tmp_path / "x.ppm"
    render.write_ppm(img, path)
    data = path.read_bytes()
    header = b"P6\n32 32\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 32 * 32 * 3
    # the sweep keeps its samples as these pixels and writes the same bytes
    pixels = render.ppm_pixels(img)
    assert pixels.dtype == np.uint8
    render.write_ppm(pixels, tmp_path / "pixels.ppm")
    assert (tmp_path / "pixels.ppm").read_bytes() == data


# --- dataset -----------------------------------------------------------------

def test_default_dataset_shape(default_dataset):
    ds = default_dataset
    assert len(ds.labels) == 160
    assert len(ds.indices("train")) == 112
    assert len(ds.indices("test")) == 48
    assert ds.n_classes == 4
    assert sorted(set(ds.labels)) == [0, 1, 2, 3]
    # every class present in both splits
    for split in ("train", "test"):
        assert sorted(set(ds.labels[ds.indices(split)])) == [0, 1, 2, 3]
    # splits disjoint and exhaustive per object
    for obj in ds.objects():
        tr = set(map(int, ds.view_ids[ds.indices("train", obj)]))
        te = set(map(int, ds.view_ids[ds.indices("test", obj)]))
        assert tr and te and not (tr & te)


def test_dataset_pixels_in_range(default_dataset):
    assert default_dataset.images.min() >= 0.0
    assert default_dataset.images.max() <= 1.0


def test_generate_dataset_deterministic(tiny_dataset):
    again = render.generate_dataset(objects_per_class=1, views_per_object=4, seed=3)
    assert np.array_equal(again.images, tiny_dataset.images)
    assert again.manifest.to_json_dict() == tiny_dataset.manifest.to_json_dict()


def test_different_seed_changes_images(tiny_dataset):
    other = render.generate_dataset(objects_per_class=1, views_per_object=4, seed=4)
    assert not np.array_equal(other.images, tiny_dataset.images)


def test_dataset_roundtrip(tmp_path, tiny_dataset):
    render.save_dataset(tiny_dataset, tmp_path / "d")
    back = render.load_dataset(tmp_path / "d")
    assert np.array_equal(back.images, tiny_dataset.images)
    assert back.manifest.to_json_dict() == tiny_dataset.manifest.to_json_dict()
    # saving twice produces identical bytes
    render.save_dataset(back, tmp_path / "d2")
    for name in ("manifest.json", "images.f64"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_load_rejects_wrong_format(tmp_path, tiny_dataset):
    render.save_dataset(tiny_dataset, tmp_path / "d")
    manifest = (tmp_path / "d" / "manifest.json").read_text()
    (tmp_path / "d" / "manifest.json").write_text(manifest.replace(render.DATASET_MAGIC, "other-v9"))
    with pytest.raises(ValueError):
        render.load_dataset(tmp_path / "d")


def saved_manifest(tmp_path, dataset) -> dict:
    render.save_dataset(dataset, tmp_path / "d")
    return json.loads((tmp_path / "d" / "manifest.json").read_text())


def test_load_rejects_missing_or_ill_typed_manifest_fields(tmp_path, tiny_dataset):
    good = saved_manifest(tmp_path, tiny_dataset)
    bad = [{k: v for k, v in good.items() if k != key}
           for key in ("classes", "image_shape", "seed", "jitter_frac", "views")]
    bad += [
        {**good, "classes": 4},
        {**good, "image_shape": "32x32"},
        {**good, "image_shape": [32, 32]},
        {**good, "views": 16},
        {**good, "views": [list(r.values()) for r in good["views"]]},
        {**good, "views": [{k: v for k, v in r.items() if k != "class"} for r in good["views"]]},
    ]
    # object 0 labelled past the last class, or before the first
    bad += [{**good, "views": [{**r, "class": c} if r["object"] == 0 else r for r in good["views"]]}
            for c in (len(good["classes"]), -1)]
    # extents and ids that are not non-negative integers
    size = good["image_shape"][0]
    bad += [{**good, "image_shape": shape}
            for shape in ([size + 0.5, size, 3], [size, size, -3], [size, size, True])]
    bad += [{**good, "views": [{**r, field: value} if r["object"] == 0 else r
                               for r in good["views"]]}
            for field, value in (("object", -1), ("object", 0.5), ("view", -1), ("view", "0"))]
    # ids past int64, which Dataset's label arrays could not hold
    bad += [{**good, "views": [{**r, field: 2**70} if i == 0 else r for i, r in enumerate(good["views"])]}
            for field in ("object", "view")]
    for manifest in bad:
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="malformed dataset") as err:
            render.load_dataset(tmp_path / "d")
        assert str(tmp_path / "d") in str(err.value)
    for manifest, field in zip(bad[-2:], ("object", "view")):
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"view record 0: {field} {2**70} is not a non-negative integer"):
            render.load_dataset(tmp_path / "d")
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(bad[-6]))
    with pytest.raises(ValueError, match="view record 0: object -1 is not a non-negative integer"):
        render.load_dataset(tmp_path / "d")


def manifest_edit(good, path, value):
    """good with the field at path (keys and list indices) set to value."""
    edited = json.loads(json.dumps(good))
    *parents, last = path
    target = edited
    for key in parents:
        target = target[key]
    target[last] = value
    return edited


# saved-manifest fields that generate_dataset's rules refuse, and the name each error gives
REFUSED_SETTINGS = [
    (("seed",), "x", "seed"), (("seed",), -1, "seed"),
    (("jitter_frac",), float("nan"), "jitter_frac"), (("jitter_frac",), 5, "jitter_frac"),
    (("jitter_frac",), True, "jitter_frac"),
    (("classes", 1), None, "classes"), (("classes", 1), "dog", "classes"),
    (("classes",), [], "classes"),
    (("views", 0, "nbytes"), 7, "view record 0: nbytes"),
    (("views", 0, "pose"), None, "view record 0: pose"),
    (("views", 0, "pose"), ["x"], "view record 0: pose"),
    (("views", 0, "pose"), [1.0, float("inf"), 3.0], "view record 0: pose"),
]


def test_load_rejects_settings_generate_dataset_refuses(tmp_path, tiny_dataset, capsys):
    good = saved_manifest(tmp_path, tiny_dataset)
    for path, value, name in REFUSED_SETTINGS:
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest_edit(good, path, value)))
        with pytest.raises(ValueError, match=f"malformed dataset: ValueError: {name}"):
            render.load_dataset(tmp_path / "d")
        argv = ["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "model")]
        assert cli.main(argv) == cli.EXIT_USAGE, path
        assert f"ValueError: {name}" in capsys.readouterr().err
    assert not (tmp_path / "model" / "weights.viapnet").exists()


def test_load_rejects_records_out_of_place(tmp_path, tiny_dataset):
    good = saved_manifest(tmp_path, tiny_dataset)
    views = good["views"]
    repeated = [dict(r) for r in views]
    repeated[1]["index"] = 0  # row 1 would never be filled
    shifted = [dict(r) for r in views]
    shifted[2]["offset"] = shifted[1]["offset"]
    swapped = views[:1] + [views[2], views[1]] + views[3:]
    for records in (repeated, shifted, swapped):
        (tmp_path / "d" / "manifest.json").write_text(json.dumps({**good, "views": records}))
        with pytest.raises(ValueError, match="view record"):
            render.load_dataset(tmp_path / "d")
    # a place that equals the right one by value but is not a JSON integer
    for i, field, value in ((1, "index", True), (1, "index", 1.0), (0, "offset", False)):
        records = [{**r, field: value} if j == i else r for j, r in enumerate(views)]
        (tmp_path / "d" / "manifest.json").write_text(json.dumps({**good, "views": records}))
        with pytest.raises(ValueError, match=f"view record {i}: {field} {value!r} is not a non-negative"):
            render.load_dataset(tmp_path / "d")


def test_load_rejects_non_finite_pixels(tmp_path, tiny_dataset):
    render.save_dataset(tiny_dataset, tmp_path / "d")
    blob = tmp_path / "d" / "images.f64"
    for value in (np.nan, np.inf, -np.inf):
        images = tiny_dataset.images.copy()
        images[3, 5, 7, 1] = value
        blob.write_bytes(images.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="not finite"):
            render.load_dataset(tmp_path / "d")
    with pytest.raises(ValueError, match="not finite"):
        render.Dataset(tiny_dataset.manifest, images)


def test_manifest_rejects_duplicates():
    m = render.DatasetManifest(("a", "b"), (4, 4, 3), 0, 0.1)
    rec = {"object": 0, "view": 1, "split": "train", "class": 0, "pose": (1, 1, 3), "offset": 0, "nbytes": 8}
    m.views = [rec, dict(rec)]
    with pytest.raises(ValueError):
        m.validate()


def test_manifest_requires_both_splits():
    m = render.DatasetManifest(("a",), (4, 4, 3), 0, 0.1)
    m.views = [{"object": 0, "view": 0, "split": "train", "class": 0, "pose": (1, 1, 3), "offset": 0, "nbytes": 8}]
    with pytest.raises(ValueError):
        m.validate()


def test_manifest_rejects_an_object_of_two_classes():
    m = render.DatasetManifest(("a", "b", "c"), (4, 4, 3), 0, 0.1)
    rec = {"split": "train", "class": 0, "pose": (1, 1, 3), "offset": 0, "nbytes": 8}
    m.views = [{**rec, "object": o, "view": v, "split": split}
               for o in (0, 1) for v, split in enumerate(("train", "test", "test", "test"))]
    m.validate()
    m.views[5]["class"] = 2  # object 1's second view
    with pytest.raises(ValueError, match=r"object 1's views carry different classes \[0, 2\]"):
        m.validate()


def test_views_too_few_rejected(monkeypatch):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered before rejecting the settings")

    monkeypatch.setattr(render, "render", no_render)
    for bad, message in (
        ({"views_per_object": 1}, "views_per_object"),
        ({"classes": ("cube", "blob")}, "blob"),
        ({"classes": ()}, "classes"),
        ({"objects_per_class": 0}, "objects_per_class"),
        ({"image_size": 0}, "image_size"),
        ({"image_size": 3}, "image_size"),
    ):
        with pytest.raises(ValueError, match=message):
            render.generate_dataset(**{"objects_per_class": 1, "seed": 0, **bad})


# --- rendering on forked helper processes ----------------------------------

SMALL = {"objects_per_class": 1, "views_per_object": 4, "seed": 3}


def test_dataset_files_same_for_any_jobs(tmp_path):
    # 4 objects: jobs 9 asks for more processes than there are objects
    files = {}
    for jobs in (1, 2, 3, 9):
        render.generate_dataset(tmp_path / f"j{jobs}", jobs, **SMALL)
        files[jobs] = [(tmp_path / f"j{jobs}" / name).read_bytes()
                       for name in ("images.f64", "manifest.json")]
    for jobs in (2, 3, 9):
        assert files[jobs] == files[1], jobs


def test_each_object_builds_its_mesh_once(monkeypatch):
    built = []
    real = render.build_mesh
    monkeypatch.setattr(render, "build_mesh", lambda spec: built.append(spec) or real(spec))
    render.generate_dataset(None, 1, **SMALL)
    assert len(built) == 4 and len(set(built)) == 4


def test_render_error_in_a_helper_reaches_the_caller(monkeypatch, tmp_path):
    def fail():
        raise ValueError("render failed in a helper")

    fail_in_a_helper(monkeypatch, render, "render", tmp_path / "failed", fail)
    with deadline(120), pytest.raises(ValueError) as err:
        render.generate_dataset(None, 2, **SMALL)
    assert type(err.value) is ValueError
    assert err.value.args == ("render failed in a helper",)


def test_renderer_that_dies_stops_the_dataset(monkeypatch, tmp_path):
    fail_in_a_helper(monkeypatch, render, "render", tmp_path / "died", lambda: os._exit(3))
    with deadline(120), pytest.raises(RuntimeError, match="renderer process .* died with exit code 3"):
        render.generate_dataset(None, 2, **SMALL)


def test_camera_inside_an_object_reads_the_same_for_any_jobs():
    # every object fails, each with its own bounding radius; the message is
    # the first object's, as rendering in view order gives it
    messages = set()
    for jobs in (1, 2, 3):
        with pytest.raises(ValueError, match="is inside the object") as err:
            render.generate_dataset(None, jobs, camera_radius=0.5, **SMALL)
        messages.add(str(err.value))
    assert len(messages) == 1
