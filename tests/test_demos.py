import os
import subprocess
import sys
from pathlib import Path

import viapkit
from viapkit import attacks, nn, render, train

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_craft_perturbation_demo_runs(tmp_path):
    weights = tmp_path / "w.viapnet"
    nn.save_params(train.init_params(0), weights)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(viapkit.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "craft_perturbation.py"), "--weights", str(weights),
         "--iters", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fgsm-mean" in proc.stdout
    pert = attacks.load_perturbation(out / "delta.viapdlt")
    assert pert.config.family == "viap" and pert.config.iterations == 2
    for name in ("clean.ppm", "adv.ppm", "delta_rescaled.ppm"):
        assert (out / name).read_bytes().startswith(b"P6\n")


def test_epsilon_sweep_demo_runs(tmp_path):
    out = tmp_path / "sweep"
    env = {**os.environ, "PYTHONPATH": str(Path(viapkit.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "epsilon_sweep.py"), "--iters", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "welch viap-vs-fgsm" in proc.stdout
    assert (out / "report.json").exists()


def test_render_views_demo_draws_the_dataset_views(tmp_path):
    out = tmp_path / "views"
    env = {**os.environ, "PYTHONPATH": str(Path(viapkit.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "render_views.py"), "--kind", "torus", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # one object per class, so the torus is object (and class) CLASS_KINDS.index("torus")
    ds = render.generate_dataset(None, 1, seed=7, objects_per_class=1)
    rows = ds.indices(object_id=render.CLASS_KINDS.index("torus"))
    assert len(rows) == 10
    for v, row in enumerate(rows):
        render.write_ppm(ds.images[row], tmp_path / "want.ppm")
        assert (out / f"torus_{v:02d}.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes(), v
