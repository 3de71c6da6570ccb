import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "viapkit").glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_only_runtime_dependency_is_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "viapkit"}
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} imports {m}"
                        for m in modules if m.split(".")[0] not in allowed]
    assert SOURCES and not outside, outside


def test_no_source_reaches_for_numpy_random():
    # every seeded draw goes through viapkit.prng; importing NumPy's random
    # package costs about 6 MiB of resident memory
    mentions = [f"{path.parent.name}/{path.name}:{n}" for path in SOURCES + DEMOS
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if "np.random" in line or "numpy.random" in line]
    assert SOURCES and DEMOS and not mentions, mentions


def test_a_sweep_never_imports_numpy_random(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"objects_per_class": 1, "views_per_object": 4, "seed": 3},
        "train": {"epochs": 1},
        "sweep": {"gate_train": 0.0, "gate_test": 0.0, "iterations": 2},
    }))
    argv = ["sweep", "--config", str(cfg), "--eps", "0,3", "--family", "viap,viap-t,bim-t",
            "--out", str(tmp_path / "out")]
    script = (f"import sys; from viapkit import cli; code = cli.main({argv!r}); "
              "print('numpy.random' in sys.modules); sys.exit(code)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
