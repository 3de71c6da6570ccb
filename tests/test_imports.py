import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "viapkit").glob("*.py"))


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
