import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsecov

MODULES = sorted(Path(sparsecov.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used_or_exported(path):
    # a name imported only to be reachable from outside the module is dead
    # weight in it; re-exports belong in __all__
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - _exported_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse adds about 11 ms to an import; only the finish's sparse
    # Hessian kernel needs it, and imports it when it first runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sparsecov.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, sparsecov; print('scipy.sparse' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
