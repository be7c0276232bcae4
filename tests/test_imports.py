"""Every imported name is read by the module that imports it.

No linter runs on this repository, so this AST check stands in for one.  An
import that its module never loads is dead code, unless another module
reads or patches the name there; such a name is listed in KEPT.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
# the benchmark's tracer patches baselines.enumerate_solutions to time the
# exact enumeration under that name as well as under fairmc.sat
KEPT = {("src/fairmc/baselines.py", "enumerate_solutions")}


def unloaded_imports(path):
    """The names `path` imports (not from __future__) and never loads; a
    name listed in the module's __all__ counts as loaded."""
    tree = ast.parse(path.read_text(), str(path))
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return imported - loaded


def test_every_import_is_loaded():
    hits = {(p.relative_to(ROOT).as_posix(), name)
            for p in SOURCES for name in unloaded_imports(p)}
    assert hits - KEPT == set()


def test_kept_names_are_still_unloaded_imports():
    # an exemption that no longer applies is dropped, not left to hide a new hit
    for rel, name in KEPT:
        assert name in unloaded_imports(ROOT / rel)


def test_experiments_import_leaves_validation_modules_unloaded():
    # the benchmark's set-up imports fairmc.experiments and pays for all it
    # loads; only `run_validation` needs scipy.stats and fairmc.exact, and it
    # imports them itself
    code = ("import sys, fairmc.experiments; "
            "print(sorted({'scipy.stats', 'fairmc.exact'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
