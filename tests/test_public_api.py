"""The library carries no public API that only the tests reach.

Every public module-level function or class in `src/fairmc` must be read
somewhere in `src/fairmc` outside its own definition, or be named in a
`bench/*.py` file (the benchmark patches layers by attribute-name string).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Reference implementations kept for the tests to compare production code
# against: add_blocking_clause appends the width-n clause whose effect the
# WalkSAT bookkeeping (baselines._Assignment.block) reproduces without it.
TEST_REFERENCES = ("add_blocking_clause",)


def _reads(node, skip=None):
    """Names read (loaded) in `node`'s subtree, except inside `skip`."""
    names = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            names.append(cur.id)
        elif isinstance(cur, ast.Attribute) and isinstance(cur.ctx, ast.Load):
            names.append(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return names


def unreached_public_names(src_dir: Path, bench_dir: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))}
    bench_text = "\n".join(p.read_text() for p in sorted(bench_dir.glob("*.py")))
    unreached = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_"):
                continue
            read = any(
                name in _reads(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not read and not re.search(rf"\b{re.escape(name)}\b", bench_text):
                unreached.append(f"{path.stem}.{name}")
    return sorted(unreached)


def test_every_public_name_is_reached_outside_the_tests():
    # equality, not a subset: an exempt name the library starts to use
    # must leave the exemptions too
    unreached = unreached_public_names(ROOT / "src" / "fairmc", ROOT / "bench")
    assert [u.split(".")[1] for u in unreached] == sorted(TEST_REFERENCES)
