"""The library carries no public API that only the tests reach.

Every public module-level function or class in `src/fairmc`, and every
public method or property of a public class, must be read somewhere in
`src/fairmc` outside its own definition, or be named in a `bench/*.py` file
(the benchmark patches layers by attribute-name string).  A method counts as
read when any attribute of its name is, so a name shared with another
method or attribute can hide it.

Every field of a public dataclass must likewise be read in `src/fairmc`, as
an attribute or as a string (`getattr`, CSV and JSON keys), or be named in a
`bench/*.py` file: a value the library stores and nothing reads is waste.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

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


def _public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes, and of the public methods and properties of public classes."""
    for node in tree.body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _sources(src_dir: Path, bench_dir: Path):
    """The library's parsed modules by path, and the benchmark's text."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))}
    bench_text = "\n".join(p.read_text() for p in sorted(bench_dir.glob("*.py")))
    return trees, bench_text


def _named_in(name, text):
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def _field_reads(tree):
    """Attribute names loaded and string constants anywhere in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_dataclass_fields(src_dir: Path, bench_dir: Path) -> list[str]:
    trees, bench_text = _sources(src_dir, bench_dir)
    read = set().union(*(_field_reads(tree) for tree in trees.values()))
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef) or node.name.startswith("_")
                    or not _is_dataclass(node)):
                continue
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                    continue
                name = item.target.id
                if name not in read and not _named_in(name, bench_text):
                    unread.append(f"{path.stem}.{node.name}.{name}")
    return sorted(unread)


def unreached_public_names(src_dir: Path, bench_dir: Path) -> list[str]:
    trees, bench_text = _sources(src_dir, bench_dir)
    unreached = []
    for path, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name = node.name
            read = any(
                name in _reads(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not read and not _named_in(name, bench_text):
                unreached.append(f"{path.stem}.{qualified}")
    return sorted(unreached)


def test_every_public_name_is_reached_outside_the_tests():
    # equality, not a subset: an exempt name the library starts to use
    # must leave the exemptions too
    unreached = unreached_public_names(ROOT / "src" / "fairmc", ROOT / "bench")
    assert [u.split(".", 1)[1] for u in unreached] == sorted(TEST_REFERENCES)


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_dataclass_fields(ROOT / "src" / "fairmc", ROOT / "bench") == []
