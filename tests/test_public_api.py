"""The library carries no public API that only the tests reach.

Every public module-level function or class in `src/fairmc`, and every
public method or property of a public class, must be read somewhere in
`src/fairmc` outside its own definition, or be read by a `bench/*.py` file:
loaded as a name or attribute, imported, or given as a string constant (the
benchmark patches layers by attribute-name string).  A name that a benchmark
file mentions only in a comment or docstring is not read.  A read inside
another public definition counts only when that definition is reached
itself, so a chain of names that only the tests enter is reported whole.  A method counts as
read when any attribute of its name is, so a name shared with another
method or attribute can hide it.  A load of a parameter or local variable
of an enclosing function does not count, whatever its name.

Every field of a public dataclass must likewise be read in `src/fairmc`, as
an attribute or as a string (`getattr`, CSV and JSON keys), or be read by a
`bench/*.py` file: a value the library stores and nothing reads is waste.

Every defaulted field of a public dataclass, and every defaulted parameter
of a public function or method (`__init__` included), must be set somewhere
in `src/fairmc` or `bench/*.py`: by a keyword, positional, `*` or `**`
argument in a call of its name, by `cls(...)` in one of its class's
classmethods, or, for a field, by an attribute store.  A value that only the tests set is an
option with one caller in use, and is a module constant instead.  Calls are
matched by the callee's name alone, so a function of the same name elsewhere
can hide an unset parameter.  A call that passes a setting's default value
counts as setting it, so an option whose callers all pass its default is
missed: PT-ICM's former `replica_betas` field passed this way.

Every field of `ExperimentConfig` must take at least two values across the
experiments that exist: the seven fig presets and the benchmark's workload
configs (`WORKLOADS` in `bench/pipeline.py`, read from its source).  A
setting every experiment leaves at one value is a constant.
"""

import ast
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from fairmc.cli import FIGS, load_preset
from fairmc.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public names kept in the library only as references for the tests to
# compare production code against: none, the references live in the tests.
TEST_REFERENCES = ()

# Settings that only the tests set and that no module constant can replace:
# the acceptance-rule tests start a chain from a scripted state.
TEST_SETTINGS = ("run_chain(init=)",)

# Config fields that every experiment resolves to one value and that stay
# settings, with the reason.
UNVARIED_SETTINGS = {
    "use_fixed_angles": "the fixed-angle ablation of ROADMAP direction 7 sets it",
}


@lru_cache(maxsize=None)
def _sources(src_dir: Path, bench_dir: Path):
    """The library's parsed modules by path, the benchmark's parsed modules,
    and the names the benchmark reads (`_bench_reads`)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))}
    bench_trees = [ast.parse(p.read_text()) for p in sorted(bench_dir.glob("*.py"))]
    return trees, bench_trees, set().union(*map(_bench_reads, bench_trees))


def _bench_reads(tree) -> set[str]:
    """The names loaded in `tree` as a name or attribute, the names it
    imports, and its string constants other than docstrings and other
    strings that stand as a statement of their own."""
    prose = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in prose:
            names.add(node.value)
    return names


def _bound_names(fn) -> set[str]:
    """The names a function or lambda binds: its parameters and the names it
    stores, imports or defines, less those it declares global or nonlocal."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    free = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)  # a nested scope: its own names are not ours
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names - free


def _loads(tree) -> dict:
    """The names loaded in `tree`, as an attribute or as a name that is not a
    parameter or local of an enclosing function (a local `energy` does not
    reach the function `energy`), keyed by the innermost public definition
    (`_public_definitions`) that holds the load, or None outside them all."""
    owners = {id(node): qualified for qualified, node in _public_definitions(tree)}
    names = {}

    def visit(cur, local, owner):
        owner = owners.get(id(cur), owner)
        if isinstance(cur, (*FUNCTIONS, ast.Lambda)):
            # decorators, defaults and annotations belong to the outer scope
            outer = [*getattr(cur, "decorator_list", ()), cur.args,
                     *([cur.returns] if getattr(cur, "returns", None) else [])]
            for child in outer:
                visit(child, local, owner)
            inner = local | _bound_names(cur)
            for child in (cur.body if isinstance(cur.body, list) else [cur.body]):
                visit(child, inner, owner)
            return
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            if cur.id not in local:
                names.setdefault(owner, set()).add(cur.id)
        elif isinstance(cur, ast.Attribute) and isinstance(cur.ctx, ast.Load):
            names.setdefault(owner, set()).add(cur.attr)
        for child in ast.iter_child_nodes(cur):
            visit(child, local, owner)

    visit(tree, frozenset(), None)
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


def _public_dataclasses(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                and _is_dataclass(node):
            yield node


def _fields(node):
    """(name, has a default) of a dataclass's fields, in order."""
    return [(item.target.id, item.value is not None) for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unread_dataclass_fields(src_dir: Path, bench_dir: Path) -> list[str]:
    trees, _, bench_reads = _sources(src_dir, bench_dir)
    read = set().union(bench_reads, *(_field_reads(tree) for tree in trees.values()))
    return sorted(
        f"{path.stem}.{node.name}.{name}"
        for path, tree in trees.items() for node in _public_dataclasses(tree)
        for name, _ in _fields(node)
        if name not in read
    )


def unreached_public_names(src_dir: Path, bench_dir: Path) -> list[str]:
    """The public definitions that no load outside them reaches, as a
    fixpoint: a load counts only outside every public definition or inside
    a reached one, so a chain that starts at an unreached (or exempt)
    definition is unreached all along."""
    trees, _, bench_reads = _sources(src_dir, bench_dir)
    names, loads, live = {}, {}, set(bench_reads)
    for path, tree in trees.items():
        by_owner = _loads(tree)
        live |= by_owner.get(None, set())
        for qualified, node in _public_definitions(tree):
            key = f"{path.stem}.{qualified}"
            names[key] = node.name
            loads[key] = by_owner.get(qualified, set())
    unreached = set(names)
    grew = True
    while grew:
        reached = {key for key in unreached if names[key] in live}
        unreached -= reached
        for key in reached:
            live |= loads[key]
        grew = bool(reached)
    return sorted(unreached)


def _call(node: ast.Call):
    """(positional count, keyword names, passes `**`) of a call; a `*`
    argument fills every position."""
    starred = any(isinstance(a, ast.Starred) for a in node.args)
    keywords = {k.arg for k in node.keywords}
    return (float("inf") if starred else len(node.args),
            keywords - {None}, None in keywords)


def _settings(tree, calls, stores):
    """Add `tree`'s calls to `calls` (callee name -> list of `_call`) and its
    stored attribute names to `stores`.  A call of the first parameter of a
    classmethod (`cls(...)`) is also a call of the class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(_call(node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stores.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, FUNCTIONS) and item.args.args and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in item.decorator_list)):
                    first = item.args.args[0].arg
                    calls.setdefault(node.name, []).extend(
                        _call(c) for c in ast.walk(item) if isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name) and c.func.id == first)


def _is_set(calls, callee, param, index):
    """Whether a call of `callee` passes `param`, by keyword, by `**` or at
    positional `index` (None for a keyword-only parameter)."""
    return any(star or param in keywords or (index is not None and n_pos > index)
               for n_pos, keywords, star in calls.get(callee, ()))


def _defaulted_parameters(fn: ast.FunctionDef, method: bool):
    """(name, positional index or None) of `fn`'s parameters with a default;
    a method's index does not count self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list)
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unset_defaults(src_dir: Path, bench_dir: Path) -> list[str]:
    trees, bench_trees, _ = _sources(src_dir, bench_dir)
    calls, stores = {}, set()
    for tree in (*trees.values(), *bench_trees):
        _settings(tree, calls, stores)
    unset = []
    for path, tree in trees.items():
        for node in _public_dataclasses(tree):
            for index, (name, defaulted) in enumerate(_fields(node)):
                if defaulted and name not in stores and not _is_set(
                        calls, node.name, name, index):
                    unset.append(f"{path.stem}.{node.name}.{name}")
        for qualified, node in _public_definitions(tree):
            # (label, callee name, function, is a method); a class is called
            # by its own name
            if isinstance(node, ast.ClassDef):
                targets = [(f"{qualified}.__init__", node.name, fn, True)
                           for fn in node.body
                           if isinstance(fn, FUNCTIONS) and fn.name == "__init__"]
            else:
                targets = [(qualified, node.name, node, "." in qualified)]
            for label, callee, fn, method in targets:
                for param, index in _defaulted_parameters(fn, method):
                    if not _is_set(calls, callee, param, index):
                        unset.append(f"{path.stem}.{label}({param}=)")
    return sorted(unset)


def test_every_public_name_is_reached_outside_the_tests():
    # equality, not a subset: an exempt name the library starts to use
    # must leave the exemptions too
    unreached = unreached_public_names(ROOT / "src" / "fairmc", ROOT / "bench")
    assert [u.split(".", 1)[1] for u in unreached] == sorted(TEST_REFERENCES)


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_dataclass_fields(ROOT / "src" / "fairmc", ROOT / "bench") == []


def test_every_default_is_set_outside_the_tests():
    # equality, as above: an exempt setting the library starts to set must
    # leave the exemptions too
    unset = unset_defaults(ROOT / "src" / "fairmc", ROOT / "bench")
    assert [u.split(".", 1)[1] for u in unset] == sorted(TEST_SETTINGS)


def test_a_local_of_the_same_name_is_not_a_reach(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "mod.py").write_text(
        "def energy(x):\n    return x\n\n\n"
        "def _sweep(energy, bits):\n    return energy + bits\n\n\n"
        "def _total(model):\n    energy = model.offset\n"
        "    return [energy for _ in range(2)]\n")
    assert unreached_public_names(src, bench) == ["mod.energy"]
    # a call from a scope that binds no such local is a reach
    (src / "use.py").write_text("def _use():\n    return energy(1)\n")
    _sources.cache_clear()
    assert unreached_public_names(src, bench) == []


def test_a_chain_from_an_unreached_name_is_not_a_reach(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "mod.py").write_text(
        "def a(x):\n    return b(x)\n\n\n"
        "def b(x):\n    return C().c(x)\n\n\n"
        "class C:\n    def c(self, x):\n        return a(x)\n")
    # nothing calls a, so neither b nor C nor C.c is reached; exempting a
    # would still leave them reported
    assert unreached_public_names(src, bench) == ["mod.C", "mod.C.c", "mod.a", "mod.b"]
    # a call from a private function reaches the whole chain
    (src / "use.py").write_text("def _use():\n    return a(1)\n")
    _sources.cache_clear()
    assert unreached_public_names(src, bench) == []


def test_a_name_only_in_benchmark_prose_is_not_read(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Run:\n    seed: int\n\n\n"
        "def sample(x):\n    return x\n\n\n"
        "def _use():\n    return Run(1)\n")
    (bench / "b.py").write_text(
        '"""Draws a sample of each seed."""\n\n'
        "# sample, seed\n\n\n"
        'def f():\n    """sample seed"""\n    "sample seed"\n    return 1\n')
    assert unreached_public_names(src, bench) == ["mod.sample"]
    assert unread_dataclass_fields(src, bench) == ["mod.Run.seed"]
    # an attribute-name string and an attribute load are reads
    (bench / "b.py").write_text(
        "import mod\n\nPATCHES = [(mod, \"sample\")]\n\n\n"
        "def seeds(runs):\n    return [r.seed for r in runs]\n")
    _sources.cache_clear()
    assert unreached_public_names(src, bench) == []
    assert unread_dataclass_fields(src, bench) == []


def workload_configs(bench_dir: Path) -> list[dict]:
    """The config of each benchmark workload, read from the literal
    `WORKLOADS` in `bench/pipeline.py` without importing it."""
    tree = ast.parse((bench_dir / "pipeline.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            return [w["config"] for w in ast.literal_eval(node.value).values()]
    raise AssertionError(f"no WORKLOADS in {bench_dir / 'pipeline.py'}")


def unvaried_settings(configs: list[dict]) -> list[str]:
    """The config fields that resolve to the same value in every config."""
    first, *rest = [asdict(ExperimentConfig.from_dict(c)) for c in configs]
    return sorted(name for name, value in first.items()
                  if all(r[name] == value for r in rest))


def test_every_setting_varies_across_the_experiments():
    configs = [load_preset(fig) for fig in FIGS] + workload_configs(ROOT / "bench")
    # equality, as above: an exempt field that starts to vary must leave
    # the exemptions too
    assert unvaried_settings(configs) == sorted(UNVARIED_SETTINGS)
