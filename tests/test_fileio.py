import ast
import json
from pathlib import Path

import numpy as np
import pytest

from fairmc import cli, experiments
from fairmc.fileio import atomic_write
from fairmc.made import MadeNetwork, save_checkpoint
from fairmc.metrics import rows_to_csv
from fairmc.sat import ALPHA_C, build_instance_set, save_instance_set, write_dimacs


class Interrupted(RuntimeError):
    pass


class DiesWhenWritten:
    """A CSV cell whose text cannot be formed: the row writer fails on it."""

    def __str__(self):
        raise Interrupted


def interrupted(*args, **kwargs):
    raise Interrupted


@pytest.fixture
def dump_dies_midway(monkeypatch):
    """json.dump writes the first bytes of its output, then fails."""

    def dump(obj, f, **kwargs):
        f.write(json.dumps(obj, **kwargs)[:5])
        f.flush()
        raise Interrupted

    monkeypatch.setattr(json, "dump", dump)


def test_clean_write_replaces_target(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    with atomic_write(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_write_keeps_old_content(tmp_path, dump_dies_midway):
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(Interrupted):
        with atomic_write(path) as f:
            json.dump({"a": 1}, f)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    # the CSV writer: the first row is written, the second fails
    path = tmp_path / "out.csv"
    path.write_text("old")
    with pytest.raises(Interrupted):
        rows_to_csv([{"a": 1}, {"a": DiesWhenWritten()}], path)
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_failed_summary_leaves_no_file(tmp_path, dump_dies_midway):
    path = tmp_path / "chains" / "walksat" / "instance_0000_trial00.json"
    with pytest.raises(Interrupted):
        experiments._write_summary(path, {"found": [1, 2, 3]})
    assert not path.exists()
    assert list(path.parent.iterdir()) == []


def test_failed_checkpoint_leaves_no_file(tmp_path, dump_dies_midway):
    net = MadeNetwork(4, rng=np.random.default_rng(0))
    path = tmp_path / "instance_0000.json"
    with pytest.raises(Interrupted):
        save_checkpoint(net, path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_manifest_leaves_no_file(tmp_path, dump_dies_midway):
    # resume reads an existing manifest as "instances done"
    instset = build_instance_set([5], 2, 2, ALPHA_C[2], seed=0)
    with pytest.raises(Interrupted):
        save_instance_set(instset, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["instance_0000.cnf", "instance_0001.cnf"]

    # a DIMACS file that fails after its header and first clause: a literal
    # whose text cannot be formed, set past CnfFormula's checks
    formula = instset.entries[0].formula
    object.__setattr__(formula, "clauses", formula.clauses[:1] + ((1, DiesWhenWritten()),))
    with pytest.raises(Interrupted):
        write_dimacs(formula, tmp_path / "instance_0002.cnf")
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_failed_resolved_config_leaves_no_file(tmp_path, dump_dies_midway, monkeypatch):
    cfg = experiments.ExperimentConfig(kind="KSAT_FAIRNESS", sizes=(5,), per_size=1)
    with pytest.raises(Interrupted):
        experiments.write_resolved_config(cfg, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []

    # the other JSON files of a run directory
    monkeypatch.setattr(cli, "run_validation", lambda: [experiments._check("c", True)])
    with pytest.raises(Interrupted):
        cli.main(["validate", "--out", str(tmp_path / "validate")])
    assert list((tmp_path / "validate").iterdir()) == []
    monkeypatch.setattr(experiments, "write_resolved_config",
                        lambda cfg, out: out.mkdir(parents=True))
    monkeypatch.setattr(experiments, "ANNEAL_GRID", np.geomspace(0.1, 0.1, 1))
    sweep = experiments.ExperimentConfig(kind="ANNEAL_SWEEP", qaoa_depth=1, qaoa_starts=1)
    with pytest.raises(Interrupted):
        experiments.run_anneal_sweep(sweep, tmp_path / "sweep")
    assert [p.name for p in (tmp_path / "sweep").iterdir()] == ["anneal_sweep.csv"]


def test_failed_degeneracy_leaves_no_manifest(tmp_path, monkeypatch):
    # the manifest marks gen-instances done, so degeneracy.csv comes first
    cfg = experiments.ExperimentConfig(kind="KSAT_FAIRNESS", k=2, sizes=(5,), per_size=2)
    with monkeypatch.context() as m:
        m.setattr(experiments, "rows_to_csv", interrupted)
        with pytest.raises(Interrupted):
            experiments.stage_instances(cfg, tmp_path)
    assert not (tmp_path / "instances" / "manifest.json").exists()
    experiments.stage_instances(cfg, tmp_path)
    names = sorted(p.name for p in (tmp_path / "instances").iterdir())
    assert names == ["degeneracy.csv", "instance_0000.cnf", "instance_0001.cnf",
                     "manifest.json"]


def write_unless_boom(path, text):
    if text == "boom":
        raise Interrupted
    with atomic_write(path) as f:
        f.write(text)


@pytest.mark.parametrize("threads", [1, 2])
def test_runner_keeps_finished_tasks(tmp_path, threads):
    paths = [tmp_path / f"{i}.txt" for i in range(3)]
    with pytest.raises(Interrupted):
        experiments._run_missing(
            write_unless_boom, [(paths[0], "a"), (paths[1], "b"), (paths[2], "boom")], threads)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.txt", "1.txt"]

    # a resume runs only the task whose file is missing
    experiments._run_missing(
        write_unless_boom, [(paths[0], "boom"), (paths[1], "boom"), (paths[2], "c")], threads)
    assert [p.read_text() for p in paths] == ["a", "b", "c"]


def test_runner_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a forked pool starts every worker at the first submit, idle or not
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    paths = [tmp_path / f"{i}.txt" for i in range(3)]
    paths[0].write_text("done")
    experiments._run_missing(write_unless_boom, [(p, p.name) for p in paths], 64)
    assert sizes == [2]
    assert [p.read_text() for p in paths] == ["done", "1.txt", "2.txt"]


def in_place_writes(tree):
    """Calls that write a file other than through `atomic_write`: `open` in a
    write, append or update mode (or a mode not known before run time),
    `Path.write_text`/`write_bytes`, and numpy's `save*` functions."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy") and name.startswith("save")):
            yield node.lineno, f"np.{name}"
        elif name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name == "open":
            # open(path, mode) or path.open(mode)
            pos = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[pos:pos + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    yield node.lineno, "open in a writing mode"


def test_stage_files_written_only_atomically():
    src = Path(experiments.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(src.rglob("*.py")) if path.name != "fileio.py"
        for line, what in in_place_writes(ast.parse(path.read_text()))
    ]
    assert found == []
    # the guard itself sees each kind of in-place write
    probe = ast.parse('open(p, "w"); open(p, mode="a"); q.open("w+"); open(p, m); '
                      'q.write_text(s); np.savez(p, a=a); open(p); q.open()')
    assert [what for _, what in in_place_writes(probe)] == [
        "open in a writing mode"] * 4 + ["write_text", "np.savez"]
