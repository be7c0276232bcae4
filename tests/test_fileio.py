import json

import numpy as np
import pytest

from fairmc import experiments
from fairmc.fileio import atomic_write
from fairmc.made import MadeNetwork, save_checkpoint
from fairmc.sat import ALPHA_C, build_instance_set, save_instance_set


class Interrupted(RuntimeError):
    pass


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


def test_failed_summary_leaves_no_file(tmp_path, dump_dies_midway):
    path = tmp_path / "chains" / "walksat" / "instance_0000_trial00.json"
    with pytest.raises(Interrupted):
        experiments._write_summary(path, {"found": [1, 2, 3]})
    assert not path.exists()
    assert list(path.parent.iterdir()) == []


def test_failed_checkpoint_leaves_no_file(tmp_path, dump_dies_midway):
    net = MadeNetwork(4, (8,), rng=np.random.default_rng(0))
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


def test_failed_resolved_config_leaves_no_file(tmp_path, dump_dies_midway):
    cfg = experiments.ExperimentConfig(kind="KSAT_FAIRNESS", sizes=(5,), per_size=1)
    with pytest.raises(Interrupted):
        experiments.write_resolved_config(cfg, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []
