"""Failures injected into the run directory's writes.

Every artifact goes through ``similarity.write_artifact``: a file whose
bytes do not change is left alone, and a changed one goes through
``replace_file``, as the manifest does, which writes ``<name>.tmp`` and
renames it into place.  A write that stops part-way must
leave the old bytes under the artifact's name and no ``.tmp`` behind.
"""
import collections
import contextlib
import errno
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from tripleforge.pipeline import (MANIFEST, OUTPUTS, PREDICTIONS, PREEXTRACT, PRODUCERS,
                                  SELECTION, STAGES)
from tripleforge.similarity import write_artifact

from conftest import DATA_DIR
from test_pipeline import ALL_STAGES, run_all


def files(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@contextlib.contextmanager
def torn_writes():
    """Inside, every ``<name>.tmp`` write stops half-way with ENOSPC; the
    list collects the paths it tore."""
    torn = []
    real_write_bytes = Path.write_bytes

    def write_bytes(self, data):
        if not self.name.endswith(".tmp"):
            return real_write_bytes(self, data)
        with open(self, "wb") as fh:
            fh.write(data[:len(data) // 2])
        torn.append(self)
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    with mock.patch.object(Path, "write_bytes", write_bytes):
        yield torn


def test_interrupted_write_keeps_the_old_bytes(tmp_path):
    path = tmp_path / "selection.json"
    write_artifact(path, b'{"chosen": ["a"]}\n')
    with torn_writes() as torn, pytest.raises(OSError, match="No space left"):
        write_artifact(path, b'{"chosen": ["a", "b", "c"]}\n')
    assert torn == [tmp_path / "selection.json.tmp"]
    assert files(tmp_path) == {path: b'{"chosen": ["a"]}\n'}


@pytest.mark.parametrize("stage, change, artifact", [
    ("select", {"budget": 3}, SELECTION),
    ("train", {"epochs": 3}, "retriever.ckpt"),  # an .npz through save_arrays
])
def test_interrupted_stage_keeps_its_old_artifact(run_config, stage, change, artifact):
    run_all(run_config())
    cfg = run_config(**change)
    before = files(cfg.run_dir)
    with torn_writes() as torn, pytest.raises(OSError, match="No space left"):
        STAGES[stage](cfg)
    assert [p.name for p in torn] == [artifact + ".tmp"]
    # the manifest is written after the artifacts, so it was never reached
    assert files(cfg.run_dir) == before


def test_interrupted_manifest_write_keeps_the_old_manifest(run_config):
    cfg = run_config()
    run_all(cfg)
    before = files(cfg.run_dir)
    # eval rewrites no report, but its manifest entry gets a new time
    with torn_writes() as torn, pytest.raises(OSError, match="No space left"):
        STAGES["eval"](cfg)
    assert torn == [cfg.run_dir / (MANIFEST + ".tmp")]
    assert files(cfg.run_dir) == before


@pytest.mark.parametrize("old, new", [
    (b"same length 1", b"same length 2"),
    (b"short", b"a longer replacement"),
    (b"a longer original", b"short"),
    (b"", b"filled"),
    (b"emptied", b""),
])
def test_changed_artifact_gets_its_new_bytes(tmp_path, old, new):
    path = tmp_path / "report.txt"
    write_artifact(path, old)
    write_artifact(path, new)
    assert files(tmp_path) == {path: new}


def test_unchanged_artifact_is_not_touched(tmp_path):
    path = tmp_path / "deep" / "er" / "pairwise_distances.npz"
    write_artifact(path, b"PK\x03\x04 bytes")
    stat = path.stat()
    write_artifact(path, b"PK\x03\x04 bytes")
    again = path.stat()
    assert (again.st_ino, again.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


def test_stale_tmp_from_a_killed_process_is_replaced(tmp_path):
    path = tmp_path / "outputs.json"
    (tmp_path / "outputs.json.tmp").write_bytes(b"half of an old wri")
    write_artifact(path, b"{}\n")
    assert files(tmp_path) == {path: b"{}\n"}


def test_symlinked_artifact_becomes_a_regular_file(tmp_path):
    target = tmp_path / "elsewhere.json"
    target.write_bytes(b"old")
    path = tmp_path / "eval_report.json"
    path.symlink_to(target)
    write_artifact(path, b"new")
    assert not path.is_symlink() and path.read_bytes() == b"new"
    assert target.read_bytes() == b"old"


def test_warm_rerun_rewrites_only_the_manifest(run_config):
    cfg = run_config()
    run_all(cfg)

    def stats():
        return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in sorted(cfg.run_dir.rglob("*")) if p.is_file()}

    before, manifest = stats(), (cfg.run_dir / MANIFEST).read_bytes()
    run_all(cfg)
    after = stats()
    assert before.keys() == after.keys() and len(before) == 14  # 12 artifacts, cache log
    changed = [p.name for p in before if before[p] != after[p]]
    assert changed == [MANIFEST]
    assert (cfg.run_dir / MANIFEST).read_bytes() != manifest


def test_warm_rerun_reads_each_artifact_once(run_config):
    """The writer hands the manifest the sha256 of the bytes it compared, so
    the manifest update reads no artifact back."""
    cfg = run_config()
    run_all(cfg)
    readers = collections.Counter()
    real_read_bytes = Path.read_bytes

    def read_bytes(self):
        # the innermost of the two functions on the stack; a comprehension
        # inside either runs in a frame of its own before Python 3.12
        frame = sys._getframe(1)
        while frame and frame.f_code.co_name not in ("write_artifact", "_update_manifest"):
            frame = frame.f_back
        readers[frame.f_code.co_name if frame else None] += 1
        return real_read_bytes(self)

    with mock.patch.object(Path, "read_bytes", read_bytes):
        run_all(cfg)
    assert readers["_update_manifest"] == 0
    assert readers["write_artifact"] == 12  # the 12 unchanged artifacts


def test_eval_refuses_a_test_split_without_gold(run_config, tmp_path):
    # run makes predictions for an unlabeled split; eval has nothing to
    # score them against and must say so, naming the file, and write nothing
    test_path = tmp_path / "unlabeled.jsonl"
    records = [json.loads(line) for line in (DATA_DIR / "test.jsonl").read_text().splitlines()]
    for record in records:
        record.pop("triples", None)
    test_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    cfg = run_config(test_path=test_path)
    for stage in ALL_STAGES[:ALL_STAGES.index("eval")]:
        STAGES[stage](cfg)
    before = files(cfg.run_dir)
    with pytest.raises(ValueError) as refused:
        STAGES["eval"](cfg)
    assert str(refused.value).startswith(f"{test_path}: eval needs gold triples")
    assert "['t01', 't02', 't03', 't04', 't05']" in str(refused.value)
    assert files(cfg.run_dir) == before


@pytest.mark.parametrize("damage", [b'{"config": {"a"', b"[]", b'{"stages": []}'],
                         ids=["truncated", "array", "array-stages"])
def test_damaged_manifest_is_written_afresh(run_config, damage):
    cfg = run_config()
    STAGES["preextract"](cfg)
    (cfg.run_dir / MANIFEST).write_bytes(damage)

    def stages():
        return set(json.loads((cfg.run_dir / MANIFEST).read_text())["stages"])

    STAGES["preextract"](cfg)
    assert stages() == {"preextract"}
    STAGES["distances"](cfg)
    assert stages() == {"preextract", "distances"}


# another JSON file the run directory holds when each artifact's reader runs
OTHER_JSON = {PREEXTRACT: MANIFEST, SELECTION: PREEXTRACT, PREDICTIONS: OUTPUTS,
              OUTPUTS: PREDICTIONS}
DAMAGES = {
    "truncated": lambda path: path.read_bytes()[:40],
    "array": lambda path: b"[]",
    "object": lambda path: b"{}",
    "other-artifact": lambda path: (path.parent / OTHER_JSON[path.name]).read_bytes(),
}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("stage, artifact", [
    ("distances", PREEXTRACT), ("run", SELECTION), ("eval", PREDICTIONS), ("cost", OUTPUTS)])
def test_damaged_upstream_json_names_the_file_and_its_producer(run_config, stage, artifact,
                                                               damage):
    cfg = run_config()
    for name in ALL_STAGES[:ALL_STAGES.index(stage)]:
        STAGES[name](cfg)
    path = cfg.run_dir / artifact
    path.write_bytes(DAMAGES[damage](path))
    before = files(cfg.run_dir)
    with pytest.raises(RuntimeError) as refused:
        STAGES[stage](cfg)
    assert str(refused.value).startswith(f"damaged artifact {path} (")
    assert str(refused.value).endswith(f"re-run `tripleforge {PRODUCERS[artifact]}`")
    assert files(cfg.run_dir) == before
