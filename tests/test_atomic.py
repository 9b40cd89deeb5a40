import errno
import os

import numpy as np
import pytest

from demesh import atomic
from demesh.checkpoint import save_checkpoint
from demesh.cli import main
from demesh.facegen import make_dataset
from demesh.layers import Param
from demesh.trainer import TrainLog
from demesh.verifier import EvalReport, write_report_tsv, write_roc_tsv

OLD = b"the previous contents\n"
REPORT = EvalReport("m", 30.0, 0.5, {1e-2: 1.0, 1e-3: 0.5, 1e-4: 0.25},
                    np.array([[0.0, 0.5, 0.9], [1.0, 1.0, 0.1]]))


def _roc_plot(path):
    # the CLI reports the error on one line and exits nonzero
    if main(["roc-plot", "--report", str(path.parent), "--out", str(path)]):
        raise OSError("roc-plot failed")


# each writer and the file it replaces
WRITERS = {
    "checkpoint": ("a.ckpt", lambda p: save_checkpoint(
        p, "kind = x", [Param("w", np.arange(3.0))])),
    "train log": ("log.tsv", lambda p: TrainLog(
        [(0, 1.0, 1.0, 0.0, 1e-4)], [(0, 30.0, 0.5)]).write(p)),
    "report": ("report.tsv", lambda p: write_report_tsv([REPORT], p)),
    "roc table": ("roc_m.tsv", lambda p: write_roc_tsv(REPORT, p.parent)),
    "manifest": ("manifest.tsv", lambda p: make_dataset(p.parent, 2, 1, 0)),
    "roc plot": ("merged.tsv", _roc_plot),
}


def _fail_after_the_temp_file_is_written(monkeypatch, written):
    def fsync(fd):
        written.append(os.fstat(fd).st_size)
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(atomic.os, "fsync", fsync)


def _fail_at_the_rename(monkeypatch, written):
    def replace(src, dst):
        written.append(os.path.getsize(src))
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(atomic.os, "replace", replace)


@pytest.mark.parametrize("fail", [_fail_after_the_temp_file_is_written,
                                  _fail_at_the_rename],
                         ids=["fsync fails", "rename fails"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file_and_no_temp_file(
        tmp_path, monkeypatch, writer, fail):
    name, write = WRITERS[writer]
    target = tmp_path / "out" / name
    target.parent.mkdir()
    if writer == "roc plot":
        write_roc_tsv(REPORT, target.parent)  # its input
    target.write_bytes(OLD)
    before = sorted(target.parent.iterdir())
    written: list[int] = []
    fail(monkeypatch, written)
    with pytest.raises(OSError):
        write(target)
    assert written and written[-1] > 0  # it failed part-way, after writing
    assert target.read_bytes() == OLD
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".")]
    if writer != "manifest":
        assert sorted(target.parent.iterdir()) == before


def test_write_file_replaces_the_file_with_exact_bytes(tmp_path):
    target = tmp_path / "f.tsv"
    target.write_bytes(OLD)
    atomic.write_file(target, "a\tb\n")
    atomic.write_file(tmp_path / "g.bin", b"\x00\xff")
    assert target.read_bytes() == b"a\tb\n"
    assert (tmp_path / "g.bin").read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tsv", "g.bin"]
