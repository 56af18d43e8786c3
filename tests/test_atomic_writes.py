"""Every whole-file writer leaves the previous file intact when it fails."""

import os

import numpy as np
import pytest

from bcnn.data import LabeledImage, DatasetManifest, write_manifest_csv
from bcnn.metrics import ConfusionMatrix, report_from_matrix, write_report_csv
from bcnn.model import ModelConfig, build_model
from bcnn.train import Checkpoint, EpochRecord, save_checkpoint, write_log

MODEL = ModelConfig(input_size=32, stages=2, channels=(4, 6), classes=3, seed=0)


def _report():
    cm = ConfusionMatrix(["a", "b"])
    cm.accumulate([0, 1, 1], [0, 1, 0])
    return report_from_matrix(cm)


_PIXELS = np.zeros((8, 8), dtype=np.uint8)
WRITERS = {
    "checkpoint": lambda p: save_checkpoint(p, Checkpoint(1, MODEL, build_model(MODEL))),
    "log": lambda p: write_log(p, [EpochRecord(1, 0.5, 0.5, 0.25, 0.75)]),
    "report": lambda p: write_report_csv(_report(), p),
    "manifest": lambda p: write_manifest_csv(
        DatasetManifest(["a", "b"], [LabeledImage(_PIXELS, 0, "a/0.pgm"),
                                     LabeledImage(_PIXELS, 1, "b/0.pgm")]), p),
}
PREVIOUS = b"previous bytes\n"


class _HalfWriter:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def _fail_replace(src, dst):
    raise OSError("no space left on device")


@pytest.mark.parametrize("failure", ["write", "replace"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_bytes_and_leaves_no_temp_file(
        tmp_path, monkeypatch, writer, failure):
    path = tmp_path / "out"
    path.write_bytes(PREVIOUS)
    if failure == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: _HalfWriter(fdopen(fd, mode)))
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](path)
    assert path.read_bytes() == PREVIOUS
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_the_file_and_leaves_no_temp_file(tmp_path, writer):
    path = tmp_path / "out"
    fresh = tmp_path / "fresh"
    path.write_bytes(PREVIOUS)
    WRITERS[writer](path)
    WRITERS[writer](fresh)
    assert path.read_bytes() == fresh.read_bytes() != PREVIOUS
    assert sorted(tmp_path.iterdir()) == [fresh, path]
    # the mode a plain open would give
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
