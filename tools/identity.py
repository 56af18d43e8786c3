"""Byte identity of the CLI: one SHA-256 per stdout and per written file.

Runs a fixed sequence of ``bcnn`` commands through ``bcnn.cli.main`` in
a temporary directory, with relative paths: ``synth``, ``augment``,
``train`` with adam and with sgd (each writing a checkpoint and a log),
``eval --report``, ``predict`` and ``gradcheck``.  For each command it
prints the exit code and the SHA-256 of its stdout, then one line per
file the command created or changed, and it starts with an ``env`` line.
Two lines end the report: the exact ``full_model_gradcheck(3)`` errors,
as ``repr``, and the bytes and MiB that the forward trace of 32
default-size images holds.

``bcnn`` is imported from ``PYTHONPATH``, so comparing two checkouts is
two runs and a diff, on one machine (training bits depend on the CPU's
sgemm kernel)::

    PYTHONPATH=src python tools/identity.py > change.txt
    PYTHONPATH=<parent>/src python tools/identity.py > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import bcnn.cli
from bcnn.model import ModelConfig, build_model, forward, full_model_gradcheck
from bcnn.tensor import Tensor

_TRAIN = ["train", "--data", "augmented", "--epochs", "2", "--size", "32", "--seed", "4"]

# adam's batches of 8, 8 and 2 run as two halves; sgd's batches of 1 as one.
COMMANDS = [
    ["synth", "--out", "corpus", "--per-class", "4", "--size", "48", "--seed", "3"],
    ["augment", "--in", "corpus", "--out", "augmented", "--variants", "1", "--seed", "5"],
    _TRAIN + ["--batch", "8", "--optimizer", "adam", "--checkpoint", "adam.bcnn",
              "--log", "adam.csv"],
    _TRAIN + ["--batch", "1", "--optimizer", "sgd", "--lr", "0.01", "--checkpoint", "sgd.bcnn",
              "--log", "sgd.csv"],
    ["eval", "--data", "corpus", "--checkpoint", "adam.bcnn", "--report", "report.csv"],
    ["predict", "--image", "corpus/linear/linear_0002.pgm", "--checkpoint", "adam.bcnn"],
    ["gradcheck", "--seed", "2"],
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _tree(root):
    """Every file under ``root``, by relative path, mapped to its SHA-256."""
    return {path.relative_to(root).as_posix(): _sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def held_bytes(obj):
    """Bytes of the distinct arrays reachable from ``obj`` through dicts,
    lists, tuples and object attributes; a view counts once, through the
    array that owns its memory."""
    owners = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, (list, tuple)):
            for v in value:
                walk(v)
        elif hasattr(value, "__dict__"):
            for v in vars(value).values():
                walk(v)

    walk(obj)
    return sum(owners.values())


def _trace_bytes():
    """What the forward trace of 32 default 64x64 images holds, by :func:`held_bytes`."""
    config = ModelConfig()
    x = np.random.default_rng(4).random((32, 1, config.input_size, config.input_size),
                                        dtype=np.float32)
    return held_bytes(forward(build_model(config), Tensor(x))[1])


def run():
    """The report's lines, from one pass of ``COMMANDS`` in a fresh directory,
    then the gradient-check line and the trace line."""
    lines = [f"env python={platform.python_version()} numpy={np.__version__} "
             f"machine={platform.machine()}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            before = {}
            for argv in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = bcnn.cli.main(argv)
                lines.append(f"{argv[0]} exit={code} "
                             f"stdout={_sha256(out.getvalue().encode('utf-8'))}")
                after = _tree(root)
                lines += [f"  {name} {digest}" for name, digest in after.items()
                          if before.get(name) != digest]
                before = after
        finally:
            os.chdir(cwd)
    lines.append(f"full_model_gradcheck(3) {full_model_gradcheck(3)!r}")
    held = _trace_bytes()
    lines.append(f"trace images=32 bytes={held} mib={held / 2 ** 20:.4f}")
    return lines


if __name__ == "__main__":
    print(f"bcnn from {Path(bcnn.cli.__file__).parent}", file=sys.stderr)
    print("\n".join(run()))
