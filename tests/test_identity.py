"""The byte-identity command, ``tools/identity.py``."""

import ast
import importlib.util
from pathlib import Path

import bcnn.cli
from bcnn.model import ModelConfig, full_model_gradcheck

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def test_identity_covers_every_command_and_repeats_its_lines():
    spec = importlib.util.spec_from_file_location("identity", _PATH)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    first, second = identity.run(), identity.run()
    assert first == second
    assert first[0].startswith("env python=")
    runs = [line.split() for line in first[1:-2] if not line.startswith(" ")]
    assert {words[0] for words in runs} == set(bcnn.cli._COMMANDS)
    assert all(words[1] == "exit=0" for words in runs)
    # Each command except gradcheck and predict leaves at least one file.
    written = [line.split()[0] for line in first if line.startswith("  ")]
    for name in ("corpus/manifest.csv", "augmented/manifest.csv", "adam.bcnn", "adam.csv",
                 "sgd.bcnn", "sgd.csv", "report.csv"):
        assert name in written

    # The last two lines: the exact gradient-check errors and the trace size.
    label, errors = first[-2].split(" ", 1)
    assert label == "full_model_gradcheck(3)"
    assert ast.literal_eval(errors) == full_model_gradcheck(3)
    words = dict(word.split("=") for word in first[-1].split()[1:])
    assert first[-1].split()[0] == "trace" and words["images"] == "32"
    held = int(words["bytes"])
    assert words["mib"] == f"{held / 2 ** 20:.4f}"
    # At least the input batch, and at most the 20 MiB that tests/test_model.py allows.
    assert 32 * ModelConfig().input_size ** 2 * 4 < held <= 20 * 2 ** 20
