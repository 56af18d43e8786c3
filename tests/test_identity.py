"""The byte-identity command, ``tools/identity.py``."""

import importlib.util
from pathlib import Path

import bcnn.cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def test_identity_covers_every_command_and_repeats_its_lines():
    spec = importlib.util.spec_from_file_location("identity", _PATH)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    first, second = identity.run(), identity.run()
    assert first == second
    assert first[0].startswith("env python=")
    runs = [line.split() for line in first[1:] if not line.startswith(" ")]
    assert {words[0] for words in runs} == set(bcnn.cli._COMMANDS)
    assert all(words[1] == "exit=0" for words in runs)
    # Each command except gradcheck and predict leaves at least one file.
    written = [line.split()[0] for line in first if line.startswith("  ")]
    for name in ("corpus/manifest.csv", "augmented/manifest.csv", "adam.bcnn", "adam.csv",
                 "sgd.bcnn", "sgd.csv", "report.csv"):
        assert name in written
