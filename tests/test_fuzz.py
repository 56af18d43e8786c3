"""Fuzzing of the two file parsers, the public configs and the CLI.

Whatever the bytes, only a :class:`BcnnError` may escape
``load_checkpoint`` and ``read_image``; whatever the keyword values, only
a ``BcnnError`` may escape ``ModelConfig``, ``TrainConfig``,
``AugmentSpec``, ``synth_generate``, ``to_batches`` and
``stratified_split``; whatever the argv, ``cli.main`` returns an exit code
from 0 to 3 and raises nothing.

The examples are derandomized so the suite stays reproducible; each test
runs at most 300 of them in a few seconds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnn.cli import main
from bcnn.data import (CLASS_NAMES, MAX_INPUT_SIZE, AugmentSpec, DatasetManifest, LabeledImage,
                       stratified_split, synth_generate, to_batches)
from bcnn.errors import BcnnError
from bcnn.model import ModelConfig, build_model
from bcnn.netpbm import read_image, write_pgm
from bcnn.train import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def mutated(draw, good):
    """``good`` after one to four byte flips, truncations or insertions."""
    buf = bytearray(good)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "truncate", "insert")))
        pos = draw(st.integers(0, len(buf)))
        if kind == "flip" and pos < len(buf):
            buf[pos] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del buf[pos:]
        else:
            buf[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(buf)


def parses_or_raises_bcnn_error(parse, path, data):
    path.write_bytes(data)
    try:
        parse(path)
    except BcnnError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def good_checkpoint(fuzz_dir):
    config = ModelConfig(input_size=8, stages=2, channels=(2, 3), classes=3, seed=0)
    path = fuzz_dir / "good.bcnn"
    save_checkpoint(path, Checkpoint(1, config, build_model(config)))
    return path.read_bytes()


def test_load_checkpoint_fuzz_raises_only_bcnn_errors(fuzz_dir, good_checkpoint):
    @FUZZ
    @given(st.data())
    def check(data):
        blob = data.draw(mutated(good_checkpoint))
        parses_or_raises_bcnn_error(load_checkpoint, fuzz_dir / "fuzz.bcnn", blob)

    check()


# Header pieces: valid and invalid magics and numbers, and every kind of
# separator the grammar knows (whitespace, comments) plus a few it does not.
_MAGIC = st.sampled_from((b"P5", b"P6", b"P2", b"P4", b"P7", b"", b"p5")) | st.binary(max_size=3)
_NUMBER = (st.integers(-3, 2 ** 40).map(lambda v: str(v).encode())
           | st.sampled_from((b"255", b"0255", b"+4", b"1_0", b"0x10", b"1e3", b"", b"\xff")))
_SEPARATOR = st.sampled_from((b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"#", b"", b"\x00"))


@st.composite
def netpbm_header(draw):
    fields = [draw(_MAGIC)] + [draw(_NUMBER) for _ in range(3)]
    head = b"".join(field + draw(_SEPARATOR) for field in fields)
    return head + draw(st.binary(max_size=64))


def test_read_image_fuzz_headers_raise_only_bcnn_errors(fuzz_dir):
    @FUZZ
    @given(netpbm_header())
    def check(blob):
        parses_or_raises_bcnn_error(read_image, fuzz_dir / "header.pgm", blob)

    check()


def test_read_image_fuzz_mutations_raise_only_bcnn_errors(fuzz_dir):
    rng = np.random.default_rng(0)
    write_pgm(fuzz_dir / "good.pgm", rng.integers(0, 256, (5, 7), dtype=np.uint8))
    rgb = rng.integers(0, 256, (4, 3, 3), dtype=np.uint8)
    goods = [(fuzz_dir / "good.pgm").read_bytes(), b"P6\n3 4\n255\n" + rgb.tobytes()]

    @FUZZ
    @given(st.data())
    def check(data):
        blob = data.draw(mutated(data.draw(st.sampled_from(goods))))
        parses_or_raises_bcnn_error(read_image, fuzz_dir / "mutant.pgm", blob)

    check()


# Config keyword values: every kind of Python and numpy scalar, huge and
# non-finite numbers, strings, and (nested) sequences of them, mixed with
# values near each field's valid range so the later checks are reached.
_SCALAR = (st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=4)
           | st.sampled_from((np.int64(3), np.uint8(200), np.float32(0.5), np.float64("nan"),
                              10 ** 400, -10 ** 400, b"1", 1j, "adam", "sgd")))
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.floats(), max_size=4).map(np.array)),
    max_leaves=8)
_PLAUSIBLE = {
    "input_size": (8, 60, 64), "stages": (2, 3), "channels": ((2, 3), (16, 32, 64), (0, 4)),
    "classes": (1, 2, 3), "seed": (0, 7, -1, 2 ** 32),
    "epochs": (0, 1, 15), "batch_size": (0, 1, 32), "lr": (1e-3, 0.0, -1.0, 10.0),
    "val_ratio": (0.25, 0.0, 1.0), "optimizer": ("adam", "sgd", "Adam"),
    "augment": (None, AugmentSpec()), "augment_before_split": (False, True),
    "rotations": ((90.0,), (), (np.inf,)), "scales": ((0.8, 1.2), (0.1,)),
    "brightness": ((1.0,), (5.0,)), "variants": (0, 1, 3),
}


@pytest.mark.parametrize("config_class", [ModelConfig, TrainConfig, AugmentSpec])
def test_config_fuzz_raises_only_bcnn_errors(config_class):
    keywords = st.fixed_dictionaries({}, optional={
        field.name: _VALUE | st.sampled_from(_PLAUSIBLE[field.name])
        for field in dataclasses.fields(config_class)})

    @FUZZ
    @given(keywords)
    def check(kwargs):
        try:
            config_class(**kwargs)
        except BcnnError:
            pass

    check()


def at_most(limit):
    """Keeps any value but a real number above ``limit``: a bound on the
    image size one example may ask for, whether or not the code under test
    accepts that number."""
    return lambda value: not (isinstance(value, (int, float, np.integer, np.floating))
                              and value > limit)


# Images of six heights; batching resizes them all to one size.
_MANIFEST = DatasetManifest(["a", "b"], [
    LabeledImage(np.random.default_rng(i).integers(0, 256, (8 + i, 8), dtype=np.uint8), i % 2)
    for i in range(6)])


_SEEDS = _VALUE | st.sampled_from(_PLAUSIBLE["seed"])
_DATA_CALLS = {
    "synth_generate": (synth_generate, {
        "class_name": _VALUE | st.sampled_from(CLASS_NAMES + ("rutting", "Linear")),
        # sizes above the bound are rejected before anything is drawn
        "size": (_VALUE | st.sampled_from((32, 40, 96, 31, 0, -1, MAX_INPUT_SIZE + 1)))
        .filter(lambda v: at_most(96)(v) or v > MAX_INPUT_SIZE),
        "seed": _SEEDS}),
    "to_batches": (lambda **kw: to_batches(_MANIFEST, **kw), {
        "batch_size": _VALUE | st.sampled_from(_PLAUSIBLE["batch_size"]),
        "shuffle_seed": _VALUE | st.sampled_from((None, 0, 7, -1, (3, 1), (3, -1))),
        "size": (_VALUE | st.sampled_from((None, 8, 16, 64, 0, -1))).filter(at_most(64))}),
    "stratified_split": (lambda **kw: stratified_split(_MANIFEST, **kw), {
        "train_ratio": _VALUE | st.sampled_from((0.5, 0.25, np.float32(0.75), 0.0, 1.0)),
        "seed": _SEEDS}),
}


@pytest.mark.parametrize("name", sorted(_DATA_CALLS))
def test_data_call_fuzz_raises_only_bcnn_errors(name):
    call, keywords = _DATA_CALLS[name]

    @FUZZ
    @given(st.fixed_dictionaries(keywords))
    def check(kwargs):
        try:
            call(**kwargs)
        except BcnnError:
            pass

    check()


@pytest.fixture(scope="module")
def cli_files(fuzz_dir, good_checkpoint):
    """Paths the argv fuzz draws from: a small corpus, good and broken
    checkpoints and images, missing paths, and a file where a directory
    belongs."""
    assert main(["synth", "--out", str(fuzz_dir / "corpus"), "--per-class", "2",
                 "--size", "32"]) == 0
    (fuzz_dir / "ckpt.bcnn").write_bytes(good_checkpoint)
    (fuzz_dir / "broken.bcnn").write_bytes(good_checkpoint[:40])
    (fuzz_dir / "junk.txt").write_bytes(b"not an image")
    write_pgm(fuzz_dir / "image.pgm", np.full((9, 6), 128, dtype=np.uint8))
    paths = {name: str(fuzz_dir / name) for name in (
        "corpus", "ckpt.bcnn", "broken.bcnn", "junk.txt", "image.pgm", "missing", "out",
        "report.csv", "trained.bcnn", "log.csv")}
    paths["file/out"] = str(fuzz_dir / "junk.txt" / "out")
    return paths


# Option values, mostly ones argparse accepts, so that most examples reach
# the command itself.
_INT = st.sampled_from(("1", "2", "0", "3", "1", "2", "-1", "", "x", "1.5"))
_FLOATS = st.sampled_from(("1", "0.8,1.2", "1.5") * 4 + ("90,180", "nan", "inf", "-1", "1e400",
                                                         "", ",", "a,b", "0.1", "5"))


def _cli_flags(paths, command):
    """Each option of ``command`` with the strategy for its value."""
    def pick(valid, *others):
        return st.sampled_from([paths[valid]] * len(others) + [paths[n] for n in others])

    out = pick("out", "file/out", "junk.txt")
    corpus = pick("corpus", "missing", "junk.txt", "ckpt.bcnn")
    checkpoint = pick("ckpt.bcnn", "broken.bcnn", "junk.txt", "missing", "corpus")
    return {
        "synth": {"--out": out, "--per-class": _INT,
                  "--size": st.sampled_from(("32", "40", "31", "0", "-1", "x")), "--seed": _INT},
        "augment": {"--in": corpus, "--out": out, "--variants": _INT, "--seed": _INT,
                    "--rotations": _FLOATS, "--scales": _FLOATS, "--brightness": _FLOATS},
        "eval": {"--data": corpus, "--checkpoint": checkpoint,
                 "--report": pick("report.csv", "file/out", "corpus")},
        "predict": {"--image": pick("image.pgm", "junk.txt", "missing", "ckpt.bcnn", "corpus"),
                    "--checkpoint": checkpoint},
        "gradcheck": {"--seed": st.sampled_from(("0", "1", "2", "3", "-1", str(2 ** 32), "x")),
                      "--tol": st.sampled_from(("1e-4", "0.001", "1e-30", "inf", "0", "nan", "x"))},
        # Valid values only; _train_faults holds the bad ones.  32 is the
        # smallest size the default model takes, and no value asks for
        # more than 2 epochs or 2 augmentation variants.
        "train": {"--data": st.just(paths["corpus"]), "--epochs": st.sampled_from(("1", "2")),
                  "--batch": st.sampled_from(("4", "1", "3")),
                  "--lr": st.sampled_from(("0.01", "0.001")),
                  "--val-ratio": st.sampled_from(("0.25", "0.5", "0.34")),
                  "--seed": st.sampled_from(("0", "1", "7")),
                  "--optimizer": st.sampled_from(("adam", "sgd")), "--size": st.just("32"),
                  "--checkpoint": st.just(paths["trained.bcnn"]),
                  "--log": st.just(paths["log.csv"]),
                  "--augment-variants": st.sampled_from(("0", "1", "2")),
                  "--augment-before-split": None},
    }[command]


def _train_faults(paths):
    """A bad value for each ``train`` option that takes one; None for a
    switch whose use is the fault (it clashes with ``--val-ratio``)."""
    return {
        "--data": st.sampled_from([paths[n] for n in ("missing", "junk.txt", "ckpt.bcnn")]),
        "--epochs": st.sampled_from(("0", "-1", "x")),
        "--batch": st.sampled_from(("0", "-1", "1.5", "x")),
        # 1e28 makes training diverge: a TrainingError, exit 2
        "--lr": st.sampled_from(("0", "-1", "nan", "inf", "1e400", "1e28", "x")),
        # 0.95 leaves the train side empty
        "--val-ratio": st.sampled_from(("0", "1", "-0.5", "0.95", "nan", "x")),
        "--seed": st.sampled_from(("-1", str(2 ** 32), "x")),
        "--optimizer": st.sampled_from(("Adam", "")),
        "--size": st.sampled_from(("31", "0", "-1", str(MAX_INPUT_SIZE + 1), "x")),
        "--checkpoint": st.sampled_from([paths[n] for n in ("file/out", "corpus")]),
        "--log": st.sampled_from([paths[n] for n in ("file/out", "corpus")]),
        "--augment-variants": st.sampled_from(("-1", "x")),
        "--split-ratio-alt": None,
    }


@st.composite
def argv_for(draw, command, flags):
    """``command`` with most of its options, in any order; now and then an
    option is left out, a value is missing, or a stray token follows."""
    def now_and_then(one_in):
        return draw(st.sampled_from((False,) * (one_in - 1) + (True,)))

    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if not now_and_then(10):
            argv.append(flag)
            if not now_and_then(20):
                argv.append(draw(flags[flag]))
    if now_and_then(5):
        argv.append(draw(st.sampled_from(("--bogus", "x", "--", "-1", "--seed", "--out"))))
    return argv


@st.composite
def argv_with_one_fault(draw, command, valid, faults):
    """``command`` with every option of ``valid`` at a valid value, in any
    order, and each switch (None) given or not; then at most one fault:
    an option takes its bad value from ``faults`` (a None there is a
    switch that is given), or is left out, or a stray token follows.  So
    many examples run the command through, however many options it has."""
    fault = draw(st.sampled_from([None, "stray"] + [("omit", f) for f in sorted(valid)]
                                 + [("bad", f) for f in sorted(faults)]))
    argv = [command]
    for flag in draw(st.permutations(sorted(set(valid) | set(faults)))):
        if fault == ("bad", flag):
            argv += [flag] if faults[flag] is None else [flag, draw(faults[flag])]
        elif flag not in valid or fault == ("omit", flag):
            continue
        elif valid[flag] is None:
            argv += [flag] if draw(st.booleans()) else []
        else:
            argv += [flag, draw(valid[flag])]
    if fault == "stray":
        argv.append(draw(st.sampled_from(("--bogus", "x", "--", "-1", "--seed"))))
    return argv


# A train or gradcheck example runs the model, so these run fewer examples.
_EXAMPLES = {"synth": 100, "augment": 100, "eval": 100, "predict": 100, "gradcheck": 20,
             "train": 20}


@pytest.mark.parametrize("command", list(_EXAMPLES))
def test_cli_fuzz_exits_with_a_documented_code(cli_files, command):
    flags = _cli_flags(cli_files, command)
    argvs = (argv_with_one_fault(command, flags, _train_faults(cli_files)) if command == "train"
             else argv_for(command, flags))

    @settings(FUZZ, max_examples=_EXAMPLES[command])
    @given(argvs)
    def check(argv):
        assert main(argv) in (0, 1, 2, 3), argv

    check()
