"""Fuzzing of the two file parsers: whatever the bytes, only a
:class:`BcnnError` may escape ``load_checkpoint`` and ``read_image``.

The examples are derandomized so the suite stays reproducible; each test
runs 300 of them in about a second.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnn.errors import BcnnError
from bcnn.model import ModelConfig, build_model
from bcnn.netpbm import read_image, write_pgm, write_ppm
from bcnn.train import Checkpoint, load_checkpoint, save_checkpoint

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
    write_ppm(fuzz_dir / "good.ppm", rng.integers(0, 256, (4, 3, 3), dtype=np.uint8))
    goods = [(fuzz_dir / name).read_bytes() for name in ("good.pgm", "good.ppm")]

    @FUZZ
    @given(st.data())
    def check(data):
        blob = data.draw(mutated(data.draw(st.sampled_from(goods))))
        parses_or_raises_bcnn_error(read_image, fuzz_dir / "mutant.pgm", blob)

    check()
