"""Training loop, evaluation self-consistency, checkpoint wire format, logs."""

import math
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import bcnn
import bcnn.model
import bcnn.train
from bcnn.data import (AugmentSpec, DatasetManifest, stratified_split, synth_generate,
                       to_batches)
from bcnn.errors import (
    ConfigError,
    ConsistencyError,
    CorpusError,
    FormatError,
    IntegrityError,
    NumericError,
    TrainingError,
    VersionError,
)
from bcnn.model import ModelConfig, backward, build_model, forward, softmax_xent
from bcnn.optim import adam_init
from bcnn.tensor import Tensor
from bcnn.train import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_log,
)

CLASSES = ("fatigue", "linear", "potholes")
MODEL = ModelConfig(input_size=32, stages=2, channels=(4, 6), classes=3, seed=0)


def small_corpus(per_class=8, seed_base=0):
    items = [synth_generate(name, 32, seed_base + i)
             for name in CLASSES for i in range(per_class)]
    return DatasetManifest(list(CLASSES), items, provenance="synthetic")


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


@pytest.fixture(scope="module")
def trained(corpus):
    config = TrainConfig(epochs=2, batch_size=8, val_ratio=0.25, seed=1)
    params, records = train(corpus, MODEL, config)
    return config, params, records


# ---------------------------------------------------------------------------
# TrainConfig


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=True)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=True)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=math.inf)
    with pytest.raises(ConfigError):
        TrainConfig(val_ratio=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(val_ratio=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_train_config_rejects_a_non_integer_seed(seed):
    with pytest.raises(ConfigError):
        TrainConfig(seed=seed)


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(channels=5),
    lambda: ModelConfig(channels=None),
    lambda: TrainConfig(lr="0.1"),
    lambda: TrainConfig(lr=None),
    lambda: TrainConfig(val_ratio=None),
    lambda: TrainConfig(optimizer=np.array(["adam", "sgd"])),
    lambda: TrainConfig(augment=5),
    lambda: AugmentSpec(rotations=5),
    lambda: AugmentSpec(rotations="90"),
    lambda: AugmentSpec(rotations=[10 ** 400]),
    lambda: AugmentSpec(scales=["a"]),
    lambda: AugmentSpec(brightness=None),
], ids=["channels-int", "channels-none", "lr-str", "lr-none", "val-ratio-none",
        "optimizer-array", "augment-int", "rotations-int", "rotations-str",
        "rotations-overflow", "scales-str-items", "brightness-none"])
def test_wrongly_typed_config_fields_raise_config_error(make):
    # Library callers reach these checks without argparse's conversions.
    with pytest.raises(ConfigError):
        make()


# ---------------------------------------------------------------------------
# train


def test_train_returns_one_record_per_epoch(trained):
    _, _, records = trained
    assert len(records) == 2
    assert [r.epoch for r in records] == [1, 2]
    for r in records:
        assert r.train_loss >= 0.0 and np.isfinite(r.train_loss)
        assert r.val_loss >= 0.0 and np.isfinite(r.val_loss)
        assert 0.0 <= r.train_acc <= 1.0
        assert 0.0 <= r.val_acc <= 1.0


def test_train_is_deterministic(corpus):
    config = TrainConfig(epochs=1, batch_size=8, seed=4)
    params_a, records_a = train(corpus, MODEL, config)
    params_b, records_b = train(corpus, MODEL, config)
    assert records_a == records_b
    for name in params_a:
        assert np.array_equal(params_a[name].data, params_b[name].data)


def test_train_bits_match_a_full_first_layer_backward(corpus, trained, monkeypatch):
    # backward() skips fwd1's input gradient; a run whose every conv
    # backward computes it must give the same parameters and records.
    config, params, records = trained
    full_backward = bcnn.model.conv2d_backward
    monkeypatch.setattr(bcnn.model, "conv2d_backward",
                        lambda ctx, grad_out, input_grad=True: full_backward(ctx, grad_out))
    full_params, full_records = train(corpus, MODEL, config)
    assert full_records == records
    for name in params:
        assert np.array_equal(full_params[name].data, params[name].data)


_DIGEST_SCRIPT = """
import hashlib, sys
import bcnn.train
from bcnn.data import DatasetManifest, synth_generate
from bcnn.model import ModelConfig
from bcnn.train import TrainConfig, train
bcnn.train._WORKERS = int(sys.argv[1])
classes = ("fatigue", "linear", "potholes")
items = [synth_generate(c, 64, i) for c in classes for i in range(8)]
params, _ = train(DatasetManifest(list(classes), items, provenance="synthetic"),
                  ModelConfig(input_size=64, classes=3, seed=2),
                  TrainConfig(epochs=1, batch_size=16, seed=3))
digest = hashlib.sha256()
for name in sorted(params):
    digest.update(name.encode() + params[name].data.tobytes())
print(digest.hexdigest())
"""


def _train_digest(threads, workers):
    """The parameter digest of a fresh process's train() run."""
    src = str(Path(bcnn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, workers], env=env,
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_is_bitwise_deterministic_per_blas_thread_count(threads):
    # Separate processes, so nothing but the code and the BLAS thread
    # count is shared.  The default 64x64 model has GEMMs large enough
    # for a threaded BLAS to split.  Two runs at one thread count must
    # not differ, here with one and with two shard workers.
    digests = [_train_digest(threads, workers) for workers in ("1", "2")]
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_train_bits_match_across_workers_and_blas_threads():
    # train() holds BLAS at one thread, so neither the worker count nor
    # OPENBLAS_NUM_THREADS may change a bit.
    digests = {_train_digest(threads, workers)
               for threads in ("1", "2") for workers in ("1", "2")}
    assert len(digests) == 1
    assert len(digests.pop()) == 64


def test_train_rejects_class_count_mismatch(corpus):
    with pytest.raises(ConsistencyError):
        train(corpus, ModelConfig(input_size=32, stages=2, channels=(4, 6), classes=4),
              TrainConfig(epochs=1))


def test_train_rejects_empty_split_side():
    # 6 items at train_ratio 0.05 -> round(0.3) = 0 taken, train side empty
    manifest = small_corpus(per_class=2)
    with pytest.raises(CorpusError):
        train(manifest, MODEL, TrainConfig(epochs=1, val_ratio=0.95, seed=0))


def test_train_divergence_abort_names_epoch_and_batch(corpus):
    config = TrainConfig(epochs=1, batch_size=8, lr=1e28, optimizer="sgd", seed=0)
    # train() raises at the first overflow, so numpy warns of nothing.
    with pytest.raises(TrainingError) as err:
        train(corpus, MODEL, config)
    message = str(err.value)
    assert "epoch 1" in message and "batch" in message


def _unsharded_metrics(params, manifest, batch_size):
    """What train() reports, from whole-batch forwards."""
    total_loss, correct, seen = 0.0, 0, 0
    for x, y in to_batches(manifest, batch_size, shuffle_seed=None, size=32):
        logits, _ = forward(params, Tensor(x))
        loss, _ = softmax_xent(logits.data, y)
        total_loss += loss * len(y)
        correct += int((np.argmax(logits.data, axis=1) == y).sum())
        seen += len(y)
    return total_loss / seen, correct / seen


# 1: one shard per batch; 5: halves of 3 and 2 rows, and the 6 validation
# images end in a batch of 1; 4: even halves.
@pytest.mark.parametrize("batch_size", [1, 5, 4])
def test_sharding_leaves_metrics_and_confusion_matrix_unchanged(corpus, batch_size):
    config = TrainConfig(epochs=1, batch_size=batch_size, val_ratio=0.25, seed=1)
    params, records = train(corpus, MODEL, config)
    train_m, val_m = stratified_split(corpus, 1.0 - config.val_ratio, config.seed)
    assert len(val_m) == 6
    # Same BLAS thread count as inside train(), so only the sharding differs.
    with bcnn.train._shard_runner():
        val = _unsharded_metrics(params, val_m, batch_size)
        trn = _unsharded_metrics(params, train_m, batch_size)
        predicted = np.concatenate([np.argmax(forward(params, Tensor(x))[0].data, axis=1)
                                    for x, _ in
                                    to_batches(corpus, batch_size, shuffle_seed=None, size=32)])
    assert (records[-1].val_loss, records[-1].val_acc) == val
    assert (records[-1].train_loss, records[-1].train_acc) == trn

    cm, _ = evaluate(params, corpus, batch_size=batch_size, input_size=32)
    want = np.zeros_like(cm.matrix)
    np.add.at(want, ([item.label for item in corpus.items], predicted), 1)
    assert np.array_equal(cm.matrix, want)


@pytest.mark.parametrize("batch", [1, 5, 8])
def test_sharded_gradients_match_the_whole_batch_gradients(batch):
    params = build_model(MODEL)
    rng = np.random.default_rng(batch)
    x = rng.random((batch, 1, 32, 32), dtype=np.float32)
    y = rng.integers(0, 3, batch)
    logits, trace = forward(params, Tensor(x))
    whole = backward(params, trace, softmax_xent(logits.data, y)[1])
    with bcnn.train._shard_runner() as run:
        sharded = bcnn.train._sharded_gradients(run, params, x, y)
    assert list(sharded) == list(whole)
    for name, grad in whole.items():
        np.testing.assert_allclose(sharded[name], grad, rtol=1e-5, atol=1e-7)


def test_gradients_loss_gradient_moments_and_batches_are_ndarrays(corpus):
    params = build_model(MODEL)
    x, y = to_batches(corpus, 4, size=32)[0]
    logits, trace = forward(params, Tensor(x))
    _, d_logits = softmax_xent(logits.data, y)
    grads = backward(params, trace, d_logits)
    state = adam_init(params)
    arrays = [x, d_logits, *grads.values(), *state.m.values(), *state.v.values()]
    assert all(type(a) is np.ndarray for a in arrays)


def _blas_threads():
    """The OpenBLAS thread count, or None where it cannot be read."""
    setter = bcnn.train._openblas_setter()
    if setter is None:
        return None
    count = setter(1)
    setter(count)
    return count


def test_train_leaves_no_threads_and_restores_blas_threads(corpus):
    threads, blas = threading.active_count(), _blas_threads()
    train(corpus, MODEL, TrainConfig(epochs=1, batch_size=8, seed=1))
    assert threading.active_count() == threads
    assert _blas_threads() == blas

    # The shard threads see train()'s np.errstate: the overflow in a
    # shard raises, and no RuntimeWarning comes first.
    diverging = TrainConfig(epochs=1, batch_size=8, lr=1e28, optimizer="sgd", seed=0)
    with warnings.catch_warnings(), pytest.raises(TrainingError):
        warnings.simplefilter("error")
        train(corpus, MODEL, diverging)
    assert threading.active_count() == threads
    assert _blas_threads() == blas


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_reproduces_final_train_accuracy(corpus, trained):
    config, params, records = trained
    train_m, _ = stratified_split(corpus, 1.0 - config.val_ratio, config.seed)
    cm, report = evaluate(params, train_m, batch_size=config.batch_size,
                          input_size=MODEL.input_size)
    assert report.aggregates.accuracy == records[-1].train_acc
    assert cm.matrix.sum() == len(train_m)


def test_evaluate_is_deterministic(corpus, trained):
    _, params, _ = trained
    cm_a, report_a = evaluate(params, corpus, input_size=32)
    cm_b, report_b = evaluate(params, corpus, input_size=32)
    assert np.array_equal(cm_a.matrix, cm_b.matrix)
    assert report_a == report_b
    assert cm_a.matrix.sum() == len(corpus)


def test_evaluate_validation(trained):
    _, params, _ = trained
    with pytest.raises(CorpusError):
        evaluate(params, DatasetManifest(["a", "b"], []), input_size=32)
    two_class = DatasetManifest(["a", "b"], small_corpus(per_class=2).items[:4])
    with pytest.raises(ConsistencyError):
        evaluate(params, two_class, input_size=32)


# ---------------------------------------------------------------------------
# checkpoints


def expected_file_length(params, config):
    header = 4 + 4 + 4 + 4 + 4 * len(config.channels) + 4 + 4 + 4
    body = sum(4 + len(name) + 4 + 4 * len(p.shape) + 4 * p.data.size
               for name, p in params.items())
    return header + body


def test_checkpoint_roundtrip_bitwise(tmp_path, trained):
    _, params, _ = trained
    path = tmp_path / "model.bcnn"
    save_checkpoint(path, Checkpoint(1, MODEL, params))
    assert path.stat().st_size == expected_file_length(params, MODEL)

    loaded = load_checkpoint(path)
    assert loaded.config == MODEL
    assert loaded.version == 1
    assert set(loaded.params) == set(params)
    for name in params:
        assert np.array_equal(loaded.params[name].data, params[name].data)


def test_checkpoint_behavioral_roundtrip(tmp_path, trained):
    _, params, _ = trained
    path = tmp_path / "model.bcnn"
    save_checkpoint(path, Checkpoint(1, MODEL, params))
    loaded = load_checkpoint(path)
    x = Tensor(np.random.default_rng(0).random((2, 1, 32, 32), dtype=np.float32))
    before, _ = forward(params, x)
    after, _ = forward(loaded.params, x)
    assert np.array_equal(before.data, after.data)


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    params = build_model(MODEL)
    a, b = tmp_path / "a.bcnn", tmp_path / "b.bcnn"
    save_checkpoint(a, Checkpoint(1, MODEL, params))
    save_checkpoint(b, Checkpoint(1, MODEL, params))
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    params = build_model(MODEL)
    path = tmp_path / "model.bcnn"
    save_checkpoint(path, Checkpoint(1, MODEL, params))
    good = path.read_bytes()
    assert good[:4] == CHECKPOINT_MAGIC

    bad_magic = tmp_path / "magic.bcnn"
    bad_magic.write_bytes(b"XCNN" + good[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bcnn"
    bad_version.write_bytes(good[:4] + (2).to_bytes(4, "little") + good[8:])
    with pytest.raises(VersionError):
        load_checkpoint(bad_version)

    truncated = tmp_path / "short.bcnn"
    truncated.write_bytes(good[:len(good) // 2])
    with pytest.raises(IntegrityError):
        load_checkpoint(truncated)

    trailing = tmp_path / "long.bcnn"
    trailing.write_bytes(good + b"junk")
    with pytest.raises(IntegrityError):
        load_checkpoint(trailing)


def test_checkpoint_rejects_an_input_size_above_the_bound(tmp_path):
    # A few hundred bytes must not make predict allocate a 4 GiB input.
    config = ModelConfig(input_size=32, stages=2, channels=(1, 1), classes=2)
    path = tmp_path / "small.bcnn"
    save_checkpoint(path, Checkpoint(1, config, build_model(config)))
    good = path.read_bytes()
    path.write_bytes(good[:8] + struct.pack("<I", 32768) + good[12:])
    with pytest.raises(IntegrityError, match="exceeds"):
        load_checkpoint(path)


def test_checkpoint_rejects_every_implausible_stage_count(tmp_path):
    # A huge count fails the truncation check before anything is unpacked;
    # a small or large one fails ModelConfig.
    config = ModelConfig(input_size=32, stages=2, channels=(1, 1), classes=2)
    path = tmp_path / "small.bcnn"
    save_checkpoint(path, Checkpoint(1, config, build_model(config)))
    good = path.read_bytes()
    for stages in (0, 1, 3, 65, 2 ** 32 - 1):
        path.write_bytes(good[:12] + struct.pack("<I", stages) + good[16:])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.bcnn"
    save_checkpoint(path, Checkpoint(1, MODEL, build_model(MODEL)))
    return path.read_bytes()


def test_checkpoint_rejects_undecodable_tensor_name(tmp_path):
    good = _saved_checkpoint(tmp_path)
    name = good.index(b"fwd1_w")
    bad = tmp_path / "name.bcnn"
    bad.write_bytes(good[:name] + b"\xff" + good[name + 1:])
    with pytest.raises(IntegrityError, match="UTF-8"):
        load_checkpoint(bad)


def test_checkpoint_rejects_extents_past_the_payload(tmp_path):
    good = _saved_checkpoint(tmp_path)
    rank = good.index(b"fwd1_w") + len(b"fwd1_w")
    extents = slice(rank + 4, rank + 20)
    # 65536^4 elements wrap a 64-bit product to 0; the rest overrun the
    # file or hold no element
    for dims in ((65536,) * 4, (2 ** 32 - 1,) * 4, (65537, 1, 1, 1), (0, 1, 3, 3)):
        bad = tmp_path / "extents.bcnn"
        bad.write_bytes(good[:extents.start] + struct.pack("<4I", *dims) + good[extents.stop:])
        with pytest.raises(IntegrityError, match="extents"):
            load_checkpoint(bad)


def test_checkpoint_rejects_duplicate_tensor_names(tmp_path):
    good = _saved_checkpoint(tmp_path)
    # fwd1_b follows fwd1_w; same-length names keep every offset in place
    second = good.index(b"fwd1_b")
    bad = tmp_path / "dup.bcnn"
    bad.write_bytes(good[:second] + b"fwd1_w" + good[second + 6:])
    with pytest.raises(IntegrityError, match="twice"):
        load_checkpoint(bad)


def _encode(tensors, config=MODEL):
    """Checkpoint bytes in the documented layout for any ``(name, array)`` list."""
    out = bytearray(CHECKPOINT_MAGIC)
    out += struct.pack(f"<{3 + config.stages}I", 1, config.input_size, config.stages,
                       *config.channels)
    out += struct.pack("<3I", config.classes, config.seed, len(tensors))
    for name, arr in tensors:
        out += struct.pack("<I", len(name.encode())) + name.encode()
        out += struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.astype("<f4").tobytes()
    return bytes(out)


def _model_arrays():
    return {name: t.data for name, t in build_model(MODEL).items()}


def test_encode_matches_save_checkpoint(tmp_path):
    assert _encode(list(_model_arrays().items())) == _saved_checkpoint(tmp_path)


# Each case builds a bad file from the (name, array) pairs of a good one.
_BAD_FILES = {
    "unknown name": lambda p: _encode([(n.replace("head_b", "head_c"), a)
                                       for n, a in p.items()]),
    "extra rank": lambda p: _encode([(n, a[..., None] if n == "head_b" else a)
                                     for n, a in p.items()]),
    "transposed extents": lambda p: _encode([(n, a.T.copy() if n == "head_w" else a)
                                             for n, a in p.items()]),
    "missing tensor": lambda p: _encode([(n, a) for n, a in p.items() if n != "refine1_b"]),
    "extra tensor": lambda p: _encode(list(p.items()) + [("head_c", p["head_b"])]),
    "ends after the tensor count": lambda p: _encode([])[:-4] + struct.pack("<I", len(p)),
}


@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_checkpoint_tensors_must_match_the_config_one_by_one(tmp_path, case):
    path = tmp_path / "bad.bcnn"
    path.write_bytes(_BAD_FILES[case](_model_arrays()))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_a_non_finite_payload_naming_the_tensor(tmp_path, value):
    arrays = _model_arrays()
    arrays["refine1_w"] = arrays["refine1_w"].copy()
    arrays["refine1_w"].flat[5] = value
    path = tmp_path / "bad.bcnn"
    path.write_bytes(_encode(list(arrays.items())))
    with pytest.raises(IntegrityError, match="'refine1_w'.*not finite"):
        load_checkpoint(path)


def test_checkpoint_save_refuses_what_load_would_refuse(tmp_path):
    # A float64 value above float32's range is finite until it is written.
    for value in (math.nan, math.inf, 1e39):
        params = build_model(MODEL, dtype=np.float64)
        params["head_b"].data[1] = value
        path = tmp_path / "bad.bcnn"
        with pytest.raises(NumericError, match="'head_b'"):
            save_checkpoint(path, Checkpoint(1, MODEL, params))
        assert not path.exists()


def test_checkpoint_from_a_reordered_params_dict_loads_bit_for_bit(tmp_path):
    params = build_model(MODEL)
    reordered = dict(reversed(list(params.items())))
    path = tmp_path / "reordered.bcnn"
    save_checkpoint(path, Checkpoint(1, MODEL, reordered))
    loaded = load_checkpoint(path)
    assert list(loaded.params) == list(reordered)
    for name, tensor in params.items():
        assert loaded.params[name].data.tobytes() == tensor.data.tobytes()


def test_checkpoint_save_validation(tmp_path):
    params = build_model(MODEL)
    incomplete = dict(params)
    incomplete.pop("head_b")
    with pytest.raises(ConsistencyError):
        save_checkpoint(tmp_path / "x.bcnn", Checkpoint(1, MODEL, incomplete))


def test_checkpoint_save_writes_only_this_builds_version(tmp_path):
    params = build_model(MODEL)
    for version in (0, CHECKPOINT_VERSION + 1, "1", None):
        path = tmp_path / f"v{version}.bcnn"
        with pytest.raises(ConsistencyError, match="version"):
            save_checkpoint(path, Checkpoint(version, MODEL, params))
        assert not path.exists()


# ---------------------------------------------------------------------------
# logs


def test_write_log_layout(tmp_path, trained):
    _, _, records = trained
    path = tmp_path / "log.csv"
    write_log(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + len(records)
    for lineno, record in enumerate(records, start=1):
        fields = lines[lineno].split(",")
        assert fields[0] == str(record.epoch)
        assert fields[1] == f"{record.train_loss:.6f}"
        assert fields[4] == f"{record.val_acc:.6f}"
        assert all(np.isfinite(float(f)) for f in fields[1:])


def test_write_log_rejects_empty(tmp_path):
    with pytest.raises(ConfigError):
        write_log(tmp_path / "log.csv", [])


# ---------------------------------------------------------------------------
# split/batch interplay the loop depends on


def test_epoch_shuffles_differ_between_epochs(corpus):
    a = to_batches(corpus, 8, shuffle_seed=(3, 1), size=32)
    b = to_batches(corpus, 8, shuffle_seed=(3, 2), size=32)
    labels = lambda bs: [int(v) for _, y in bs for v in y]
    assert labels(a) != labels(b)
