"""Training loop, evaluation, checkpoint serialization, and the run log.

Training is deterministic end to end: the split, the model init, and
every epoch's batch shuffle derive from the configured seed, so two runs
with the same corpus and configuration produce bitwise-identical
checkpoints and logs.

Each batch of n >= 2 images runs as two fixed halves, rows
``[0, ceil(n/2))`` and the rest, on up to two threads (one when the
process may use only one core).  The loss and its gradient come from the
whole batch's logits, and each parameter gradient is added as first half
plus second half.  While :func:`train` and :func:`evaluate` run, OpenBLAS
is held at one thread for the whole process, so the results are
bit-identical whatever the core count or ``OPENBLAS_NUM_THREADS``.  Where
OpenBLAS cannot be held, both halves run one after the other on one
worker thread, with the same bits as on two threads at the same BLAS
thread count.

:func:`train` and :func:`evaluate` run under
``np.errstate(over="raise", invalid="raise")``, so a diverging run stops
at its first overflow or invalid value with a :class:`TrainingError`, an
evaluation that overflows raises :class:`NumericError`, and numpy prints
no warning on the way.
"""

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic, write_csv
from .data import (AugmentSpec, _is_int, _is_real, augment_dataset, stratified_split,
                   to_batches)
from .errors import (ConfigError, ConsistencyError, CorpusError, FormatError,
                     IntegrityError, NumericError, TrainingError, UpdateError,
                     VersionError)
from .metrics import ConfusionMatrix, report_from_matrix
from .model import ModelConfig, backward, build_model, forward, parameter_shapes, softmax_xent
from .optim import _learning_rate, adam_init, adam_step, sgd_step
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "Checkpoint",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "write_log",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 15
    batch_size: int = 32
    lr: float = 1e-3
    val_ratio: float = 0.25
    seed: int = 0
    optimizer: str = "adam"
    augment: AugmentSpec = None
    augment_before_split: bool = False

    def __post_init__(self):
        if not (_is_int(self.epochs) and self.epochs >= 1):
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not (_is_int(self.batch_size) and self.batch_size >= 1):
            raise ConfigError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        _learning_rate(self.lr)
        if not (_is_real(self.val_ratio) and 0 < self.val_ratio < 1):
            raise ConfigError(
                f"val_ratio must lie strictly between 0 and 1, got {self.val_ratio!r}")
        if not (isinstance(self.optimizer, str) and self.optimizer in ("adam", "sgd")):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 32):
            raise ConfigError(f"seed must fit an unsigned 32-bit integer, got {self.seed!r}")
        if not (self.augment is None or isinstance(self.augment, AugmentSpec)):
            raise ConfigError(f"augment must be an AugmentSpec or None, got {self.augment!r}")


@dataclass(frozen=True)
class EpochRecord:
    """Metrics for one epoch, measured by full passes after its updates."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class Checkpoint:
    """A model snapshot: format version, config, and parameters, which is
    everything the serialized layout stores."""

    version: int
    config: ModelConfig
    params: dict


# Threads that run the halves of a batch: two, or the cores this process may use.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _openblas_setter():
    """numpy's ``openblas_set_num_threads_local``, which sets the OpenBLAS
    thread count and returns the previous one; None if its BLAS has none."""
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = (ctypes.c_int,), ctypes.c_int
    return fn


@contextlib.contextmanager
def _shard_runner():
    """Holds OpenBLAS at one thread and yields ``run(fn, shards)``, which
    returns ``[fn(s) for s in shards]`` computed on a pool of ``_WORKERS``
    threads.  Where OpenBLAS cannot be held, the pool has one thread, and
    a multithreaded BLAS can use the cores instead.

    Each shard runs in a copy of the caller's context, so ``np.errstate``
    applies inside it (errstate is context-local from numpy 2.0 on).
    """
    from concurrent.futures import ThreadPoolExecutor
    setter = _openblas_setter()
    previous = setter(1) if setter is not None else None
    try:
        with ThreadPoolExecutor(_WORKERS if setter is not None else 1) as pool:
            def run(fn, shards):
                contexts = [contextvars.copy_context() for _ in shards]
                return list(pool.map(lambda ctx, s: ctx.run(fn, s), contexts, shards))
            yield run
    finally:
        if setter is not None:
            setter(previous)


def _halves(n):
    """The fixed shards of a batch of ``n``: rows before ``ceil(n/2)`` and the rest."""
    cut = (n + 1) // 2
    return [slice(0, cut), slice(cut, n)] if n >= 2 else [slice(0, n)]


def _sharded_forward(run, params, x):
    """The whole batch's logits, the shards, and each shard's trace."""
    shards = _halves(x.shape[0])
    outs = run(lambda s: forward(params, Tensor(x[s])), shards)
    logits = np.concatenate([shard_logits.data for shard_logits, _ in outs])
    return logits, shards, [trace for _, trace in outs]


def _sharded_gradients(run, params, x, y):
    """Parameter gradients of one batch: each shard's backward gets its
    rows of the whole batch's ``d_logits``, and the shards' gradients are
    added in shard order.  The traces are freed on return."""
    logits, shards, traces = _sharded_forward(run, params, x)
    _, d_logits = softmax_xent(logits, y)
    parts = run(lambda i: backward(params, traces[i], d_logits[shards[i]]), range(len(shards)))
    return {name: functools.reduce(np.add, (part[name] for part in parts)) for name in parts[0]}


def _epoch_metrics(run, params, manifest, batch_size, size, where):
    """Mean loss and accuracy over a full, unshuffled pass."""
    total_loss, correct, seen = 0.0, 0, 0
    for x, y in to_batches(manifest, batch_size, shuffle_seed=None, size=size):
        try:
            logits = _sharded_forward(run, params, x)[0]
            loss, _ = softmax_xent(logits, y)
        except (NumericError, FloatingPointError) as exc:
            raise TrainingError(f"non-finite loss during {where}: {exc}") from exc
        n = len(y)
        total_loss += loss * n
        correct += int((np.argmax(logits, axis=1) == y).sum())
        seen += n
    return total_loss / seen, correct / seen


def train(manifest, model_config, train_config):
    """Trains a fresh model on ``manifest``; returns (params, records).

    The manifest is split (split first, then augmentation of the train
    side, unless ``augment_before_split`` asks for the reverse), the
    model is built from ``model_config.seed``, and each epoch runs the
    shuffled train batches through forward/backward/update.  Epoch
    metrics come from separate full passes over both sides, so exactly
    ``epochs`` records are returned.  A non-finite loss, an overflow or
    an invalid value aborts with a :class:`TrainingError` naming the
    epoch and batch.
    """
    if len(manifest.class_names) != model_config.classes:
        raise ConsistencyError(
            f"manifest has {len(manifest.class_names)} classes but the model expects "
            f"{model_config.classes}")
    if train_config.augment is not None and train_config.augment_before_split:
        manifest = augment_dataset(manifest, train_config.augment)
    train_m, val_m = stratified_split(manifest, 1.0 - train_config.val_ratio,
                                      train_config.seed)
    if train_config.augment is not None and not train_config.augment_before_split:
        train_m = augment_dataset(train_m, train_config.augment)
    if not train_m.items or not val_m.items:
        raise CorpusError("the split left an empty train or validation side")

    params = build_model(model_config)
    opt_state = None
    if train_config.optimizer == "adam":
        opt_state = adam_init(params, lr=train_config.lr)

    size = model_config.input_size
    records = []
    with _shard_runner() as run, np.errstate(over="raise", invalid="raise"):
        for epoch in range(1, train_config.epochs + 1):
            batches = to_batches(train_m, train_config.batch_size,
                                 shuffle_seed=(train_config.seed, epoch), size=size)
            for batch_index, (x, y) in enumerate(batches, start=1):
                try:
                    grads = _sharded_gradients(run, params, x, y)
                    if train_config.optimizer == "adam":
                        adam_step(opt_state, params, grads)
                    else:
                        sgd_step(params, grads, train_config.lr)
                except (NumericError, UpdateError, FloatingPointError) as exc:
                    raise TrainingError(
                        f"training diverged at epoch {epoch}, batch {batch_index}: {exc}") from exc
            train_loss, train_acc = _epoch_metrics(
                run, params, train_m, train_config.batch_size, size,
                f"epoch {epoch} train evaluation")
            val_loss, val_acc = _epoch_metrics(
                run, params, val_m, train_config.batch_size, size, f"epoch {epoch} validation")
            records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
    return params, records


def evaluate(params, manifest, batch_size=32, *, input_size):
    """Runs the model over a corpus, each image resized to ``input_size``
    square; returns (ConfusionMatrix, report).  An overflow or invalid
    value in the forward pass raises :class:`NumericError`."""
    if not manifest.items:
        raise CorpusError("cannot evaluate an empty manifest")
    classes = params["head_b"].shape[0]
    if len(manifest.class_names) != classes:
        raise ConsistencyError(
            f"manifest has {len(manifest.class_names)} classes but the model expects {classes}")
    cm = ConfusionMatrix(manifest.class_names)
    with _shard_runner() as run, np.errstate(over="raise", invalid="raise"):
        for x, y in to_batches(manifest, batch_size, shuffle_seed=None, size=input_size):
            try:
                logits = _sharded_forward(run, params, x)[0]
            except FloatingPointError as exc:
                raise NumericError(f"evaluation failed: {exc}") from exc
            cm.accumulate(y, np.argmax(logits, axis=1))
    return cm, report_from_matrix(cm)


# ---------------------------------------------------------------------------
# checkpoint wire format

CHECKPOINT_MAGIC = b"BCNN"
CHECKPOINT_VERSION = 1

# Layout, all integers little-endian u32: magic, version, input_size,
# channel count, the channel list, classes, model seed, tensor count, then
# per tensor: name length, name bytes (utf-8), rank, extents, float32
# little-endian payload in row-major order.


def save_checkpoint(path, checkpoint):
    """Serializes a checkpoint of this build's version; identical inputs
    give identical bytes.  A parameter with a value that is not finite as
    float32 raises :class:`NumericError`, as :func:`load_checkpoint` would
    refuse it."""
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ConsistencyError(f"cannot write checkpoint version {checkpoint.version!r}; "
                               f"this build writes {CHECKPOINT_VERSION}")
    config = checkpoint.config
    want = parameter_shapes(config)
    have = {name: tuple(t.shape) for name, t in checkpoint.params.items()}
    if have != want:
        raise ConsistencyError("checkpoint parameters do not match its config's shapes")
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<II", config.input_size, len(config.channels))
    out += struct.pack(f"<{len(config.channels)}I", *config.channels)
    out += struct.pack("<II", config.classes, config.seed)
    out += struct.pack("<I", len(checkpoint.params))
    for name, tensor in checkpoint.params.items():
        with np.errstate(over="ignore"):
            payload = np.ascontiguousarray(tensor.data, dtype="<f4")
        if not np.isfinite(payload).all():
            raise NumericError(f"cannot write tensor '{name}': it holds a value that is not "
                               f"finite as float32")
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack(f"<I{len(tensor.shape)}I", len(tensor.shape), *tensor.shape)
        out += payload.tobytes()
    write_atomic(path, bytes(out))


def load_checkpoint(path):
    """Reads a checkpoint and checks each tensor once against its config.

    Each tensor must be one the config names, appear once, have the
    config's rank and extents and hold only finite values, and the file
    must end after the last one.
    Bad magic raises :class:`FormatError`, an unsupported version
    :class:`VersionError`, and everything else (an invalid config,
    truncation, an undecodable name, a tensor that breaks the rule)
    :class:`IntegrityError`; no other exception escapes for any file
    contents.  The returned :class:`Checkpoint` holds what the file stores.
    """
    buf = Path(path).read_bytes()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise IntegrityError(
                f"checkpoint truncated: wanted {n} bytes at offset {pos}, file has {len(buf)}")
        pos += n
        return buf[pos - n:pos]

    def u32(count=1):
        return struct.unpack(f"<{count}I", take(4 * count))

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"not a checkpoint file: magic {magic!r}")
    (version,) = u32()
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"unsupported checkpoint version {version}; this build reads {CHECKPOINT_VERSION}")
    input_size, n_stages = u32(2)
    *channels, classes, seed = u32(n_stages + 2)
    try:
        config = ModelConfig(input_size=input_size, stages=n_stages, channels=tuple(channels),
                             classes=classes, seed=seed)
    except ConfigError as exc:
        raise IntegrityError(f"checkpoint config is invalid: {exc}") from None

    want = parameter_shapes(config)
    (n_tensors,) = u32()
    if n_tensors != len(want):
        raise IntegrityError(f"checkpoint holds {n_tensors} tensors; its config names {len(want)}")
    params = {}
    for _ in range(n_tensors):
        (name_len,) = u32()
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(
                f"tensor name at offset {pos - name_len} is not valid UTF-8") from None
        if name in params:
            raise IntegrityError(f"tensor '{name}' appears twice")
        if name not in want:
            raise IntegrityError(f"tensor '{name}' is not a parameter of its config")
        shape = want[name]
        if u32() != (len(shape),) or u32(len(shape)) != shape:
            raise IntegrityError(
                f"tensor '{name}' does not have its config's rank and extents {shape}")
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise IntegrityError(f"tensor '{name}' holds a value that is not finite")
        params[name] = Tensor(data.astype(np.float32, copy=True))
    if pos != len(buf):
        raise IntegrityError(f"checkpoint has {len(buf) - pos} trailing bytes")
    return Checkpoint(version=version, config=config, params=params)


def write_log(path, records):
    """Writes epoch records as CSV with 6-decimal values."""
    if not records:
        raise ConfigError("cannot write an empty training log")
    rows = [("epoch", "train_loss", "train_acc", "val_loss", "val_acc")]
    rows += [(str(r.epoch), f"{r.train_loss:.6f}", f"{r.train_acc:.6f}", f"{r.val_loss:.6f}",
              f"{r.val_acc:.6f}") for r in records]
    write_csv(path, rows)
