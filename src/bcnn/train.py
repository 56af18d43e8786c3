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
OpenBLAS cannot be held, both halves run on the calling thread, with the
same bits as on two threads at the same BLAS thread count.
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

from .atomic import write_atomic
from .data import AugmentSpec, augment_dataset, stratified_split, to_batches
from .errors import (ConfigError, ConsistencyError, CorpusError, FormatError,
                     IntegrityError, NumericError, TrainingError, UpdateError,
                     VersionError)
from .metrics import ConfusionMatrix, report_from_matrix
from .model import ModelConfig, backward, build_model, forward, parameter_shapes
from .optim import adam_init, adam_step, sgd_step
from .tensor import Tensor, softmax_xent

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


def _is_int(value):
    """True for integers other than bool, which Python counts as int."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 < self.val_ratio < 1:
            raise ConfigError(f"val_ratio must lie strictly between 0 and 1, got {self.val_ratio}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must fit an unsigned 32-bit integer, got {self.seed}")


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
    returns ``[fn(s) for s in shards]`` computed on up to ``_WORKERS``
    threads.

    Each shard runs in a copy of the caller's context, so ``np.errstate``
    applies inside it.  Without the hold, the shards run on this thread,
    where a multithreaded BLAS can use the cores instead.
    """
    setter = _openblas_setter()
    previous = setter(1) if setter is not None else None
    try:
        if setter is None or _WORKERS < 2:
            yield lambda fn, shards: [fn(s) for s in shards]
        else:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(_WORKERS) as pool:
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
    outs = run(lambda s: forward(params, Tensor(x.data[s])), shards)
    logits = Tensor(np.concatenate([shard_logits.data for shard_logits, _ in outs]))
    return logits, shards, [trace for _, trace in outs]


def _sharded_gradients(run, params, x, y):
    """Parameter gradients of one batch: each shard's backward gets its
    rows of the whole batch's ``d_logits``, and the shards' gradients are
    added in shard order.  The traces are freed on return."""
    logits, shards, traces = _sharded_forward(run, params, x)
    loss, d_logits = softmax_xent(logits, y)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    parts = run(lambda i: backward(params, traces[i], Tensor(d_logits.data[shards[i]])),
                range(len(shards)))
    return {name: Tensor(functools.reduce(np.add, (part[name].data for part in parts)))
            for name in parts[0]}


def _epoch_metrics(run, params, manifest, batch_size, size, where):
    """Mean loss and accuracy over a full, unshuffled pass."""
    total_loss, correct, seen = 0.0, 0, 0
    for x, y in to_batches(manifest, batch_size, shuffle_seed=None, size=size):
        try:
            logits = _sharded_forward(run, params, x)[0]
            loss, _ = softmax_xent(logits, y)
        except NumericError as exc:
            raise TrainingError(f"non-finite loss during {where}: {exc}") from exc
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss during {where}")
        n = len(y)
        total_loss += loss * n
        correct += int((np.argmax(logits.data, axis=1) == y).sum())
        seen += n
    return total_loss / seen, correct / seen


def train(manifest, model_config, train_config):
    """Trains a fresh model on ``manifest``; returns (params, records).

    The manifest is split (split first, then augmentation of the train
    side, unless ``augment_before_split`` asks for the reverse), the
    model is built from ``model_config.seed``, and each epoch runs the
    shuffled train batches through forward/backward/update.  Epoch
    metrics come from separate full passes over both sides, so exactly
    ``epochs`` records are returned.  A non-finite loss aborts with a
    :class:`TrainingError` naming the epoch and batch.
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
    with _shard_runner() as run:
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
                except (NumericError, UpdateError) as exc:
                    raise TrainingError(
                        f"training diverged at epoch {epoch}, batch {batch_index}: {exc}") from exc
            train_loss, train_acc = _epoch_metrics(
                run, params, train_m, train_config.batch_size, size,
                f"epoch {epoch} train evaluation")
            val_loss, val_acc = _epoch_metrics(
                run, params, val_m, train_config.batch_size, size, f"epoch {epoch} validation")
            records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
    return params, records


def evaluate(params, manifest, batch_size=32, input_size=None):
    """Runs the model over a corpus; returns (ConfusionMatrix, report)."""
    if not manifest.items:
        raise CorpusError("cannot evaluate an empty manifest")
    classes = params["head_b"].shape[0]
    if len(manifest.class_names) != classes:
        raise ConsistencyError(
            f"manifest has {len(manifest.class_names)} classes but the model expects {classes}")
    cm = ConfusionMatrix(manifest.class_names)
    with _shard_runner() as run:
        for x, y in to_batches(manifest, batch_size, shuffle_seed=None, size=input_size):
            logits = _sharded_forward(run, params, x)[0]
            cm.accumulate(y, np.argmax(logits.data, axis=1))
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
    """Serializes a checkpoint; identical inputs give identical bytes."""
    config = checkpoint.config
    if config.input_channels != 1:
        raise ConsistencyError("the checkpoint format only stores single-channel models")
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
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", tensor.rank)
        out += struct.pack(f"<{tensor.rank}I", *tensor.shape)
        out += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    write_atomic(path, bytes(out))


class _Reader:
    """Cursor over a byte buffer that treats overruns as truncation."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise IntegrityError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, count=1):
        values = struct.unpack(f"<{count}I", self.take(4 * count))
        return values[0] if count == 1 else values


def load_checkpoint(path):
    """Reads a checkpoint and validates it structurally.

    Bad magic raises :class:`FormatError`, an unsupported version raises
    :class:`VersionError`, and truncation, undecodable or duplicate tensor
    names, extents that overrun the file, or shape mismatches raise
    :class:`IntegrityError`; no other exception escapes for any file
    contents.  The returned :class:`Checkpoint` holds exactly what the
    file stores.
    """
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"not a checkpoint file: magic {magic!r}")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"unsupported checkpoint version {version}; this build reads {CHECKPOINT_VERSION}")
    input_size = reader.u32()
    n_stages = reader.u32()
    if not 2 <= n_stages <= 64:
        raise IntegrityError(f"implausible stage count {n_stages}")
    channels = tuple(reader.u32(n_stages))
    classes = reader.u32()
    seed = reader.u32()
    try:
        config = ModelConfig(input_size=input_size, input_channels=1,
                             stages=n_stages, channels=channels,
                             classes=classes, seed=seed)
    except ConfigError as exc:
        raise IntegrityError(f"checkpoint config is invalid: {exc}") from None

    n_tensors = reader.u32()
    params = {}
    for _ in range(n_tensors):
        name_len = reader.u32()
        raw_name = reader.take(name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(
                f"tensor name at offset {reader.pos - name_len} is not valid UTF-8") from None
        if name in params:
            raise IntegrityError(f"tensor '{name}' appears twice")
        rank = reader.u32()
        if not 1 <= rank <= 4:
            raise IntegrityError(f"tensor '{name}' has implausible rank {rank}")
        shape = reader.u32(rank)
        shape = (shape,) if rank == 1 else tuple(shape)
        count = math.prod(shape)
        left = len(reader.buf) - reader.pos
        if not 0 < 4 * count <= left:
            raise IntegrityError(
                f"tensor '{name}' has implausible extents {shape} for the {left} bytes left")
        payload = reader.take(4 * count)
        data = np.frombuffer(payload, dtype="<f4").reshape(shape)
        params[name] = Tensor(data.astype(np.float32, copy=True))
    if reader.pos != len(reader.buf):
        raise IntegrityError(
            f"checkpoint has {len(reader.buf) - reader.pos} trailing bytes")

    want = parameter_shapes(config)
    have = {name: tuple(t.shape) for name, t in params.items()}
    if have != want:
        raise IntegrityError("checkpoint tensors do not match its config's shapes")
    return Checkpoint(version=version, config=config, params=params)


def write_log(path, records):
    """Writes epoch records as CSV with 6-decimal values."""
    if not records:
        raise ConfigError("cannot write an empty training log")
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for r in records:
        lines.append(f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},"
                     f"{r.val_loss:.6f},{r.val_acc:.6f}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))
