"""Command-line pipeline: synthesize, augment, train, evaluate, predict,
and gradient-check.

Exit codes: 0 success, 1 usage error (unknown flag, missing or invalid
value), 2 runtime failure (unreadable corpus, bad checkpoint, training
abort), 3 gradient check exceeded its tolerance.  Every run prints its
resolved configuration first, and identical invocations on identical
inputs produce byte-identical outputs.

The argument parser is built on the first call of :func:`main` and
reused for the rest of the process, so ``main`` can be called
repeatedly at little cost.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .atomic import check_csv_field
from .data import (CLASS_NAMES, AugmentSpec, DatasetManifest, augment_dataset,
                   load_dataset, resize_nn, synth_generate, write_manifest_csv)
from .errors import BcnnError, ConfigError, NumericError
from .metrics import format_report, write_report_csv
from .model import ModelConfig, forward, full_model_gradcheck
from .netpbm import read_image, write_pgm
from .tensor import Tensor
from .train import (CHECKPOINT_VERSION, Checkpoint, TrainConfig, evaluate, load_checkpoint,
                    save_checkpoint, train, write_log)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _float_list(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


# Built once per process: parse_args keeps no state between calls, each
# gets a fresh Namespace, and _Parser.error raises instead of exiting.
@functools.cache
def _build_parser():
    parser = _Parser(prog="bcnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--per-class", type=int, required=True, help="images per class")
    p.add_argument("--size", type=int, default=64, help="image side length")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("augment", help="expand a corpus with transformed copies")
    p.add_argument("--in", dest="in_dir", required=True, help="input corpus directory")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--variants", type=int, default=1, help="variants per image")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotations", type=_float_list, default=(90.0, 180.0, 270.0),
                   help="comma-separated rotation angles in degrees")
    p.add_argument("--scales", type=_float_list, default=(0.8, 1.2),
                   help="comma-separated zoom factors")
    p.add_argument("--brightness", type=_float_list, default=(0.8, 1.2),
                   help="comma-separated brightness factors")

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--val-ratio", type=float, default=None,
                   help="validation fraction (default 0.25)")
    p.add_argument("--split-ratio-alt", action="store_true",
                   help="use the alternative 80/20 split instead of 75/25")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--size", type=int, default=64, help="model input side length")
    p.add_argument("--checkpoint", default=None, help="where to save the trained model")
    p.add_argument("--log", default=None, help="where to write the epoch CSV log")
    p.add_argument("--augment-variants", type=int, default=0,
                   help="augmentation variants per training image (0 disables)")
    p.add_argument("--augment-before-split", action="store_true",
                   help="augment the whole corpus before splitting (default: after)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", default=None, help="where to write the CSV report")

    p = sub.add_parser("predict", help="classify a single image")
    p.add_argument("--image", required=True, help="PGM/PPM file to classify")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    return parser


def _print_config(args):
    pairs = sorted((k, v) for k, v in vars(args).items() if k != "command")
    rendered = " ".join(f"{k}={v}" for k, v in pairs)
    print(f"config: command={args.command} {rendered}".rstrip())


def _class_names(config):
    if config.classes == len(CLASS_NAMES):
        return list(CLASS_NAMES)
    return [f"class{i}" for i in range(config.classes)]


def _write_corpus(out, manifest, digits):
    """Writes each image to ``out/<class>/<class>_<n>.pgm``, n counted per class
    from 0 in manifest order and zero-padded to ``digits``, then the manifest.
    A class name that the manifest CSV cannot hold is refused before any
    file is written."""
    for cls in manifest.class_names:
        check_csv_field(cls)
    written = [0] * len(manifest.class_names)
    for item in manifest.items:
        cls = manifest.class_names[item.label]
        (out / cls).mkdir(parents=True, exist_ok=True)
        item.path = f"{cls}/{cls}_{written[item.label]:0{digits}d}.pgm"
        write_pgm(out / item.path, item.pixels)
        written[item.label] += 1
    write_manifest_csv(manifest, out / "manifest.csv")


def _cmd_synth(args):
    if args.per_class < 1:
        raise ConfigError(f"--per-class must be positive, got {args.per_class}")
    items = [synth_generate(cls, args.size, args.seed + i)
             for cls in CLASS_NAMES for i in range(args.per_class)]
    manifest = DatasetManifest(list(CLASS_NAMES), items, provenance="synthetic", seed=args.seed)
    _write_corpus(Path(args.out), manifest, digits=4)
    print(f"wrote {len(items)} images across {len(CLASS_NAMES)} classes to {Path(args.out)}")
    return 0


def _cmd_augment(args):
    spec = AugmentSpec(rotations=args.rotations, scales=args.scales,
                       brightness=args.brightness, variants=args.variants,
                       seed=args.seed)
    manifest = load_dataset(args.in_dir)
    augmented = augment_dataset(manifest, spec)
    _write_corpus(Path(args.out), augmented, digits=5)
    print(f"wrote {len(augmented.items)} images "
          f"({len(manifest.items)} originals, {args.variants} variants each) to {Path(args.out)}")
    return 0


def _resolve_val_ratio(args):
    if args.split_ratio_alt and args.val_ratio is not None:
        raise ConfigError("--val-ratio and --split-ratio-alt are mutually exclusive")
    if args.split_ratio_alt:
        return 0.20
    return 0.25 if args.val_ratio is None else args.val_ratio


def _cmd_train(args):
    val_ratio = _resolve_val_ratio(args)
    augment = None
    if args.augment_variants:
        augment = AugmentSpec(variants=args.augment_variants, seed=args.seed)
    model_config = ModelConfig(input_size=args.size, seed=args.seed)
    train_config = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                               lr=args.lr, val_ratio=val_ratio, seed=args.seed,
                               optimizer=args.optimizer, augment=augment,
                               augment_before_split=args.augment_before_split)

    manifest = load_dataset(args.data)
    params, records = train(manifest, model_config, train_config)
    for r in records:
        print(f"epoch {r.epoch}/{train_config.epochs}: "
              f"train_loss={r.train_loss:.6f} train_acc={r.train_acc:.4f} "
              f"val_loss={r.val_loss:.6f} val_acc={r.val_acc:.4f}")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, Checkpoint(version=CHECKPOINT_VERSION,
                                                    config=model_config, params=params))
        print(f"saved checkpoint to {args.checkpoint}")
    if args.log:
        write_log(args.log, records)
        print(f"wrote log to {args.log}")
    return 0


def _cmd_eval(args):
    ckpt = load_checkpoint(args.checkpoint)
    manifest = load_dataset(args.data)
    _, report = evaluate(ckpt.params, manifest, batch_size=32,
                         input_size=ckpt.config.input_size)
    print(format_report(report))
    if args.report:
        write_report_csv(report, args.report)
        print(f"wrote report to {args.report}")
    return 0


def _cmd_predict(args):
    ckpt = load_checkpoint(args.checkpoint)
    pixels = read_image(args.image)
    size = ckpt.config.input_size
    x = resize_nn(pixels, size).astype(np.float32) / np.float32(255.0)
    with np.errstate(over="raise", invalid="raise"):
        try:
            logits, _ = forward(ckpt.params, Tensor(x[None, None, :, :]))
            z = logits.data[0]
            exp = np.exp(z - z.max())
            probs = exp / exp.sum()
        except FloatingPointError as exc:
            raise NumericError(f"prediction failed: {exc}") from exc
    names = _class_names(ckpt.config)
    winner = int(np.argmax(z))
    print(f"class: {names[winner]}")
    print("probabilities: " + " ".join(f"{n}={p:.4f}" for n, p in zip(names, probs)))
    return 0


def _cmd_gradcheck(args):
    if not args.tol > 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    errors = full_model_gradcheck(seed=args.seed)
    for name in sorted(errors):
        print(f"{name}: {errors[name]:.3e}")
    worst = max(errors.values())
    print(f"max relative error: {worst:.3e} (tolerance {args.tol:.1e})")
    if not worst < args.tol:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print("gradient check passed")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    _print_config(args)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BcnnError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
