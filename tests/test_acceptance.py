"""Acceptance gate: eight checks, one printed verdict line each.

Checks 1-3 pin the metrics stack to the reference per-class operating
points; 4-8 gate gradients, desk-scale training, determinism,
augmentation invariants, and the checkpoint wire format.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math

import numpy as np

from bcnn.cli import main as cli_main
from bcnn.data import (
    AugmentSpec,
    DatasetManifest,
    LabeledImage,
    adjust_brightness,
    augment_dataset,
    rotate,
    scale_image,
    synth_generate,
)
from bcnn.errors import FormatError, IntegrityError, VersionError
from bcnn.metrics import (
    ClassMetrics,
    ConfusionMatrix,
    aggregate_report,
    f1_score,
    report_from_matrix,
    round_display,
)
from bcnn.model import ModelConfig, build_model, forward, full_model_gradcheck, softmax_xent
from bcnn.tensor import (
    Tensor,
    concat_channels,
    concat_channels_backward,
    conv2d,
    conv2d_backward,
    dense,
    dense_backward,
    finite_diff_gradcheck,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
    upsample2,
    upsample2_backward,
)
from bcnn.train import (
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

# Reference per-class operating points: (class, precision, recall, f1, support).
REFERENCE = (
    ("fatigue", 0.87, 0.83, 0.85, 205),
    ("linear", 0.81, 0.89, 0.85, 205),
    ("potholes", 0.96, 0.90, 0.93, 189),
)
CLASSES = tuple(r[0] for r in REFERENCE)
ROW_SUMS = tuple(r[4] for r in REFERENCE)


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. per-class F1 consistency


def test_criterion_1_f1_consistency():
    rounded = [round_display(f1_score(p, r)) for _, p, r, _, _ in REFERENCE]
    expected = [f for _, _, _, f, _ in REFERENCE]
    verdict(1, rounded == expected,
            f"F1 from (P, R) pairs rounds to {rounded}, reference {expected}")


# ---------------------------------------------------------------------------
# 2. aggregate consistency


def test_criterion_2_aggregate_consistency():
    agg = aggregate_report([ClassMetrics(*row) for row in REFERENCE])
    got = (round_display(agg.weighted_f1), round_display(agg.macro_f1),
           round_display(agg.accuracy))
    verdict(2, got == (0.88, 0.88, 0.87),
            f"weighted F1 {got[0]}, macro F1 {got[1]}, accuracy {got[2]}; "
            f"reference (0.88, 0.88, 0.87)")


# ---------------------------------------------------------------------------
# 3. confusion-matrix reconstruction


def _diag_candidates(row_sum, recall):
    # d/row_sum must round (half away from zero) to recall at 2 decimals
    lo = math.ceil(row_sum * (recall - 0.005))
    hi = math.ceil(row_sum * (recall + 0.005)) - 1
    return range(lo, hi + 1)


def _matrix_rounds_to_reference(m):
    for k in range(3):
        col = m[0][k] + m[1][k] + m[2][k]
        if col == 0:
            return False
        p = m[k][k] / col
        r = m[k][k] / ROW_SUMS[k]
        f1 = 2 * m[k][k] / (col + ROW_SUMS[k])  # harmonic mean of d/col and d/row
        _, want_p, want_r, want_f, _ = REFERENCE[k]
        if (round_display(p), round_display(r), round_display(f1)) != (want_p, want_r, want_f):
            return False
    return True


def _search_reference_matrix():
    for d0 in _diag_candidates(ROW_SUMS[0], REFERENCE[0][2]):
        for d1 in _diag_candidates(ROW_SUMS[1], REFERENCE[1][2]):
            for d2 in _diag_candidates(ROW_SUMS[2], REFERENCE[2][2]):
                for a01 in range(ROW_SUMS[0] - d0 + 1):
                    a02 = ROW_SUMS[0] - d0 - a01
                    for a10 in range(ROW_SUMS[1] - d1 + 1):
                        a12 = ROW_SUMS[1] - d1 - a10
                        for a20 in range(ROW_SUMS[2] - d2 + 1):
                            a21 = ROW_SUMS[2] - d2 - a20
                            m = ((d0, a01, a02), (a10, d1, a12), (a20, a21, d2))
                            if _matrix_rounds_to_reference(m):
                                return m
    return None


def test_criterion_3_confusion_matrix_reconstruction():
    m = _search_reference_matrix()
    if m is None:
        verdict(3, False, "no integer matrix with the reference row sums reproduces "
                          "the reference roundings")
    cm = ConfusionMatrix(list(CLASSES))
    true = np.repeat(np.arange(3), ROW_SUMS)
    pred = np.concatenate([np.repeat(np.arange(3), m[k]) for k in range(3)])
    cm.accumulate(true, pred)
    rows = report_from_matrix(cm).per_class
    reproduced = all(
        (round_display(row.precision), round_display(row.recall),
         round_display(row.f1), row.support) == (want_p, want_r, want_f, want_s)
        for row, (_, want_p, want_r, want_f, want_s) in zip(rows, REFERENCE))
    verdict(3, reproduced, f"matrix {m} reproduces all nine reference roundings")


# ---------------------------------------------------------------------------
# 4. gradient gate


def _per_op_gradcheck_errors():
    """Worst finite-difference error per primitive, on kink-safe fixtures."""
    rng = np.random.default_rng(11)
    errors = {}

    def linear_readout(shape):
        return rng.standard_normal(shape)

    def sweep(name, rebuild, backward_grads, tensors):
        upstream = linear_readout(rebuild()[0].shape)

        def loss(_q):
            out, _ = rebuild()
            return float((out * upstream).sum())

        _, ctx = rebuild()
        grads = backward_grads(ctx, upstream)
        errors[name] = max(finite_diff_gradcheck(loss, p, g)
                           for p, g in zip(tensors, grads))

    x = rng.random((2, 2, 6, 6)) + 0.1
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    sweep("conv2d", lambda: conv2d(x, w, b),
          lambda ctx, u: conv2d_backward(ctx, u), (x, w, b))

    # tiered 2x2 blocks keep every pooling window's top-2 gap at least 0.2
    tiers = np.tile(np.array([[0.0, 0.3], [0.6, 0.9]]), (2, 2))
    mp = tiers + 0.1 * rng.random((2, 2, 4, 4))
    sweep("maxpool2", lambda: maxpool2(mp),
          lambda ctx, u: (maxpool2_backward(ctx, u),), (mp,))

    raw = rng.standard_normal((2, 3, 4, 4))
    ra = np.sign(raw) * (np.abs(raw) + 0.2)  # keep clear of the kink
    sweep("relu", lambda: relu(ra),
          lambda ctx, u: (relu_backward(ctx, u),), (ra,))

    up = rng.standard_normal((2, 2, 3, 3))
    sweep("upsample2", lambda: upsample2(up),
          lambda ctx, u: (upsample2_backward(ctx, u),), (up,))

    ca = rng.standard_normal((2, 2, 3, 3))
    cb = rng.standard_normal((2, 3, 3, 3))
    sweep("concat_channels", lambda: concat_channels(ca, cb),
          lambda ctx, u: concat_channels_backward(ctx, u), (ca, cb))

    dx = rng.standard_normal((4, 5))
    dw = rng.standard_normal((5, 3)) * 0.5
    db = rng.standard_normal(3) * 0.1
    sweep("dense", lambda: dense(dx, dw, db),
          lambda ctx, u: dense_backward(ctx, u), (dx, dw, db))

    logits = rng.standard_normal((4, 3))
    targets = np.array([0, 2, 1, 1])
    _, d_logits = softmax_xent(logits, targets)
    errors["softmax_xent"] = finite_diff_gradcheck(
        lambda _q: softmax_xent(logits, targets)[0], logits, d_logits)
    return errors


def test_criterion_4_gradient_gate():
    model_errors = full_model_gradcheck(seed=0)
    model_worst = max(model_errors.values())
    op_errors = _per_op_gradcheck_errors()
    op_worst = max(op_errors.values())
    ok = model_worst < 1e-4 and op_worst < 1e-4
    verdict(4, ok, f"full-model max rel err {model_worst:.2e}, "
                   f"per-op max rel err {op_worst:.2e}, tolerance 1e-4")


# ---------------------------------------------------------------------------
# 5. desk-scale end-to-end training


def test_criterion_5_desk_scale_training():
    items = [synth_generate(cls, 64, 101 + i) for cls in CLASSES for i in range(200)]
    manifest = DatasetManifest(list(CLASSES), items, provenance="synthetic", seed=101)
    params, records = train(manifest, ModelConfig(seed=7), TrainConfig(epochs=15, seed=7))

    held_out = DatasetManifest(
        list(CLASSES),
        [synth_generate(cls, 64, 9001 + i) for cls in CLASSES for i in range(25)])
    _, report = evaluate(params, held_out, input_size=64)

    ok = (records[-1].val_acc >= 0.85
          and records[-1].train_loss < records[0].train_loss
          and report.aggregates.accuracy >= 0.85)
    verdict(5, ok, f"val_acc {records[-1].val_acc:.4f} (floor 0.85), train loss "
                   f"{records[0].train_loss:.4f} -> {records[-1].train_loss:.4f}, "
                   f"held-out acc {report.aggregates.accuracy:.4f} (floor 0.85)")


# ---------------------------------------------------------------------------
# 6. training determinism


def test_criterion_6_training_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli_main(["synth", "--out", str(corpus), "--per-class", "8",
                     "--size", "32", "--seed", "3"]) == 0
    outputs = []
    for tag in ("first", "second"):
        ckpt = tmp_path / f"{tag}.bcnn"
        log = tmp_path / f"{tag}.csv"
        rc = cli_main(["train", "--data", str(corpus), "--size", "32",
                       "--epochs", "3", "--batch", "8", "--seed", "11",
                       "--checkpoint", str(ckpt), "--log", str(log)])
        assert rc == 0
        outputs.append((ckpt.read_bytes(), log.read_text()))
    same_ckpt = outputs[0][0] == outputs[1][0]
    same_log = outputs[0][1] == outputs[1][1]
    verdict(6, same_ckpt and same_log,
            f"identical seeds: checkpoints bitwise equal {same_ckpt}, "
            f"logs equal {same_log}")


# ---------------------------------------------------------------------------
# 7. augmentation invariants


def test_criterion_7_augmentation_invariants():
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)

        quadruple = img
        for _ in range(4):
            quadruple = rotate(quadruple, 90)
        if not np.array_equal(quadruple, img):
            failures.append((seed, "rotate(90) applied four times"))
        if not np.array_equal(scale_image(img, 1.0), img):
            failures.append((seed, "scale factor 1"))
        if not np.array_equal(adjust_brightness(img, 1.0), img):
            failures.append((seed, "brightness factor 1"))

        items = [LabeledImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8),
                              label, path=None) for label in range(3)]
        manifest = DatasetManifest(["a", "b", "c"], items)
        spec = AugmentSpec(rotations=(90.0, 180.0, 33.0), scales=(1.0, 0.8),
                           brightness=(1.0, 1.3), variants=2, seed=seed)
        once = augment_dataset(manifest, spec)
        again = augment_dataset(manifest, spec)
        if len(once.items) != len(items) * (1 + spec.variants):
            failures.append((seed, "output count n*(1+k)"))
        if not all(np.array_equal(o.pixels, i.pixels) and o.label == i.label
                   for o, i in zip(once.items, items)):
            failures.append((seed, "originals first"))
        if once.counts != [spec.variants + 1] * 3:
            failures.append((seed, "label preservation"))
        if not all(np.array_equal(a.pixels, b.pixels) and a.label == b.label
                   for a, b in zip(once.items, again.items)):
            failures.append((seed, "seeded reproducibility"))

    verdict(7, not failures,
            "identity, count, label, and reproducibility invariants over 100 seeds"
            + (f"; failures {failures[:5]}" if failures else ""))


# ---------------------------------------------------------------------------
# 8. checkpoint roundtrip


def _rejected_with(error_class, payload, path):
    path.write_bytes(payload)
    try:
        load_checkpoint(path)
    except error_class:
        return True
    except Exception:
        return False
    return False


def test_criterion_8_checkpoint_roundtrip(tmp_path):
    config = ModelConfig(input_size=32, stages=2, channels=(8, 12), classes=3, seed=5)
    params = build_model(config)
    path = tmp_path / "model.bcnn"
    save_checkpoint(path, Checkpoint(1, config, params))
    loaded = load_checkpoint(path)

    bitwise = (set(loaded.params) == set(params)
               and all(np.array_equal(loaded.params[k].data, params[k].data)
                       for k in params))
    x = Tensor(np.random.default_rng(2).random((3, 1, 32, 32)).astype(np.float32))
    same_logits = np.array_equal(forward(params, x)[0].data,
                                 forward(loaded.params, x)[0].data)

    raw = path.read_bytes()
    bad_magic = _rejected_with(FormatError, b"XCNN" + raw[4:], tmp_path / "m.bcnn")
    truncated = _rejected_with(IntegrityError, raw[:len(raw) // 2], tmp_path / "t.bcnn")
    bad_version = _rejected_with(VersionError,
                                 raw[:4] + (9).to_bytes(4, "little") + raw[8:],
                                 tmp_path / "v.bcnn")

    ok = bitwise and same_logits and bad_magic and truncated and bad_version
    verdict(8, ok, f"roundtrip bitwise {bitwise}, logits identical {same_logits}, "
                   f"rejects bad magic {bad_magic}, truncation {truncated}, "
                   f"future version {bad_version}")
