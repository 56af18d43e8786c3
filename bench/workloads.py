"""The three workloads: inputs built from a seed, one operation, its checks.

Each workload is a fixed, homogeneous unit of work repeated in a closed
loop by ``run.py``.  Operation ``i`` uses input ``i % kinds``, and a run
does whole rounds of ``kinds`` operations.  ``setup`` builds the inputs
(it is timed and may be called several times), ``op`` is the timed
operation, ``record`` runs the cheap per-operation checks outside the
timed region, and ``verify`` returns the list of check failures after
the loop.
"""

import contextlib
import io
import math

import numpy as np

import bcnn.cli
import bcnn.data
import bcnn.model
import bcnn.netpbm
import bcnn.tensor
import bcnn.train

import reference

CLASSES = reference.CLASS_NAMES


def _seed_base(seed, stream):
    """A synth_generate seed base for ``stream`` of a benchmark seed."""
    return int(np.random.default_rng((seed, stream)).integers(0, 2 ** 31))


def _to_input(pixels_list):
    x = np.stack(pixels_list).astype(np.float32) / np.float32(255.0)
    return x[:, None, :, :]


class Train:
    """One ``train()`` call: 120 synthetic 64x64 images (40 per class),
    stages 16/32/64, batch 32, Adam at lr 3e-3, four epochs.

    The corpus comes from the benchmark seed.  The model and shuffle seed
    is fixed at 7: with it, four epochs bring the validation accuracy to
    about 2/3 on every corpus tried, while some other initialisations
    stay at chance for the first dozen epochs.
    """

    name = "train"
    kinds = 1
    PER_CLASS = 40
    MODEL_SEED, EPOCHS, LR, BATCH = 7, 4, 3e-3, 32

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.digests = []
        self.params = self.records = None
        n = self.PER_CLASS * len(CLASSES)
        # Train side of train()'s 75/25 stratified split: round(N * 0.75).
        self.images_per_op = math.floor(n * 0.75 + 0.5) * self.EPOCHS

    def setup(self):
        base = _seed_base(self.seed, 0)
        items = [bcnn.data.synth_generate(c, 64, base + i)
                 for c in CLASSES for i in range(self.PER_CLASS)]
        self.manifest = bcnn.data.DatasetManifest(list(CLASSES), items, provenance="synthetic",
                                                  seed=base)
        # Every tenth image, for comparing trained logits with the reference.
        self.probe_x = _to_input([item.pixels for item in items[::10]])
        self.model_config = bcnn.model.ModelConfig(input_size=64, channels=(16, 32, 64),
                                                   seed=self.MODEL_SEED)
        self.train_config = bcnn.train.TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH,
                                                   lr=self.LR, seed=self.MODEL_SEED,
                                                   optimizer="adam")

    def op(self, i):
        return bcnn.train.train(self.manifest, self.model_config, self.train_config)

    def record(self, i, result):
        self.params, self.records = result
        self.digests.append(reference.params_digest(self.params))

    def verify(self):
        if self.records is None:
            return ["train: no operation completed"]
        errors = []
        if not reference.all_identical(self.digests):
            errors.append(f"train: {len(set(self.digests))} distinct parameter sets "
                          f"from {len(self.digests)} identical calls")
        last = self.records[-1]
        if not last.train_loss < math.log(3):
            errors.append(f"train: final training loss {last.train_loss:.4f} is not below ln 3")
        if not last.val_acc >= 0.5:
            errors.append(f"train: validation accuracy {last.val_acc:.4f} is below 0.5 "
                          f"(chance is 1/3)")
        want = reference.reference_logits(self.params, self.probe_x)
        got, _ = bcnn.model.forward(self.params, bcnn.tensor.Tensor(self.probe_x))
        if not reference.logits_match(got.data, want):
            errors.append("train: trained logits differ from the reference forward")
        return errors


def _resize_centre(pixels, size):
    """Nearest neighbour by pixel centres, written apart from bcnn.data."""
    h, w = pixels.shape
    rows = np.minimum(((np.arange(size) + 0.5) * h / size).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(size) + 0.5) * w / size).astype(np.int64), w - 1)
    return pixels[np.ix_(rows, cols)]


class Predict:
    """One in-process ``bcnn predict`` run on one of eight 96x96 PGM files
    (classes in turn) with a He-initialised 64x64 checkpoint."""

    name = "predict"
    FILES, SIZE = 8, 96
    kinds = FILES
    images_per_op = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = work_dir
        self.outputs = [set() for _ in range(self.FILES)]

    def setup(self):
        base = _seed_base(self.seed, 1)
        self.paths, self.pixels = [], []
        for k in range(self.FILES):
            item = bcnn.data.synth_generate(CLASSES[k % 3], self.SIZE, base + k)
            path = self.work / f"image_{k}.pgm"
            bcnn.netpbm.write_pgm(path, item.pixels)
            self.paths.append(str(path))
            self.pixels.append(item.pixels)
        config = bcnn.model.ModelConfig(input_size=64, channels=(16, 32, 64),
                                        seed=_seed_base(self.seed, 2))
        self.params = bcnn.model.build_model(config)
        self.checkpoint = str(self.work / "model.bcnn")
        bcnn.train.save_checkpoint(self.checkpoint, bcnn.train.Checkpoint(
            version=bcnn.train.CHECKPOINT_VERSION, config=config, params=self.params))

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = bcnn.cli.main(["predict", "--image", self.paths[i % self.FILES],
                                "--checkpoint", self.checkpoint])
        if rc != 0:
            raise RuntimeError(f"bcnn predict exited {rc}")
        return buf.getvalue()

    def record(self, i, text):
        self.outputs[i % self.FILES].add(text)

    def verify(self):
        errors = []
        x = _to_input([_resize_centre(p, 64) for p in self.pixels])
        want = reference.reference_logits(self.params, x)
        for k, texts in enumerate(self.outputs):
            if len(texts) > 1:
                errors.append(f"predict: image {k} gave {len(texts)} different outputs")
            for text in texts:
                if not reference.predict_output_ok(text, want[k]):
                    errors.append(f"predict: image {k} output disagrees with the reference: "
                                  f"{text!r}")
        return errors


class Corpus:
    """One round: draw one 64x64 image per class, write each as PGM, read
    each back, and augment the three with one variant each.  Rounds cycle
    through 32 seeds, so a repeated seed must repeat its bytes."""

    name = "corpus"
    ROUNDS, SIZE = 32, 64
    kinds = ROUNDS
    images_per_op = len(CLASSES)

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = work_dir
        self.first = {}
        self.errors = []

    def setup(self):
        base = _seed_base(self.seed, 3)
        self.round_seeds = [base + r for r in range(self.ROUNDS)]
        self.paths = [self.work / f"{c}.pgm" for c in CLASSES]

    def op(self, i):
        seed = self.round_seeds[i % self.ROUNDS]
        drawn, back = [], []
        for cls, path in zip(CLASSES, self.paths):
            item = bcnn.data.synth_generate(cls, self.SIZE, seed)
            bcnn.netpbm.write_pgm(path, item.pixels)
            back.append(bcnn.netpbm.read_image(path))
            drawn.append(item)
        manifest = bcnn.data.DatasetManifest(list(CLASSES), drawn, provenance="synthetic",
                                             seed=seed)
        spec = bcnn.data.AugmentSpec(variants=1, seed=seed)
        return drawn, back, bcnn.data.augment_dataset(manifest, spec)

    def record(self, i, result):
        drawn, back, augmented = result
        r = i % self.ROUNDS
        pixels = [item.pixels for item in drawn]
        if r not in self.first:
            self.first[r] = pixels
        elif any(a.tobytes() != b.tobytes() for a, b in zip(pixels, self.first[r])):
            self.errors.append(f"corpus: round {r} drew different bytes for the same seed")
        if [item.label for item in drawn] != [0, 1, 2]:
            self.errors.append(f"corpus: round {r} drew labels {[it.label for it in drawn]}")
        if any(not np.array_equal(a, b) for a, b in zip(pixels, back)):
            self.errors.append(f"corpus: round {r} read back different pixels")
        labels = [item.label for item in augmented.items]
        if len(labels) != 3 * (1 + 1) or labels != [0, 1, 2, 0, 1, 2]:
            self.errors.append(f"corpus: round {r} augmented to labels {labels}")

    def verify(self):
        errors = list(self.errors)
        for r, pixels in sorted(self.first.items()):
            for cls, px in zip(CLASSES, pixels):
                if not reference.structure_ok(cls, px):
                    errors.append(f"corpus: round {r} {cls} image lacks its class structure")
        return errors


WORKLOADS = {w.name: w for w in (Train, Predict, Corpus)}
