"""Dataset loading, splitting, augmentation, synthesis, and batching.

Images are (H, W) uint8 grayscale arrays.  A corpus on disk is one
directory per class, holding binary PGM/PPM files; class labels follow
the sorted directory names.  The synthetic generator draws the three
pavement distress patterns this package classifies: fatigue crack
networks, single linear cracks, and potholes.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import (BcnnError, ConfigError, ConsistencyError, CorpusError,
                     DimensionError)
from .netpbm import read_image
from .tensor import Tensor

__all__ = [
    "CLASS_NAMES",
    "LabeledImage",
    "DatasetManifest",
    "AugmentSpec",
    "load_dataset",
    "stratified_split",
    "rotate",
    "scale_image",
    "adjust_brightness",
    "augment_dataset",
    "synth_generate",
    "to_batches",
    "resize_nn",
    "write_manifest_csv",
    "label_components",
]

CLASS_NAMES = ("fatigue", "linear", "potholes")

# Pixels below this value count as distress when validating synthetic
# images; synthetic backgrounds stay at 140 or above, distress at 95 or
# below, so the two populations never straddle the threshold.
DARK_THRESHOLD = 120

_IMAGE_SUFFIXES = (".pgm", ".ppm")


@dataclass
class LabeledImage:
    """One grayscale image with its class label (and source path, if any)."""

    pixels: np.ndarray
    label: int
    path: str = None

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.dtype != np.uint8:
            raise CorpusError(
                f"image pixels must be a 2-D uint8 array, got shape {arr.shape} dtype {arr.dtype}")
        if min(arr.shape) < 8:
            raise CorpusError(f"images must be at least 8x8, got {arr.shape}")
        if not isinstance(self.label, (int, np.integer)) or self.label < 0:
            raise CorpusError(f"label must be a non-negative integer, got {self.label!r}")
        self.pixels = arr
        self.label = int(self.label)


_PROVENANCES = ("loaded", "synthetic", "augmented")


@dataclass
class DatasetManifest:
    """An ordered collection of labeled images plus bookkeeping.

    ``provenance`` records how the items came to be; ``seed`` is the seed
    that produced them (None for corpora read from disk); ``skipped``
    counts files the loader could not use.
    """

    class_names: list
    items: list
    provenance: str = "loaded"
    seed: int = None
    skipped: int = 0

    def __post_init__(self):
        self.class_names = list(self.class_names)
        if not self.class_names:
            raise CorpusError("a manifest needs at least one class name")
        if len(set(self.class_names)) != len(self.class_names):
            raise CorpusError(f"class names must be unique, got {self.class_names}")
        if self.provenance not in _PROVENANCES:
            raise CorpusError(f"provenance must be one of {_PROVENANCES}, got {self.provenance!r}")
        for item in self.items:
            if item.label >= len(self.class_names):
                raise CorpusError(
                    f"label {item.label} out of range for {len(self.class_names)} classes")

    @property
    def counts(self):
        """Items per class, indexed by label."""
        out = [0] * len(self.class_names)
        for item in self.items:
            out[item.label] += 1
        return out

    def __len__(self):
        return len(self.items)


def load_dataset(root):
    """Reads a class-per-directory corpus of PGM/PPM files.

    Directory names sorted lexicographically define the label order.
    Unreadable or non-image files are skipped with a warning; an empty
    class or fewer than two class directories is an error.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise CorpusError(f"corpus root {root!r} is not a directory")
    class_dirs = sorted(p for p in rootp.iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise CorpusError(
            f"corpus needs at least two class directories, found {len(class_dirs)}")
    items, skipped = [], 0
    for label, cdir in enumerate(class_dirs):
        found = 0
        for f in sorted(p for p in cdir.iterdir() if p.is_file()):
            if f.suffix.lower() not in _IMAGE_SUFFIXES:
                warnings.warn(f"skipping {f}: not a PGM/PPM file")
                skipped += 1
                continue
            try:
                pixels = read_image(f)
                items.append(LabeledImage(pixels, label, path=str(f)))
                found += 1
            except (BcnnError, OSError) as exc:
                warnings.warn(f"skipping {f}: {exc}")
                skipped += 1
        if not found:
            raise CorpusError(f"class directory {cdir} has no usable images")
    return DatasetManifest([d.name for d in class_dirs], items,
                           provenance="loaded", seed=None, skipped=skipped)


def stratified_split(manifest, train_ratio, seed):
    """Splits into (train, val) manifests preserving class proportions.

    Items are shuffled within each class by a per-class stream derived
    from ``seed``.  Each class contributes floor(n_k * ratio) items to the
    train side, then remainder items (at most one per class, in ascending
    label order) top the train side up to round(N * ratio).
    """
    if not 0 < train_ratio < 1:
        raise ConfigError(f"train_ratio must lie strictly between 0 and 1, got {train_ratio}")
    counts = manifest.counts
    for label, n in enumerate(counts):
        if n < 2:
            raise CorpusError(
                f"class '{manifest.class_names[label]}' has {n} items; need at least 2 to split")
    total = len(manifest.items)
    target = int(np.floor(total * train_ratio + 0.5))

    by_class = [[] for _ in counts]
    for idx, item in enumerate(manifest.items):
        by_class[item.label].append(idx)
    take = [int(np.floor(len(g) * train_ratio)) for g in by_class]
    deficit = target - sum(take)
    for label, g in enumerate(by_class):
        if deficit <= 0:
            break
        if take[label] < len(g):
            take[label] += 1
            deficit -= 1

    train_items, val_items = [], []
    for label, g in enumerate(by_class):
        perm = np.random.default_rng((seed, label)).permutation(len(g))
        chosen = [g[i] for i in perm]
        train_items += [manifest.items[i] for i in chosen[:take[label]]]
        val_items += [manifest.items[i] for i in chosen[take[label]:]]
    make = lambda items: DatasetManifest(manifest.class_names, items,
                                         provenance=manifest.provenance, seed=seed,
                                         skipped=manifest.skipped)
    return make(train_items), make(val_items)


# ---------------------------------------------------------------------------
# single-image transforms


def rotate(pixels, angle):
    """Rotates counterclockwise by ``angle`` degrees.

    Multiples of 90 are exact index permutations; any other angle uses an
    inverse-map nearest-neighbour resample around the image centre, with
    pixels that fall outside the source filled by the image median.
    """
    pixels = np.asarray(pixels)
    a = float(angle) % 360.0
    if a in (0.0, 90.0, 180.0, 270.0):
        return np.ascontiguousarray(np.rot90(pixels, int(a // 90)))
    height, width = pixels.shape
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    theta = np.deg2rad(a)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rows = np.arange(height, dtype=np.float64)[:, None] - cy
    cols = np.arange(width, dtype=np.float64)[None, :] - cx
    src_r = np.floor(cy + rows * cos_t + cols * sin_t + 0.5).astype(np.int64)
    src_c = np.floor(cx - rows * sin_t + cols * cos_t + 0.5).astype(np.int64)
    inside = (src_r >= 0) & (src_r < height) & (src_c >= 0) & (src_c < width)
    fill = pixels.dtype.type(np.median(pixels))
    out = np.full(pixels.shape, fill, dtype=pixels.dtype)
    out[inside] = pixels[src_r[inside], src_c[inside]]
    return out


def scale_image(pixels, factor):
    """Zooms about the image centre by ``factor`` in [0.5, 2.0].

    Output size equals input size: zooming in crops to the original frame,
    zooming out replicates edge pixels where the source runs out.  Factor
    1.0 returns the input bit for bit.
    """
    pixels = np.asarray(pixels)
    factor = float(factor)
    if not 0.5 <= factor <= 2.0:
        raise ConfigError(f"scale factor must lie in [0.5, 2.0], got {factor}")
    if factor == 1.0:
        return pixels.copy()
    height, width = pixels.shape
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    src_r = np.floor((rows - cy) / factor + cy + 0.5).astype(np.int64).clip(0, height - 1)
    src_c = np.floor((cols - cx) / factor + cx + 0.5).astype(np.int64).clip(0, width - 1)
    return np.ascontiguousarray(pixels[src_r[:, None], src_c[None, :]])


def adjust_brightness(pixels, factor):
    """Multiplies intensities by ``factor`` in [0.25, 4.0], rounding half
    up and clamping to [0, 255].  Factor 1.0 returns the input bit for bit."""
    pixels = np.asarray(pixels)
    factor = float(factor)
    if not 0.25 <= factor <= 4.0:
        raise ConfigError(f"brightness factor must lie in [0.25, 4.0], got {factor}")
    scaled = np.floor(pixels.astype(np.float64) * factor + 0.5)
    return np.clip(scaled, 0, 255).astype(np.uint8)


@dataclass
class AugmentSpec:
    """Parameter sets for one round of dataset augmentation.

    Every variant composes one rotation, one scale, and one brightness
    draw (in that order), each chosen uniformly from its set.
    """

    rotations: tuple = (90.0, 180.0, 270.0)
    scales: tuple = (0.8, 1.2)
    brightness: tuple = (0.8, 1.2)
    variants: int = 1
    seed: int = 0

    def __post_init__(self):
        self.rotations = tuple(float(r) for r in self.rotations)
        self.scales = tuple(float(s) for s in self.scales)
        self.brightness = tuple(float(b) for b in self.brightness)
        if not (self.rotations and self.scales and self.brightness):
            raise ConfigError("every augmentation parameter set needs at least one value")
        if not all(np.isfinite(self.rotations)):
            raise ConfigError(f"rotation angles must be finite, got {self.rotations}")
        if any(not 0.5 <= s <= 2.0 for s in self.scales):
            raise ConfigError(f"scale factors must lie in [0.5, 2.0], got {self.scales}")
        if any(not 0.25 <= b <= 4.0 for b in self.brightness):
            raise ConfigError(f"brightness factors must lie in [0.25, 4.0], got {self.brightness}")
        if not isinstance(self.variants, int) or self.variants < 0:
            raise ConfigError(f"variants must be a non-negative integer, got {self.variants!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


def augment_dataset(manifest, spec):
    """All originals plus ``spec.variants`` transformed copies of each.

    Variant j of item i draws its parameters from a stream seeded by
    ``(spec.seed, i, j)``, so results do not depend on processing order
    and labels are carried over unchanged.
    """
    out = list(manifest.items)
    for i, item in enumerate(manifest.items):
        for j in range(spec.variants):
            rng = np.random.default_rng((spec.seed, i, j))
            angle = spec.rotations[rng.integers(len(spec.rotations))]
            scale = spec.scales[rng.integers(len(spec.scales))]
            bright = spec.brightness[rng.integers(len(spec.brightness))]
            pixels = adjust_brightness(scale_image(rotate(item.pixels, angle), scale), bright)
            out.append(LabeledImage(pixels, item.label, path=None))
    return DatasetManifest(manifest.class_names, out,
                           provenance="augmented", seed=spec.seed,
                           skipped=manifest.skipped)


# ---------------------------------------------------------------------------
# synthetic corpus


def label_components(mask, diagonal=True):
    """Connected-component labels of a boolean mask.

    Returns ``(labels, count)`` with labels 1..count; ``diagonal`` selects
    8-connectivity (used for dark distress pixels) over 4-connectivity
    (used for background regions, so a hairline diagonal crack still
    separates the cells it encloses).

    Components are numbered in the row-major order of their first pixel:
    each masked pixel starts with its flat index as its root, and each
    pass hooks a pixel and its root to the smallest root next to it, then
    jumps every root to its root's root (Shiloach & Vishkin, 1982), until
    no pixel has a neighbour with a smaller root.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    flat = mask.ravel()
    none = height * width  # the background's root; roots[none] == none
    roots = np.full(none + 1, none, dtype=np.intp)
    roots[:-1][flat] = np.flatnonzero(flat)
    padded = np.full((height + 2, width + 2), none, dtype=np.intp)
    inner = padded[1:-1, 1:-1]
    if diagonal:
        steps = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    else:
        steps = ((-1, 0), (1, 0), (0, -1), (0, 1))
    while True:
        inner[...] = roots[:-1].reshape(height, width)
        low = inner.copy()
        for dr, dc in steps:
            np.minimum(low, padded[1 + dr:1 + dr + height, 1 + dc:1 + dc + width], out=low)
        low = np.where(flat, low.ravel(), none)
        if np.array_equal(low, roots[:-1]):
            break
        np.minimum.at(roots, roots[:-1].copy(), low)
        np.minimum(roots[:-1], low, out=roots[:-1])
        roots = roots[roots]
    first, numbered = np.unique(roots[:-1][flat], return_inverse=True)
    labels = np.zeros((height, width), dtype=np.int32)
    labels[mask] = numbered + 1
    return labels, len(first)


def _draw_background(size, rng):
    coarse_n = size // 8 + 2
    coarse = rng.integers(150, 211, size=(coarse_n, coarse_n))
    canvas = coarse.repeat(8, axis=0).repeat(8, axis=1)[:size, :size]
    canvas = canvas + rng.integers(-12, 13, size=(size, size))
    return np.clip(canvas, 140, 225).astype(np.uint8)


def _darkness(size, rng):
    base = rng.integers(40, 86)
    return np.clip(base + rng.integers(-10, 11, size=(size, size)), 30, 110).astype(np.uint8)


def _stamp_polyline(canvas, dark, anchors, width):
    """Draws a polyline through integer anchor points with a square brush."""
    offsets = {1: (0,), 2: (0, 1), 3: (-1, 0, 1)}[width]
    size = canvas.shape[0]
    for (r0, c0), (r1, c1) in zip(anchors[:-1], anchors[1:]):
        steps = 2 * max(abs(r1 - r0), abs(c1 - c0)) + 1
        ts = np.linspace(0.0, 1.0, steps)
        rr = np.floor(r0 + (r1 - r0) * ts + 0.5).astype(np.int64)
        cc = np.floor(c0 + (c1 - c0) * ts + 0.5).astype(np.int64)
        for dr in offsets:
            for dc in offsets:
                r = np.clip(rr + dr, 0, size - 1)
                c = np.clip(cc + dc, 0, size - 1)
                canvas[r, c] = dark[r, c]


def _span_anchors(size, base, amp, rng, vertical):
    """Five anchor points running border to border, jittered crosswise."""
    along = np.floor(np.linspace(0, size - 1, 5) + 0.5).astype(np.int64)
    across = np.clip(base + rng.integers(-amp, amp + 1, size=5), 0, size - 1)
    if vertical:
        return list(zip(along, across))
    return list(zip(across, along))


def _draw_linear(size, rng):
    canvas = _draw_background(size, rng)
    dark = _darkness(size, rng)
    width = int(rng.integers(1, 4))
    vertical = bool(rng.integers(2))
    base = int(rng.integers(size // 4, 3 * size // 4 + 1))
    anchors = _span_anchors(size, base, max(2, size // 10), rng, vertical)
    _stamp_polyline(canvas, dark, anchors, width)
    return canvas


def _draw_fatigue(size, rng):
    canvas = _draw_background(size, rng)
    dark = _darkness(size, rng)
    total = int(rng.integers(4, 9))
    n_vert = int(rng.integers(2, total - 1))
    n_horiz = total - n_vert
    amp = max(1, size // 16)
    for i in range(n_vert):
        base = int(round((i + 1) * (size - 1) / (n_vert + 1)))
        _stamp_polyline(canvas, dark, _span_anchors(size, base, amp, rng, True), 1)
    for i in range(n_horiz):
        base = int(round((i + 1) * (size - 1) / (n_horiz + 1)))
        _stamp_polyline(canvas, dark, _span_anchors(size, base, amp, rng, False), 1)
    return canvas


def _draw_pothole(size, rng):
    canvas = _draw_background(size, rng)
    dark = _darkness(size, rng)
    major = rng.uniform(0.20, 0.40) * size / 2.0
    ratio = rng.uniform(max(0.55, 0.15 * size / (2.0 * major)), 1.0)
    minor = major * ratio
    lo = int(np.ceil(major)) + 3
    hi = size - 1 - lo
    cy = int(rng.integers(lo, hi + 1))
    cx = int(rng.integers(lo, hi + 1))
    phi = rng.uniform(0.0, np.pi)
    rows = np.arange(size, dtype=np.float64)[:, None] - cy
    cols = np.arange(size, dtype=np.float64)[None, :] - cx
    u = (rows * np.cos(phi) + cols * np.sin(phi)) / major
    v = (-rows * np.sin(phi) + cols * np.cos(phi)) / minor
    mask = u * u + v * v <= 1.0
    canvas[mask] = dark[mask]
    return canvas


def _border_labels(labels):
    """The sets of component labels on the top, bottom, left and right borders."""
    return [set(edge.tolist()) - {0}
            for edge in (labels[0], labels[-1], labels[:, 0], labels[:, -1])]


def _signature_ok(label, canvas):
    """Does the drawn image carry its class's defining structure?"""
    mask = canvas < DARK_THRESHOLD
    labels, count = label_components(mask, diagonal=True)
    if count == 0:
        return False
    top, bottom, left, right = _border_labels(labels)
    name = CLASS_NAMES[label]
    if name == "linear":
        return bool(top & bottom or left & right)
    if name == "fatigue":
        if not top & bottom & left & right:
            return False
        bg_labels, bg_count = label_components(~mask, diagonal=False)
        return bg_count > len(set.union(*_border_labels(bg_labels)))
    if name == "potholes":
        if count != 1 or top | bottom | left | right:
            return False
        ys, xs = np.nonzero(mask)
        bbox = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
        return ys.size / bbox >= 0.6
    raise ConfigError(f"unknown class label {label}")


_DRAWERS = {"fatigue": _draw_fatigue, "linear": _draw_linear, "potholes": _draw_pothole}


def synth_generate(class_name, size, seed):
    """One synthetic image of ``class_name`` at ``size`` x ``size``.

    Deterministic in (class, size, seed).  Each draw is validated against
    the class's structural signature (a linear crack spans opposite
    borders; a fatigue web touches all four borders and encloses at least
    one background cell; a pothole is a single borderless blob filling at
    least 60% of its bounding box) and re-drawn from the next derived
    stream on the rare miss, so returned images always carry their label's
    structure.
    """
    if class_name not in CLASS_NAMES:
        raise ConfigError(f"unknown class {class_name!r}; expected one of {CLASS_NAMES}")
    if not (isinstance(size, (int, np.integer)) and size >= 32):
        raise ConfigError(f"synthetic images must be at least 32x32, got size {size!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    label = CLASS_NAMES.index(class_name)
    for attempt in range(64):
        rng = np.random.default_rng((label, size, seed, attempt))
        canvas = _DRAWERS[class_name](int(size), rng)
        if _signature_ok(label, canvas):
            return LabeledImage(canvas, label, path=None)
    raise CorpusError(
        f"could not draw a valid '{class_name}' image for seed {seed} in 64 attempts")


# ---------------------------------------------------------------------------
# batching


def resize_nn(pixels, size):
    """Nearest-neighbour resample of a (H, W) array to (size, size)."""
    pixels = np.asarray(pixels)
    height, width = pixels.shape
    if (height, width) == (size, size):
        return pixels.copy()
    src_r = np.minimum((np.arange(size) + 0.5) * height / size, height - 1).astype(np.int64)
    src_c = np.minimum((np.arange(size) + 0.5) * width / size, width - 1).astype(np.int64)
    return np.ascontiguousarray(pixels[src_r[:, None], src_c[None, :]])


def to_batches(manifest, batch_size, shuffle_seed=None, size=None):
    """Packs a manifest into a list of ``(Tensor, labels)`` minibatches.

    Pixel values are scaled to [0, 1] float32 with a single channel axis;
    items are optionally resized to ``size`` x ``size`` and shuffled by
    ``shuffle_seed`` (None keeps manifest order).  The final batch may be
    short.
    """
    if not (isinstance(batch_size, (int, np.integer)) and batch_size >= 1):
        raise ConfigError(f"batch_size must be a positive integer, got {batch_size!r}")
    if not manifest.items:
        raise CorpusError("cannot batch an empty manifest")
    n_classes = len(manifest.class_names)
    for item in manifest.items:
        if item.label >= n_classes:
            raise ConsistencyError(
                f"item label {item.label} out of range for {n_classes} classes")
    order = np.arange(len(manifest.items))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(order)

    arrays, labels = [], []
    shape0 = None
    for idx in order:
        item = manifest.items[idx]
        px = resize_nn(item.pixels, size) if size is not None else item.pixels
        if shape0 is None:
            shape0 = px.shape
        elif px.shape != shape0:
            raise DimensionError(
                f"images disagree on size ({shape0} vs {px.shape}); pass an explicit size")
        arrays.append(px)
        labels.append(item.label)

    batches = []
    for start in range(0, len(arrays), int(batch_size)):
        chunk = arrays[start:start + int(batch_size)]
        x = np.stack(chunk).astype(np.float32) / np.float32(255.0)
        y = np.asarray(labels[start:start + int(batch_size)], dtype=np.int64)
        batches.append((Tensor(x[:, None, :, :]), y))
    return batches


def write_manifest_csv(manifest, path):
    """Writes ``path,label,class`` rows for every item, in manifest order."""
    lines = ["path,label,class"]
    for item in manifest.items:
        if not item.path:
            raise ConfigError("cannot export a manifest whose items have no file paths")
        lines.append(f"{item.path},{item.label},{manifest.class_names[item.label]}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))
