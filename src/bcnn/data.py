"""Dataset loading, splitting, augmentation, synthesis, and batching.

Images are (H, W) uint8 grayscale arrays.  A corpus on disk is one
directory per class, holding binary PGM/PPM files; class labels follow
the sorted directory names.  The synthetic generator draws the three
pavement distress patterns this package classifies: fatigue crack
networks, single linear cracks, and potholes.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_csv
from .errors import BcnnError, ConfigError, ConsistencyError, CorpusError
from .netpbm import read_image

__all__ = [
    "CLASS_NAMES",
    "MAX_INPUT_SIZE",
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

# The largest image side a synthetic image or a model input may have.  At
# 1024 a batch-1 forward peaks near 354 MiB and a 32-image trace holds
# about 4.9 GiB, so one input file cannot ask for more than that.
MAX_INPUT_SIZE = 1024

# Pixels below this value count as distress when validating synthetic
# images; synthetic backgrounds stay at 140 or above, distress at 95 or
# below, so the two populations never straddle the threshold.
DARK_THRESHOLD = 120

_IMAGE_SUFFIXES = (".pgm", ".ppm")


def _is_int(value):
    """True for Python and numpy integers other than bool, which Python
    counts as int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """True for Python and numpy integers and floats other than bool."""
    return isinstance(value, (float, np.floating)) or _is_int(value)


# The augmentation rules: angles are any finite float, and scale and
# brightness factors lie in these ranges.  Finite bounds exclude inf and nan.
_ANGLES = (-sys.float_info.max, sys.float_info.max)
_SCALES, _BRIGHTNESS = (0.5, 2.0), (0.25, 4.0)


def _finite_float(value, bounds=_ANGLES):
    """``value`` as a float if it is a real number within ``bounds``, else None."""
    try:
        out = float(value) if _is_real(value) else math.nan
    except OverflowError:
        return None
    return out if bounds[0] <= out <= bounds[1] else None


def _tuple_of(values, is_kind, kind):
    """``values`` converted item by item with ``kind``, or None unless it
    is an iterable whose items all pass ``is_kind`` and convert."""
    try:
        items = tuple(values)
        return tuple(kind(v) for v in items) if all(map(is_kind, items)) else None
    except (TypeError, OverflowError):
        return None


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
        if not _is_int(self.label) or self.label < 0:
            raise CorpusError(f"label must be a non-negative integer, got {self.label!r}")
        self.pixels = arr
        self.label = int(self.label)


_PROVENANCES = ("loaded", "synthetic", "augmented")


@dataclass
class DatasetManifest:
    """An ordered collection of labeled images plus bookkeeping.

    ``provenance`` records how the items came to be; ``seed`` is the seed
    that produced them (None for corpora read from disk).
    """

    class_names: list
    items: list
    provenance: str = "loaded"
    seed: int = None

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
    class, fewer than two class directories, or a class directory name
    that is not valid UTF-8 (so cannot be printed or written as text) is
    an error.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise CorpusError(f"corpus root {root!r} is not a directory")
    class_dirs = sorted(p for p in rootp.iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise CorpusError(
            f"corpus needs at least two class directories, found {len(class_dirs)}")
    for cdir in class_dirs:
        try:
            cdir.name.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"class directory name {cdir.name!r} is not valid UTF-8") from None
    items = []
    for label, cdir in enumerate(class_dirs):
        found = 0
        for f in sorted(p for p in cdir.iterdir() if p.is_file()):
            if f.suffix.lower() not in _IMAGE_SUFFIXES:
                warnings.warn(f"skipping {f}: not a PGM/PPM file")
                continue
            try:
                pixels = read_image(f)
                items.append(LabeledImage(pixels, label, path=str(f)))
                found += 1
            except (BcnnError, OSError) as exc:
                warnings.warn(f"skipping {f}: {exc}")
        if not found:
            raise CorpusError(f"class directory {cdir} has no usable images")
    return DatasetManifest([d.name for d in class_dirs], items, provenance="loaded", seed=None)


def stratified_split(manifest, train_ratio, seed):
    """Splits into (train, val) manifests preserving class proportions.

    Items are shuffled within each class by a per-class stream derived
    from ``seed``.  Each class contributes floor(n_k * ratio) items to the
    train side, then remainder items (at most one per class, in ascending
    label order) top the train side up to round(N * ratio).
    """
    if not (_is_real(train_ratio) and 0 < train_ratio < 1):
        raise ConfigError(f"train_ratio must lie strictly between 0 and 1, got {train_ratio!r}")
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
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
                                         provenance=manifest.provenance, seed=seed)
    return make(train_items), make(val_items)


# ---------------------------------------------------------------------------
# single-image transforms


def rotate(pixels, angle):
    """Rotates counterclockwise by ``angle`` degrees.

    Multiples of 90 are exact index permutations; any other angle uses an
    inverse-map nearest-neighbour resample around the image centre, with
    pixels that fall outside the source filled by the image median.  A
    non-numeric or non-finite angle raises :class:`ConfigError`.
    """
    a = _finite_float(angle)
    if a is None:
        raise ConfigError(f"rotation angle must be a finite number, got {angle!r}")
    pixels = np.asarray(pixels)
    a %= 360.0
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
    1.0 returns the input bit for bit.  The output is C-contiguous, and
    rows are gathered first, then columns: two 1-D takes.
    """
    pixels = np.asarray(pixels)
    zoom = _finite_float(factor, _SCALES)
    if zoom is None:
        raise ConfigError(f"scale factor must lie in {list(_SCALES)}, got {factor!r}")
    height, width = pixels.shape
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    src_r = np.floor((rows - cy) / zoom + cy + 0.5).astype(np.int64)
    src_c = np.floor((cols - cx) / zoom + cx + 0.5).astype(np.int64)
    src_r = np.minimum(np.maximum(src_r, 0), height - 1)
    src_c = np.minimum(np.maximum(src_c, 0), width - 1)
    return pixels.take(src_r, axis=0).take(src_c, axis=1)


def adjust_brightness(pixels, factor):
    """Multiplies intensities by ``factor`` in [0.25, 4.0], rounding half
    up and clamping to [0, 255].  Factor 1.0 returns the input bit for bit."""
    pixels = np.asarray(pixels)
    gain = _finite_float(factor, _BRIGHTNESS)
    if gain is None:
        raise ConfigError(f"brightness factor must lie in {list(_BRIGHTNESS)}, got {factor!r}")
    scaled = np.floor(pixels.astype(np.float64) * gain + 0.5)
    return np.minimum(np.maximum(scaled, 0), 255).astype(np.uint8)


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
        for name, bounds, rule in (
                ("rotations", _ANGLES, "rotation angles must be finite"),
                ("scales", _SCALES, f"scale factors must lie in {list(_SCALES)}"),
                ("brightness", _BRIGHTNESS, f"brightness factors must lie in {list(_BRIGHTNESS)}")):
            given = getattr(self, name)
            values = _tuple_of(given, _is_real, float)
            if values is None:
                raise ConfigError(f"{name} must be a sequence of numbers, got {given!r}")
            if not values:
                raise ConfigError("every augmentation parameter set needs at least one value")
            if None in (_finite_float(v, bounds) for v in values):
                raise ConfigError(f"{rule}, got {values}")
            setattr(self, name, values)
        if not _is_int(self.variants) or self.variants < 0:
            raise ConfigError(f"variants must be a non-negative integer, got {self.variants!r}")
        if not _is_int(self.seed) or self.seed < 0:
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
    return DatasetManifest(manifest.class_names, out, provenance="augmented", seed=spec.seed)


# ---------------------------------------------------------------------------
# synthetic corpus


def label_components(mask):
    """8-connected component labels of a boolean mask.

    Returns ``(labels, count)`` with labels 1..count; pixels that touch at
    an edge or a corner share a component.

    Components are numbered in the row-major order of their first pixel.
    The mask is labelled by its horizontal runs, not its pixels (He, Chao
    & Suzuki, 2008).  A run ``[s, e)`` in one row touches a run
    ``[s', e')`` in the next iff ``s' <= e`` and ``e' >= s``; keyed by row,
    both bounds of every run's touching range come from one binary search
    each.  Each run starts as its own root, and each pass hooks every root
    to the smallest root it is joined to, then jumps every run to its
    root's root (Shiloach & Vishkin, 1982), until no touching pair joins
    two roots.  A component's root is then its first run in row-major
    order, which holds its first pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    rows, cols = np.diff(mask, axis=1, prepend=False, append=False).nonzero()
    # Run bounds lie in 0..width, so keys row * (width + 1) + bound sort in
    # row-major order, and adding width + 1 moves a bound to the next row.
    row_key = rows[0::2] * (width + 1)
    starts, ends = row_key + cols[0::2], row_key + cols[1::2]
    first = np.searchsorted(ends, starts + (width + 1))  # the next row's runs from here ...
    past = np.searchsorted(starts, ends + (width + 1), "right")  # ... up to here touch
    touching = past - first
    upper = np.repeat(np.arange(starts.size), touching)
    lower = np.arange(upper.size) + np.repeat(first - np.cumsum(touching) + touching, touching)
    roots = np.arange(starts.size)
    while True:
        a, b = roots[upper], roots[lower]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(roots, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
    component, numbered = np.unique(roots, return_inverse=True)
    labels = np.zeros((height, width), dtype=np.int32)
    labels[mask] = np.repeat(numbered + 1, ends - starts)
    return labels, component.size


def _draw_background(size, rng):
    coarse_n = size // 8 + 2
    coarse = rng.integers(150, 211, size=(coarse_n, coarse_n))
    canvas = coarse.repeat(8, axis=0).repeat(8, axis=1)[:size, :size]
    canvas = canvas + rng.integers(-12, 13, size=(size, size))
    return np.minimum(np.maximum(canvas, 140), 225).astype(np.uint8)


def _darkness(size, rng):
    base = rng.integers(40, 86)
    spread = base + rng.integers(-10, 11, size=(size, size))
    return np.minimum(np.maximum(spread, 30), 110).astype(np.uint8)


def _stamp_polyline(canvas, dark, polylines, width):
    """Draws polylines through integer anchor points with a square brush.

    Each segment is sampled at ``n = 2 * max(|dr|, |dc|) + 1`` evenly
    spaced points, rounded half up.  Every segment of every polyline is
    sampled at once, with ``np.linspace(0.0, 1.0, n)``'s own arithmetic:
    point k is at ``k * (1.0 / (n - 1))`` and the last one at 1.0.  Every
    brush pixel of every point is written in one assignment; a pixel met
    twice takes the same ``dark`` value either way.
    """
    offsets = np.array({1: (0,), 2: (0, 1), 3: (-1, 0, 1)}[width])
    size = canvas.shape[0]
    anchors = [np.asarray(line) for line in polylines]
    start = np.concatenate([line[:-1] for line in anchors])
    delta = np.concatenate([line[1:] for line in anchors]) - start
    steps = 2 * np.abs(delta).max(axis=1) + 1
    last = np.cumsum(steps) - 1
    segment = np.repeat(np.arange(steps.size), steps)
    k = np.arange(last[-1] + 1) - (last + 1 - steps)[segment]
    ts = k * (1.0 / np.maximum(steps - 1, 1))[segment]
    ts[last] = 1.0  # a one-point segment has delta 0, so its t is moot
    points = np.floor(start[segment] + delta[segment] * ts[:, None] + 0.5).astype(np.int64)
    r = np.minimum(np.maximum(points[:, 0, None, None] + offsets[:, None], 0), size - 1)
    c = np.minimum(np.maximum(points[:, 1, None, None] + offsets, 0), size - 1)
    canvas[r, c] = dark[r, c]


def _span_anchors(size, base, amp, rng, vertical):
    """Five anchor points running border to border, jittered crosswise.

    The points along are ``np.linspace(0, size - 1, 5)`` rounded half up,
    in integers: quarters are exact in binary floating point.
    """
    along = (np.arange(5) * (size - 1) + 2) // 4
    across = np.minimum(np.maximum(base + rng.integers(-amp, amp + 1, size=5), 0), size - 1)
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
    _stamp_polyline(canvas, dark, [anchors], width)
    return canvas


def _draw_fatigue(size, rng):
    canvas = _draw_background(size, rng)
    dark = _darkness(size, rng)
    total = int(rng.integers(4, 9))
    n_vert = int(rng.integers(2, total - 1))
    n_horiz = total - n_vert
    amp = max(1, size // 16)
    polylines = []
    for n, vertical in ((n_vert, True), (n_horiz, False)):
        for i in range(n):
            base = int(round((i + 1) * (size - 1) / (n + 1)))
            polylines.append(_span_anchors(size, base, amp, rng, vertical))
    _stamp_polyline(canvas, dark, polylines, 1)
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


def _euler_number(mask):
    """The 8-connected Euler number of a boolean mask: components minus
    holes, from the 2x2 windows of the zero-padded mask (Gray 1971), as
    ``(n(Q1) - n(Q3) - 2 n(QD)) / 4``, where Q1 and Q3 are the windows
    holding one and three set pixels and QD those holding a diagonal pair."""
    p = np.pad(mask, 1).astype(np.intp)
    quads = np.bincount((p[:-1, :-1] + 2 * p[:-1, 1:] + 4 * p[1:, :-1] + 8 * p[1:, 1:]).ravel(),
                        minlength=16)
    q1 = quads[1] + quads[2] + quads[4] + quads[8]
    q3 = quads[7] + quads[11] + quads[13] + quads[14]
    qd = quads[6] + quads[9]
    return int(q1 - q3 - 2 * qd) // 4


def _signature_ok(label, canvas):
    """Does the drawn image carry its class's defining structure?"""
    mask = canvas < DARK_THRESHOLD
    labels, count = label_components(mask)
    if count == 0:
        return False
    top, bottom, left, right = _border_labels(labels)
    name = CLASS_NAMES[label]
    if name == "linear":
        return bool(top & bottom or left & right)
    if name == "fatigue":
        # An enclosed cell is a 4-connected background component off every
        # border.  With 8-connected foreground and 4-connected background,
        # components minus the Euler number counts exactly those (Gray 1971).
        return bool(top & bottom & left & right) and count > _euler_number(mask)
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
    if not (isinstance(class_name, str) and class_name in CLASS_NAMES):
        raise ConfigError(f"unknown class {class_name!r}; expected one of {CLASS_NAMES}")
    if not (_is_int(size) and 32 <= size <= MAX_INPUT_SIZE):
        raise ConfigError(f"synthetic image size must lie in [32, {MAX_INPUT_SIZE}], "
                          f"got {size!r}")
    if not _is_int(seed) or seed < 0:
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
    """Nearest-neighbour resample of a (H, W) array to a C-contiguous (size,
    size) one, gathering rows first, then columns, as :func:`scale_image` does."""
    if not (_is_int(size) and size >= 1):
        raise ConfigError(f"size must be a positive integer, got {size!r}")
    pixels = np.asarray(pixels)
    height, width = pixels.shape
    if (height, width) == (size, size):
        return pixels.copy()
    src_r = np.minimum((np.arange(size) + 0.5) * height / size, height - 1).astype(np.int64)
    src_c = np.minimum((np.arange(size) + 0.5) * width / size, width - 1).astype(np.int64)
    return pixels.take(src_r, axis=0).take(src_c, axis=1)


def to_batches(manifest, batch_size, shuffle_seed=None, *, size):
    """Packs a manifest into a list of ``(ndarray, labels)`` minibatches.

    Every image is resized to ``size`` x ``size`` by :func:`resize_nn`,
    and its pixel values are scaled to [0, 1] float32 with a single
    channel axis; the labels are int64.  Items are shuffled by
    ``shuffle_seed``, a non-negative integer or a sequence of them (None
    keeps manifest order).  The final batch may be short.
    """
    if not (_is_int(batch_size) and batch_size >= 1):
        raise ConfigError(f"batch_size must be a positive integer, got {batch_size!r}")
    if shuffle_seed is not None:
        seeds = (shuffle_seed,) if _is_int(shuffle_seed) else _tuple_of(shuffle_seed, _is_int, int)
        if seeds is None or any(v < 0 for v in seeds):
            raise ConfigError(f"shuffle_seed must be None, a non-negative integer or a sequence "
                              f"of them, got {shuffle_seed!r}")
    if not manifest.items:
        raise CorpusError("cannot batch an empty manifest")
    order = np.arange(len(manifest.items))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(order)
    items = [manifest.items[i] for i in order]
    labels = np.array([item.label for item in items], dtype=np.int64)
    if labels.max() >= len(manifest.class_names):
        raise ConsistencyError(f"item label {labels.max()} out of range for "
                               f"{len(manifest.class_names)} classes")
    step = int(batch_size)
    batches = []
    for start in range(0, len(items), step):
        chunk = [resize_nn(item.pixels, size) for item in items[start:start + step]]
        batches.append(((np.stack(chunk).astype(np.float32) / np.float32(255.0))[:, None],
                        labels[start:start + step]))
    return batches


def write_manifest_csv(manifest, path):
    """Writes ``path,label,class`` rows for every item, in manifest order."""
    rows = [("path", "label", "class")]
    for item in manifest.items:
        if not item.path:
            raise ConfigError("cannot export a manifest whose items have no file paths")
        rows.append((item.path, str(item.label), manifest.class_names[item.label]))
    write_csv(path, rows)
