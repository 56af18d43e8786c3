"""Output checks made apart from the program under test.

Nothing here calls into ``bcnn``: the cascade is recomputed with direct
3x3 correlations in float64, connected components come from a small
union-find of this file's own, and the structural signatures follow the
documentation of ``bcnn.data.synth_generate`` rather than its code.
"""

import hashlib

import numpy as np

CLASS_NAMES = ("fatigue", "linear", "potholes")

# Synthetic backgrounds are drawn in [140, 225] and distress in [30, 95]
# (bcnn.data docstrings); a pixel between the two bands means a drawing
# fault, and 120 separates the bands for the component masks.
DARK_MAX = 95
LIGHT_MIN = 140
DARK_THRESHOLD = 120


# ---------------------------------------------------------------------------
# reference forward


def _conv3x3(x, w, b):
    """Zero-padded 3x3 cross-correlation as a sum of nine shifted slices."""
    batch, _, height, width = x.shape
    xp = np.zeros((batch, x.shape[1], height + 2, width + 2))
    xp[:, :, 1:-1, 1:-1] = x
    out = np.zeros((batch, w.shape[0], height, width))
    for di in range(3):
        for dj in range(3):
            window = xp[:, :, di:di + height, dj:dj + width]
            out += np.einsum("oc,bchw->bohw", w[:, :, di, dj], window, optimize=True)
    return out + b[None, :, None, None]


def _maxpool2(x):
    batch, chans, height, width = x.shape
    return x.reshape(batch, chans, height // 2, 2, width // 2, 2).max(axis=(3, 5))


def _relu(x):
    return np.maximum(x, 0.0)


def _upsample2(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


def reference_logits(params, images):
    """Logits of the bidirectional cascade in float64.

    ``params`` maps the parameter names of the checkpoint format
    (``fwd{k}_w``, ``refine{k}_w``, ``head_w`` and their biases) to
    arrays; ``images`` is (B, 1, H, W) with values in [0, 1].
    """
    p = {name: np.asarray(getattr(t, "data", t), dtype=np.float64) for name, t in params.items()}
    stages = 0
    while f"fwd{stages + 1}_w" in p:
        stages += 1
    f_maps = []
    cur = np.asarray(images, dtype=np.float64)
    for k in range(1, stages + 1):
        cur = _maxpool2(_relu(_conv3x3(cur, p[f"fwd{k}_w"], p[f"fwd{k}_b"])))
        f_maps.append(cur)
    coarse = f_maps[-1]
    for k in range(stages - 1, 0, -1):
        fused = np.concatenate([f_maps[k - 1], _upsample2(coarse)], axis=1)
        coarse = _relu(_conv3x3(fused, p[f"refine{k}_w"], p[f"refine{k}_b"]))
    pooled = np.concatenate([coarse.mean(axis=(2, 3)), f_maps[-1].mean(axis=(2, 3))], axis=1)
    return pooled @ p["head_w"] + p["head_b"]


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logits_match(got, want, tol=1e-3):
    """float32 program logits against float64 reference logits."""
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


def parse_predict_output(text):
    """(class name, {class: probability}) from ``bcnn predict`` stdout."""
    winner, probs = None, None
    for line in text.splitlines():
        if line.startswith("class: "):
            winner = line[len("class: "):].strip()
        elif line.startswith("probabilities: "):
            probs = {}
            for tok in line[len("probabilities: "):].split():
                name, value = tok.split("=")
                probs[name] = float(value)
    return winner, probs


def predict_output_ok(text, ref_logits, names=CLASS_NAMES):
    """Printed class is the reference argmax; every printed probability is
    within one unit of the fourth decimal of the reference softmax."""
    winner, probs = parse_predict_output(text)
    if winner is None or probs is None or list(probs) != list(names):
        return False
    ref_p = softmax(np.asarray(ref_logits, dtype=np.float64))
    if winner != names[int(np.argmax(ref_logits))]:
        return False
    return all(abs(probs[n] - ref_p[i]) <= 1e-4 for i, n in enumerate(names))


# ---------------------------------------------------------------------------
# determinism


def params_digest(params):
    """SHA-256 over every parameter's name, shape, dtype and bytes, in order."""
    h = hashlib.sha256()
    for name, t in params.items():
        arr = np.ascontiguousarray(getattr(t, "data", t))
        h.update(f"{name}:{arr.shape}:{arr.dtype.str};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def all_identical(digests):
    """True when at least one digest was taken and all of them agree."""
    return len(digests) >= 1 and len(set(digests)) == 1


# ---------------------------------------------------------------------------
# connected components and class structure


def components(mask, diagonal):
    """Component id per pixel (-1 off the mask) and the component count.

    Union-find with vectorised hooking and pointer jumping; ``diagonal``
    selects 8-connectivity over 4-connectivity.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    index = np.arange(height * width).reshape(height, width)
    offsets = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if diagonal else [])
    heads, tails = [], []
    for dr, dc in offsets:
        r0, r1 = 0, height - dr
        c0, c1 = max(0, -dc), width - max(0, dc)
        a = mask[r0:r1, c0:c1] & mask[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        heads.append(index[r0:r1, c0:c1][a])
        tails.append(index[r0 + dr:r1 + dr, c0 + dc:c1 + dc][a])
    a, b = np.concatenate(heads), np.concatenate(tails)
    parent = np.arange(height * width)
    while True:
        pa, pb = parent[a], parent[b]
        differ = pa != pb
        if not differ.any():
            break
        np.minimum.at(parent, np.maximum(pa, pb)[differ], np.minimum(pa, pb)[differ])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots = parent.reshape(height, width)
    ids = np.full((height, width), -1)
    uniq, inverse = np.unique(roots[mask], return_inverse=True)
    ids[mask] = inverse
    return ids, uniq.size


def _extents(ids, count):
    """Per component: (touches top, bottom, left, right, area, bbox area)."""
    out = []
    for c in range(count):
        rows, cols = np.nonzero(ids == c)
        h, w = ids.shape
        out.append((rows.min() == 0, rows.max() == h - 1, cols.min() == 0, cols.max() == w - 1,
                    rows.size, (rows.max() - rows.min() + 1) * (cols.max() - cols.min() + 1)))
    return out


def structure_ok(class_name, pixels):
    """Does a synthetic image carry the structure documented for its class?

    - fatigue: one dark 8-connected web touches all four borders and
      encloses at least one 4-connected background cell;
    - linear: a dark component runs between opposite borders, and none
      touches all four (that would be a web);
    - potholes: exactly one dark component, touching no border and
      filling at least 60% of its bounding box.

    The three signatures exclude one another, so an image checked under
    another class's name is rejected.
    """
    px = np.asarray(pixels)
    if px.ndim != 2 or px.dtype != np.uint8 or px.shape[0] != px.shape[1]:
        return False
    if np.any((px > DARK_MAX) & (px < LIGHT_MIN)):
        return False
    dark = px < DARK_THRESHOLD
    ids, count = components(dark, diagonal=True)
    if count == 0:
        return False
    ext = _extents(ids, count)
    web = any(t and b and l and r for t, b, l, r, _, _ in ext)
    if class_name == "fatigue":
        if not web:
            return False
        bg_ids, bg_count = components(~dark, diagonal=False)
        edge = np.concatenate([bg_ids[0], bg_ids[-1], bg_ids[:, 0], bg_ids[:, -1]])
        return bg_count > np.unique(edge[edge >= 0]).size
    if class_name == "linear":
        return not web and any((t and b) or (l and r) for t, b, l, r, _, _ in ext)
    if class_name == "potholes":
        if count != 1:
            return False
        t, b, l, r, area, bbox = ext[0]
        return not (t or b or l or r) and area / bbox >= 0.6
    return False
