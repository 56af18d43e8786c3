"""Corpus loading, augmentation operators, the synthetic generator, batching.

Connected-component claims about synthetic images are verified with
scipy.ndimage as an oracle independent of the package's own labeling.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from bcnn.data import (
    CLASS_NAMES,
    DARK_THRESHOLD,
    MAX_INPUT_SIZE,
    AugmentSpec,
    DatasetManifest,
    LabeledImage,
    adjust_brightness,
    augment_dataset,
    label_components,
    load_dataset,
    resize_nn,
    rotate,
    scale_image,
    stratified_split,
    synth_generate,
    to_batches,
    write_manifest_csv,
)
from bcnn.data import (_DRAWERS, _darkness, _draw_background, _euler_number, _signature_ok,
                       _span_anchors, _stamp_polyline)
from bcnn.errors import ConfigError, ConsistencyError, CorpusError, FormatError
from bcnn.netpbm import read_image, rgb_to_gray, write_pgm

EIGHT = np.ones((3, 3), dtype=int)  # scipy structure for 8-connectivity


def stamp_image(value, size=8):
    """A constant uint8 image carrying an identifying value."""
    return np.full((size, size), value % 256, dtype=np.uint8)


def make_manifest(counts, class_names=None):
    names = class_names or [f"class{i}" for i in range(len(counts))]
    items, stamp = [], 0
    for label, n in enumerate(counts):
        for _ in range(n):
            px = stamp_image(stamp)
            px[0, 0] = stamp % 256
            px[0, 1] = stamp // 256
            items.append(LabeledImage(px, label))
            stamp += 1
    return DatasetManifest(names, items)


def stamp_of(item):
    return int(item.pixels[0, 0]) + 256 * int(item.pixels[0, 1])


# ---------------------------------------------------------------------------
# netpbm


def test_pgm_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_image(path), img)


def test_ppm_roundtrip_applies_luma(tmp_path):
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n4 5\n255\n" + rgb.tobytes())
    got = read_image(path)
    r, g, b = (rgb[..., k].astype(np.int64) for k in range(3))
    want = ((299 * r + 587 * g + 114 * b + 500) // 1000).astype(np.uint8)
    assert np.array_equal(got, want)


def test_gray_rgb_converts_to_itself():
    g = np.arange(256, dtype=np.uint8).reshape(16, 16)
    rgb = np.stack([g, g, g], axis=-1)
    assert np.array_equal(rgb_to_gray(rgb), g)


def test_rgb_to_gray_rounds_half_up_exactly():
    # 587*36 + 114*12 + 500 = 23000 -> 23; the same sum in float64 falls
    # just below 23.0 and would floor to 22
    rgb = np.array([[[0, 36, 12], [0, 80, 110], [255, 255, 255]]], dtype=np.uint8)
    assert rgb_to_gray(rgb).tolist() == [[23, 60, 255]]


def test_pgm_header_comments_are_skipped(tmp_path):
    payload = bytes([10, 20, 30, 40])
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another comment\n2 2\n255\n" + payload)
    assert np.array_equal(read_image(path), np.array([[10, 20], [30, 40]], dtype=np.uint8))


def test_pgm_header_comment_that_runs_to_the_end_is_truncation(tmp_path):
    from bcnn.errors import IntegrityError
    path = tmp_path / "c.pgm"
    for header in (b"P5 2 2 # no maxval follows", b"P5 2 2 #", b"P5 2 2 # a\n#b 255"):
        path.write_bytes(header)
        with pytest.raises(IntegrityError, match="header ended"):
            read_image(path)


def test_pgm_header_comment_may_follow_a_token_directly(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5#a\n2#b 9\n1#c\n255\n" + bytes([7, 8]))
    assert np.array_equal(read_image(path), np.array([[7, 8]], dtype=np.uint8))


@pytest.mark.parametrize("space", list(b" \t\n\r\v\f"), ids=repr)
def test_pgm_header_tokens_split_at_each_whitespace_byte(tmp_path, space):
    sep = bytes([space])
    path = tmp_path / "w.pgm"
    path.write_bytes(sep.join([b"P5", b"2", b"1", b"255"]) + sep + bytes([3, 4]))
    assert np.array_equal(read_image(path), np.array([[3, 4]], dtype=np.uint8))


def test_pgm_rejects_unknown_magic_and_maxval(tmp_path):
    from bcnn.errors import FormatError
    bad_magic = tmp_path / "a.pgm"
    bad_magic.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_image(bad_magic)
    bad_maxval = tmp_path / "b.pgm"
    bad_maxval.write_bytes(b"P5\n2 2\n127\n" + bytes(4))
    with pytest.raises(FormatError):
        read_image(bad_maxval)


@pytest.mark.parametrize("numbers", [b"1_0 +8\n2_55", b"+2 2\n255", b"2 2\n0x10",
                                     b"2 2\n" + b"2" * 5000])
def test_pgm_header_numbers_must_be_ascii_decimal(tmp_path, numbers):
    # int() alone reads the first header as an 8x10 image with maxval 255
    path = tmp_path / "n.pgm"
    path.write_bytes(b"P5\n" + numbers + b"\n" + bytes(80))
    with pytest.raises(FormatError):
        read_image(path)


def test_pgm_rejects_truncated_payload(tmp_path):
    from bcnn.errors import IntegrityError
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(IntegrityError):
        read_image(path)


# ---------------------------------------------------------------------------
# load_dataset


def write_class_dir(root, name, count, start=0):
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        write_pgm(d / f"{name}_{i}.pgm", stamp_image(start + i))


def test_labeled_image_rejects_a_bool_label():
    assert LabeledImage(stamp_image(1), np.int64(2)).label == 2
    with pytest.raises(CorpusError):
        LabeledImage(stamp_image(1), True)


def test_load_dataset_fixture_counts(tmp_path):
    write_class_dir(tmp_path, "linear", 2)
    write_class_dir(tmp_path, "potholes", 1)
    manifest = load_dataset(tmp_path)
    assert manifest.class_names == ["linear", "potholes"]
    assert manifest.counts == [2, 1]
    assert len(manifest) == 3


def test_load_dataset_sorted_names_give_canonical_labels(tmp_path):
    for name in ("potholes", "fatigue", "linear"):
        write_class_dir(tmp_path, name, 1)
    manifest = load_dataset(tmp_path)
    assert manifest.class_names == ["fatigue", "linear", "potholes"]
    labels = {manifest.class_names[i.label] for i in manifest.items}
    assert labels == {"fatigue", "linear", "potholes"}


def test_load_dataset_skips_unreadable_files_with_warning(tmp_path):
    write_class_dir(tmp_path, "linear", 2)
    write_class_dir(tmp_path, "potholes", 1)
    (tmp_path / "linear" / "notes.txt").write_text("not an image")
    (tmp_path / "potholes" / "broken.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    with pytest.warns(UserWarning) as warned:
        manifest = load_dataset(tmp_path)
    assert manifest.counts == [2, 1]
    skips = sorted(str(w.message) for w in warned if str(w.message).startswith("skipping "))
    assert len(skips) == 2 and "notes.txt" in skips[0] and "broken.pgm" in skips[1]


def test_load_dataset_needs_two_nonempty_classes(tmp_path):
    write_class_dir(tmp_path, "linear", 2)
    with pytest.raises(CorpusError):
        load_dataset(tmp_path)
    (tmp_path / "potholes").mkdir()
    with pytest.raises(CorpusError):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# stratified_split


def test_split_exact_division():
    manifest = make_manifest([24, 24, 24, 24])
    train, val = stratified_split(manifest, 0.75, seed=0)
    assert train.counts == [18, 18, 18, 18]
    assert val.counts == [6, 6, 6, 6]


def test_split_headline_supports():
    manifest = make_manifest([205, 205, 189])
    train, val = stratified_split(manifest, 0.75, seed=3)
    # round(599 * 0.75) = 449; floor yields (153,153,141), remainder topped
    # up one item per class in label order
    assert len(train) == 449 and len(val) == 150
    assert train.counts == [154, 154, 141]
    assert val.counts == [51, 51, 48]


def test_split_is_disjoint_and_exhaustive():
    manifest = make_manifest([10, 7, 5])
    train, val = stratified_split(manifest, 0.6, seed=1)
    train_ids = {stamp_of(i) for i in train.items}
    val_ids = {stamp_of(i) for i in val.items}
    assert not train_ids & val_ids
    assert train_ids | val_ids == {stamp_of(i) for i in manifest.items}


def test_split_determinism_and_seed_sensitivity():
    manifest = make_manifest([20, 20])
    a_train, _ = stratified_split(manifest, 0.75, seed=5)
    b_train, _ = stratified_split(manifest, 0.75, seed=5)
    c_train, _ = stratified_split(manifest, 0.75, seed=6)
    assert [stamp_of(i) for i in a_train.items] == [stamp_of(i) for i in b_train.items]
    assert len(c_train) == len(a_train)
    assert {stamp_of(i) for i in c_train.items} != {stamp_of(i) for i in a_train.items}


def test_split_validation():
    manifest = make_manifest([4, 4])
    with pytest.raises(ConfigError):
        stratified_split(manifest, 0.0, seed=0)
    with pytest.raises(ConfigError):
        stratified_split(manifest, 1.0, seed=0)
    with pytest.raises(CorpusError):
        stratified_split(make_manifest([4, 1]), 0.75, seed=0)
    for ratio, seed in (("0.5", 0), (None, 0), (0.5, -1), (0.5, 1.5), (0.5, None), (0.5, True)):
        with pytest.raises(ConfigError):
            stratified_split(manifest, ratio, seed)


# ---------------------------------------------------------------------------
# rotate


def test_rotate_zero_and_full_turn_identity():
    img = np.random.default_rng(2).integers(0, 256, size=(6, 6), dtype=np.uint8)
    assert np.array_equal(rotate(img, 0), img)
    assert np.array_equal(rotate(img, 360), img)


def test_rotate_90_index_map():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    assert np.array_equal(rotate(img, 90), np.array([[2, 4], [1, 3]], dtype=np.uint8))


def test_rotate_four_quarter_turns_bitwise_identity():
    for seed in range(10):
        img = np.random.default_rng(seed).integers(0, 256, size=(12, 12), dtype=np.uint8)
        out = img
        for _ in range(4):
            out = rotate(out, 90)
        assert np.array_equal(out, img)


def test_rotate_180_equals_two_quarter_turns():
    img = np.random.default_rng(3).integers(0, 256, size=(7, 9), dtype=np.uint8)
    assert np.array_equal(rotate(img, 180), rotate(rotate(img, 90), 90))


def test_rotate_rejects_non_finite_and_non_numeric_angles():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    for angle in (float("nan"), float("inf"), -float("inf"), np.float32("nan"), "90", None,
                  True):
        with pytest.raises(ConfigError):
            rotate(img, angle)


def test_rotate_arbitrary_angle_preserves_frame_and_fills_median():
    img = np.full((9, 9), 200, dtype=np.uint8)
    img[4, :] = 10
    out = rotate(img, 45.0)
    assert out.shape == (9, 9)
    assert out[4, 4] == 10  # the centre pixel maps to itself
    assert out[0, 0] == 200  # out-of-frame corner takes the median


# ---------------------------------------------------------------------------
# scale_image


def test_scale_factor_one_is_bitwise_identity():
    rng = np.random.default_rng(4)
    for shape in ((8, 8), (9, 9), (8, 9), (9, 8), (1, 1), (13, 64), (64, 97), (97, 96)):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        out = scale_image(img, 1.0)
        assert out.dtype == img.dtype and np.array_equal(out, img), shape
        assert not np.shares_memory(out, img), shape


def test_scale_constant_image_any_factor():
    img = np.full((10, 10), 77, dtype=np.uint8)
    for factor in (0.5, 0.8, 1.3, 2.0):
        assert np.array_equal(scale_image(img, factor), img)


def test_scale_factor_two_grows_center_pixel():
    img = np.zeros((4, 4), dtype=np.uint8)
    img[1, 1] = 255
    out = scale_image(img, 2.0)
    want = np.zeros((4, 4), dtype=np.uint8)
    want[0:2, 0:2] = 255
    assert np.array_equal(out, want)


def test_scale_output_draws_from_input_values():
    img = np.random.default_rng(5).integers(0, 256, size=(9, 9), dtype=np.uint8)
    for factor in (0.5, 1.7):
        out = scale_image(img, factor)
        assert out.shape == img.shape
        assert set(np.unique(out)) <= set(np.unique(img))


def test_scale_rejects_out_of_range_factor():
    img = stamp_image(1)
    with pytest.raises(ConfigError):
        scale_image(img, 0.4)
    with pytest.raises(ConfigError):
        scale_image(img, 2.5)


def test_transforms_reject_values_that_are_not_finite_reals():
    # None of these is a real number with a finite float value.
    img = stamp_image(1)
    for factor in ("x", None, 10 ** 400, True):
        with pytest.raises(ConfigError):
            scale_image(img, factor)
        with pytest.raises(ConfigError):
            adjust_brightness(img, factor)
    with pytest.raises(ConfigError):
        rotate(img, 10 ** 400)
    with pytest.raises(ConfigError):
        AugmentSpec(rotations=(10 ** 400,))


# ---------------------------------------------------------------------------
# adjust_brightness


def test_brightness_identity_and_arithmetic():
    img = np.random.default_rng(6).integers(0, 256, size=(8, 8), dtype=np.uint8)
    assert np.array_equal(adjust_brightness(img, 1.0), img)
    assert adjust_brightness(np.array([[100]] * 8 * 8, dtype=np.uint8).reshape(8, 8), 1.5)[0, 0] == 150
    assert adjust_brightness(np.full((8, 8), 200, dtype=np.uint8), 1.5)[0, 0] == 255
    # 85 * 1.5 = 127.5 rounds half up
    assert adjust_brightness(np.full((8, 8), 85, dtype=np.uint8), 1.5)[0, 0] == 128


def test_brightness_boundary_factors_allowed():
    img = np.full((8, 8), 100, dtype=np.uint8)
    assert adjust_brightness(img, 0.25)[0, 0] == 25
    assert adjust_brightness(img, 4.0)[0, 0] == 255


def test_brightness_rejects_out_of_range_factor():
    img = stamp_image(1)
    with pytest.raises(ConfigError):
        adjust_brightness(img, 0.2)
    with pytest.raises(ConfigError):
        adjust_brightness(img, 4.1)


# ---------------------------------------------------------------------------
# augment_dataset


def test_augment_output_count_and_labels():
    manifest = make_manifest([6, 4])
    out = augment_dataset(manifest, AugmentSpec(variants=3, seed=0))
    assert len(out) == 10 * (1 + 3)
    assert out.provenance == "augmented"
    # originals first, bit for bit
    for before, after in zip(manifest.items, out.items):
        assert np.array_equal(before.pixels, after.pixels)
        assert before.label == after.label
    for i, item in enumerate(manifest.items):
        for j in range(3):
            assert out.items[10 + i * 3 + j].label == item.label


def test_augment_zero_variants_copies_corpus():
    manifest = make_manifest([3, 3])
    out = augment_dataset(manifest, AugmentSpec(variants=0, seed=1))
    assert len(out) == 6


def test_augment_same_seed_is_bitwise_identical():
    rng = np.random.default_rng(7)
    items = [LabeledImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8), i % 2)
             for i in range(8)]
    manifest = DatasetManifest(["a", "b"], items)
    spec = AugmentSpec(variants=2, seed=42)
    a = augment_dataset(manifest, spec)
    b = augment_dataset(manifest, spec)
    assert len(a) == len(b) == 24
    for x, y in zip(a.items, b.items):
        assert np.array_equal(x.pixels, y.pixels)
    c = augment_dataset(manifest, AugmentSpec(variants=2, seed=43))
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a.items, c.items))


def test_augment_preserves_dimensions_and_range():
    rng = np.random.default_rng(8)
    items = [LabeledImage(rng.integers(0, 256, size=(20, 20), dtype=np.uint8), 0)
             for _ in range(4)]
    manifest = DatasetManifest(["a"], items)
    out = augment_dataset(manifest, AugmentSpec(rotations=(33.0, 90.0), variants=4, seed=3))
    for item in out.items:
        assert item.pixels.shape == (20, 20)
        assert item.pixels.dtype == np.uint8


def test_augment_spec_validation():
    with pytest.raises(ConfigError):
        AugmentSpec(rotations=())
    with pytest.raises(ConfigError):
        AugmentSpec(rotations=(90.0, float("nan")))
    with pytest.raises(ConfigError):
        AugmentSpec(scales=(0.4,))
    with pytest.raises(ConfigError):
        AugmentSpec(brightness=(5.0,))
    with pytest.raises(ConfigError):
        AugmentSpec(variants=-1)
    with pytest.raises(ConfigError):
        AugmentSpec(variants=1.5)
    with pytest.raises(ConfigError):
        AugmentSpec(variants=True)
    with pytest.raises(ConfigError):
        AugmentSpec(seed=-1)
    with pytest.raises(ConfigError):
        AugmentSpec(seed=True)


# ---------------------------------------------------------------------------
# the synthetic generator, checked against scipy


def dark_mask(item):
    return item.pixels < DARK_THRESHOLD


def spans_opposite_borders(mask):
    labels, count = ndimage.label(mask, structure=EIGHT)
    size = mask.shape[0]
    for comp in range(1, count + 1):
        ys, xs = np.nonzero(labels == comp)
        if (ys.min() == 0 and ys.max() == size - 1) or (xs.min() == 0 and xs.max() == size - 1):
            return True
    return False


def is_fatigue_web(mask):
    """One dark component touches all four borders, and the web encloses at
    least one background cell (4-connected, not reaching any border)."""
    labels, count = ndimage.label(mask, structure=EIGHT)
    size = mask.shape[0]
    touches_all = False
    for comp in range(1, count + 1):
        ys, xs = np.nonzero(labels == comp)
        if ys.min() == 0 and ys.max() == size - 1 and xs.min() == 0 and xs.max() == size - 1:
            touches_all = True
    if not touches_all:
        return False
    return enclosed_cells(mask) > 0


def enclosed_cells(mask):
    """The 4-connected background components that reach no border."""
    bg_labels, bg_count = ndimage.label(~mask)
    border_ids = set(np.unique(np.concatenate([
        bg_labels[0], bg_labels[-1], bg_labels[:, 0], bg_labels[:, -1]]))) - {0}
    return bg_count - len(border_ids)


def is_compact_blob(mask):
    """A single dark component, off every border, filling at least 60% of
    its bounding box."""
    _, count = ndimage.label(mask, structure=EIGHT)
    if count != 1:
        return False
    ys, xs = np.nonzero(mask)
    size = mask.shape[0]
    if not (ys.min() > 0 and xs.min() > 0 and ys.max() < size - 1 and xs.max() < size - 1):
        return False
    bbox = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
    return ys.size / bbox >= 0.6


SIGNATURE_ORACLES = {"fatigue": is_fatigue_web, "linear": spans_opposite_borders,
                     "potholes": is_compact_blob}


def test_synth_deterministic_per_key():
    for name in CLASS_NAMES:
        a = synth_generate(name, 32, seed=5)
        b = synth_generate(name, 32, seed=5)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.label == CLASS_NAMES.index(name)
        assert not np.array_equal(a.pixels, synth_generate(name, 32, seed=6).pixels)


def test_synth_linear_component_spans_borders():
    for seed in range(20):
        item = synth_generate("linear", 48, seed)
        assert spans_opposite_borders(dark_mask(item))


def test_synth_pothole_single_compact_blob():
    for seed in range(20):
        assert is_compact_blob(dark_mask(synth_generate("potholes", 48, seed)))


def test_synth_fatigue_web_with_closed_cells():
    for seed in range(20):
        assert is_fatigue_web(dark_mask(synth_generate("fatigue", 48, seed)))


def test_synth_signatures_hold_across_100_seeds():
    for seed in range(100):
        assert spans_opposite_borders(dark_mask(synth_generate("linear", 32, seed)))
        mask = dark_mask(synth_generate("potholes", 32, seed))
        _, count = ndimage.label(mask, structure=EIGHT)
        assert count == 1


def test_synth_generate_bounds_the_size():
    with pytest.raises(ConfigError, match=str(MAX_INPUT_SIZE)):
        synth_generate("linear", MAX_INPUT_SIZE + 1, 0)


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_generate("rutting", 32, 0)
    with pytest.raises(ConfigError):
        synth_generate("linear", 16, 0)
    with pytest.raises(ConfigError):
        synth_generate("linear", 32, -1)
    with pytest.raises(ConfigError):
        synth_generate("linear", 32, True)


def raw_draw(name, size, seed):
    """One canvas straight from a class's drawer, before any signature check."""
    return _DRAWERS[name](size, np.random.default_rng((size, seed)))


def test_label_components_agrees_with_scipy():
    # ndimage.label also numbers components in the row-major order of
    # their first pixel, so the whole label arrays must match.
    rng = np.random.default_rng(9)
    masks = [rng.random((12, 12)) < 0.4 for _ in range(25)]
    for name in CLASS_NAMES:
        for seed in range(3):
            dark = raw_draw(name, 64, seed) < DARK_THRESHOLD
            masks += [dark, ~dark]
    snake = np.zeros((31, 31), dtype=bool)  # one 511-pixel path, turning at each border
    snake[::2] = True
    snake[1::4, -1] = True
    snake[3::4, 0] = True
    masks.append(snake)
    for mask in masks:
        mine, mine_count = label_components(mask)
        theirs, theirs_count = ndimage.label(mask, structure=EIGHT)
        assert mine_count == theirs_count
        assert mine.dtype == np.int32
        assert np.array_equal(mine, theirs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 48), st.integers(1, 48), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_label_components_equals_scipy_on_any_mask(height, width, density, seed):
    mask = np.random.default_rng(seed).random((height, width)) < density
    mine, mine_count = label_components(mask)
    theirs, theirs_count = ndimage.label(mask, structure=EIGHT)
    assert mine_count == theirs_count
    assert np.array_equal(mine, theirs)


def test_label_components_named_masks():
    checkerboard = np.indices((9, 12)).sum(axis=0) % 2 == 0  # joined at corners only
    row = np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool)
    cases = {
        "empty": (np.zeros((5, 7), dtype=bool), 0),
        "full": (np.ones((5, 7), dtype=bool), 1),
        "1xN": (row, 4),
        "Nx1": (row.T, 4),
        "1x1": (np.ones((1, 1), dtype=bool), 1),
        "checkerboard": (checkerboard, 1),
        "anti-checkerboard": (~checkerboard, 1),
    }
    for name, (mask, count) in cases.items():
        labels, got = label_components(mask)
        assert got == count, name
        assert labels.dtype == np.int32 and labels.shape == mask.shape, name
        assert np.array_equal(labels, ndimage.label(mask, structure=EIGHT)[0]), name


def stamp_polyline_loop(canvas, dark, anchors, width):
    """Stamps one segment and one brush offset at a time, as the generator
    once did: the reference for ``_stamp_polyline``."""
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


def test_stamp_polyline_matches_the_segment_loop():
    # Anchors from the drawers' own helper, with bases on and next to both
    # borders, where the brush offsets are clipped; then arbitrary anchors,
    # repeats and zero-length segments included.
    rng = np.random.default_rng(13)
    cases = []
    for size in (32, 64, 96):
        for base in (0, 1, size // 3, size - 2, size - 1):
            for vertical in (False, True):
                cases.append((size, _span_anchors(size, base, max(2, size // 10), rng, vertical)))
        for n in (2, 3, 5):
            cases.append((size, [tuple(p) for p in rng.integers(0, size, size=(n, 2))]))
        cases.append((size, [(0, 0), (0, 0), (size - 1, size - 1)]))
    for size, anchors in cases:
        for width in (1, 2, 3):
            canvas = _draw_background(size, rng)
            dark = _darkness(size, rng)
            want = canvas.copy()
            stamp_polyline_loop(want, dark, anchors, width)
            _stamp_polyline(canvas, dark, [anchors], width)
            assert np.array_equal(canvas, want), (size, anchors, width)


def test_stamp_of_several_polylines_matches_stamping_each_in_turn():
    # A fatigue web's crossing polylines in one call, plus polylines of two
    # to five arbitrary anchors, repeats and zero-length segments included.
    rng = np.random.default_rng(15)
    for size in (32, 64, 96):
        amp = max(1, size // 16)
        webs = [[_span_anchors(size, base, amp, rng, vertical)
                 for base in (0, size // 3, 2 * size // 3, size - 1)
                 for vertical in (True, False)]]
        webs += [[[tuple(p) for p in rng.integers(0, size, size=(n, 2))] for n in (2, 3, 5)]
                 + [[(0, 0), (0, 0), (size - 1, 0)]] for _ in range(3)]
        for polylines in webs:
            for width in (1, 2, 3):
                canvas = _draw_background(size, rng)
                dark = _darkness(size, rng)
                want = canvas.copy()
                for anchors in polylines:
                    stamp_polyline_loop(want, dark, anchors, width)
                _stamp_polyline(canvas, dark, polylines, width)
                assert np.array_equal(canvas, want), (size, polylines, width)


def test_euler_number_counts_the_enclosed_cells():
    # 8-connected components minus the Euler number must equal the
    # enclosed 4-connected background cells that scipy finds.
    masks = []
    for name in CLASS_NAMES:
        for size in (32, 64, 96):
            for seed in range(12):
                dark = raw_draw(name, size, seed) < DARK_THRESHOLD
                masks += [dark, ~dark]
    rng = np.random.default_rng(14)
    for _ in range(150):
        height, width = rng.integers(1, 30, size=2)
        masks.append(rng.random((height, width)) < rng.random())
    for n in (1, 2, 7):
        masks += [rng.random((1, n * 5)) < 0.5, rng.random((n * 5, 1)) < 0.5,
                  np.ones((n, n + 3), dtype=bool), np.zeros((n + 3, n), dtype=bool)]
    holes = set()
    for mask in masks:
        _, count = ndimage.label(mask, structure=EIGHT)
        want = enclosed_cells(mask)
        assert count - _euler_number(mask) == want, mask.shape
        holes.add(min(want, 2))
    assert holes == {0, 1, 2}


def test_signature_check_matches_the_oracles_on_raw_draws():
    # Raw draws, most of which carry another class's structure, so the
    # rejections are exercised as much as the acceptances.  The crafted
    # crack spans only two opposite borders but encloses a cell in a loop.
    looped = np.full((32, 32), 200, dtype=np.uint8)
    looped[:, 10] = 50
    looped[12:17, 10:15] = 50
    looped[13:16, 11:14] = 200
    canvases = [looped, looped.T] + [raw_draw(name, size, seed) for name in CLASS_NAMES
                                     for size in (32, 64) for seed in range(20)]
    outcomes = set()
    for i, canvas in enumerate(canvases):
        mask = canvas < DARK_THRESHOLD
        for label, signature in enumerate(CLASS_NAMES):
            got = _signature_ok(label, canvas)
            assert got == SIGNATURE_ORACLES[signature](mask), (i, signature)
            outcomes.add((signature, bool(got)))
    assert len(outcomes) == 2 * len(CLASS_NAMES)


# The first attempt of ("potholes", 32, 183) fails its signature, so the
# grid also covers a redraw.
SYNTH_GRID = [(name, size, seed) for name in CLASS_NAMES for size in (32, 64, 96)
              for seed in range(3)] + [("potholes", 32, 183)]


def test_synth_pixels_are_pinned():
    label = CLASS_NAMES.index("potholes")
    first = _DRAWERS["potholes"](32, np.random.default_rng((label, 32, 183, 0)))
    assert not _signature_ok(label, first)
    digest = hashlib.sha256()
    for name, size, seed in SYNTH_GRID:
        digest.update(synth_generate(name, size, seed).pixels.tobytes())
    assert digest.hexdigest() == (
        "50140d62e365bbf2ad9c44fd9155173ac37c54324ef15eb1c47ece29e403d290")


# ---------------------------------------------------------------------------
# batching


def test_to_batches_sizes():
    manifest = make_manifest([6, 4])
    batches = to_batches(manifest, 4, size=8)
    assert [len(y) for _, y in batches] == [4, 4, 2]
    assert all(x.shape[1:] == (1, 8, 8) for x, _ in batches)


def test_to_batches_normalization_endpoints():
    items = [LabeledImage(np.full((8, 8), 0, dtype=np.uint8), 0),
             LabeledImage(np.full((8, 8), 255, dtype=np.uint8), 1)]
    manifest = DatasetManifest(["a", "b"], items)
    (x, y), = to_batches(manifest, 2, size=8)
    assert x.dtype == np.float32
    assert float(x[0].max()) == 0.0
    assert float(x[1].min()) == 1.0
    assert np.array_equal(y, np.array([0, 1]))


def test_to_batches_shuffle_determinism():
    manifest = make_manifest([8, 8])
    a = to_batches(manifest, 4, shuffle_seed=11, size=8)
    b = to_batches(manifest, 4, shuffle_seed=11, size=8)
    c = to_batches(manifest, 4, shuffle_seed=12, size=8)
    flat = lambda bs: [int(v) for _, y in bs for v in y]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)
    unshuffled = to_batches(manifest, 4, size=8)
    assert flat(unshuffled) == [i.label for i in manifest.items]


def test_to_batches_resizes_on_request():
    items = [LabeledImage(np.random.default_rng(10).integers(0, 256, (16, 16), dtype=np.uint8), 0),
             LabeledImage(stamp_image(3), 1)]  # 8x8
    manifest = DatasetManifest(["a", "b"], items)
    (x, _), = to_batches(manifest, 2, size=8)
    assert x.shape == (2, 1, 8, 8)


def test_to_batches_validation():
    manifest = make_manifest([4])
    with pytest.raises(ConfigError):
        to_batches(manifest, 0, size=8)
    with pytest.raises(ConfigError):
        to_batches(manifest, True, size=8)
    with pytest.raises(CorpusError):
        to_batches(DatasetManifest(["a"], []), 2, size=8)
    for size in (None, 32.5, "32", 0, -1, True):
        with pytest.raises(ConfigError):
            to_batches(manifest, 2, size=size)
    for shuffle_seed in (-1, 1.5, "1", (3, -1), (3, 1.0), True):
        with pytest.raises(ConfigError):
            to_batches(manifest, 2, shuffle_seed=shuffle_seed, size=8)
    manifest.items[0].label = 7
    with pytest.raises(ConsistencyError):
        to_batches(manifest, 2, size=8)


def test_resize_nn_identity_and_downsample():
    img = np.random.default_rng(11).integers(0, 256, (8, 8), dtype=np.uint8)
    assert np.array_equal(resize_nn(img, 8), img)
    small = resize_nn(img, 4)
    assert small.shape == (4, 4)
    assert set(np.unique(small)) <= set(np.unique(img))
    for size in (4.0, "4", 0, None):
        with pytest.raises(ConfigError):
            resize_nn(img, size)


def _fancy_gather(img, src_r, src_c):
    """The 2-D fancy index that resize_nn and scale_image used to gather with."""
    return np.ascontiguousarray(img[src_r[:, None], src_c[None, :]])


def _gather_cases():
    rng = np.random.default_rng(21)
    for height, width in ((96, 64), (5, 17), (64, 200), (1, 3)):
        for dtype in (np.uint8, np.float32, np.float64):
            img = (rng.random((height, width)) * 255).astype(dtype)
            yield img
            yield img.T  # a non-contiguous source


def test_resize_nn_gives_the_2d_fancy_index_bytes_on_non_square_inputs():
    for img in _gather_cases():
        height, width = img.shape
        for size in (1, 7, 64, 100):
            src_r = np.minimum((np.arange(size) + 0.5) * height / size, height - 1).astype(np.int64)
            src_c = np.minimum((np.arange(size) + 0.5) * width / size, width - 1).astype(np.int64)
            got = resize_nn(img, size)
            assert got.dtype == img.dtype and got.flags.c_contiguous
            assert got.tobytes() == _fancy_gather(img, src_r, src_c).tobytes(), (img.shape, size)


def test_scale_image_gives_the_2d_fancy_index_bytes_on_non_square_inputs():
    for img in _gather_cases():
        height, width = img.shape
        for zoom in (0.5, 0.8, 1.3, 2.0):
            src_r = np.floor((np.arange(height) - (height - 1) / 2.0) / zoom
                             + (height - 1) / 2.0 + 0.5).astype(np.int64).clip(0, height - 1)
            src_c = np.floor((np.arange(width) - (width - 1) / 2.0) / zoom
                             + (width - 1) / 2.0 + 0.5).astype(np.int64).clip(0, width - 1)
            got = scale_image(img, zoom)
            assert got.dtype == img.dtype and got.flags.c_contiguous
            assert got.tobytes() == _fancy_gather(img, src_r, src_c).tobytes(), (img.shape, zoom)


# ---------------------------------------------------------------------------
# manifest export


def test_write_manifest_csv_layout(tmp_path):
    items = [LabeledImage(stamp_image(i), i % 2, path=f"cls{i % 2}/img_{i}.pgm")
             for i in range(4)]
    manifest = DatasetManifest(["alpha", "beta"], items)
    out = tmp_path / "manifest.csv"
    write_manifest_csv(manifest, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path,label,class"
    assert len(lines) == 5
    assert lines[1] == "cls0/img_0.pgm,0,alpha"
    assert lines[2] == "cls1/img_1.pgm,1,beta"


def test_write_manifest_csv_refuses_a_class_name_that_is_not_utf8(tmp_path):
    items = [LabeledImage(stamp_image(i), i % 2, path=f"cls{i % 2}/img_{i}.pgm")
             for i in range(2)]
    out = tmp_path / "manifest.csv"
    with pytest.raises(CorpusError, match="not valid UTF-8"):
        write_manifest_csv(DatasetManifest(["alpha", "b\udcffeta"], items), out)
    assert not out.exists()


def test_write_manifest_csv_requires_paths(tmp_path):
    manifest = make_manifest([2])
    with pytest.raises(ConfigError):
        write_manifest_csv(manifest, tmp_path / "manifest.csv")
