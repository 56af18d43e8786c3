"""Tests that the benchmark's own checks can fail.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from bcnn.data import synth_generate  # noqa: E402
from bcnn.model import ModelConfig, forward, parameter_shapes  # noqa: E402
from bcnn.tensor import Tensor  # noqa: E402


def _random_params(config, seed):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.standard_normal(shape) * 0.5, dtype=np.float64)
            for name, shape in parameter_shapes(config).items()}


@pytest.mark.parametrize("stages,channels,size", [(2, (3, 4), 8), (3, (4, 6, 8), 16)])
def test_reference_forward_agrees_with_model_in_float64(stages, channels, size):
    config = ModelConfig(input_size=size, stages=stages, channels=channels, classes=3)
    params = _random_params(config, seed=stages)
    x = np.random.default_rng(5).random((4, 1, size, size))
    got, _ = forward(params, Tensor(x, dtype=np.float64))
    want = reference.reference_logits(params, x)
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-12)


def test_logits_match_rejects_a_perturbed_logit():
    want = np.random.default_rng(0).standard_normal((5, 3))
    assert reference.logits_match(want.astype(np.float32), want)
    bad = want.copy()
    bad[2, 1] += 0.01
    assert not reference.logits_match(bad, want)


def test_predict_output_check_rejects_wrong_class_and_probability():
    z = np.array([0.2, 1.5, -0.3])
    p = reference.softmax(z)
    line = "probabilities: " + " ".join(f"{n}={v:.4f}" for n, v in zip(reference.CLASS_NAMES, p))
    good = f"config: command=predict\nclass: linear\n{line}\n"
    assert reference.predict_output_ok(good, z)
    assert not reference.predict_output_ok(good.replace("class: linear", "class: fatigue"), z)
    off = " ".join(f"{n}={v + (2e-4 if i == 0 else 0):.4f}"
                   for i, (n, v) in enumerate(zip(reference.CLASS_NAMES, p)))
    assert not reference.predict_output_ok(f"class: linear\nprobabilities: {off}\n", z)
    assert not reference.predict_output_ok("class: linear\n", z)


@pytest.mark.parametrize("seed", range(6))
def test_structure_check_accepts_each_class_and_rejects_swapped_labels(seed):
    for true_cls in reference.CLASS_NAMES:
        pixels = synth_generate(true_cls, 64, seed).pixels
        assert reference.structure_ok(true_cls, pixels)
        for other in reference.CLASS_NAMES:
            if other != true_cls:
                assert not reference.structure_ok(other, pixels), (true_cls, other)


def test_structure_check_rejects_pixels_between_the_bands():
    pixels = synth_generate("potholes", 64, 0).pixels.copy()
    pixels[0, 0] = 120
    assert not reference.structure_ok("potholes", pixels)


def test_components_match_scipy_labelling():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(3)
    for trial in range(40):
        mask = rng.random((17, 23)) < rng.uniform(0.2, 0.7)
        for diagonal in (True, False):
            ids, count = reference.components(mask, diagonal)
            structure = np.ones((3, 3)) if diagonal else None
            want, want_count = ndimage.label(mask, structure=structure)
            assert count == want_count
            # Same partition: ids and scipy labels map one-to-one on the mask.
            pairs = set(zip(ids[mask].tolist(), want[mask].tolist()))
            assert len(pairs) == count
            assert (ids[~mask] == -1).all()


def test_determinism_check_catches_a_perturbed_parameter():
    config = ModelConfig(input_size=16, stages=2, channels=(4, 6))
    params = _random_params(config, seed=1)
    copy = {n: Tensor(t.data.copy()) for n, t in params.items()}
    assert reference.all_identical([reference.params_digest(params),
                                    reference.params_digest(copy)])
    flat = copy["refine1_w"].data.reshape(-1)
    flat[7] = np.nextafter(flat[7], np.inf)
    assert not reference.all_identical([reference.params_digest(params),
                                        reference.params_digest(copy)])
    assert not reference.all_identical([])
