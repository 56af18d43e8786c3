"""The benchmark harness's view of the package, checked from the test suite.

``bench/tracing.py`` names every conv span after the parameter its kernel
came from and counts its FLOPs from the conv context; ``bench/workloads.py``
drives ``train()``, ``bcnn predict`` and the corpus functions.  These tests
run small versions of that traffic under the tracer, so a change that
breaks the harness, or stops calling a function the tracer patches,
fails here before a benchmark runs.  The ``Train``
workload's own checks are left out: its accuracy floor does not hold for
every benchmark seed.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from bcnn.data import DatasetManifest, synth_generate  # noqa: E402
from bcnn.model import ModelConfig  # noqa: E402
from bcnn.train import TrainConfig, train  # noqa: E402


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_traced_conv_span_names_its_layer(tracer):
    items = [synth_generate(c, 32, 100 + i) for c in workloads.CLASSES for i in range(4)]
    manifest = DatasetManifest(list(workloads.CLASSES), items, provenance="synthetic", seed=100)
    train(manifest, ModelConfig(input_size=32, channels=(4, 6, 8), seed=3),
          TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=3, optimizer="adam"))
    names = {span[0] for span in tracer.spans}
    convs = {n for n in names if n.startswith("tensor.conv2d")}
    assert convs == ({f"tensor.conv2d.{c}" for c in tracing.CONVS}
                     | {f"tensor.conv2d_backward.{c}" for c in tracing.CONVS})
    assert tracer.flops > 0
    assert TRAIN_SPANS <= names


# The spans each workload must record: a name the tracer patches that the
# code stops calling would otherwise read as a silent 0 in its figures.
FORWARD_OPS = {f"tensor.{op}" for op in tracing.TENSOR_OPS
               if not op.endswith("_backward") and op != "softmax_xent"}
TRAIN_SPANS = ({"model.backward", "optim.adam_step", "data.to_batches", "tensor.softmax_xent"}
               | {f"tensor.{op}" for op in tracing.TENSOR_OPS if op.endswith("_backward")})
WORKLOAD_SPANS = {
    "predict": ({"cli.main", "train.load_checkpoint", "netpbm.read_image", "data.resize_nn",
                 "model.forward"}
                | {f"tensor.conv2d.{c}" for c in tracing.CONVS} | FORWARD_OPS),
    "corpus": ({f"data.synth_generate.{c}" for c in tracing.SYNTH_CLASSES}
               | {"data.label_components", "netpbm.write_pgm", "netpbm.read_image",
                  "data.augment_dataset"}),
}


@pytest.mark.parametrize("name,ops", [("predict", 8), ("corpus", 3)])
def test_workload_runs_and_verifies_under_the_tracer(tracer, tmp_path, name, ops):
    workload = workloads.WORKLOADS[name](seed=5, work_dir=tmp_path)
    workload.setup()
    first = len(tracer.spans)
    for i in range(ops):
        workload.record(i, workload.op(i))
    assert workload.verify() == []
    assert WORKLOAD_SPANS[name] <= {span[0] for span in tracer.spans[first:]}
