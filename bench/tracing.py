"""Spans around calls into the public functions of ``bcnn``.

A :class:`Tracer` replaces each traced function, in every module
namespace that calls it, by a wrapper that records a span: name, start,
end, and the span that was open when it began.  Spans stay in memory
until the run ends.  :func:`layer_metrics` turns them into the per-layer
figures: self time (duration minus the time covered by child spans) per
image processed, plus a few counts and ratios.
"""

import time

import bcnn.cli
import bcnn.data
import bcnn.model
import bcnn.netpbm
import bcnn.train

CONVS = ("fwd1", "fwd2", "fwd3", "refine1", "refine2")
TENSOR_OPS = ("maxpool2", "maxpool2_backward", "relu", "relu_backward", "upsample2",
              "upsample2_backward", "concat_channels", "concat_channels_backward",
              "dense", "dense_backward", "softmax_xent")
SYNTH_CLASSES = ("fatigue", "linear", "potholes")

# (metric name, unit); every traced run reports all of them, 0 for a layer
# its workload never calls.
PER_LAYER = (
    [(f"tensor.conv2d.{c}", "ms/img") for c in CONVS]
    + [(f"tensor.conv2d_backward.{c}", "ms/img") for c in CONVS]
    + [(f"tensor.{op}", "ms/img") for op in TENSOR_OPS]
    + [("tensor.conv2d.gflop_per_s", "GFLOP/s"),
       ("model.forward", "ms/img"), ("model.backward", "ms/img"), ("model.trace_mb", "MiB"),
       ("optim.adam_step", "ms/img"),
       ("train.metric_pass", "ms/img"), ("train.load_checkpoint", "ms/img"),
       ("data.to_batches", "ms/img"), ("data.resize_nn", "ms/img")]
    + [(f"data.synth_generate.{c}", "ms/img") for c in SYNTH_CLASSES]
    + [("data.label_components", "ms/img"), ("data.label_components.calls", "calls/img"),
       ("data.augment_dataset", "ms/img"),
       ("netpbm.write_pgm", "ms/img"), ("netpbm.read_image", "ms/img"),
       ("cli.main", "ms/img"),
       ("trace.overhead_pct", "%")]
)

_MIB = 1024.0 * 1024.0


def _conv_flops(x_shape, w_shape):
    """Multiply-adds x2 of a stride-1, pad-1 conv, from the shapes alone."""
    batch, _, height, width = x_shape
    c_out, c_in, kh, kw = w_shape
    return 2 * batch * c_out * c_in * kh * kw * (height + 2 - kh + 1) * (width + 2 - kw + 1)


def _held_bytes(obj, seen):
    """Bytes of the distinct array buffers reachable from ``obj``."""
    if hasattr(obj, "nbytes") and hasattr(obj, "base"):
        while obj.base is not None and hasattr(obj.base, "nbytes"):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if hasattr(obj, "data") and hasattr(obj.data, "nbytes"):
        return _held_bytes(obj.data, seen)
    if isinstance(obj, dict):
        return sum(_held_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(v, seen) for v in vars(obj).values())
    return 0


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    Each span is ``[name, start, end, parent]``.  ``flops``,
    ``trace_bytes`` and ``train_model_spans`` gather figures measured at
    the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.flops = 0
        self.trace_bytes = []
        self.train_model_spans = []
        self._stack = []
        self._layer = {}
        self._saved = []

    def _call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_model(self, name, fn, in_train):
        def traced(params, *args, **kwargs):
            # Conv layers are named by the parameter they were called with.
            for pname, tensor in params.items():
                self._layer[id(tensor)] = self._layer[id(tensor.data)] = pname[:-2]
            if in_train:
                self.train_model_spans.append(len(self.spans))
            out = self._call(name, fn, (params,) + args, kwargs)
            if name == "model.forward" and args[0].shape[0] == 32:
                self.trace_bytes.append(_held_bytes(out[1], set()))
            return out
        return traced

    def _wrap_conv(self, fn):
        def traced(x, w, *args, **kwargs):
            layer = self._layer.get(id(w), "unknown")
            self.flops += _conv_flops(x.shape, w.shape)
            return self._call(f"tensor.conv2d.{layer}", fn, (x, w) + args, kwargs)
        return traced

    def _wrap_conv_backward(self, fn):
        def traced(ctx, *args, **kwargs):
            w = ctx.saved["w"]
            layer = self._layer.get(id(w), "unknown")
            self.flops += 2 * _conv_flops(ctx.saved["x_shape"], w.shape)
            return self._call(f"tensor.conv2d_backward.{layer}", fn, (ctx,) + args, kwargs)
        return traced

    def _wrap_synth(self, fn):
        def traced(class_name, *args, **kwargs):
            return self._call(f"data.synth_generate.{class_name}", fn,
                              (class_name,) + args, kwargs)
        return traced

    def install(self):
        """Wraps every traced function where its callers look it up."""
        plan = []
        for op in TENSOR_OPS[:-1]:
            plan.append((bcnn.model, op, self._wrap(f"tensor.{op}", getattr(bcnn.model, op))))
        plan += [
            (bcnn.model, "conv2d", self._wrap_conv(bcnn.model.conv2d)),
            (bcnn.model, "conv2d_backward", self._wrap_conv_backward(bcnn.model.conv2d_backward)),
            (bcnn.train, "softmax_xent", self._wrap("tensor.softmax_xent", bcnn.train.softmax_xent)),
            (bcnn.train, "forward", self._wrap_model("model.forward", bcnn.train.forward, True)),
            (bcnn.train, "backward", self._wrap_model("model.backward", bcnn.train.backward, True)),
            (bcnn.cli, "forward", self._wrap_model("model.forward", bcnn.cli.forward, False)),
            (bcnn.train, "adam_step", self._wrap("optim.adam_step", bcnn.train.adam_step)),
            (bcnn.train, "to_batches", self._wrap("data.to_batches", bcnn.train.to_batches)),
            (bcnn.data, "resize_nn", self._wrap("data.resize_nn", bcnn.data.resize_nn)),
            (bcnn.cli, "resize_nn", self._wrap("data.resize_nn", bcnn.cli.resize_nn)),
            (bcnn.data, "label_components",
             self._wrap("data.label_components", bcnn.data.label_components)),
            (bcnn.data, "synth_generate", self._wrap_synth(bcnn.data.synth_generate)),
            (bcnn.data, "augment_dataset",
             self._wrap("data.augment_dataset", bcnn.data.augment_dataset)),
            (bcnn.netpbm, "write_pgm", self._wrap("netpbm.write_pgm", bcnn.netpbm.write_pgm)),
            (bcnn.netpbm, "read_image", self._wrap("netpbm.read_image", bcnn.netpbm.read_image)),
            (bcnn.cli, "read_image", self._wrap("netpbm.read_image", bcnn.cli.read_image)),
            (bcnn.cli, "load_checkpoint",
             self._wrap("train.load_checkpoint", bcnn.cli.load_checkpoint)),
            (bcnn.cli, "main", self._wrap("cli.main", bcnn.cli.main)),
        ]
        for module, attr, wrapper in plan:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(tracer, images, synth_images, overhead_pct):
    """Per-layer figures from a finished traced run.

    ``images`` is what the workload processed (its img_per_s numerator);
    ``synth_images`` maps a class name to the images of that class drawn.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls = {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1

    # A forward in train() that no backward follows is a metric pass.
    seq = [spans[i] for i in tracer.train_model_spans]
    metric_pass = sum(s[2] - s[1] for s, nxt in zip(seq, seq[1:] + [None])
                      if s[0] == "model.forward" and (nxt is None or nxt[0] != "model.backward"))

    def per_img(seconds, n=images):
        return 1000.0 * seconds / n if n else 0.0

    out = {}
    for name, unit in PER_LAYER:
        if unit == "ms/img" and not name.startswith("data.synth_generate."):
            out[name] = per_img(self_s.get(name, 0.0))
    for cls in SYNTH_CLASSES:
        out[f"data.synth_generate.{cls}"] = per_img(
            self_s.get(f"data.synth_generate.{cls}", 0.0), synth_images.get(cls, 0))
    conv_s = sum(v for k, v in self_s.items() if k.startswith("tensor.conv2d"))
    out["tensor.conv2d.gflop_per_s"] = tracer.flops / conv_s / 1e9 if conv_s else 0.0
    out["train.metric_pass"] = per_img(metric_pass)
    n_synth = sum(synth_images.values())
    out["data.label_components.calls"] = (calls.get("data.label_components", 0) / n_synth
                                          if n_synth else 0.0)
    out["model.trace_mb"] = (sum(tracer.trace_bytes) / len(tracer.trace_bytes) / _MIB
                             if tracer.trace_bytes else 0.0)
    out["trace.overhead_pct"] = overhead_pct
    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]} for name, _ in PER_LAYER}
