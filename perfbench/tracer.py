"""Span tracer that wraps swinmim's public names at layer boundaries.

`Tracer.install()` replaces each traced function in every swinmim module
namespace that holds it (so `from .tensor import matmul` call sites are
covered too) and wraps the traced class methods; `uninstall()` puts the
originals back.  Spans are kept in memory as flat records:

    [name, start_ns, end_ns, parent_index, step, attrs]

`attrs` carries computed work: output bytes of tensor ops and the
multiply-accumulate count of matmul/linear.  Counters (tape records and
taped bytes) are kept per step beside the spans.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# Tensor ops whose calls, self time and output bytes are reported.
TENSOR_OPS = (
    "matmul", "linear", "softmax", "log_softmax", "layer_norm", "gelu", "add", "sub",
    "mul", "absolute", "reshape", "transpose", "select_first_axis", "gather_rows",
    "where_const", "cyclic_shift", "pad_hw", "crop_hw", "tensor_sum", "tensor_mean",
    "window_partition", "window_reverse",
)

# (module, function) -> span name, for plain module-level functions.
FUNCTIONS = {
    **{("tensor", op): f"tensor.op.{op}" for op in TENSOR_OPS},
    ("swin", "patch_partition"): "swin.patch_partition",
    ("mim", "generate_mask"): "mim.mask",
    ("mim", "apply_mask"): "mim.apply_mask",
    ("mim", "predict_pixels"): "mim.head",
    ("mim", "masked_l1_loss"): "mim.loss",
    ("mim", "pretrain_step"): "mim.pretrain_step",
    ("augment", "mix_batch"): "augment.mix",
    ("augment", "adjust_hsv"): "augment.adjust_hsv",
    ("augment", "motion_blur"): "augment.motion_blur",
    ("augment", "gaussian_noise"): "augment.gaussian_noise",
    ("augment", "scale_and_flip"): "augment.scale_and_flip",
    ("augment", "expand_dataset"): "augment.expand_dataset",
    ("data", "load_ppm"): "data.load_ppm",
    ("data", "save_ppm"): "data.save_ppm",
    ("data", "resize_bilinear"): "data.resize_bilinear",
    ("train", "soft_cross_entropy"): "train.loss",
    ("train", "evaluate"): "train.eval",
    ("train", "save_model_checkpoint"): "train.checkpoint_save",
    ("train", "load_checkpoint"): "train.checkpoint_load",
}


def _mac(args, out):
    """Multiply-accumulates of matmul/linear: output elements x inner extent."""
    return out.size * args[0].shape[-1]


def _annotate_op(name):
    def annotate(args, kwargs, out):
        attrs = {"out_bytes": out.data.nbytes}
        if name in ("matmul", "linear"):
            attrs["mac"] = _mac(args, out)
        return attrs
    return annotate


def _annotate_checkpoint(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _annotate_expand(args, kwargs, out):
    return {"images": len(out)}


class Tracer:
    """Records spans while installed; `step` tags every new span."""

    def __init__(self, swinmim):
        self.pkg = swinmim
        self.spans = []
        self.counters = defaultdict(float)  # (name, step) -> value
        self.step = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._labels = {}  # id(module instance) -> span name
        self._encoders = []  # labelled encoders, held so their ids stay unique
        self._tape_spans = []

    # -- span recording -------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.step, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if annotate is not None:
                rec[5] = annotate(args, kwargs, out)
            return out
        return wrapper

    def _wrap_labelled(self, fn):
        """Method wrapper that opens a span only for labelled instances."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            name = tracer._labels.get(id(obj))
            if name is None:
                return fn(obj, *args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._close(rec)
        return wrapper

    def _wrap_encoder(self, fn):
        """SwinEncoder.forward: label the encoder's parts on first sight."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(encoder, *args, **kwargs):
            if tracer._labels.get(id(encoder)) != "swin.encoder":
                tracer.label_encoder(encoder)
            rec = tracer._open("swin.encoder")
            try:
                return fn(encoder, *args, **kwargs)
            finally:
                tracer._close(rec)
                rec[5] = {"batch": args[0].shape[0], "config": encoder.config}
        return wrapper

    def _wrap_batches(self, fn):
        """make_batches: one data.batch_wait span per batch handed out."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                rec = tracer._open("data.batch_wait")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec)
                yield batch
        return wrapper

    def _wrap_tape_enter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape):
            tracer.counters[("tensor.tapes", tracer.step)] += 1
            tracer._tape_spans.append(tracer._open("train.fwd"))
            return fn(tape)
        return wrapper

    def _wrap_tape_exit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, *exc):
            tracer._close(tracer._tape_spans.pop())
            return fn(tape, *exc)
        return wrapper

    def _wrap_tape_record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, out, backward_fn):
            tracer.counters[("tensor.tape_records", tracer.step)] += 1
            tracer.counters[("tensor.taped_bytes", tracer.step)] += out.data.nbytes
            return fn(tape, out, backward_fn)
        return wrapper

    def _wrap_cache_get(self, fn):
        """ImageCache.get: a lookup is a miss when it decodes (load_ppm)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, path):
            rec = tracer._open("data.cache_get")
            first_child = len(tracer.spans)
            try:
                return fn(cache, path)
            finally:
                tracer._close(rec)
                missed = any(s[0] == "data.load_ppm" for s in tracer.spans[first_child:])
                rec[5] = {"miss": int(missed)}
        return wrapper

    # -- installation ---------------------------------------------------

    def label_encoder(self, encoder):
        """Name an encoder's embedding, merges and blocks by stage."""
        self._encoders.append(encoder)
        self._labels[id(encoder)] = "swin.encoder"
        self._labels[id(encoder.embed)] = "swin.embed.linear"
        self._labels[id(encoder.embed_norm)] = "swin.embed.norm"
        for s, (merge, blocks) in enumerate(zip(encoder.merges, encoder.stages)):
            if merge is not None:
                self._labels[id(merge)] = f"swin.merge{s}"
            for b, block in enumerate(blocks):
                self._labels[id(block)] = f"swin.stage{s}.block{b}"

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper):
        """Replace `original` in the package and every module that imported it."""
        owners = [m for name, m in list(sys.modules.items())
                  if name == "swinmim" or name.startswith("swinmim.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attr, wrapper)

    def _patch_method(self, cls, name, wrapper):
        """Wrap a method under every class attribute that aliases it."""
        original = cls.__dict__[name]
        wrapped = wrapper(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patch(cls, attr, wrapped)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.pkg
        for (module, fn_name), span in FUNCTIONS.items():
            original = getattr(getattr(pkg, module), fn_name)
            annotate = None
            if module == "tensor":
                annotate = _annotate_op(fn_name)
            elif fn_name == "save_model_checkpoint":
                annotate = _annotate_checkpoint
            elif fn_name == "expand_dataset":
                annotate = _annotate_expand
            self._patch_everywhere(original, self._wrap(original, span, annotate))
        original = pkg.data.make_batches
        self._patch_everywhere(original, self._wrap_batches(original))

        swin, tensor, train, data = pkg.swin, pkg.tensor, pkg.train, pkg.data
        self._patch_method(swin.SwinEncoder, "forward", self._wrap_encoder)
        for cls in (swin.Linear, swin.LayerNorm, swin.SwinBlock, swin.PatchMerge):
            self._patch_method(cls, "__call__", self._wrap_labelled)
        self._patch_method(swin.WindowAttention, "__call__",
                           lambda fn: self._wrap(fn, "swin.attn"))
        self._patch_method(tensor.Tape, "__enter__", self._wrap_tape_enter)
        self._patch_method(tensor.Tape, "__exit__", self._wrap_tape_exit)
        self._patch_method(tensor.Tape, "record", self._wrap_tape_record)
        self._patch_method(tensor.Tape, "backward",
                           lambda fn: self._wrap(fn, "tensor.backward"))
        self._patch_method(train.AdamW, "step", lambda fn: self._wrap(fn, "train.optim"))
        self._patch_method(data.ImageCache, "get", self._wrap_cache_get)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per-span self time in ns: duration minus time covered by children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans):
    """Problems with the span tree: children outside parents, negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            problems.append(f"span {i} {s[0]} ends before it starts")
        p = s[3]
        if p >= 0:
            parent = spans[p]
            if p >= i or s[1] < parent[1] or s[2] > parent[2]:
                problems.append(f"span {i} {s[0]} lies outside parent {p} {parent[0]}")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            problems.append(f"span {i} {spans[i][0]} has negative self time {t}")
    return problems


def ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]
