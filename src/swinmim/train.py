"""Optimization, training loops, evaluation, and checkpoint persistence.

AdamW with decoupled weight decay and a cosine learning-rate schedule
drive both phases through one loop: masked-pixel pretraining and 10-class
fine-tuning (optionally warm-started from a pretraining checkpoint, with
relative position bias tables resampled when the window size changed
between phases). Checkpoints use a little-endian binary format that
round-trips parameters bitwise, so interrupted runs resume exactly.
"""

import json
import math
import os
import shutil
import struct
import time
from dataclasses import dataclass

import numpy as np

from .augment import mix_batch
from .data import ImageCache, make_batches, write_split_manifest
from .mim import MIMPretrainModel, generate_mask, pretrain_step
from .rng import Rng
from .swin import SwinClassifier, SwinConfig
from .tensor import Tape, Tensor, log_softmax, mul, tensor_sum

# rng sub-stream tags
_INIT, _DATA, _MASK, _AUG, _DROP = 0, 1, 2, 3, 4

CHECKPOINT_MAGIC = b"SLDB"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


# Elements per cache block of the AdamW update: its 14 passes run block by
# block, so each block stays in cache from the first pass to the last.
_ADAM_BLOCK = 1 << 16


def _block_rows(data):
    """Rows of the [rows, ...] array data in one block: at least one."""
    return max(1, _ADAM_BLOCK // max(1, data[:1].size))


class AdamW:
    """Decoupled-decay Adam; moments are bias-corrected.

    update: m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2
            theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    Params whose grad is None are skipped entirely. The update runs on the
    calling thread, in place, with the same float operations in the same
    order as the formula above, over blocks of whole rows of about
    _ADAM_BLOCK elements, each through the same two block-sized scratch
    buffers. It is bound by memory bandwidth: a second thread gained nothing.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.05):
        self.params = dict(params)
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.step_count = 0
        nbytes = max((min(len(d), _block_rows(d)) * d[:1].nbytes
                      for d in (np.atleast_1d(p.data) for p in self.params.values())), default=0)
        self._scratch = (np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8))

    def step(self, lr):
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self._update(*np.atleast_1d(p.data, g, self.m[name], self.v[name]), lr, c1, c2)
            p.grad = None

    def _update(self, data, g, m, v, lr, c1, c2):
        """The update of one param, block by block through the scratch."""
        rows = _block_rows(data)
        for a in range(0, len(data), rows):
            block = slice(a, a + rows)
            s1, s2 = (buf[:data[block].nbytes].view(data.dtype).reshape(data[block].shape)
                      for buf in self._scratch)
            self._update_block(data[block], g[block], m[block], v[block], lr, c1, c2, s1, s2)

    def _update_block(self, data, g, m, v, lr, c1, c2, s1, s2):
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, c1, out=s1)
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        np.multiply(self.weight_decay, data, out=s2)
        s1 += s2
        s1 *= lr
        data -= s1

    def state_tensors(self):
        """Moment buffers as checkpoint tensors."""
        out = {}
        for name in self.params:
            out[f"optim.m.{name}"] = self.m[name]
            out[f"optim.v.{name}"] = self.v[name]
        return out

    def load_state_tensors(self, tensors, step_count):
        for name in self.params:
            self.m[name] = tensors[f"optim.m.{name}"].copy()
            self.v[name] = tensors[f"optim.v.{name}"].copy()
        self.step_count = int(step_count)


@dataclass
class CosineSchedule:
    base_lr: float
    min_lr: float
    total_steps: int
    warmup_steps: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        if self.min_lr > self.base_lr:
            raise ValueError("min_lr must not exceed base_lr")

    def lr_at(self, step):
        if not 0 <= step <= self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps}]")
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / span
        return self.min_lr + (self.base_lr - self.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


def make_schedule(optim_cfg, sched_cfg, total_steps):
    min_lr = sched_cfg.min_lr if sched_cfg.min_lr is not None else optim_cfg.base_lr / 100.0
    return CosineSchedule(optim_cfg.base_lr, min_lr, total_steps, sched_cfg.warmup_steps)


def soft_cross_entropy(logits, labels):
    """Mean over the batch of -sum_c y_c log softmax(logits)_c."""
    ls = log_softmax(logits)
    weighted = mul(ls, Tensor(np.asarray(labels, dtype=logits.data.dtype)))
    return mul(tensor_sum(weighted), -1.0 / logits.shape[0])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Metrics:
    """Confusion matrix (rows = ground truth) and derived scores."""

    def __init__(self, confusion):
        self.confusion = np.asarray(confusion, dtype=np.int64)

    @classmethod
    def from_pairs(cls, true_ids, pred_ids, num_classes=10):
        confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(confusion, (np.asarray(true_ids), np.asarray(pred_ids)), 1)
        return cls(confusion)

    @property
    def total(self):
        return int(self.confusion.sum())

    @property
    def accuracy(self):
        return float(np.trace(self.confusion)) / max(self.total, 1)

    @staticmethod
    def _safe_div(num, den):
        num = np.asarray(num, dtype=np.float64)
        den = np.asarray(den, dtype=np.float64)
        out = np.zeros_like(num)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        return out

    @property
    def precision(self):
        return self._safe_div(np.diag(self.confusion), self.confusion.sum(axis=0))

    @property
    def recall(self):
        return self._safe_div(np.diag(self.confusion), self.confusion.sum(axis=1))

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return self._safe_div(2 * p * r, p + r)

    @property
    def macro_precision(self):
        return float(self.precision.mean())

    @property
    def macro_recall(self):
        return float(self.recall.mean())

    @property
    def macro_f1(self):
        return float(self.f1.mean())


def evaluate(model, index, run_cfg, cache=None):
    """Deterministic forward pass over the index in batches of
    train.batch_size: no shuffling, no augmentation, no masking. Returns
    Metrics."""
    true_ids, pred_ids = [], []
    for batch in make_batches(index, run_cfg.train.batch_size, seed=0, epoch=0,
                              img_size=run_cfg.model.img_size,
                              mean=run_cfg.data.mean, std=run_cfg.data.std,
                              shuffle=False, cache=cache):
        logits = model(Tensor(batch.images))
        pred_ids.extend(np.argmax(logits.numpy(), axis=-1).tolist())
        true_ids.extend(batch.class_ids.tolist())
    return Metrics.from_pairs(true_ids, pred_ids, run_cfg.model.num_classes)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


class CheckpointError(Exception):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointNameError(CheckpointError):
    pass


_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, meta, tensors):
    """Write the binary checkpoint format.

    Layout (little-endian): magic "SLDB", version u32, meta blob
    (u64 length + UTF-8 JSON), tensor count u32, then per tensor:
    name (u64 length + UTF-8), dtype tag u8 (0=f32, 1=f64), rank u32,
    dims u64 x rank, raw element bytes.
    """
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_TAGS:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<Q", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())
    os.replace(tmp, path)


class _Reader:
    def __init__(self, path):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.pos = 0
        self.path = str(path)

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointTruncatedError(
                f"{self.path}: truncated at byte {self.pos} (need {n} more)"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path):
    """Read a checkpoint; returns (meta dict, {name: ndarray})."""
    r = _Reader(path)
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {version}")
    meta = json.loads(r.take(r.u64()).decode("utf-8"))
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    tensors = {}
    for _ in range(r.u32()):
        name = r.take(r.u64()).decode("utf-8")
        tag = r.u8()
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for {name!r}")
        rank = r.u32()
        shape = tuple(r.u64() for _ in range(rank))
        dtype = _TAG_DTYPES[tag]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(count * dtype.itemsize)
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return meta, tensors


def save_model_checkpoint(path, model, run_cfg, kind, seed, progress, optimizer=None):
    params = dict(model.named_params())
    meta = {
        "kind": kind,
        "run_config": run_cfg.to_dict(),
        "rng": {"seed": int(seed)},
        "progress": dict(progress),
        "model_param_count": int(sum(t.size for t in params.values())),
        "optimizer_step": optimizer.step_count if optimizer is not None else None,
    }
    tensors = {name: t.data for name, t in params.items()}
    if optimizer is not None:
        tensors.update(optimizer.state_tensors())
    save_checkpoint(path, meta, tensors)
    return meta


def restore_model_state(model, tensors):
    """Exact restore: every model parameter must match by name and shape;
    non-optimizer leftovers in the file are an error."""
    names = set()
    for name, param in model.named_params():
        names.add(name)
        if name not in tensors:
            raise CheckpointNameError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != param.data.shape:
            raise CheckpointNameError(
                f"tensor {name!r} shape {arr.shape} != model shape {param.data.shape}"
            )
        param.data = arr.astype(param.data.dtype)  # a copy, whatever the dtype
    unknown = [n for n in tensors if n not in names and not n.startswith("optim.")]
    if unknown:
        raise CheckpointNameError(f"checkpoint holds unknown tensors: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# window-size transfer
# ---------------------------------------------------------------------------


def _cubic_weights(frac, a=-0.5):
    """Catmull-Rom tap weights for offsets (-1, 0, 1, 2) at fraction frac."""
    t = np.array([1.0 + frac, frac, 1.0 - frac, 2.0 - frac])
    at = np.abs(t)
    w = np.where(
        at <= 1.0,
        (a + 2.0) * at ** 3 - (a + 3.0) * at ** 2 + 1.0,
        a * at ** 3 - 5.0 * a * at ** 2 + 8.0 * a * at - 4.0 * a,
    )
    return w


def bicubic_resize_grid(grid, out_h, out_w):
    """Corner-aligned bicubic resample of [H, W, C]; exact at grid points."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w, c = grid.shape

    def taps(n_in, n_out):
        src = np.arange(n_out) * ((n_in - 1) / (n_out - 1)) if n_out > 1 else np.zeros(1)
        base = np.floor(src).astype(np.int64)
        frac = src - base
        idx = np.clip(base[:, None] + np.array([-1, 0, 1, 2])[None, :], 0, n_in - 1)
        weights = np.stack([_cubic_weights(f) for f in frac])
        return idx, weights

    yi, yw = taps(h, out_h)
    xi, xw = taps(w, out_w)
    rows = np.einsum("ot,otwc->owc", yw, grid[yi])  # grid[yi]: [out_h, 4, w, c]
    out = np.einsum("wt,owtc->owc", xw, rows[:, xi])  # rows[:, xi]: [out_h, out_w, 4, c]
    return out


def remap_bias_table(table, old_window, new_window):
    """Resample a relative-position-bias table between window sizes.

    table: [(2*old-1)^2, heads] -> [(2*new-1)^2, heads] via bicubic
    interpolation of the per-head (2M-1) x (2M-1) grid.
    """
    old_side = 2 * old_window - 1
    new_side = 2 * new_window - 1
    heads = table.shape[1]
    grid = np.asarray(table, dtype=np.float64).reshape(old_side, old_side, heads)
    out = bicubic_resize_grid(grid, new_side, new_side)
    return out.reshape(new_side * new_side, heads).astype(table.dtype)


def load_pretrained_encoder(model, tensors):
    """Warm-start a model's encoder (and mask token) from checkpoint tensors.

    Parameters are matched by name. A relative-position-bias table with the
    same head count but another window size is bicubically resampled; any
    other shape mismatch is an error listing every offending tensor.
    Head parameters absent from the checkpoint stay freshly initialized.
    Returns {"loaded": [...], "remapped": [...], "fresh": [...]}.
    """
    report = {"loaded": [], "remapped": [], "fresh": []}
    mismatched = []
    for name, param in model.named_params():
        if name not in tensors:
            report["fresh"].append(name)
            continue
        arr = tensors[name]
        if arr.shape == param.data.shape:
            param.data = arr.astype(param.data.dtype)  # a copy, whatever the dtype
            report["loaded"].append(name)
        elif name.endswith("attn.bias_table") and arr.shape[1] == param.data.shape[1]:
            old_window = (int(round(math.sqrt(arr.shape[0]))) + 1) // 2
            new_window = (int(round(math.sqrt(param.data.shape[0]))) + 1) // 2
            param.data = remap_bias_table(arr, old_window, new_window).astype(param.data.dtype)
            report["remapped"].append(name)
        else:
            mismatched.append(name)
    if mismatched:
        raise CheckpointNameError(
            f"checkpoint/config mismatch for tensors: {sorted(mismatched)}"
        )
    return report


# ---------------------------------------------------------------------------
# logging helpers
# ---------------------------------------------------------------------------


class TsvLog:
    """Tab-separated log with one '#' header line carrying the timestamp."""

    def __init__(self, path, columns, title, append=False):
        self.path = str(path)
        mode = "a" if append and os.path.exists(path) else "w"
        self._f = open(self.path, mode, encoding="utf-8")
        if mode == "w":
            self._f.write(f"# {title} started {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            self._f.write("\t".join(columns) + "\n")

    def write(self, *values):
        self._f.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n")
        self._f.flush()

    def close(self):
        self._f.close()


def read_tsv_log(path):
    """Parse a TsvLog file back into (columns, list of row tuples)."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split("\t")
    rows = [tuple(ln.split("\t")) for ln in body[1:]]
    return columns, rows


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _run_phase(run_cfg, model, index, out_dir, seed, resume, kind, log_name, title,
               columns, step_fn, end_epoch=None, begin=None):
    """The epoch loop of both phases; returns the checkpoint path.

    step_fn(batch, step, lr, optimizer) trains on one batch and returns its
    loss. end_epoch(epoch, losses, log, cache) returns True to stop early.
    begin() runs once out_dir exists, after a resume has been checked.
    The log's first column counts progress: a "step" log gets a (step, lr,
    loss) row every train.log_every steps, an "epoch" log what end_epoch
    writes. Resume drops the rows at or past the checkpoint before appending.
    """
    if len(index) == 0:
        raise ValueError(f"{title}: the training index is empty")
    optimizer = AdamW(dict(model.named_params()), run_cfg.optimizer.beta1,
                      run_cfg.optimizer.beta2, run_cfg.optimizer.eps,
                      run_cfg.optimizer.weight_decay)
    batch_size = run_cfg.train.batch_size
    epochs = run_cfg.schedule.epochs
    spe = -(-len(index) // batch_size)
    schedule = make_schedule(run_cfg.optimizer, run_cfg.schedule, epochs * spe)
    per_step = columns[0] == "step"
    log_path = os.path.join(out_dir, log_name)

    start_epoch = 0
    if resume is not None:
        meta, tensors = load_checkpoint(resume)
        progress = meta.get("progress") if isinstance(meta.get("progress"), dict) else {}
        missing = [f"progress.{k}" for k in ("epoch", "global_step") if k not in progress]
        missing += [k for k in ("optimizer_step",) if meta.get(k) is None]
        missing += [k for k in optimizer.state_tensors() if k not in tensors]
        if missing:  # checked before anything is restored
            raise CheckpointError(f"{resume}: cannot resume without {missing[0]}")
        start_epoch = progress["epoch"]
        if start_epoch >= epochs:
            raise ValueError(f"{resume} is at epoch {start_epoch} of {epochs}: "
                             "nothing left to train")
        restore_model_state(model, tensors)
        optimizer.load_state_tensors(tensors, meta["optimizer_step"])
        del tensors  # restored: the model and optimizer hold copies
        if os.path.exists(log_path):  # drop the rows at or past the checkpoint
            limit = progress["global_step" if per_step else "epoch"]
            with open(log_path, encoding="utf-8") as f:
                lines = f.readlines()
            with open(log_path, "w", encoding="utf-8") as f:
                f.writelines(lines[:2] + [ln for ln in lines[2:] if int(ln.split("\t")[0]) < limit])

    os.makedirs(out_dir, exist_ok=True)
    if begin is not None:
        begin()
    ckpt_path = os.path.join(out_dir, "checkpoint.sldb")
    log = TsvLog(log_path, columns, title, append=resume is not None)
    cache = ImageCache(run_cfg.model.img_size)
    data_seed = Rng(seed).child(_DATA).derived_seed()
    try:
        for epoch in range(start_epoch, epochs):
            losses = []
            batches = make_batches(index, batch_size, data_seed, epoch,
                                   run_cfg.model.img_size, run_cfg.data.mean,
                                   run_cfg.data.std, cache=cache)
            for i, batch in enumerate(batches):
                step = epoch * spe + i
                lr = schedule.lr_at(step)
                # a diverging step is reported by the finiteness guards, not numpy
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = step_fn(batch, step, lr, optimizer)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"{title}: loss is {loss} at step {step}")
                losses.append(loss)
                if per_step and step % run_cfg.train.log_every == 0:
                    log.write(step, float(lr), float(loss))
            bad = [n for n, p in model.named_params() if not np.isfinite(p.data).all()]
            if bad:  # the epoch's last update diverged: keep the last good checkpoint
                raise FloatingPointError(f"{title}: {len(bad)} parameters are not finite "
                                         f"after epoch {epoch + 1}, first {bad[0]}")
            stop = end_epoch is not None and end_epoch(epoch, losses, log, cache)
            if (epoch + 1) % run_cfg.train.checkpoint_every == 0 or epoch + 1 == epochs or stop:
                tagged = os.path.join(out_dir, f"checkpoint_e{epoch + 1}.sldb")
                save_model_checkpoint(
                    tagged, model, run_cfg, kind, seed,
                    {"epoch": epoch + 1, "global_step": (epoch + 1) * spe},
                    optimizer,
                )
                shutil.copyfile(tagged, ckpt_path)
            if stop:
                break
    finally:
        log.close()
    return ckpt_path


def run_pretrain(run_cfg, index, out_dir, seed=0, resume=None):
    """Masked-pixel pretraining over the index; returns (model, ckpt path).

    Writes pretrain_log.tsv (step, lr, loss) and checkpoint.sldb each
    checkpoint interval. `resume` restarts bit-exactly from a checkpoint
    written by this function (training continues at the next epoch).
    """
    run_cfg.validate()
    if run_cfg.mask.spec().masked_unit_count(run_cfg.model.img_size) == 0:
        raise ValueError(
            "mask_ratio too small: no units would be masked and the loss is undefined"
        )
    rng = Rng(seed)
    model = MIMPretrainModel(
        run_cfg.model, rng.child(_INIT), mask_spec=run_cfg.mask.spec(seed),
        target_factor=run_cfg.mask.target_factor,
    )

    img_size = run_cfg.model.img_size

    def step_fn(batch, step, lr, optimizer):
        mask_rng = rng.child(_MASK, step)
        masks = [
            generate_mask(model.mask_spec, img_size, mask_rng.child(j))
            for j in range(len(batch.images))
        ]
        return pretrain_step(Tensor(batch.images), masks, model, optimizer, lr,
                             rng=rng.child(_DROP, step))

    ckpt_path = _run_phase(run_cfg, model, index, out_dir, seed, resume, "pretrain",
                           "pretrain_log.tsv", "pretrain", ("step", "lr", "loss"), step_fn)
    return model, ckpt_path


def run_finetune(run_cfg, train_index, eval_index, out_dir, seed=0,
                 init_checkpoint=None, resume=None, on_warm_start=None):
    """Classification fine-tuning; returns (model, Metrics, ckpt path).

    Optional batch-level CutMix/MixUp (augment config) and optional
    mask-token input masking (train.mask_in_finetune). Writes the split to
    split.tsv and appends per-epoch metrics to metrics_log.tsv. A warm start
    from `init_checkpoint` hands load_pretrained_encoder's report to
    `on_warm_start` when given.
    """
    run_cfg.validate()
    rng = Rng(seed)
    with_token = run_cfg.train.mask_in_finetune
    model = SwinClassifier(run_cfg.model, rng.child(_INIT), with_mask_token=with_token)
    if init_checkpoint is not None:
        _, tensors = load_checkpoint(init_checkpoint)
        report = load_pretrained_encoder(model, tensors)
        del tensors  # loaded: the model holds copies
        if on_warm_start is not None:
            on_warm_start(report)
    mask_spec = run_cfg.mask.spec(seed) if with_token else None
    img_size = run_cfg.model.img_size
    metrics = None

    def step_fn(batch, step, lr, optimizer):
        images, labels, _ = mix_batch(batch.images, batch.labels, run_cfg.augment,
                                      rng.child(_AUG, step))
        token_mask = None
        if with_token:
            mask_rng = rng.child(_MASK, step)
            token_mask = np.stack([
                generate_mask(mask_spec, img_size, mask_rng.child(j)).token_mask()
                for j in range(len(images))
            ])
        with Tape() as tape:
            logits = model(Tensor(images), token_mask=token_mask,
                           mask_token=model.mask_token, training=True,
                           rng=rng.child(_DROP, step))
            loss = soft_cross_entropy(logits, labels)
        tape.backward(loss)
        optimizer.step(lr)
        return loss.item()

    def end_epoch(epoch, losses, log, cache):
        nonlocal metrics
        metrics = evaluate(model, eval_index, run_cfg, cache=cache)
        log.write(epoch, float(np.mean(losses)), metrics.accuracy, metrics.macro_precision,
                  metrics.macro_recall, metrics.macro_f1)
        return (run_cfg.train.early_stop_acc is not None
                and metrics.accuracy >= run_cfg.train.early_stop_acc)

    ckpt_path = _run_phase(run_cfg, model, train_index, out_dir, seed, resume, "classifier",
                           "metrics_log.tsv", "finetune",
                           ("epoch", "train_loss", "accuracy", "macro_precision",
                            "macro_recall", "macro_f1"),
                           step_fn, end_epoch,
                           lambda: write_split_manifest(os.path.join(out_dir, "split.tsv"),
                                                        train_index, eval_index))
    return model, metrics, ckpt_path
