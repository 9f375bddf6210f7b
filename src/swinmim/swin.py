"""Hierarchical windowed-attention encoder.

Pipeline: 4x4 patch partition -> linear embedding to C channels -> four
stages of paired window-attention blocks (regular then shifted), with 2x2
patch merging between stages so spatial extents halve and channels double.
Includes closed-form parameter and FLOP counters for the whole model and
for single attention modules.
"""

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import (
    Tensor,
    ShapeError,
    add,
    batch_halves,
    drop_path,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    matmul,
    mul,
    reshape,
    select_first_axis,
    softmax,
    take_tokens,
    tensor_mean,
    transpose,
    window_index,
    window_partition,
)

PATCH = 4  # input patch edge in pixels; one token per 4x4 pixel block
# Additive stand-in for -inf before softmax. It must stay finite (debug checks
# assert finite kernel outputs), and exp of a masked score must underflow to
# +0 in float32 and float64: a fill of -100 left e^-100, a float32 subnormal
# that slowed every kernel reading the probabilities (single-core attn @ v
# at 192px: 16.3 ms subnormal vs 1.5 ms flushed), with the same outputs.
ATTN_MASK_FILL = -1e9


class ConfigError(ValueError):
    """Raised when a model configuration violates its invariants."""


@dataclass
class SwinConfig:
    """Encoder hyperparameters; defaults give the lightweight 27.5M model."""

    img_size: int = 224
    in_channels: int = 3
    embed_dim: int = 96
    depths: tuple[int, ...] = (2, 2, 6, 2)
    heads: tuple[int, ...] = (3, 6, 12, 24)
    window_size: int = 7
    mlp_ratio: float = 4.0
    shift_size: int = None  # None -> window_size // 2
    num_classes: int = 10
    drop_path: float = 0.0

    def __post_init__(self):
        self.depths = tuple(int(d) for d in self.depths)
        self.heads = tuple(int(h) for h in self.heads)

    @property
    def effective_shift(self):
        return self.window_size // 2 if self.shift_size is None else self.shift_size

    @property
    def num_stages(self):
        return len(self.depths)

    def stage_dim(self, stage):
        return self.embed_dim * (2 ** stage)

    def stage_resolution(self, stage):
        return self.img_size // PATCH // (2 ** stage)

    @property
    def final_dim(self):
        return self.stage_dim(self.num_stages - 1)

    def validate(self):
        if len(self.depths) != len(self.heads):
            raise ConfigError("depths and heads must have the same length")
        if any(d <= 0 or d % 2 for d in self.depths):
            raise ConfigError(f"stage depths must be positive and even, got {self.depths}")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be >= 1")
        for s, h in enumerate(self.heads):
            if h <= 0 or self.stage_dim(s) % h:
                raise ConfigError(
                    f"stage {s} channel dim {self.stage_dim(s)} not divisible by {h} heads"
                )
        down = PATCH * (2 ** (self.num_stages - 1))
        if self.img_size <= 0 or self.img_size % down:
            raise ConfigError(f"img_size {self.img_size} must be a multiple of {down}")
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if not 0 <= self.effective_shift < max(self.window_size, 1):
            raise ConfigError("shift_size must lie in [0, window_size)")
        if not 0 < self.mlp_ratio < math.inf:
            raise ConfigError("mlp_ratio must be positive and finite")
        if round(self.mlp_ratio * self.embed_dim) == 0:  # stage 0 is the narrowest
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} gives stage 0 (width "
                              f"{self.embed_dim}) an MLP hidden width of 0")
        if self.in_channels < 1 or self.num_classes < 1:
            raise ConfigError("in_channels and num_classes must be >= 1")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigError("drop_path must lie in [0, 1)")
        return self


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


class Linear:
    def __init__(self, d_in, d_out, rng, dtype=np.float32, bias=True):
        self.weight = Tensor(rng.trunc_normal((d_in, d_out), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def named_params(self, prefix):
        yield prefix + ".weight", self.weight
        if self.bias is not None:
            yield prefix + ".bias", self.bias


class LayerNorm:
    def __init__(self, dim, dtype=np.float32, eps=1e-5):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta, self.eps)

    def named_params(self, prefix):
        yield prefix + ".gamma", self.gamma
        yield prefix + ".beta", self.beta


# ---------------------------------------------------------------------------
# core spatial ops
# ---------------------------------------------------------------------------


def patch_partition(img):
    """Flatten each 4x4 pixel block into one token: [H,W,c] -> [H/4,W/4,16c].

    Accepts an optional leading batch axis. For RGB input the token dim is
    16 * 3 = 48. Values are regrouped, never changed.
    """
    tokens = window_partition(img, PATCH)  # one window per token, row-major pixels
    h, w, c = img.shape[-3:]
    return reshape(tokens, img.shape[:-3] + (h // PATCH, w // PATCH, PATCH * PATCH * c))


def relative_position_index(window):
    """Pairwise relative-offset lookup indices for one window, [M*M, M*M]."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    rel = rel + (window - 1)
    return (rel[0] * (2 * window - 1) + rel[1]).astype(np.int64)


@functools.lru_cache(maxsize=64)
def shifted_window_mask(height, width, window, shift, dtype=np.float32):
    """Additive attention mask for shifted windows, [num_windows, M*M, M*M].

    After a cyclic shift by (-shift, -shift), tokens wrapped around from the
    far side of the map land next to tokens they are not spatially adjacent
    to. Each window position is labeled with the contiguous source region it
    came from; pairs with different labels get ATTN_MASK_FILL, pairs with the
    same label get 0. The mask is built once per argument tuple and shared,
    so it is read-only.
    """
    labels = np.zeros((height, width), dtype=np.int64)
    cnt = 0
    spans = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
    for hs in spans:
        for ws in spans:
            labels[hs, ws] = cnt
            cnt += 1
    index, _ = window_index(height, width, window, 0)
    win = labels.reshape(-1)[index].reshape(-1, window * window)
    diff = win[:, None, :] - win[:, :, None]
    mask = np.where(diff != 0, dtype(ATTN_MASK_FILL), dtype(0.0))
    mask.flags.writeable = False
    return mask


class WindowAttention:
    """Multi-head self-attention inside one window, with learned pairwise
    position bias. Queries/keys/values come from one fused projection."""

    def __init__(self, dim, num_heads, window, rng, dtype=np.float32):
        if dim % num_heads:
            raise ConfigError(f"dim {dim} not divisible by {num_heads} heads")
        self.dim = dim
        self.num_heads = num_heads
        self.window = window
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, 3 * dim, rng, dtype)
        self.proj = Linear(dim, dim, rng, dtype)
        self.bias_table = Tensor(
            rng.trunc_normal(((2 * window - 1) ** 2, num_heads), dtype=dtype),
            requires_grad=True,
        )
        self.rel_index = relative_position_index(window).reshape(-1)

    def position_bias(self):
        """The learned pairwise position bias of every head, [heads, M*M, M*M];
        it depends only on parameters."""
        n = self.window * self.window
        bias = gather_rows(self.bias_table, self.rel_index)  # [n*n, heads]
        return transpose(reshape(bias, (n, n, self.num_heads)), (2, 0, 1))

    def __call__(self, x, mask=None, bias=None):
        """x: [num_windows_total, M*M, dim]; mask: [num_windows, M*M, M*M];
        bias: position_bias(), computed here when not given."""
        bw, n, c = x.shape
        if n != self.window * self.window:
            raise ShapeError(f"window token count {n} != {self.window}^2")
        h, dk = self.num_heads, self.head_dim

        qkv = self.qkv(x)  # [bw, n, 3c]
        qkv = reshape(qkv, (bw, n, 3, h, dk))
        qkv = transpose(qkv, (2, 0, 3, 1, 4))  # [3, bw, h, n, dk]
        q = select_first_axis(qkv, 0)
        k = select_first_axis(qkv, 1)
        v = select_first_axis(qkv, 2)

        q = mul(q, 1.0 / math.sqrt(dk))
        attn = matmul(q, transpose(k, (0, 1, 3, 2)))  # [bw, h, n, n]

        attn = add(attn, self.position_bias() if bias is None else bias)

        if mask is not None:
            nw = mask.shape[0]
            attn = reshape(attn, (bw // nw, nw, h, n, n))
            # a view of the cached mask, which SwinBlock._layout built in x's dtype
            attn = add(attn, Tensor(mask[None, :, None, :, :]))
            attn = reshape(attn, (bw, h, n, n))

        attn = softmax(attn)
        out = matmul(attn, v)  # [bw, h, n, dk]
        out = reshape(transpose(out, (0, 2, 1, 3)), (bw, n, c))
        return self.proj(out)

    def named_params(self, prefix):
        yield from self.qkv.named_params(prefix + ".qkv")
        yield prefix + ".bias_table", self.bias_table
        yield from self.proj.named_params(prefix + ".proj")


class SwinBlock:
    """One pre-norm attention block: (S)W-MSA + MLP, both with residuals."""

    def __init__(self, dim, num_heads, window, shift, mlp_ratio, rng, dtype=np.float32):
        self.window = window
        self.shift = shift
        self.norm1 = LayerNorm(dim, dtype)
        self.attn = WindowAttention(dim, num_heads, window, rng, dtype)
        self.norm2 = LayerNorm(dim, dtype)
        hidden = int(round(mlp_ratio * dim))
        self.fc1 = Linear(dim, hidden, rng, dtype)
        self.fc2 = Linear(hidden, dim, rng, dtype)

    def _layout(self, height, width, dtype):
        """(index, inverse, mask) of this block's window layout of one
        height x width map: the take_tokens maps of pad -> shift -> partition
        and the shifted-window attention mask (None when unshifted)."""
        m = self.window
        hp, wp = -(-height // m) * m, -(-width // m) * m
        # a single window leaves nothing to shift against
        shift = self.shift if min(hp, wp) > m else 0
        mask = shifted_window_mask(hp, wp, m, shift, np.dtype(dtype).type) if shift else None
        return window_index(height, width, m, shift) + (mask,)

    def __call__(self, x, bias=None, keep=(None, None)):
        """x: [B, H, W, C] -> same shape; bias: attn.position_bias() or None;
        keep: the two branches' stochastic-depth factors (drop_path) or Nones."""
        _, h, w, c = x.shape
        index, inverse, mask = self._layout(h, w, x.dtype)
        windows = take_tokens(self.norm1(x), index, inverse, (-1, self.window ** 2, c))
        t = take_tokens(self.attn(windows, mask, bias), inverse, index, x.shape)
        x = add(x, drop_path(t, keep[0]))

        t = self.fc2(gelu(self.fc1(self.norm2(x))))
        return add(x, drop_path(t, keep[1]))

    def named_params(self, prefix):
        yield from self.norm1.named_params(prefix + ".norm1")
        yield from self.attn.named_params(prefix + ".attn")
        yield from self.norm2.named_params(prefix + ".norm2")
        yield from self.fc1.named_params(prefix + ".mlp.fc1")
        yield from self.fc2.named_params(prefix + ".mlp.fc2")


class PatchMerge:
    """Merge 2x2 token neighborhoods: [B,H,W,C] -> [B,H/2,W/2,2C] (B optional).

    The four tokens of each neighborhood are concatenated along channels
    (row-major within the 2x2 patch, giving 4C), layer-normed, then linearly
    reduced to 2C.
    """

    def __init__(self, dim, rng, dtype=np.float32):
        self.norm = LayerNorm(4 * dim, dtype)
        self.reduce = Linear(4 * dim, 2 * dim, rng, dtype, bias=False)

    def __call__(self, x):
        windows = window_partition(x, 2)  # checks the rank and the even extents
        h, w, c = x.shape[-3:]
        return self.reduce(self.norm(reshape(windows, x.shape[:-3] + (h // 2, w // 2, 4 * c))))

    def named_params(self, prefix):
        yield from self.norm.named_params(prefix + ".norm")
        yield from self.reduce.named_params(prefix + ".reduce")


def _wrapped_calls():
    """Whether a function or method the encoder calls carries __wrapped__,
    as the wrappers of perfbench's span tracer do; such a wrapper may keep
    state (the tracer's one span stack) that a second thread would corrupt."""
    from . import mim, tensor

    calls = [v for m in (globals(), vars(tensor), vars(mim)) for v in m.values()
             if isinstance(v, types.FunctionType)]
    calls += [cls.__call__ for cls in (Linear, LayerNorm, WindowAttention, SwinBlock, PatchMerge)]
    return any(hasattr(f, "__wrapped__") for f in calls)


class SwinEncoder:
    """Four-stage encoder; forward accepts [B, H, W, in_channels] images."""

    def __init__(self, config, rng, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        c = config.embed_dim
        self.embed = Linear(PATCH * PATCH * config.in_channels, c, rng, dtype)
        self.embed_norm = LayerNorm(c, dtype)
        self.merges = []
        self.stages = []
        for s, (depth, heads) in enumerate(zip(config.depths, config.heads)):
            dim = config.stage_dim(s)
            self.merges.append(PatchMerge(config.stage_dim(s - 1), rng, dtype) if s else None)
            blocks = []
            for b in range(depth):
                shift = 0 if b % 2 == 0 else config.effective_shift
                blocks.append(
                    SwinBlock(dim, heads, config.window_size, shift, config.mlp_ratio, rng, dtype)
                )
            self.stages.append(blocks)
        self.norm = LayerNorm(config.final_dim, dtype)

    def forward(self, images, token_mask=None, mask_token=None, training=False, rng=None):
        """Run the full pipeline; returns the final feature map
        [B, img/32, img/32, final_dim], after the final norm.

        images: Tensor [B, H, W, in_channels] with H == W == config.img_size.
        token_mask: optional bool array [B, H/4, W/4]; masked positions are
        replaced by `mask_token` right after the embedding norm.
        A forward of a large batch runs as two half-batch forwards, one per
        thread (tensor.batch_halves), on any number of CPUs; under a tape so
        does its backward. Their bytes are the reference: those of each half
        run alone. Each block's position bias (whose backward runs once, on
        the gradient both halves summed) and its stochastic-depth factors
        are made once, before the halves; each half takes its items' factors.
        """
        if images.ndim != 4:
            raise ShapeError(f"expected [B,H,W,C] images, got {images.shape}")
        if images.shape[1] != self.config.img_size or images.shape[2] != self.config.img_size:
            raise ConfigError(
                f"input spatial size {images.shape[1]}x{images.shape[2]} "
                f"!= configured {self.config.img_size}"
            )
        if images.shape[3] != self.config.in_channels:
            raise ConfigError(f"input has {images.shape[3]} channels "
                              f"!= configured in_channels {self.config.in_channels}")
        b = images.shape[0]
        if token_mask is not None and len(token_mask) != b:  # a half would drop its rows
            raise ShapeError(f"token mask of {len(token_mask)} items for a batch of {b}")
        biases = [[block.attn.position_bias() for block in blocks] for blocks in self.stages]
        rate, keep = self.config.drop_path, None
        if training and rate > 0:  # stochastic depth: each block's two branches' factors
            u = rng.uniform(size=(sum(self.config.depths), 2, b))  # a draw per branch's order
            keep = (u >= rate).astype(self.dtype) / (1.0 - rate)
        if images.requires_grad or _wrapped_calls():  # the halves take no image grad
            return self._forward(images, token_mask, mask_token, biases, keep)
        embedded = b * self.config.stage_resolution(0) ** 2 * self.config.embed_dim
        return batch_halves(b, embedded, lambda lo, hi: self._forward(
            Tensor(images.data[lo:hi]), None if token_mask is None else token_mask[lo:hi],
            mask_token, biases, None if keep is None else keep[..., lo:hi]))

    __call__ = forward

    def _forward(self, images, token_mask, mask_token, biases, keep):
        x = patch_partition(images)
        x = self.embed_norm(self.embed(x))
        if token_mask is not None:
            from .mim import apply_mask  # local import; mim depends on swin

            x = apply_mask(x, token_mask, mask_token)
        keeps = iter(() if keep is None else keep)
        for merge, blocks, stage_biases in zip(self.merges, self.stages, biases):
            if merge is not None:
                x = merge(x)
            for block, bias in zip(blocks, stage_biases):
                x = block(x, bias, next(keeps, (None, None)))
        return self.norm(x)

    def named_params(self):
        yield from self.embed.named_params("embed")
        yield from self.embed_norm.named_params("embed.norm")
        for s, (merge, blocks) in enumerate(zip(self.merges, self.stages)):
            if merge is not None:
                yield from merge.named_params(f"stages.{s}.merge")
            for b, block in enumerate(blocks):
                yield from block.named_params(f"stages.{s}.blocks.{b}")
        yield from self.norm.named_params("norm")


class SwinClassifier:
    """Encoder + global average pool + linear head over the classes.

    with_mask_token adds the learnable substitution vector so fine-tuning
    can keep masking input tokens (and inherit the pretrained token).
    """

    def __init__(self, config, rng, dtype=np.float32, with_mask_token=False):
        init = rng.child(0)
        self.encoder = SwinEncoder(config, init, dtype)
        self.head = Linear(config.final_dim, config.num_classes, init, dtype)
        self.mask_token = None
        if with_mask_token:
            self.mask_token = Tensor(
                init.trunc_normal((config.embed_dim,), dtype=dtype), requires_grad=True
            )
        self.config = config

    def forward(self, images, token_mask=None, mask_token=None, training=False, rng=None):
        if token_mask is not None and mask_token is None:
            mask_token = self.mask_token
        feats = self.encoder(images, token_mask=token_mask, mask_token=mask_token,
                             training=training, rng=rng)
        pooled = tensor_mean(feats, axis=(1, 2))  # [B, final_dim]
        return self.head(pooled)

    __call__ = forward

    def named_params(self):
        yield from self.encoder.named_params()
        if self.mask_token is not None:
            yield "mask_token", self.mask_token
        yield from self.head.named_params("head")

    def param_count(self):
        return sum(t.size for _, t in self.named_params())


# ---------------------------------------------------------------------------
# closed-form complexity counters
# ---------------------------------------------------------------------------


def count_attention_flops(kind, h, w, c, m=None):
    """Multiply-accumulate count of one attention module on an h x w map.

    kind "msa":   4*h*w*C^2 + 2*(h*w)^2*C      (global attention)
    kind "wmsa":  4*h*w*C^2 + 2*M^2*h*w*C      (windowed attention)
    """
    if h <= 0 or w <= 0 or c <= 0:
        raise ValueError("extents must be positive")
    hw = h * w
    if kind == "msa":
        return 4 * hw * c * c + 2 * hw * hw * c
    if kind == "wmsa":
        if m is None or m <= 0:
            raise ValueError("wmsa needs a positive window size m")
        return 4 * hw * c * c + 2 * m * m * hw * c
    raise ValueError(f"unknown attention kind {kind!r}")


def count_params(config, include_head=True):
    """Exact learnable-parameter count of the classifier model."""
    c = config.embed_dim
    m = config.window_size
    total = (PATCH * PATCH * config.in_channels) * c + c  # patch embedding
    total += 2 * c  # embedding norm
    for s, (depth, heads) in enumerate(zip(config.depths, config.heads)):
        d = config.stage_dim(s)
        if s:
            prev = config.stage_dim(s - 1)
            total += 2 * (4 * prev)  # merge norm
            total += (4 * prev) * (2 * prev)  # merge reduction (no bias)
        hidden = int(round(config.mlp_ratio * d))
        per_block = (
            2 * d  # norm1
            + d * (3 * d) + 3 * d  # fused qkv
            + (2 * m - 1) ** 2 * heads  # relative position bias table
            + d * d + d  # output projection
            + 2 * d  # norm2
            + d * hidden + hidden  # mlp fc1
            + hidden * d + d  # mlp fc2
        )
        total += depth * per_block
    total += 2 * config.final_dim  # final norm
    if include_head:
        total += config.final_dim * config.num_classes + config.num_classes
    return total


def count_flops(config, img_size=None, include_head=True):
    """Whole-model multiply-accumulate count at the given input size.

    Attention modules follow the windowed-attention formula; add to that the
    patch embedding, MLPs, patch-merge reductions, and classifier head.
    Norms, softmax, and biases are omitted (negligible).
    """
    img = config.img_size if img_size is None else img_size
    c = config.embed_dim
    m = config.window_size
    res = img // PATCH
    total = res * res * (PATCH * PATCH * config.in_channels) * c
    for s, depth in enumerate(config.depths):
        d = config.stage_dim(s)
        if s:
            prev = config.stage_dim(s - 1)
            total += 2 * res * res * prev * prev  # merge reduction at pre-merge res
            res //= 2
        hidden = int(round(config.mlp_ratio * d))
        attn = count_attention_flops("wmsa", res, res, d, m)
        mlp = 2 * res * res * d * hidden
        total += depth * (attn + mlp)
    if include_head:
        total += config.final_dim * config.num_classes
    return total
