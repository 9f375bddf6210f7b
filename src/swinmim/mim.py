"""Masked-image-modeling objective.

Random block masking over square pixel units, mask-token substitution in
the embedded token map, a single linear head that regresses pixel values
from the final feature map, and the masked L1 loss

    L = ||pred_M - target_M||_1 / Omega(M)

averaged over masked pixel elements only; unmasked pixels contribute
nothing and receive exactly zero gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .swin import PATCH, Linear, SwinEncoder
from .tensor import (Tensor, ShapeError, absolute, mul, reshape, sub, tensor_sum, where_const,
                     window_reverse)


TARGET_FACTORS = (2, 4, 8, 16, 32)  # prediction-head upscales the encoder stride allows


class EmptyMaskError(ValueError):
    """Raised when a loss would average over zero masked elements."""


def round_half_up(x):
    return int(math.floor(x + 0.5))


@dataclass
class MaskSpec:
    """Masking strategy: unit edge in pixels, masked fraction, base seed."""

    mask_patch_size: int = 32
    ratio: float = 0.5
    seed: int = 0

    def validate(self):
        if self.mask_patch_size < PATCH or self.mask_patch_size % PATCH:
            raise ValueError(
                f"mask_patch_size {self.mask_patch_size} must be a positive multiple of {PATCH}"
            )
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio {self.ratio} outside [0, 1]")
        return self

    def units_per_side(self, img_size):
        return -(-img_size // self.mask_patch_size)  # ceil; edge units may be partial

    def masked_unit_count(self, img_size):
        units = self.units_per_side(img_size) ** 2
        return round_half_up(self.ratio * units)


class MaskMap:
    """Boolean grid over mask units plus its token- and pixel-level views."""

    def __init__(self, unit_grid, mask_patch_size, img_size):
        self.unit_grid = np.asarray(unit_grid, dtype=bool)
        self.mask_patch_size = int(mask_patch_size)
        self.img_size = int(img_size)

    def pixel_mask(self, scale=1):
        """Per-pixel mask at img_size/scale resolution (exact unit upsampling)."""
        size = self.img_size // scale
        unit = self.mask_patch_size // scale
        if unit < 1:
            raise ShapeError(f"mask unit smaller than one cell at scale {scale}")
        rows = np.minimum(np.arange(size) // unit, self.unit_grid.shape[0] - 1)
        cols = np.minimum(np.arange(size) // unit, self.unit_grid.shape[1] - 1)
        return self.unit_grid[np.ix_(rows, cols)]

    def token_mask(self):
        """Mask at the 4-pixel token resolution, [img/4, img/4]."""
        return self.pixel_mask(scale=PATCH)


def generate_mask(spec, img_size, rng=None):
    """Draw a uniformly random set of exactly round(ratio * units) units."""
    spec.validate()
    if img_size < spec.mask_patch_size:
        raise ShapeError(
            f"img_size {img_size} smaller than mask unit {spec.mask_patch_size}"
        )
    if rng is None:
        rng = Rng(spec.seed)
    side = spec.units_per_side(img_size)
    units = side * side
    k = spec.masked_unit_count(img_size)
    grid = np.zeros(units, dtype=bool)
    grid[rng.permutation(units)[:k]] = True
    return MaskMap(grid.reshape(side, side), spec.mask_patch_size, img_size)


def apply_mask(tokens, token_mask, mask_token):
    """Replace masked token positions with the learnable mask vector.

    tokens: Tensor [..., H', W', C]; token_mask: bool [..., H', W'];
    unmasked positions are copied bitwise.
    """
    token_mask = np.asarray(token_mask, dtype=bool)
    if token_mask.shape != tokens.shape[:-1]:
        raise ShapeError(
            f"token mask {token_mask.shape} does not match token grid {tokens.shape[:-1]}"
        )
    if mask_token.shape != tokens.shape[-1:]:
        raise ShapeError(
            f"mask token dim {mask_token.shape} != channel dim {tokens.shape[-1:]}"
        )
    return where_const(token_mask[..., None], mask_token, tokens)


class PredictionHead:
    """Single linear layer mapping each final feature to an r x r x c block."""

    def __init__(self, feature_dim, rng, out_channels, upscale=32, dtype=np.float32):
        self.upscale = int(upscale)
        self.out_channels = int(out_channels)
        self.proj = Linear(feature_dim, self.upscale * self.upscale * out_channels, rng, dtype)

    def named_params(self, prefix):
        yield from self.proj.named_params(prefix)


def predict_pixels(features, head):
    """Tile per-feature pixel blocks back into a full image.

    features: Tensor [B, h, w, D] -> [B, h*r, w*r, c] with r = head.upscale
    and c = head.out_channels.
    """
    b, h, w, _ = features.shape
    r, c = head.upscale, head.out_channels
    out = head.proj(features)  # [b, h, w, r*r*c]: one r x r window per feature
    return window_reverse(reshape(out, (b * h * w, r * r, c)), r, h * r, w * r, batch=b)


def masked_l1_loss(pred, target, pixel_mask):
    """Mean absolute error over masked pixel elements only.

    pred/target: Tensor [..., H, W, C]; pixel_mask: bool [..., H, W]. Raises
    EmptyMaskError instead of dividing by zero when nothing is masked.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} != target {target.shape}")
    pixel_mask = np.asarray(pixel_mask, dtype=bool)
    if pixel_mask.shape != pred.shape[:-1]:
        raise ShapeError(
            f"pixel mask {pixel_mask.shape} does not cover image {pred.shape[:-1]}"
        )
    count = int(pixel_mask.sum()) * pred.shape[-1]
    if count == 0:
        raise EmptyMaskError("no masked pixels: the loss is undefined")
    diff = absolute(sub(pred, target))
    weighted = mul(diff, Tensor(pixel_mask[..., None].astype(pred.data.dtype)))
    return mul(tensor_sum(weighted), 1.0 / count)


class MIMPretrainModel:
    """Encoder + mask token + linear prediction head, trained end to end."""

    def __init__(self, config, rng, mask_spec=None, target_factor=32, dtype=np.float32):
        init = rng.child(0)
        self.config = config
        self.mask_spec = mask_spec if mask_spec is not None else MaskSpec()
        self.target_factor = int(target_factor)
        if self.target_factor not in TARGET_FACTORS:
            raise ValueError(f"target_factor {target_factor} not in {TARGET_FACTORS}")
        self.encoder = SwinEncoder(config, init, dtype)
        self.mask_token = Tensor(
            init.trunc_normal((config.embed_dim,), dtype=dtype), requires_grad=True
        )
        self.head = PredictionHead(config.final_dim, init, config.in_channels,
                                   upscale=self.target_factor, dtype=dtype)
        # the encoder downsamples by `stride`; the head tiles features back up
        # by target_factor, so the regression target is the input downsampled
        # by stride/target_factor (area averaging), the original at 32/32
        stride = PATCH * 2 ** (config.num_stages - 1)
        if stride % self.target_factor:
            raise ValueError(
                f"target_factor {self.target_factor} must divide the encoder stride {stride}"
            )
        self.target_downsample = stride // self.target_factor

    def loss(self, images, masks, training=True, rng=None):
        """Masked regression loss for a batch.

        images: Tensor [B, H, W, in_channels] (already normalized); masks: list of
        MaskMap, one per sample. Targets are the (possibly downsampled)
        input pixels themselves.
        """
        token_mask = np.stack([m.token_mask() for m in masks])
        feats = self.encoder(images, token_mask=token_mask, mask_token=self.mask_token,
                             training=training, rng=rng)
        pred = predict_pixels(feats, self.head)
        target = images if self.target_downsample == 1 else Tensor(
            _downsample_area(images.numpy(), self.target_downsample)
        )
        pixel_mask = np.stack([m.pixel_mask(scale=self.target_downsample) for m in masks])
        return masked_l1_loss(pred, target, pixel_mask)

    def named_params(self):
        yield from self.encoder.named_params()
        yield "mask_token", self.mask_token
        yield from self.head.named_params("pred_head")

    def param_count(self):
        return sum(t.size for _, t in self.named_params())


def _downsample_area(images, factor):
    """Average-pool [B, H, W, C] pixels over factor x factor cells."""
    b, h, w, c = images.shape
    return images.reshape(b, h // factor, factor, w // factor, factor, c).mean(axis=(2, 4))


def pretrain_step(images, masks, model, optimizer, lr, rng=None):
    """One fused mask->encode->predict->loss->backward->update step.

    Returns the pre-update loss value.
    """
    from .tensor import Tape

    with Tape() as tape:
        loss = model.loss(images, masks, training=True, rng=rng)
    tape.backward(loss)
    optimizer.step(lr)
    return loss.item()
