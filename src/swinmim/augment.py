"""Six-strategy augmentation suite with soft-label algebra.

Photometric/geometric strategies (color jitter, motion blur, Gaussian
noise, horizontal flip + random scaling) operate on single [H, W, 3]
images in [0, 1] and are used for offline dataset expansion. CutMix and
MixUp operate on (image, soft label) pairs and are applied per batch
during fine-tuning:

    CutMix:  x = M * x_A + (1 - M) * x_B, box extents W*sqrt(1-lambda),
             label = lambda_eff * y_A + (1 - lambda_eff) * y_B
    MixUp:   x = lambda * x_A + (1 - lambda) * x_B, same blend for labels

with lambda ~ Beta(alpha, alpha).
"""

import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from .data import NUM_CLASSES, DatasetIndex, ImageRecord, load_ppm, resize_bilinear, save_ppm
from .mim import round_half_up


@dataclass
class AugmentConfig:
    """Per-strategy enables and parameter ranges."""

    color_jitter: bool = False
    exposure_range: tuple[float, ...] = (0.6, 1.4)
    saturation_range: tuple[float, ...] = (0.6, 1.4)
    hue_max: float = 0.1
    motion_blur: bool = False
    blur_lengths: tuple[int, ...] = (3, 5, 7, 9)
    gaussian_noise: bool = False
    noise_sigma_range: tuple[float, ...] = (0.01, 0.05)
    hflip_scale: bool = False
    scale_range: tuple[float, ...] = (0.8, 1.2)
    cutmix: bool = False
    mixup: bool = False
    alpha: float = 1.0
    copies: int = 1  # offline variants written per enabled strategy

    OFFLINE = ("color_jitter", "motion_blur", "gaussian_noise", "hflip_scale")

    def validate(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name in ("exposure_range", "saturation_range", "noise_sigma_range", "scale_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is empty: {(lo, hi)}")
        if not (0.5 <= self.scale_range[0] and self.scale_range[1] <= 2.0):
            raise ValueError(f"scale_range {self.scale_range} outside [0.5, 2.0]")
        if any(l < 3 or l % 2 == 0 for l in self.blur_lengths):
            raise ValueError("blur lengths must be odd and >= 3")
        if self.noise_sigma_range[0] < 0:
            raise ValueError("noise sigma must be nonnegative")
        if self.copies < 0:
            raise ValueError("copies must be >= 0")
        return self

    def enabled_offline(self):
        return [name for name in self.OFFLINE if getattr(self, name)]


# ---------------------------------------------------------------------------
# pairwise strategies: CutMix and MixUp
# ---------------------------------------------------------------------------


def sample_lambda(alpha, rng):
    """Mixing coefficient from Beta(alpha, alpha); uniform when alpha = 1."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return rng.beta(alpha, alpha)


@dataclass
class CutBox:
    r_x: int  # top-left column
    r_y: int  # top-left row
    r_w: int
    r_h: int

    def clipped(self, width, height):
        x1 = min(max(self.r_x, 0), width)
        y1 = min(max(self.r_y, 0), height)
        x2 = min(self.r_x + self.r_w, width)
        y2 = min(self.r_y + self.r_h, height)
        return x1, y1, max(x2, x1), max(y2, y1)


def sample_cut_box(width, height, lam, rng):
    """Box with top-left uniform over the image and extents W*sqrt(1-lambda)."""
    side = math.sqrt(1.0 - lam)
    return CutBox(
        r_x=int(rng.uniform(0, width)),
        r_y=int(rng.uniform(0, height)),
        r_w=round_half_up(width * side),
        r_h=round_half_up(height * side),
    )


def cutmix(a, b, lam, rng):
    """Replace a random box of image A with the same region of image B.

    a, b: (image [H, W, 3], soft label) pairs. The label mix uses the
    clipped box's true pixel-area fraction, so it stays faithful to the
    image content even when the sampled box runs off the edge.
    Returns (image, label, CutBox).
    """
    img_a, label_a = a
    img_b, label_b = b
    if img_a.shape != img_b.shape:
        raise ValueError(f"image shapes differ: {img_a.shape} vs {img_b.shape}")
    h, w = img_a.shape[:2]
    box = sample_cut_box(w, h, lam, rng)
    x1, y1, x2, y2 = box.clipped(w, h)
    out = img_a.copy()
    out[y1:y2, x1:x2] = img_b[y1:y2, x1:x2]
    lam_eff = 1.0 - ((x2 - x1) * (y2 - y1)) / (w * h)
    label = lam_eff * np.asarray(label_a) + (1.0 - lam_eff) * np.asarray(label_b)
    return out, label, box


def mixup(a, b, lam):
    """Convex blend of two images and their labels with the same lambda."""
    img_a, label_a = a
    img_b, label_b = b
    if img_a.shape != img_b.shape:
        raise ValueError(f"image shapes differ: {img_a.shape} vs {img_b.shape}")
    img = lam * img_a + (1.0 - lam) * img_b
    label = lam * np.asarray(label_a) + (1.0 - lam) * np.asarray(label_b)
    return img, label


def mix_batch(images, labels, config, rng):
    """Apply CutMix or MixUp across a batch against a shuffled partner.

    When both strategies are enabled one is chosen per batch with
    probability 0.5 each; with one enabled it is applied to every batch.
    Returns (images, labels, strategy_name).
    """
    if not (config.cutmix or config.mixup):
        return images, labels, "none"
    if config.cutmix and config.mixup:
        use_cutmix = rng.coin(0.5)
    else:
        use_cutmix = config.cutmix
    partner = rng.permutation(len(images))
    lam = sample_lambda(config.alpha, rng)
    out_images = np.empty_like(images)
    out_labels = np.empty_like(labels)
    for i, j in enumerate(partner):
        pair_a = (images[i], labels[i])
        pair_b = (images[j], labels[j])
        if use_cutmix:
            out_images[i], out_labels[i], _ = cutmix(pair_a, pair_b, lam, rng)
        else:
            out_images[i], out_labels[i] = mixup(pair_a, pair_b, lam)
    return out_images, out_labels, "cutmix" if use_cutmix else "mixup"


# ---------------------------------------------------------------------------
# photometric strategies
# ---------------------------------------------------------------------------


def rgb_to_hsv(img):
    img = np.asarray(img, dtype=np.float64)
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    mx = img.max(axis=-1)
    mn = img.min(axis=-1)
    diff = mx - mn
    h = np.zeros_like(mx)
    nz = diff > 0
    rm, gm, bm = (mx == r) & nz, (mx == g) & nz & (mx != r), (mx == b) & nz & (mx != r) & (mx != g)
    h[rm] = ((g - b)[rm] / diff[rm]) % 6.0
    h[gm] = (b - r)[gm] / diff[gm] + 2.0
    h[bm] = (r - g)[bm] / diff[bm] + 4.0
    h /= 6.0
    s = np.where(mx > 0, diff / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def hsv_to_rgb(hsv):
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    stack = np.stack  # one candidate rgb triple per sector
    table = [
        stack([v, t, p], -1), stack([q, v, p], -1), stack([p, v, t], -1),
        stack([p, q, v], -1), stack([t, p, v], -1), stack([v, p, q], -1),
    ]
    out = np.choose(i[..., None], table)
    return out


def adjust_hsv(img, exposure, saturation, hue_shift):
    """Scale V and S, offset hue modulo 1; output clamped to [0, 1]."""
    hsv = rgb_to_hsv(img)
    hsv[..., 2] = hsv[..., 2] * exposure
    hsv[..., 1] = np.clip(hsv[..., 1] * saturation, 0.0, 1.0)
    hsv[..., 0] = (hsv[..., 0] + hue_shift) % 1.0
    out = np.clip(hsv_to_rgb(hsv), 0.0, 1.0)
    return out.astype(np.asarray(img).dtype)


def line_kernel_offsets(length, angle):
    """(dy, dx) taps of a normalized line kernel at the given angle."""
    if length < 3 or length % 2 == 0:
        raise ValueError(f"kernel length must be odd and >= 3, got {length}")
    half = (length - 1) // 2
    ts = np.arange(-half, half + 1)
    dy = np.rint(ts * math.sin(angle)).astype(int)
    dx = np.rint(ts * math.cos(angle)).astype(int)
    return sorted(set(zip(dy.tolist(), dx.tolist())))


def motion_blur(img, length, angle):
    """Convolve with a normalized line kernel; borders replicate edges."""
    offsets = line_kernel_offsets(length, angle)
    weight = 1.0 / len(offsets)
    pad = max(max(abs(dy), abs(dx)) for dy, dx in offsets)
    img = np.asarray(img)
    padded = np.pad(img, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
    h, w = img.shape[:2]
    out = np.zeros_like(img, dtype=np.float64)
    for dy, dx in offsets:
        out += weight * padded[pad + dy:pad + dy + h, pad + dx:pad + dx + w]
    return np.clip(out, 0.0, 1.0).astype(img.dtype)


def gaussian_noise(img, sigma, rng):
    """Add i.i.d. N(0, sigma^2) per element; clamp back to [0, 1]."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    img = np.asarray(img)
    if sigma == 0:
        return img.copy()
    noise = rng.normal(0.0, sigma, size=img.shape)
    return np.clip(img + noise, 0.0, 1.0).astype(img.dtype)


def scale_and_flip(img, flip, scale):
    """Mirror if flip, rescale by scale, then center-crop or zero-pad back to size."""
    img = np.asarray(img)
    if flip:
        img = img[:, ::-1]
    h, w = img.shape[:2]
    nh, nw = max(1, round_half_up(h * scale)), max(1, round_half_up(w * scale))
    if (nh, nw) != (h, w):
        img = resize_bilinear(img, nh, nw, half_pixel=False)
    out = np.zeros((h, w) + img.shape[2:], dtype=img.dtype)
    # center crop when larger, center zero-pad when smaller
    src_y = max(0, (nh - h) // 2)
    src_x = max(0, (nw - w) // 2)
    dst_y = max(0, (h - nh) // 2)
    dst_x = max(0, (w - nw) // 2)
    copy_h = min(h, nh)
    copy_w = min(w, nw)
    out[dst_y:dst_y + copy_h, dst_x:dst_x + copy_w] = \
        img[src_y:src_y + copy_h, src_x:src_x + copy_w]
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# offline dataset expansion
# ---------------------------------------------------------------------------


def _apply_offline(name, img, config, rng):
    """Run one offline strategy with sampled parameters; returns (img, params)."""
    if name == "color_jitter":
        exposure = rng.uniform(*config.exposure_range)
        saturation = rng.uniform(*config.saturation_range)
        hue = rng.uniform(-config.hue_max, config.hue_max)
        out = adjust_hsv(img, exposure, saturation, hue)
        params = f"exposure={exposure:.4f},saturation={saturation:.4f},hue={hue:.4f}"
    elif name == "motion_blur":
        length = int(config.blur_lengths[rng.integers(0, len(config.blur_lengths))])
        angle = rng.uniform(0.0, math.pi)
        out = motion_blur(img, length, angle)
        params = f"length={length},angle={angle:.4f}"
    elif name == "gaussian_noise":
        sigma = rng.uniform(*config.noise_sigma_range)
        out = gaussian_noise(img, sigma, rng)
        params = f"sigma={sigma:.4f}"
    elif name == "hflip_scale":
        flip = rng.coin(0.5)
        scale = rng.uniform(*config.scale_range)
        out = scale_and_flip(img, flip, scale)
        params = f"flip={int(flip)},scale={scale:.4f}"
    else:
        raise ValueError(f"unknown offline strategy {name!r}")
    return out, params


def expand_dataset(index, config, rng, out_dir):
    """Write originals plus per-strategy variants under out_dir/c0..c9.

    Emits a tab-separated manifest.tsv (output, source, strategy, params,
    seed) and returns the index over the expanded tree. Per-file rng
    streams are derived from (file position, strategy, copy), so expansion
    is reproducible and order-independent.
    """
    config.validate()
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    new_index = DatasetIndex(root=out_dir)
    strategies = config.enabled_offline()
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as manifest:
        file_pos = 0
        for c in range(NUM_CLASSES):
            class_dir = os.path.join(out_dir, f"c{c}")
            os.makedirs(class_dir, exist_ok=True)
            for rec in index.by_class[c]:
                stem = os.path.splitext(os.path.basename(rec.path))[0]
                copy_path = os.path.join(class_dir, f"{stem}.ppm")
                try:
                    shutil.copyfile(rec.path, copy_path)
                except OSError as e:
                    raise OSError(f"failed to copy {rec.path} -> {copy_path}: {e}") from e
                manifest.write(f"{copy_path}\t{rec.path}\tcopy\t-\t-\n")
                new_index.by_class[c].append(ImageRecord(copy_path, c))
                img = None
                for si, name in enumerate(strategies):
                    for k in range(config.copies):
                        if img is None:
                            img = load_ppm(rec.path)
                        stream = rng.child(file_pos, si, k)
                        out, params = _apply_offline(name, img, config, stream)
                        out_path = os.path.join(class_dir, f"{stem}_{name}{k}.ppm")
                        try:
                            save_ppm(out_path, out)
                        except OSError as e:
                            raise OSError(f"failed to write {out_path}: {e}") from e
                        manifest.write(
                            f"{out_path}\t{rec.path}\t{name}\t{params}\t{stream._key}\n"
                        )
                        new_index.by_class[c].append(ImageRecord(out_path, c))
                file_pos += 1
    return new_index
