"""Dataset indexing, PPM image IO, deterministic splitting, and batching.

The on-disk layout mirrors the 10-class driver-behavior dataset: a root
directory with subdirectories c0 .. c9, each holding binary PPM (P6,
maxval 255) images. PPM keeps decoding trivial and bit-exact; convert other
formats with e.g. ImageMagick (`convert img.jpg img.ppm`) or PIL.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

NUM_CLASSES = 10

CLASS_NAMES = (
    "Normal driving",
    "Texting - right",
    "Talking on the phone - right",
    "Texting - left",
    "Talking on the phone - left",
    "Operating the radio",
    "Drinking",
    "Reaching behind",
    "Hair and makeup",
    "Talking to passenger",
)


class DecodeError(ValueError):
    """Raised for malformed image files; carries path and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path} @ byte {offset}: {message}")
        self.path = str(path)
        self.offset = offset


# ---------------------------------------------------------------------------
# PPM (P6) codec
# ---------------------------------------------------------------------------


def _read_token(buf, pos, path):
    """Next whitespace-delimited token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise DecodeError(path, start, "unexpected end of header")
    return buf[start:pos], pos


def load_ppm(path):
    """Decode a binary PPM file to a float32 [H, W, 3] array in [0, 1]."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:2] != b"P6":
        raise DecodeError(path, 0, f"bad magic {buf[:2]!r}, expected b'P6'")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos, path)
        if not tok.isdigit():
            raise DecodeError(path, pos - len(tok), f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise DecodeError(path, pos - len(str(maxval)), f"maxval {maxval} unsupported, need 255")
    if width == 0 or height == 0:
        raise DecodeError(path, pos, f"empty image: {width}x{height}")
    pos += 1  # single whitespace byte separates header from raster
    need = width * height * 3
    raster = buf[pos:pos + need]
    if len(raster) < need:
        raise DecodeError(path, pos + len(raster), f"raster truncated: {len(raster)}/{need} bytes")
    img = np.frombuffer(raster, dtype=np.uint8, count=need).reshape(height, width, 3)
    return img.astype(np.float32) / 255.0


def save_ppm(path, img):
    """Encode a float [H, W, 3] array in [0, 1] as canonical binary PPM."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or 0 in img.shape:
        raise ValueError(f"expected a non-empty [H, W, 3] image, got {img.shape}")
    h, w = img.shape[:2]
    raster = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(raster.tobytes())


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------


def resize_bilinear(img, target_h, target_w, half_pixel=True):
    """Bilinear resample of [H, W, C] (corner alignment off).

    half_pixel=True maps output centers via (i + 0.5) * scale - 0.5, the
    usual image-resize convention; half_pixel=False uses the top-left
    aligned mapping i * scale (used by the scaling augmentation).
    """
    if target_h < 1 or target_w < 1:
        raise ValueError("target extents must be positive")
    img = np.asarray(img)
    h, w = img.shape[:2]
    if h < 1 or w < 1:
        raise ValueError(f"source extents must be positive, got {h}x{w}")
    if (h, w) == (target_h, target_w):
        return img.copy()

    def grid(n_in, n_out):
        scale = n_in / n_out
        if half_pixel:
            src = (np.arange(n_out) + 0.5) * scale - 0.5
        else:
            src = np.arange(n_out) * scale
        lo = np.floor(src).astype(np.int64)
        frac = src - lo
        lo0 = np.clip(lo, 0, n_in - 1)
        lo1 = np.clip(lo + 1, 0, n_in - 1)
        return lo0, lo1, frac.astype(img.dtype if img.dtype.kind == "f" else np.float64)

    y0, y1, fy = grid(h, target_h)
    x0, x1, fx = grid(w, target_w)
    fy = fy[:, None, None] if img.ndim == 3 else fy[:, None]
    fx = fx[None, :, None] if img.ndim == 3 else fx[None, :]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


# ---------------------------------------------------------------------------
# dataset index and splits
# ---------------------------------------------------------------------------


@dataclass
class ImageRecord:
    path: str
    class_id: int


@dataclass
class DatasetIndex:
    root: str
    by_class: list = field(default_factory=lambda: [[] for _ in range(NUM_CLASSES)])

    @property
    def records(self):
        return [r for cls in self.by_class for r in cls]

    def class_counts(self):
        return [len(cls) for cls in self.by_class]

    def __len__(self):
        return sum(len(cls) for cls in self.by_class)


def build_index(root):
    """Scan root/c0 .. root/c9 for .ppm files; every class dir must exist."""
    root = str(root)
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root not found: {root}")
    index = DatasetIndex(root=root)
    for c in range(NUM_CLASSES):
        class_dir = os.path.join(root, f"c{c}")
        if not os.path.isdir(class_dir):
            raise FileNotFoundError(f"missing class directory: {class_dir}")
        for name in sorted(os.listdir(class_dir)):
            if name.endswith(".ppm"):
                path = os.path.join(class_dir, name)
                if not os.path.isfile(path):
                    raise FileNotFoundError(f"indexed file vanished: {path}")
                index.by_class[c].append(ImageRecord(path=path, class_id=c))
    return index


def split_dataset(index, train_fraction, seed):
    """Per-class shuffled split; train gets floor(fraction * n) per class.

    Deterministic in `seed`; the two halves are disjoint and exhaustive.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    rng = Rng(seed).child(97)  # namespace away from training streams
    train = DatasetIndex(root=index.root)
    test = DatasetIndex(root=index.root)
    for c, records in enumerate(index.by_class):
        order = rng.child(c).permutation(len(records))
        cut = int(len(records) * train_fraction)
        train.by_class[c] = [records[i] for i in order[:cut]]
        test.by_class[c] = [records[i] for i in order[cut:]]
    return train, test


def write_split_manifest(path, train, test):
    """One line per record: path<TAB>class<TAB>train|test."""
    with open(path, "w", encoding="utf-8") as f:
        for index, tag in ((train, "train"), (test, "test")):
            for rec in index.records:
                f.write(f"{rec.path}\t{rec.class_id}\t{tag}\n")


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    images: np.ndarray  # [N, H, W, 3] float32, normalized
    labels: np.ndarray  # [N, num_classes] rows sum to 1 (one-hot before mixing)
    class_ids: np.ndarray  # [N] int


def one_hot(class_ids, num_classes=NUM_CLASSES):
    out = np.zeros((len(class_ids), num_classes), dtype=np.float32)
    out[np.arange(len(class_ids)), class_ids] = 1.0
    return out


def normalize(images, mean, std):
    mean = np.asarray(mean, dtype=np.float32).reshape(1, 1, 1, -1)
    std = np.asarray(std, dtype=np.float32).reshape(1, 1, 1, -1)
    return (images - mean) / std


# Bytes of decoded images one ImageCache keeps (the 22.4k-image source set
# at 224px would need about 13.5 GB). Once it is full, a miss is decoded and
# handed out without being kept; nothing is evicted. Decoding is
# deterministic, so a lookup gives the same bytes either way.
_CACHE_BUDGET = 2 << 30


class ImageCache:
    """Decoded images resized to img_size, keyed by path, up to _CACHE_BUDGET bytes."""

    def __init__(self, img_size):
        self.img_size = img_size
        self._store = {}
        self._nbytes = 0

    def get(self, path):
        img = self._store.get(path)
        if img is None:
            img = load_ppm(path)
            if img.shape[:2] != (self.img_size, self.img_size):
                img = resize_bilinear(img, self.img_size, self.img_size)
            img = np.ascontiguousarray(img, dtype=np.float32)
            if self._nbytes + img.nbytes <= _CACHE_BUDGET:
                self._store[path] = img
                self._nbytes += img.nbytes
        return img


def make_batches(index, batch_size, seed, epoch, img_size, mean, std, shuffle=True,
                 cache=None):
    """Yield Batch objects covering the index exactly once.

    Order depends only on (seed, epoch). The final partial batch is kept.
    Labels are one-hot; pixels are normalized per channel. A given `cache`
    must hold images of img_size.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    records = index.records
    if shuffle:
        order = Rng(seed).child(epoch).permutation(len(records))
        records = [records[i] for i in order]
    if cache is None:
        cache = ImageCache(img_size)
    elif cache.img_size != img_size:
        raise ValueError(f"make_batches: img_size {img_size} but the cache holds "
                         f"{cache.img_size}px images")
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        images = np.stack([cache.get(r.path) for r in chunk])
        class_ids = np.array([r.class_id for r in chunk], dtype=np.int64)
        yield Batch(
            images=normalize(images, mean, std),
            labels=one_hot(class_ids),
            class_ids=class_ids,
        )
