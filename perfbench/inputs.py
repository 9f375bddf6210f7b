"""Seeded input generators owned by the benchmark.

Every input a workload feeds the program comes from here and depends only
on the seed: in-memory normalized image batches for the pretrain-192 and
finetune-224 loops, and a class-separable 10-class PPM tree for the
tiny-pipeline.  Class c has a hue of c/10 under smooth lighting and pixel
noise, so a fine-tuned model can beat chance within a few epochs.
"""

import colorsys
import os

import numpy as np

NUM_CLASSES = 10


def _smooth_field(gen, h, w, cells=6):
    """Blocky low-frequency field in [-1, 1], upsampled from a coarse grid."""
    coarse = gen.uniform(-1.0, 1.0, size=(cells, cells))
    rows = np.minimum(np.arange(h) * cells // h, cells - 1)
    cols = np.minimum(np.arange(w) * cells // w, cells - 1)
    return coarse[rows][:, cols]


def class_image(gen, class_id, h, w):
    """One float32 [h, w, 3] image in [0, 1] whose hue encodes the class."""
    hue = (class_id / NUM_CLASSES + gen.uniform(-0.02, 0.02)) % 1.0
    color = np.array(colorsys.hsv_to_rgb(hue, 0.85, 0.8), dtype=np.float32)
    light = 0.8 + 0.2 * _smooth_field(gen, h, w)
    img = color * light[..., None].astype(np.float32)
    img += gen.normal(0.0, 0.04, size=img.shape).astype(np.float32)
    return np.clip(img, 0.0, 1.0)


def image_batch(seed, tag, batch, size, mean, std):
    """Normalized [batch, size, size, 3] images plus their class ids.

    `tag` selects an independent batch for the same seed; classes cycle so
    every batch mixes several of them.
    """
    gen = np.random.default_rng([seed, tag])
    classes = (np.arange(batch) + tag * batch) % NUM_CLASSES
    imgs = np.stack([class_image(gen, int(c), size, size) for c in classes])
    mean = np.asarray(mean, dtype=np.float32)
    std = np.asarray(std, dtype=np.float32)
    return (imgs - mean) / std, classes


def one_hot(classes):
    out = np.zeros((len(classes), NUM_CLASSES), dtype=np.float32)
    out[np.arange(len(classes)), classes] = 1.0
    return out


def write_ppm(path, img):
    """Binary PPM writer of the benchmark's own, so that the inputs do not
    depend on the code under test (swinmim.data.save_ppm)."""
    h, w = img.shape[:2]
    raster = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(raster.tobytes())


def write_ppm_tree(root, seed, per_class, height, width):
    """Write root/c0..c9/src<k>.ppm at height x width; returns the file count."""
    gen = np.random.default_rng([seed, 7])
    for c in range(NUM_CLASSES):
        class_dir = os.path.join(root, f"c{c}")
        os.makedirs(class_dir, exist_ok=True)
        for k in range(per_class):
            write_ppm(os.path.join(class_dir, f"src{k}.ppm"), class_image(gen, c, height, width))
    return NUM_CLASSES * per_class
