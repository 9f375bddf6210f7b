from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import swinmim.tensor as tensor_mod
from swinmim.data import save_ppm
from swinmim.rng import Rng
from swinmim.swin import SwinConfig
from swinmim.tensor import set_debug_checks

set_debug_checks(True)


def tiny_config(**kwargs):
    base = dict(img_size=64, embed_dim=16, depths=(2, 2, 2, 2), heads=(2, 2, 4, 4),
                window_size=4)
    base.update(kwargs)
    return SwinConfig(**base)


@pytest.fixture
def tiny_cfg():
    return tiny_config()


def class_color(c):
    """A distinctive RGB color per class, spread around the hue wheel."""
    h = c / 10.0 * 6.0
    i, f = int(h) % 6, h - int(h)
    v, p, q, t = 1.0, 0.15, 1.0 - 0.85 * f, 0.15 + 0.85 * f
    table = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)]
    return np.array(table[i], dtype=np.float32)


def synthetic_image(class_id, rng, img_size=64, noise=0.08):
    """Solid class color plus a class-oriented gradient and Gaussian noise."""
    base = class_color(class_id)
    ramp = np.linspace(0.0, 0.3, img_size, dtype=np.float32)
    axis_grad = ramp[:, None] if class_id % 2 == 0 else ramp[None, :]
    grad = np.broadcast_to(axis_grad, (img_size, img_size))
    img = 0.7 * base[None, None, :] + 0.3 * grad[..., None]
    if noise > 0:
        img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def write_synthetic_dataset(root, per_class=20, img_size=64, seed=123):
    """10-class PPM tree with distinctive per-class colors."""
    rng = Rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for c in range(10):
        class_dir = root / f"c{c}"
        class_dir.mkdir(exist_ok=True)
        for i in range(per_class):
            img = synthetic_image(c, rng.child(c, i), img_size)
            save_ppm(class_dir / f"img_{i:03d}.ppm", img)
    return root


@pytest.fixture(scope="session")
def synthetic_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset") / "driving"
    return write_synthetic_dataset(root)


class CountingPool(ThreadPoolExecutor):
    """A one-thread helper pool that records the tasks handed to it."""

    def __init__(self):
        super().__init__(1)
        self.submitted = []  # the callable of each task

    @property
    def tasks(self):
        return len(self.submitted)

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(fn)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def helper_pool(monkeypatch):
    """A fresh helper thread that counts the tasks handed to it."""
    pool = CountingPool()
    monkeypatch.setattr(tensor_mod, "_POOL", pool)
    yield pool
    pool.shutdown()
