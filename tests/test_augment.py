import math

import numpy as np
import pytest

from conftest import write_synthetic_dataset
from swinmim import augment as aug
from swinmim.augment import (
    AugmentConfig,
    CutBox,
    cutmix,
    expand_dataset,
    gaussian_noise,
    line_kernel_offsets,
    mix_batch,
    mixup,
    motion_blur,
    sample_cut_box,
    sample_lambda,
    scale_and_flip,
    _apply_offline,
)
from swinmim.data import build_index, load_ppm, one_hot
from swinmim.mim import round_half_up
from swinmim.rng import Rng


def assert_soft_label(label, atol=1e-6):
    """A label row is a probability vector: nonnegative, summing to 1."""
    label = np.asarray(label)
    assert label.min() >= 0 and abs(label.sum() - 1.0) <= atol, label


def ks_statistic_uniform(samples):
    """Kolmogorov-Smirnov distance between samples and Uniform(0, 1)."""
    s = np.sort(np.asarray(samples))
    n = len(s)
    upper = np.abs(np.arange(1, n + 1) / n - s).max()
    lower = np.abs(s - np.arange(0, n) / n).max()
    return max(upper, lower)


class TestSampleLambda:
    def test_alpha_one_is_uniform(self):
        rng = Rng(0).child(0)
        draws = [sample_lambda(1.0, rng) for _ in range(10_000)]
        assert ks_statistic_uniform(draws) < 0.02

    def test_large_alpha_concentrates(self):
        rng = Rng(1).child(0)
        draws = [sample_lambda(100.0, rng) for _ in range(2_000)]
        assert abs(np.mean(draws) - 0.5) < 0.02
        assert np.std(draws) < 0.05

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 5.0])
    def test_symmetric_mean(self, alpha):
        rng = Rng(2).child(int(alpha * 10))
        draws = [sample_lambda(alpha, rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            sample_lambda(0.0, Rng(0))


class TestCutmix:
    def pair(self, seed, shape=(32, 32, 3)):
        rng = Rng(seed)
        a = (rng.child(0).uniform(size=shape).astype(np.float32), one_hot([2])[0])
        b = (rng.child(1).uniform(size=shape).astype(np.float32), one_hot([5])[0])
        return a, b

    def test_lambda_one_identity(self):
        a, b = self.pair(3)
        out, label, box = cutmix(a, b, 1.0, Rng(4).child(0))
        assert box.r_w == 0 and box.r_h == 0
        assert np.array_equal(out, a[0])
        assert np.array_equal(label, a[1])

    def test_box_extent_formula(self):
        box = sample_cut_box(32, 32, 0.75, Rng(5).child(0))
        assert box.r_w == 16 and box.r_h == 16
        for seed in range(50):
            lam = sample_lambda(1.0, Rng(6).child(seed))
            box = sample_cut_box(48, 64, lam, Rng(7).child(seed))
            assert box.r_w == round_half_up(48 * math.sqrt(1.0 - lam))
            assert box.r_h == round_half_up(64 * math.sqrt(1.0 - lam))

    def test_unclipped_area_fraction(self):
        """Brute-force pixel count of the binary mask vs 1 - lambda, over
        boxes that land fully inside the image (the area law pre-clipping)."""
        w = h = 64
        inside = 0
        for seed in range(200):
            lam = sample_lambda(1.0, Rng(80).child(seed))
            _, _, box = cutmix(*self.pair(seed, (h, w, 3)), lam, Rng(81).child(seed))
            if box.r_x + box.r_w > w or box.r_y + box.r_h > h:
                continue
            inside += 1
            region = np.zeros((h, w), bool)
            region[box.r_y:box.r_y + box.r_h, box.r_x:box.r_x + box.r_w] = True
            area = int(region.sum())
            assert area == box.r_w * box.r_h
            # extents are rounded to integers, so allow the rounding slack
            assert abs(area / (w * h) - (1.0 - lam)) <= (box.r_w + box.r_h + 1) / (w * h)
        assert inside >= 20  # enough unclipped draws to make the check meaningful

    def test_pixel_identity_inside_and_outside(self):
        a, b = self.pair(9)
        out, label, box = cutmix(a, b, 0.4, Rng(10).child(0))
        x1, y1, x2, y2 = box.clipped(32, 32)
        assert np.array_equal(out[y1:y2, x1:x2], b[0][y1:y2, x1:x2])
        mask = np.ones((32, 32), bool)
        mask[y1:y2, x1:x2] = False
        assert np.array_equal(out[mask], a[0][mask])

    def test_label_uses_clipped_area(self):
        a, b = self.pair(11)
        out, label, box = cutmix(a, b, 0.2, Rng(12).child(3))
        x1, y1, x2, y2 = box.clipped(32, 32)
        lam_eff = 1.0 - (x2 - x1) * (y2 - y1) / (32 * 32)
        expected = lam_eff * a[1] + (1 - lam_eff) * b[1]
        assert np.allclose(label, expected)
        assert_soft_label(label)

    def test_shape_mismatch(self):
        a, _ = self.pair(13)
        b = (np.zeros((16, 16, 3), np.float32), one_hot([1])[0])
        with pytest.raises(ValueError):
            cutmix(a, b, 0.5, Rng(0))


class TestMixup:
    def test_lambda_one_identity(self):
        rng = Rng(14)
        a = (rng.child(0).uniform(size=(8, 8, 3)), one_hot([0])[0])
        b = (rng.child(1).uniform(size=(8, 8, 3)), one_hot([9])[0])
        img, label = mixup(a, b, 1.0)
        assert np.array_equal(img, a[0])
        assert np.array_equal(label, a[1])

    def test_pixel_blend(self):
        a = (np.full((2, 2, 3), 10.0), one_hot([2])[0])
        b = (np.full((2, 2, 3), 20.0), one_hot([5])[0])
        img, label = mixup(a, b, 0.5)
        assert np.allclose(img, 15.0)

    def test_label_blend(self):
        img, label = mixup(
            (np.zeros((2, 2, 3)), one_hot([2])[0]),
            (np.zeros((2, 2, 3)), one_hot([5])[0]),
            0.7,
        )
        assert np.isclose(label[2], 0.7) and np.isclose(label[5], 0.3)
        assert_soft_label(label)

    def test_self_mix_identity(self):
        rng = Rng(15)
        a = (rng.child(0).uniform(size=(4, 4, 3)), one_hot([3])[0])
        for lam in (0.0, 0.3, 1.0):
            img, label = mixup(a, a, lam)
            assert np.allclose(img, a[0])
            assert np.allclose(label, a[1])


class TestMixBatch:
    def test_soft_label_closure(self):
        rng = Rng(16)
        images = rng.child(0).uniform(size=(6, 16, 16, 3)).astype(np.float32)
        labels = one_hot(list(range(6)))
        cfg = AugmentConfig(cutmix=True, mixup=True)
        for step in range(10):
            out_i, out_l, name = mix_batch(images, labels, cfg, rng.child(1, step))
            assert name in ("cutmix", "mixup")
            for row in out_l:
                assert_soft_label(row)

    @pytest.mark.parametrize("strategy", ["cutmix", "mixup"])
    def test_one_strategy_every_batch(self, strategy):
        """With one strategy enabled, every batch uses it and draws no coin:
        each output row is that strategy against the shuffled partner."""
        rng = Rng(17)
        images = rng.child(0).uniform(size=(4, 8, 8, 3)).astype(np.float32)
        labels = one_hot([0, 1, 2, 3])
        cfg = AugmentConfig(**{strategy: True})
        for step in range(8):
            out_i, out_l, name = mix_batch(images, labels, cfg, rng.child(1, step))
            assert name == strategy
            replay = rng.child(1, step)
            partner = replay.permutation(4)
            lam = sample_lambda(cfg.alpha, replay)
            for i, j in enumerate(partner):
                a, b = (images[i], labels[i]), (images[j], labels[j])
                img, label = (cutmix(a, b, lam, replay)[:2] if strategy == "cutmix"
                              else mixup(a, b, lam))
                assert np.array_equal(out_i[i], img.astype(out_i.dtype))
                assert np.array_equal(out_l[i], label.astype(out_l.dtype))

    def test_disabled_passthrough(self):
        images = np.zeros((2, 8, 8, 3), np.float32)
        labels = one_hot([0, 1])
        out_i, out_l, name = mix_batch(images, labels, AugmentConfig(), Rng(0))
        assert name == "none"
        assert out_i is images and out_l is labels


class TestColorJitter:
    def test_identity_factors(self):
        img = Rng(17).child(0).uniform(size=(16, 16, 3)).astype(np.float32)
        cfg = AugmentConfig(exposure_range=(1.0, 1.0), saturation_range=(1.0, 1.0), hue_max=0.0)
        out, _ = _apply_offline("color_jitter", img, cfg, Rng(18).child(0))
        assert np.abs(out - img).max() < 1e-6

    def test_exposure_doubles_value(self):
        gray = np.full((4, 4, 3), 0.25, np.float32)
        out = aug.adjust_hsv(gray, 2.0, 1.0, 0.0)
        assert np.allclose(out, 0.5)

    def test_hue_half_turn_red_to_cyan(self):
        red = np.zeros((2, 2, 3), np.float32)
        red[..., 0] = 1.0
        out = aug.adjust_hsv(red, 1.0, 1.0, 0.5)
        assert np.allclose(out[..., 0], 0.0, atol=1e-6)
        assert np.allclose(out[..., 1:], 1.0, atol=1e-6)

    def test_range_preserved(self):
        img = Rng(19).child(0).uniform(size=(8, 8, 3))
        cfg = AugmentConfig(exposure_range=(0.6, 1.4), saturation_range=(0.6, 1.4), hue_max=0.1)
        out, _ = _apply_offline("color_jitter", img, cfg, Rng(20).child(0))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestMotionBlur:
    def test_constant_image_unchanged(self):
        img = np.full((10, 10, 3), 0.6, np.float32)
        out = motion_blur(img, 5, 0.7)
        assert np.allclose(out, 0.6, atol=1e-6)

    def test_horizontal_spot(self):
        img = np.zeros((7, 7, 3), np.float32)
        img[3, 3] = 1.0
        out = motion_blur(img, 3, 0.0)
        assert np.allclose(out[3, 2:5, 0], 1 / 3, atol=1e-6)
        assert np.allclose(out[2], 0.0)

    def test_kernel_taps_sum_to_one(self):
        for length in (3, 5, 7, 9):
            for angle in np.linspace(0, math.pi, 13):
                offsets = line_kernel_offsets(length, angle)
                assert 1 <= len(offsets) <= length
                # the op assigns weight 1/len to each tap

    def test_interior_mean_preserved(self):
        img = Rng(21).child(0).uniform(0.2, 0.8, size=(32, 32, 3))
        out = motion_blur(img, 3, 0.0)
        # interior columns see a true average, no replication effects
        assert abs(out[:, 1:-1].mean() - img[:, :].mean()) < 2e-3

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            motion_blur(np.zeros((4, 4, 3)), 4, 0.0)


class TestGaussianNoise:
    def test_sigma_zero_identity(self):
        img = Rng(22).child(0).uniform(size=(8, 8, 3))
        out = gaussian_noise(img, 0.0, Rng(23).child(0))
        assert np.array_equal(out, img)

    def test_empirical_std(self):
        img = np.full((200, 200, 3), 0.5)
        sigma = 0.03
        out = gaussian_noise(img, sigma, Rng(24).child(0))
        measured = (out - img).std()
        assert abs(measured - sigma) < 0.1 * sigma

    def test_deterministic_given_seed(self):
        img = np.full((16, 16, 3), 0.5)
        a = gaussian_noise(img, 0.05, Rng(25).child(0))
        b = gaussian_noise(img, 0.05, Rng(25).child(0))
        assert np.array_equal(a, b)

    def test_clamped(self):
        img = np.ones((32, 32, 3))
        out = gaussian_noise(img, 0.5, Rng(26).child(0))
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestHflipScale:
    def test_identity(self):
        img = Rng(27).child(0).uniform(size=(8, 8, 3))
        assert np.allclose(scale_and_flip(img, False, 1.0), img)

    def test_double_flip_identity(self):
        img = Rng(28).child(0).uniform(size=(8, 8, 3))
        once = scale_and_flip(img, True, 1.0)
        twice = scale_and_flip(once, True, 1.0)
        assert np.array_equal(twice, img)

    def test_half_scale_centered_square(self):
        img = np.zeros((8, 8, 3), np.float32)
        img[3:5, 3:5] = 1.0
        out = scale_and_flip(img, False, 0.5)
        bright = np.argwhere(out[..., 0] > 0.5)
        assert bright.tolist() == [[4, 4]]

    def test_upscale_restores_extent(self):
        img = Rng(29).child(0).uniform(size=(16, 16, 3))
        out, _ = _apply_offline("hflip_scale", img, AugmentConfig(scale_range=(1.2, 1.8)),
                                Rng(30).child(0))
        assert out.shape == img.shape

    def test_range_validated(self):
        # the config rejects scale ranges outside [0.5, 2.0] before expansion
        for bad in ((0.1, 1.0), (0.3, 3.0), (0.8, 2.5)):
            with pytest.raises(ValueError):
                AugmentConfig(hflip_scale=True, scale_range=bad).validate()
        AugmentConfig(hflip_scale=True, scale_range=(0.5, 2.0)).validate()


class TestExpandDataset:
    def test_copy_only_when_disabled(self, tmp_path):
        src = write_synthetic_dataset(tmp_path / "src", per_class=3)
        index = build_index(src)
        out = expand_dataset(index, AugmentConfig(), Rng(0), tmp_path / "out")
        assert out.class_counts() == index.class_counts()
        for rec_in, rec_out in zip(index.records, out.records):
            assert open(rec_in.path, "rb").read() == open(rec_out.path, "rb").read()

    def test_one_strategy_doubles(self, tmp_path):
        src = write_synthetic_dataset(tmp_path / "src", per_class=3)
        index = build_index(src)
        cfg = AugmentConfig(gaussian_noise=True, copies=1)
        out = expand_dataset(index, cfg, Rng(1), tmp_path / "out")
        assert out.class_counts() == [2 * c for c in index.class_counts()]

    def test_class_balance_preserved(self, tmp_path):
        src = write_synthetic_dataset(tmp_path / "src", per_class=4)
        index = build_index(src)
        cfg = AugmentConfig(color_jitter=True, motion_blur=True, hflip_scale=True,
                            gaussian_noise=True, copies=2)
        out = expand_dataset(index, cfg, Rng(2), tmp_path / "out")
        manifest = (tmp_path / "out" / "manifest.tsv").read_text().strip().split("\n")
        # per class: originals + 4 strategies x 2 copies
        assert out.class_counts() == [9 * c for c in index.class_counts()]
        written = len(out.records)
        assert len(manifest) == written
        per_class = np.array(out.class_counts())
        assert (per_class == per_class[0]).all()

    def test_manifest_fields(self, tmp_path):
        src = write_synthetic_dataset(tmp_path / "src", per_class=1)
        index = build_index(src)
        cfg = AugmentConfig(motion_blur=True)
        expand_dataset(index, cfg, Rng(3), tmp_path / "out")
        lines = (tmp_path / "out" / "manifest.tsv").read_text().strip().split("\n")
        for line in lines:
            out_path, src_path, strategy, params, seed = line.split("\t")
            assert strategy in ("copy", "motion_blur")
            if strategy == "motion_blur":
                assert "length=" in params and "angle=" in params
                img = load_ppm(out_path)
                assert img.shape == (64, 64, 3)

    def test_deterministic(self, tmp_path):
        src = write_synthetic_dataset(tmp_path / "src", per_class=2)
        index = build_index(src)
        cfg = AugmentConfig(color_jitter=True)
        expand_dataset(index, cfg, Rng(4), tmp_path / "out_a")
        expand_dataset(index, cfg, Rng(4), tmp_path / "out_b")
        a = sorted((tmp_path / "out_a").rglob("*.ppm"))
        b = sorted((tmp_path / "out_b").rglob("*.ppm"))
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes()
