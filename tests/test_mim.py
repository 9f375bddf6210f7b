import numpy as np
import pytest

from conftest import tiny_config
from swinmim.mim import (
    EmptyMaskError,
    MaskSpec,
    MIMPretrainModel,
    PredictionHead,
    apply_mask,
    generate_mask,
    masked_l1_loss,
    predict_pixels,
    pretrain_step,
    round_half_up,
)
from swinmim.rng import Rng
from swinmim.swin import SwinConfig
from swinmim.tensor import ShapeError, Tape, Tensor, grad_check, tensor_sum
from swinmim.train import AdamW, CosineSchedule


class TestGenerateMask:
    def test_paper_default_strategy_counts(self):
        m = generate_mask(MaskSpec(32, 0.5), 192, Rng(0))
        assert m.unit_grid.shape == (6, 6)
        assert m.unit_grid.sum() == 18

    def test_ratio_extremes(self):
        assert generate_mask(MaskSpec(32, 0.0), 192, Rng(0)).unit_grid.sum() == 0
        assert generate_mask(MaskSpec(32, 1.0), 192, Rng(0)).unit_grid.sum() == 36

    def test_clipped_edge_units(self):
        # 224 = 3*64 + 32: a 4x4 unit grid whose last row/col is half size
        m = generate_mask(MaskSpec(64, 1.0), 224, Rng(0))
        assert m.unit_grid.shape == (4, 4)
        pix = m.pixel_mask()
        assert pix.shape == (224, 224)
        assert pix.all()
        tok = m.token_mask()
        assert tok.shape == (56, 56)
        assert tok.all()

    def test_determinism(self):
        a = generate_mask(MaskSpec(16, 0.4, seed=7), 64)
        b = generate_mask(MaskSpec(16, 0.4, seed=7), 64)
        assert np.array_equal(a.unit_grid, b.unit_grid)

    @pytest.mark.parametrize("patch", [16, 32, 64])
    @pytest.mark.parametrize("ratio", [0.4, 0.5, 0.6])
    def test_count_exact_over_seeds(self, patch, ratio):
        spec = MaskSpec(patch, ratio)
        units = spec.units_per_side(224) ** 2
        expected = round_half_up(ratio * units)
        for seed in range(100):
            m = generate_mask(spec, 224, Rng(seed))
            assert m.unit_grid.sum() == expected
        assert abs(m.unit_grid.sum() / units - ratio) <= 1.0 / units

    def test_token_and_pixel_views_consistent(self):
        m = generate_mask(MaskSpec(16, 0.5), 64, Rng(3))
        tok = m.token_mask()
        pix = m.pixel_mask()
        # every pixel inherits its token's state (16px unit = 4 tokens)
        assert np.array_equal(pix, np.kron(tok, np.ones((4, 4), bool))[:64, :64])
        assert np.array_equal(tok, np.kron(m.unit_grid, np.ones((4, 4), bool)))

    def test_too_small_image(self):
        with pytest.raises(ShapeError):
            generate_mask(MaskSpec(64, 0.5), 32, Rng(0))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MaskSpec(30, 0.5).validate()  # not a multiple of 4
        with pytest.raises(ValueError):
            MaskSpec(32, 1.5).validate()


class TestApplyMask:
    def setup_method(self):
        self.rng = Rng(5)
        self.tokens = Tensor(self.rng.child(0).normal(size=(2, 4, 4, 8)).astype(np.float32))
        self.token = Tensor(self.rng.child(1).normal(size=8).astype(np.float32))

    def test_empty_mask_bitwise_identity(self):
        mask = np.zeros((2, 4, 4), bool)
        out = apply_mask(self.tokens, mask, self.token)
        assert np.array_equal(out.numpy(), self.tokens.numpy())

    def test_full_mask_all_token(self):
        mask = np.ones((2, 4, 4), bool)
        out = apply_mask(self.tokens, mask, self.token).numpy()
        assert np.array_equal(out, np.broadcast_to(self.token.numpy(), out.shape))

    def test_half_mask_exact_positions(self):
        mask = self.rng.child(2).uniform(size=(2, 4, 4)) < 0.5
        out = apply_mask(self.tokens, mask, self.token).numpy()
        differs = (out != self.tokens.numpy()).any(axis=-1)
        assert np.array_equal(differs, mask)

    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(self.tokens, np.zeros((2, 3, 4), bool), self.token)


class TestPredictPixels:
    def test_full_scale_shapes(self):
        rng = Rng(6)
        head = PredictionHead(768, rng, 3, upscale=32)
        assert head.proj.weight.shape == (768, 3072)
        feats = Tensor(rng.child(1).normal(size=(1, 6, 6, 768)).astype(np.float32))
        out = predict_pixels(feats, head)
        assert out.shape == (1, 192, 192, 3)

    def test_zero_weights_constant_bias(self):
        rng = Rng(7)
        head = PredictionHead(16, rng, 3, upscale=4)
        head.proj.weight.data[:] = 0.0
        head.proj.bias.data[:] = 0.5
        feats = Tensor(rng.child(1).normal(size=(2, 3, 3, 16)).astype(np.float32))
        assert np.allclose(predict_pixels(feats, head).numpy(), 0.5)

    def test_block_placement(self):
        # each feature's block must tile its own r x r cell
        rng = Rng(8)
        head = PredictionHead(4, rng, 3, upscale=2)
        head.proj.weight.data[:] = 0.0
        head.proj.bias.data[:] = np.arange(12, dtype=np.float32)
        feats = Tensor(np.zeros((1, 2, 2, 4), np.float32))
        out = predict_pixels(feats, head).numpy()
        block = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        for by in range(2):
            for bx in range(2):
                assert np.array_equal(out[0, 2 * by:2 * by + 2, 2 * bx:2 * bx + 2], block)

    def test_bytes_equal_numpy_tiling(self):
        rng = Rng(10)
        head = PredictionHead(8, rng, 3, upscale=4)
        feats = Tensor(rng.child(1).normal(size=(2, 3, 2, 8)).astype(np.float32))
        blocks = head.proj(feats).numpy().reshape(2, 3, 2, 4, 4, 3)
        expect = blocks.transpose(0, 1, 3, 2, 4, 5).reshape(2, 12, 8, 3)
        assert predict_pixels(feats, head).numpy().tobytes() == expect.tobytes()

    def test_head_gradient(self):
        rng = Rng(9)
        head = PredictionHead(6, rng, 3, upscale=2, dtype=np.float64)
        feats = Tensor(rng.child(1).normal(size=(1, 2, 2, 6)), requires_grad=False)
        probe = Tensor(rng.child(2).normal(size=(1, 4, 4, 3)), requires_grad=False)
        from swinmim.tensor import mul

        def f(w):
            return tensor_sum(mul(predict_pixels(feats, head), probe))

        err = grad_check(f, head.proj.weight)
        assert err < 1e-5


class TestMaskedL1Loss:
    def make(self, shape=(1, 8, 8, 3), seed=10):
        rng = Rng(seed)
        pred = Tensor(rng.child(0).normal(size=shape), requires_grad=True)
        target = Tensor(rng.child(1).normal(size=shape))
        return pred, target

    def test_equal_inputs_zero(self):
        pred, _ = self.make()
        mask = np.ones((1, 8, 8), bool)
        loss = masked_l1_loss(pred, Tensor(pred.numpy().copy()), mask)
        assert loss.item() == 0.0

    def test_constant_offset(self):
        pred, target = self.make()
        target = Tensor(pred.numpy() + 0.25)
        mask = Rng(11).child(0).uniform(size=(1, 8, 8)) < 0.5
        loss = masked_l1_loss(pred, target, mask)
        assert np.isclose(loss.item(), 0.25, rtol=1e-6)

    def test_hand_computed_two_elements(self):
        pred = Tensor(np.zeros((1, 1, 2, 1)))
        target = Tensor(np.array([1.0, -3.0]).reshape(1, 1, 2, 1))
        mask = np.ones((1, 1, 2), bool)
        assert masked_l1_loss(pred, target, mask).item() == 2.0

    def test_empty_mask_raises(self):
        pred, target = self.make()
        with pytest.raises(EmptyMaskError):
            masked_l1_loss(pred, target, np.zeros((1, 8, 8), bool))

    def test_gradient_locality_exact_zero(self):
        pred, target = self.make()
        mask = Rng(12).child(0).uniform(size=(1, 8, 8)) < 0.5
        with Tape() as tape:
            loss = masked_l1_loss(pred, target, mask)
        tape.backward(loss)
        grad = pred.grad
        assert (grad[~mask] == 0.0).all()
        assert (grad[mask] != 0.0).any()


class TestPretrainModel:
    def small_model(self, dtype=np.float32):
        cfg = tiny_config()
        return MIMPretrainModel(cfg, Rng(13), mask_spec=MaskSpec(16, 0.5), dtype=dtype)

    def batch(self, model, n=2, dtype=np.float32, seed=14):
        rng = Rng(seed)
        images = rng.child(0).uniform(-1, 1, size=(n, 64, 64, 3)).astype(dtype)
        masks = [generate_mask(model.mask_spec, 64, rng.child(1, i)) for i in range(n)]
        return Tensor(images), masks

    def test_loss_finite_positive(self):
        model = self.small_model()
        images, masks = self.batch(model)
        loss = model.loss(images, masks)
        assert np.isfinite(loss.item()) and loss.item() > 0

    def test_single_channel_loss_finite(self):
        # the head regresses in_channels values per pixel, not a fixed 3
        model = MIMPretrainModel(tiny_config(in_channels=1), Rng(13), mask_spec=MaskSpec(16, 0.5))
        assert model.head.out_channels == 1
        images, masks = self.batch(model)
        loss = model.loss(Tensor(images.numpy()[..., :1]), masks)
        assert np.isfinite(loss.item()) and loss.item() > 0

    def test_target_factor_validation(self):
        with pytest.raises(ValueError):
            MIMPretrainModel(tiny_config(), Rng(0), target_factor=5)

    def test_downsampled_target_path(self):
        model = MIMPretrainModel(tiny_config(), Rng(15), mask_spec=MaskSpec(16, 0.5),
                                 target_factor=16)
        assert model.target_downsample == 2
        images, masks = self.batch(model, seed=16)
        loss = model.loss(images, masks)
        assert np.isfinite(loss.item())

    def test_zero_ratio_step_raises(self):
        model = self.small_model()
        model.mask_spec = MaskSpec(16, 0.0)
        images, masks = self.batch(model)
        masks = [generate_mask(model.mask_spec, 64, Rng(9).child(i)) for i in range(2)]
        opt = AdamW(dict(model.named_params()))
        with pytest.raises(EmptyMaskError):
            pretrain_step(images, masks, model, opt, lr=1e-3)

    def test_end_to_end_grad_check_float64(self):
        """Tape gradient of the full pretrain loss vs finite differences.

        The batch seed keeps every |pred - target| well away from the L1
        kink, so central differences probe the smooth branch the analytic
        gradient lives on.
        """
        model = self.small_model(dtype=np.float64)
        images, masks = self.batch(model, n=1, dtype=np.float64, seed=14)

        checked = {
            "mask_token": model.mask_token,
            "pred_head.weight": model.head.proj.weight,
            "embed.weight": model.encoder.embed.weight,
            "stages.1.blocks.1.attn.qkv.weight":
                model.encoder.stages[1][1].attn.qkv.weight,
            "stages.0.blocks.0.attn.bias_table":
                model.encoder.stages[0][0].attn.bias_table,
            "norm.gamma": model.encoder.norm.gamma,
        }
        rng = Rng(18)
        for i, (name, param) in enumerate(checked.items()):
            # h below 1e-5 keeps the step clear of |pred - target| kinks
            err = grad_check(
                lambda _p: model.loss(images, masks, training=False),
                param, h=1e-6, num_samples=4, rng=rng.child(i),
            )
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_convergence_200_steps(self):
        """Fixed 8-image batch: the loss must fall by >= 90% in 200 steps.

        Settings pinned from a tuning run: structured (noise-free) images,
        16px mask units at ratio 0.5, cosine lr from 2e-3. That run reached
        8.3% of the step-0 loss; the assertion keeps the 10% bound.
        """
        from conftest import synthetic_image

        cfg = tiny_config()
        model = MIMPretrainModel(cfg, Rng(19), mask_spec=MaskSpec(16, 0.5))
        rng = Rng(20)
        raw = np.stack([synthetic_image(c, rng.child(c), 64, noise=0.0) for c in range(8)])
        images = Tensor(((raw - 0.5) / 0.5).astype(np.float32))
        opt = AdamW(dict(model.named_params()), weight_decay=0.05)
        schedule = CosineSchedule(2e-3, 2e-5, 200)
        losses = []
        for step in range(200):
            masks = [generate_mask(model.mask_spec, 64, rng.child(1, step, i))
                     for i in range(8)]
            losses.append(pretrain_step(images, masks, model, opt, schedule.lr_at(step)))
        assert min(losses) <= 0.1 * losses[0], f"loss {losses[0]} -> min {min(losses)}"
