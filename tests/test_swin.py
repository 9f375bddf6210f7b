import functools
import threading
import time

import numpy as np
import pytest

import swinmim.swin as swin_mod
import swinmim.tensor as tensor_mod
from conftest import tiny_config
from swinmim.rng import Rng
from swinmim.swin import (
    ATTN_MASK_FILL,
    ConfigError,
    SwinBlock,
    SwinClassifier,
    SwinConfig,
    SwinEncoder,
    WindowAttention,
    count_attention_flops,
    count_flops,
    count_params,
    patch_merge,
    patch_partition,
    relative_position_index,
    shifted_window_mask,
    _merge_concat,
)
from swinmim.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    crop_hw,
    cyclic_shift,
    gelu,
    grad_check,
    linear,
    mul,
    pad_hw,
    softmax,
    tensor_sum,
    window_index,
    window_partition,
    window_reverse,
)


def t32(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=grad)


SL_CONFIG = SwinConfig()  # C=96, depths (2,2,6,2), heads (3,6,12,24), M=7
BASE_CONFIG = SwinConfig(embed_dim=128, depths=(2, 2, 18, 2), heads=(4, 8, 16, 32))


class TestPatchPartition:
    def test_small_shape(self):
        out = patch_partition(t32(np.zeros((8, 8, 3))))
        assert out.shape == (2, 2, 48)

    def test_full_shape(self):
        out = patch_partition(t32(np.zeros((224, 224, 3))))
        assert out.shape == (56, 56, 48)

    def test_constant_preserved(self):
        out = patch_partition(t32(np.full((8, 8, 3), 0.7)))
        assert np.allclose(out.numpy(), np.float32(0.7))

    def test_values_regrouped(self):
        img = np.arange(8 * 8 * 3, dtype=np.float32).reshape(8, 8, 3)
        out = patch_partition(t32(img)).numpy()
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))
        assert set(out[0, 0].ravel()) == set(img[:4, :4].ravel())

    def test_indivisible(self):
        with pytest.raises(ShapeError):
            patch_partition(t32(np.zeros((6, 8, 3))))

    @pytest.mark.parametrize("shape", [(8, 12, 3), (2, 16, 8, 3)])
    def test_bytes_equal_numpy_regrouping(self, shape):
        img = Rng(2).child(0).normal(size=shape).astype(np.float32)
        h, w, c = shape[-3:]
        lead = shape[:-3]
        n = len(lead)
        expect = img.reshape(lead + (h // 4, 4, w // 4, 4, c))
        expect = expect.transpose(tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
        expect = expect.reshape(lead + (h // 4, w // 4, 16 * c))
        assert patch_partition(t32(img)).numpy().tobytes() == expect.tobytes()


class TestLinearEmbed:
    def test_zero_weight_gives_bias(self):
        patches = t32(Rng(0).child(0).normal(size=(2, 2, 48)))
        w = t32(np.zeros((48, 5)))
        b = t32(np.full(5, 1.5))
        out = linear(patches, w, b).numpy()
        assert np.allclose(out, 1.5)

    def test_config_shape(self):
        patches = t32(np.zeros((56, 56, 48)))
        out = linear(patches, t32(np.zeros((48, 96))), t32(np.zeros(96)))
        assert out.shape == (56, 56, 96)

    def test_weight_gradient(self):
        rng = Rng(1)
        patches = Tensor(rng.child(0).normal(size=(2, 2, 6)), requires_grad=False)
        bias = Tensor(np.zeros(3, np.float64))
        w = Tensor(rng.child(1).normal(size=(6, 3)), requires_grad=True)
        err = grad_check(lambda v: tensor_sum(linear(patches, v, bias)), w)
        assert err < 1e-5


class TestPatchMerge:
    def test_shape_doubling(self):
        x = t32(np.zeros((2, 56, 56, 96)))
        g, b = t32(np.ones(384)), t32(np.zeros(384))
        w = t32(np.zeros((384, 192)))
        assert patch_merge(x, g, b, w).shape == (2, 28, 28, 192)

    def test_fig3_toy_intermediate(self):
        # 4x4 single-channel map: the concat step groups each 2x2 patch
        x = t32(np.arange(16, dtype=np.float32).reshape(4, 4, 1))
        mid = _merge_concat(x)
        assert mid.shape == (2, 2, 4)
        assert set(mid.numpy()[0, 0].ravel()) == {0.0, 1.0, 4.0, 5.0}
        assert set(mid.numpy()[1, 1].ravel()) == {10.0, 11.0, 14.0, 15.0}

    @pytest.mark.parametrize("shape", [(4, 6, 5), (2, 8, 4, 3)])
    def test_concat_bytes_equal_numpy_regrouping(self, shape):
        x = Rng(3).child(0).normal(size=shape).astype(np.float32)
        h, w, c = shape[-3:]
        lead = shape[:-3]
        n = len(lead)
        expect = x.reshape(lead + (h // 2, 2, w // 2, 2, c))
        expect = expect.transpose(tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
        expect = expect.reshape(lead + (h // 2, w // 2, 4 * c))
        assert _merge_concat(t32(x)).numpy().tobytes() == expect.tobytes()

    def test_constant_with_averaging_weights(self):
        x = t32(np.full((4, 4, 2), 3.0))
        g, b = t32(np.ones(8)), t32(np.zeros(8))
        w = t32(np.full((8, 4), 0.25))
        out = patch_merge(x, g, b, w).numpy()
        # constant input -> layer norm gives zeros -> linear gives zeros
        assert np.allclose(out, 0.0)
        assert out.shape == (2, 2, 4)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            patch_merge(t32(np.zeros((3, 4, 2))), t32(np.ones(8)), t32(np.zeros(8)),
                        t32(np.zeros((8, 4))))


class TestWindowAttention:
    def test_single_token_weight_one(self):
        rng = Rng(2)
        attn = WindowAttention(dim=8, num_heads=2, window=1, rng=rng.child(0))
        x = t32(rng.child(1).normal(size=(3, 1, 8)))
        out = attn(x)
        # attention over one token is exactly the value path through W^O
        qkv = x.numpy() @ attn.qkv.weight.numpy() + attn.qkv.bias.numpy()
        v = qkv[..., 16:]
        expected = v @ attn.proj.weight.numpy() + attn.proj.bias.numpy()
        assert np.allclose(out.numpy(), expected, atol=1e-5)

    def test_equal_tokens_uniform_attention(self):
        rng = Rng(3)
        attn = WindowAttention(dim=4, num_heads=1, window=2, rng=rng.child(0))
        attn.bias_table.data[:] = 0.0  # bias off so symmetry forces uniformity
        x = t32(np.tile(rng.child(1).normal(size=(1, 1, 4)), (1, 4, 1)))
        out = attn(x)
        qkv = x.numpy() @ attn.qkv.weight.numpy() + attn.qkv.bias.numpy()
        v = qkv[..., 8:]
        mixed = v.mean(axis=1, keepdims=True).repeat(4, axis=1)  # uniform 1/M^2 mix
        expected = mixed @ attn.proj.weight.numpy() + attn.proj.bias.numpy()
        assert np.allclose(out.numpy(), expected, atol=1e-5)

    def test_matches_hand_computed_mix(self):
        # single head, zero bias: y = softmax(q k^T / sqrt(d)) v, projected
        rng = Rng(4)
        attn = WindowAttention(dim=6, num_heads=1, window=2, rng=rng.child(0))
        attn.bias_table.data[:] = 0.0
        x = rng.child(1).normal(size=(1, 4, 6)).astype(np.float32)
        out = attn(t32(x)).numpy()

        qkv = x @ attn.qkv.weight.numpy() + attn.qkv.bias.numpy()
        q, k, v = qkv[..., :6], qkv[..., 6:12], qkv[..., 12:]
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(6.0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        expected = (weights @ v) @ attn.proj.weight.numpy() + attn.proj.bias.numpy()
        assert np.allclose(out, expected, atol=1e-5)

    def test_two_token_softmax_mix_formula(self):
        # the scalar case of the attention formula, checked end to end
        q = np.array([[1.0, 0.0]])
        k = np.array([[2.0, 0.0], [0.0, 2.0]])
        v = np.array([[1.0], [3.0]])
        logits = (q @ k.T) / np.sqrt(2.0)
        w = softmax(Tensor(logits, dtype=np.float64), axis=-1).numpy()
        mix = w @ v
        a = np.exp(2 / np.sqrt(2)) / (np.exp(2 / np.sqrt(2)) + 1)
        assert np.allclose(mix, a * 1.0 + (1 - a) * 3.0)


class TestRelativePositionIndex:
    def test_range_and_symmetry(self):
        idx = relative_position_index(3)
        assert idx.shape == (9, 9)
        assert idx.min() >= 0 and idx.max() < 25
        assert (np.diag(idx) == idx[0, 0]).all()  # zero offset shares one slot

    def test_distinct_offsets_distinct_slots(self):
        idx = relative_position_index(2)
        # 4 tokens -> relative offsets in [-1,1]^2 = 9 distinct slots
        assert len(set(idx.ravel().tolist())) == 9


class TestShiftedWindowMask:
    def wrap_groups(self, size, window, shift):
        """Brute-force window/wrap identity per shifted position."""
        src = (np.arange(size) + shift) % size  # original row of shifted row i
        wrapped = (np.arange(size) + shift) >= size
        return src // window, wrapped

    def test_wrapped_pairs_blocked(self):
        size, window, shift = 8, 4, 2
        mask = shifted_window_mask(size, size, window, shift)
        win_of = np.arange(size) // window
        row_win, row_wrap = self.wrap_groups(size, window, shift)
        nw = size // window
        for w in range(mask.shape[0]):
            wy, wx = divmod(w, nw)
            ys = np.arange(wy * window, (wy + 1) * window)
            xs = np.arange(wx * window, (wx + 1) * window)
            coords = [(y, x) for y in ys for x in xs]
            for a, (ya, xa) in enumerate(coords):
                for b, (yb, xb) in enumerate(coords):
                    cross_wrap = (row_wrap[ya] != row_wrap[yb]) or (row_wrap[xa] != row_wrap[xb])
                    if cross_wrap:
                        # pairs separated by the toroidal seam must be blocked
                        assert mask[w, a, b] == np.float32(ATTN_MASK_FILL)
                    if mask[w, a, b] == 0.0:
                        # unblocked pairs never straddle the seam
                        assert not cross_wrap

    def test_mask_blocks_attention_below_1e30(self):
        size, window, shift = 8, 4, 2
        mask = shifted_window_mask(size, size, window, shift, np.float64)
        logits = Rng(5).child(0).normal(size=mask.shape)
        weights = softmax(Tensor(logits + mask, dtype=np.float64), axis=-1).numpy()
        blocked = mask != 0
        assert weights[blocked].max() < 1e-30
        assert np.allclose(weights.sum(axis=-1), 1.0)


class TestSwinBlock:
    def test_residual_identity_bitwise(self):
        rng = Rng(6)
        block = SwinBlock(dim=8, num_heads=2, window=2, shift=1, mlp_ratio=4.0,
                          rng=rng.child(0))
        block.attn.proj.weight.data[:] = 0.0
        block.attn.proj.bias.data[:] = 0.0
        block.fc2.weight.data[:] = 0.0
        block.fc2.bias.data[:] = 0.0
        x = t32(rng.child(1).normal(size=(2, 4, 4, 8)))
        out = block(x)
        assert np.array_equal(out.numpy(), x.numpy())

    def test_shape_preserved_full_scale(self):
        rng = Rng(7)
        block = SwinBlock(dim=96, num_heads=3, window=7, shift=3, mlp_ratio=4.0,
                          rng=rng.child(0))
        x = t32(rng.child(1).normal(size=(1, 56, 56, 96)))
        assert block(x).shape == (1, 56, 56, 96)

    def test_padding_path(self):
        rng = Rng(8)
        block = SwinBlock(dim=8, num_heads=2, window=4, shift=2, mlp_ratio=4.0,
                          rng=rng.child(0))
        x = t32(rng.child(1).normal(size=(1, 6, 6, 8)))
        assert block(x).shape == (1, 6, 6, 8)

    def test_shifted_attention_isolation_end_to_end(self):
        """Attention probabilities inside a shifted block never couple
        wrap-separated tokens: moving a wrapped token leaves non-wrapped
        outputs untouched."""
        rng = Rng(9)
        block = SwinBlock(dim=8, num_heads=2, window=4, shift=2, mlp_ratio=4.0,
                          rng=rng.child(0))
        x = rng.child(1).normal(size=(1, 8, 8, 8)).astype(np.float32)
        base = block(t32(x)).numpy()
        # rows 0..1 wrap around in the shifted map; perturb one of them
        x2 = x.copy()
        x2[0, 0, 0, :] += 100.0
        out = block(t32(x2)).numpy()
        # tokens in the same post-shift window as (0,0) but not wrapped:
        # original rows 4..5 / cols 4..5 sit in that window's main region
        assert np.allclose(out[0, 4:6, 4:6], base[0, 4:6, 4:6], atol=1e-5)


def chain_block(block, x):
    """SwinBlock forward through the public pad -> shift -> partition chain and
    its mirror image, the reference for the block's cached take_tokens maps."""
    b, h, w, _ = x.shape
    m = block.window
    pad_b, pad_r = -h % m, -w % m
    hp, wp = h + pad_b, w + pad_r
    shift = block.shift if min(hp, wp) > m else 0
    t = pad_hw(block.norm1(x), pad_b, pad_r)
    mask = None
    if shift:
        t = cyclic_shift(t, -shift, -shift)
        mask = shifted_window_mask(hp, wp, m, shift, x.data.dtype.type)
    t = window_reverse(block.attn(window_partition(t, m), mask), m, hp, wp, batch=b)
    if shift:
        t = cyclic_shift(t, shift, shift)
    x = add(x, crop_hw(t, h, w))
    return add(x, block.fc2(gelu(block.fc1(block.norm2(x)))))


STRUCTURAL = {"take_tokens", "reshape", "transpose", "select_first_axis", "cyclic_shift",
              "pad_hw", "crop_hw"}


def structural_records(tape):
    return sum(fn.__qualname__.split(".")[0] in STRUCTURAL for _, fn in tape._records)


class TestSwinBlockLayout:
    # (batch, height, width, dim, heads, window, shift): shifted stage-0 of
    # pretrain-192, the unshifted block, tiny's padded last stage, a padded and
    # shifted map, a single-window map that drops its shift
    CASES = [(2, 12, 12, 12, 3, 6, 3), (2, 12, 12, 12, 3, 6, 0), (3, 2, 2, 8, 2, 4, 2),
             (2, 10, 10, 8, 2, 4, 2), (1, 6, 6, 8, 2, 6, 3)]

    @pytest.mark.parametrize("case", CASES)
    def test_bytes_equal_reference_chain(self, case):
        b, h, w, dim, heads, window, shift = case
        rng = Rng(30)
        block = SwinBlock(dim, heads, window, shift, 4.0, rng.child(0))
        x = rng.child(1).normal(size=(b, h, w, dim)).astype(np.float32)
        probe = t32(rng.child(2).normal(size=(b, h, w, dim)))
        results = []
        for forward in (block, lambda v: chain_block(block, v)):
            xt = t32(x, grad=True)
            with Tape() as tape:
                y = forward(xt)
                loss = tensor_sum(mul(y, probe))
            tape.backward(loss)
            results.append((y.numpy().tobytes(), xt.grad.tobytes(),
                            block.attn.qkv.weight.grad.tobytes()))
            for _, param in block.named_params(""):
                param.zero_grad()
        assert results[0] == results[1]

    @pytest.mark.parametrize("case", CASES)
    def test_two_structural_records(self, case):
        b, h, w, dim, heads, window, shift = case
        rng = Rng(31)
        block = SwinBlock(dim, heads, window, shift, 4.0, rng.child(0))
        x = t32(rng.child(1).normal(size=(b, h, w, dim)), grad=True)
        with Tape() as whole:
            block(x)
        index, inverse, mask = block._layout(h, w, x.dtype)
        windows = t32(np.zeros((len(index) * b // window ** 2, window ** 2, dim)), grad=True)
        with Tape() as attention:
            block.attn(windows, mask)
        assert structural_records(whole) - structural_records(attention) == 2

    def test_layout_cached_per_map_not_per_batch(self):
        builders = (window_index, shifted_window_mask)
        for build in builders:
            build.cache_clear()

        def builds():
            return [build.cache_info().misses for build in builders]

        block = SwinBlock(8, 2, 4, 2, 4.0, Rng(32).child(0))
        # an 8x8 map builds its shifted maps, its mask, and the mask's unshifted maps
        block(t32(np.ones((1, 8, 8, 8))))
        assert builds() == [2, 1]
        block(t32(np.ones((3, 8, 8, 8))))
        assert builds() == [2, 1]
        block(t32(np.ones((1, 10, 10, 8))))
        assert builds() == [4, 2]
        assert not block._layout(8, 8, np.dtype(np.float32))[2].flags.writeable


class TestEncoder:
    def test_sl_config_shape(self):
        enc = SwinEncoder(SL_CONFIG, Rng(10).child(0))
        x = t32(np.zeros((1, 224, 224, 3)))
        out = enc(x)
        assert out.final.shape == (1, 7, 7, 768)

    def test_baseline_config_shape(self):
        enc = SwinEncoder(BASE_CONFIG, Rng(11).child(0))
        x = t32(np.zeros((1, 224, 224, 3)))
        assert enc(x).final.shape == (1, 7, 7, 1024)

    def test_tiny_config_shape_ladder(self):
        cfg = tiny_config()
        enc = SwinEncoder(cfg, Rng(12).child(0))
        x = t32(Rng(12).child(1).normal(size=(2, 64, 64, 3)))
        out = enc(x, keep_stages=True)
        assert out.final.shape == (2, 2, 2, 128)
        shapes = [s.shape for s in out.stages]
        assert shapes == [(2, 16, 16, 16), (2, 8, 8, 32), (2, 4, 4, 64), (2, 2, 2, 128)]

    def test_wrong_input_size_rejected(self):
        enc = SwinEncoder(tiny_config(), Rng(13).child(0))
        with pytest.raises(ConfigError):
            enc(t32(np.zeros((1, 32, 32, 3))))

    def test_per_sample_equals_batched(self):
        cfg = tiny_config()
        enc = SwinEncoder(cfg, Rng(14).child(0))
        x = Rng(14).child(1).normal(size=(3, 64, 64, 3)).astype(np.float32)
        batched = enc(t32(x)).final.numpy()
        for i in range(3):
            single = enc(t32(x[i:i + 1])).final.numpy()
            assert np.array_equal(batched[i:i + 1], single)

    def test_forward_backward_populates_grads(self):
        cfg = tiny_config()
        clf = SwinClassifier(cfg, Rng(15))
        x = t32(Rng(15).child(9).normal(size=(2, 64, 64, 3)))
        with Tape() as tape:
            loss = tensor_sum(clf(x))
        tape.backward(loss)
        missing = [n for n, p in clf.named_params() if p.grad is None]
        assert missing == []


@pytest.fixture
def split_tiny(helper_pool, monkeypatch):
    """A helper thread, and a split threshold at which a tiny-config encoder
    splits at B=4: its stage-0 kernels are above it and the stage-1 proj
    linear, made as one GEMM by the whole batch, is below it."""
    monkeypatch.setattr(tensor_mod, "_SPLIT_MIN", 1 << 14)
    return helper_pool


def encoder_bytes(encoder, images, token_mask=None, mask_token=None):
    out = encoder(t32(images), token_mask=token_mask, mask_token=mask_token, keep_stages=True)
    return [out.final.numpy().tobytes()] + [s.numpy().tobytes() for s in out.stages]


def run_halves(pool):
    return sum(fn is tensor_mod._run_half for fn in pool.submitted)


class TestHelperThread:
    """A tape-free encoder forward runs as two batch halves, with the same bytes."""

    def setup_method(self):
        rng = Rng(16)
        self.encoder = SwinEncoder(tiny_config(), rng.child(0))
        self.images = rng.child(1).normal(size=(4, 64, 64, 3)).astype(np.float32)
        self.mask = rng.child(2).uniform(size=(4, 16, 16)) < 0.5
        self.token = t32(rng.child(3).normal(size=(16,)))

    def outputs(self):
        return (encoder_bytes(self.encoder, self.images)
                + encoder_bytes(self.encoder, self.images, self.mask, self.token))

    def test_split_forward_matches_whole_batch(self, split_tiny, monkeypatch):
        split = self.outputs()
        assert split_tiny.tasks == 2  # one batch half per forward, nothing else
        assert run_halves(split_tiny) == 2
        monkeypatch.setattr(swin_mod, "batch_halves", lambda n, size, fn: None)
        assert self.outputs() == split
        assert split_tiny.tasks > 2  # the whole batch split its large kernels instead

    def test_same_with_helper_on_and_off(self, split_tiny, monkeypatch):
        on = self.outputs()
        monkeypatch.setattr(tensor_mod, "_POOL", False)
        assert self.outputs() == on

    @pytest.mark.parametrize("case", ["odd batch", "tape", "training"])
    def test_no_split(self, split_tiny, case):
        images = np.concatenate([self.images, self.images[:1]]) if case == "odd batch" \
            else self.images
        if case == "tape":
            with Tape():
                self.encoder(t32(images))
        else:
            self.encoder(t32(images), training=case == "training")
        assert split_tiny.tasks > 0  # large kernels still split
        assert run_halves(split_tiny) == 0

    @pytest.mark.parametrize("raising", ["helper", "caller"])
    def test_error_in_either_half_propagates(self, split_tiny, monkeypatch, raising):
        finished = threading.Event()
        whole = SwinEncoder._forward

        def half(encoder, *args):
            if tensor_mod._HALF.index == (0 if raising == "helper" else 1):
                raise ValueError("boom")
            time.sleep(0.05)
            out = whole(encoder, *args)
            finished.set()
            return out

        monkeypatch.setattr(SwinEncoder, "_forward", half)
        with pytest.raises(ValueError, match="boom"):
            self.encoder(t32(self.images))
        assert finished.is_set()  # the caller waited for the helper first
        assert tensor_mod._HALF.index is None

    def test_wrapped_block_call_does_not_split(self, split_tiny, monkeypatch):
        call = SwinBlock.__call__

        @functools.wraps(call)
        def traced(*args, **kwargs):
            return call(*args, **kwargs)

        monkeypatch.setattr(SwinBlock, "__call__", traced)
        self.outputs()
        assert run_halves(split_tiny) == 0


class TestConfigValidation:
    def test_odd_depth_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(depths=(2, 3, 2, 2)).validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(heads=(3, 2, 4, 4)).validate()  # 16 % 3 != 0

    def test_img_size_multiple(self):
        with pytest.raises(ConfigError):
            tiny_config(img_size=60).validate()

    def test_default_shift_is_half_window(self):
        assert SwinConfig(window_size=7).effective_shift == 3
        assert tiny_config().effective_shift == 2


class TestCounts:
    def test_table_param_values_exact(self):
        assert count_params(SL_CONFIG) == 27527044
        assert count_params(BASE_CONFIG) == 86753474

    def test_param_tolerance_one_percent(self):
        assert abs(count_params(SL_CONFIG) - 27527044) <= 0.01 * 27527044
        assert abs(count_params(BASE_CONFIG) - 86753474) <= 0.01 * 86753474

    def test_hand_summed_tiny_oracle(self):
        # C=8, depths (2,2,2,2), heads (1,1,2,2), M=2, no head;
        # summed term by term by hand: embed 392+16, blocks 12D^2+13D+9h,
        # merges 8D^2+8D, final norm 128
        cfg = SwinConfig(img_size=32, embed_dim=8, depths=(2, 2, 2, 2),
                         heads=(1, 1, 2, 2), window_size=2)
        expected = (
            (392 + 16)
            + 2 * (768 + 104 + 9)
            + (512 + 64)
            + 2 * (3072 + 208 + 9)
            + (2048 + 128)
            + 2 * (12288 + 416 + 18)
            + (8192 + 256)
            + 2 * (49152 + 832 + 18)
            + 128
        )
        assert count_params(cfg, include_head=False) == expected

    def test_model_matches_closed_form(self):
        cfg = tiny_config()
        clf = SwinClassifier(cfg, Rng(16))
        assert clf.param_count() == count_params(cfg)

    def test_attention_flop_examples(self):
        assert count_attention_flops("msa", 8, 8, 4) == 36864
        assert count_attention_flops("wmsa", 8, 8, 4, 4) == 12288

    def test_single_window_formulas_coincide(self):
        for m, c in [(4, 8), (7, 96), (2, 16)]:
            assert count_attention_flops("msa", m, m, c) == \
                count_attention_flops("wmsa", m, m, c, m)

    def test_head_count_invariance(self):
        # attention FLOPs depend on extents and channels only, so whole-model
        # counts are unchanged when just the head distribution varies
        counts = {
            count_flops(tiny_config(heads=heads))
            for heads in [(1, 1, 1, 1), (2, 2, 4, 4), (4, 4, 8, 8), (8, 8, 16, 16)]
        }
        assert len(counts) == 1

    def test_window_flops_dominate(self):
        for hw_side in (8, 16, 32):
            for m in (2, 4):
                for c in (4, 16, 64):
                    if hw_side * hw_side > m * m:
                        assert count_attention_flops("wmsa", hw_side, hw_side, c, m) < \
                            count_attention_flops("msa", hw_side, hw_side, c)

    def test_gflops_within_ten_percent(self):
        assert abs(count_flops(SL_CONFIG, 224) / 1e9 - 4.49) <= 0.449
        assert abs(count_flops(BASE_CONFIG, 224) / 1e9 - 15.26) <= 1.526
