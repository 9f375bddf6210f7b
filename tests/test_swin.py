import functools
import threading
import time
import types

import numpy as np
import pytest

import swinmim.swin as swin_mod
import swinmim.tensor as tensor_mod
from conftest import tiny_config
from swinmim.mim import MaskSpec, MIMPretrainModel, generate_mask
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
    patch_partition,
    PatchMerge,
    relative_position_index,
    shifted_window_mask,
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
    log_softmax,
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


def concat_only(merge):
    """Make a PatchMerge return its 4C concat: identity norm and reduce."""
    merge.norm = lambda x: x
    merge.reduce = lambda x: x
    return merge


class TestPatchMerge:
    def test_shape_doubling(self):
        x = t32(np.zeros((2, 56, 56, 96)))
        assert PatchMerge(96, Rng(3).child(1))(x).shape == (2, 28, 28, 192)

    def test_fig3_toy_intermediate(self):
        # 4x4 single-channel map: the concat step groups each 2x2 patch
        x = t32(np.arange(16, dtype=np.float32).reshape(4, 4, 1))
        mid = concat_only(PatchMerge(1, Rng(3).child(2)))(x)
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
        merge = PatchMerge(c, Rng(3).child(3))
        # the merge is its own norm then its own reduce of the regrouped map
        full = merge.reduce(merge.norm(t32(expect))).numpy()
        assert merge(t32(x)).numpy().tobytes() == full.tobytes()
        assert concat_only(merge)(t32(x)).numpy().tobytes() == expect.tobytes()

    def test_constant_with_averaging_weights(self):
        x = t32(np.full((4, 4, 2), 3.0))
        merge = PatchMerge(2, Rng(3).child(4))
        merge.reduce.weight.data[:] = 0.25
        out = merge(x).numpy()
        # constant input -> layer norm gives zeros -> linear gives zeros
        assert np.allclose(out, 0.0)
        assert out.shape == (2, 2, 4)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            PatchMerge(2, Rng(3).child(5))(t32(np.zeros((3, 4, 2))))


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
        w = softmax(Tensor(logits, dtype=np.float64)).numpy()
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_probabilities_are_zero_not_subnormal(self, dtype):
        # a fill whose exp is a subnormal (e^-100 in float32) slows every kernel
        # that reads the probabilities; the fill stays finite for the debug checks
        assert np.isfinite(dtype(ATTN_MASK_FILL))
        size, window, shift = 8, 4, 2
        mask = shifted_window_mask(size, size, window, shift, dtype)
        logits = (10.0 * Rng(5).child(1).normal(size=mask.shape)).astype(dtype)
        weights = softmax(Tensor(logits + mask)).numpy()
        assert weights.dtype == dtype
        assert np.all(weights[mask != 0] == 0.0)
        tiny = np.finfo(dtype).tiny
        assert not np.any((weights > 0) & (weights < tiny))

    def test_mask_blocks_attention_below_1e30(self):
        size, window, shift = 8, 4, 2
        mask = shifted_window_mask(size, size, window, shift, np.float64)
        logits = Rng(5).child(0).normal(size=mask.shape)
        weights = softmax(Tensor(logits + mask, dtype=np.float64)).numpy()
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
        assert enc(x).shape == (1, 7, 7, 768)

    def test_baseline_config_shape(self):
        enc = SwinEncoder(BASE_CONFIG, Rng(11).child(0))
        x = t32(np.zeros((1, 224, 224, 3)))
        assert enc(x).shape == (1, 7, 7, 1024)

    def test_tiny_config_shape_ladder(self):
        cfg = tiny_config()
        enc = SwinEncoder(cfg, Rng(12).child(0))
        x = t32(Rng(12).child(1).normal(size=(2, 64, 64, 3)))
        assert enc(x).shape == (2, 2, 2, 128)
        x = enc.embed_norm(enc.embed(patch_partition(x)))
        shapes = []
        for merge, blocks in zip(enc.merges, enc.stages):
            if merge is not None:
                x = merge(x)
            for block in blocks:
                x = block(x)
            shapes.append(x.shape)
        assert shapes == [(2, 16, 16, 16), (2, 8, 8, 32), (2, 4, 4, 64), (2, 2, 2, 128)]

    def test_wrong_input_size_rejected(self):
        enc = SwinEncoder(tiny_config(), Rng(13).child(0))
        with pytest.raises(ConfigError):
            enc(t32(np.zeros((1, 32, 32, 3))))

    def test_wrong_channel_count_rejected(self):
        enc = SwinEncoder(tiny_config(in_channels=1), Rng(13).child(1))
        with pytest.raises(ConfigError, match="3 channels != configured in_channels 1"):
            enc(t32(np.zeros((1, 64, 64, 3))))

    def test_per_sample_equals_batched(self):
        # Zero every image but image i, at the batched height: each row is then
        # made by the same calls (a BLAS may give a row other bits in a GEMM
        # over another row count), so image i's features must match bitwise.
        cfg = tiny_config()
        enc = SwinEncoder(cfg, Rng(14).child(0))
        x = Rng(14).child(1).normal(size=(3, 64, 64, 3)).astype(np.float32)
        batched = enc(t32(x)).numpy()
        for i in range(3):
            z = np.zeros_like(x)
            z[i] = x[i]
            assert np.array_equal(enc(t32(z)).numpy()[i], batched[i])

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
    splits from B=2 on: its stage-0 kernels are above it. The pool's `halves`
    lists (index, taped, ran on the helper) for each batch half run, forward
    or backward."""
    monkeypatch.setattr(tensor_mod, "_SPLIT_MIN", 1 << 13)
    run, helper_pool.halves = tensor_mod._run_half, []

    def recorded(index, meet, fn, tape=None):
        on_helper = threading.current_thread() is not threading.main_thread()
        helper_pool.halves.append((index, meet is not None, on_helper))
        return run(index, meet, fn, tape)

    monkeypatch.setattr(tensor_mod, "_run_half", recorded)
    return helper_pool


def encoder_bytes(encoder, images, token_mask=None, mask_token=None):
    return encoder(t32(images), token_mask=token_mask, mask_token=mask_token).numpy().tobytes()


def whole_batch(monkeypatch, encoder=None, batch=None):
    """Run the whole batch instead of its halves; given the encoder and the
    batch size, make the whole batch's GEMMs of its linears (forward and dx)
    as the halves make them, one over the rows of the first batch // 2 items
    and one over the rest, since a BLAS may block a GEMM by its row count.
    The heads' GEMMs and every dW stay over the whole batch's rows."""
    monkeypatch.setattr(swin_mod, "batch_halves", lambda n, size, fn: fn(0, n))
    if encoder is None:
        return
    weights = {id(p.data) for _, p in encoder.named_params() if p.data.ndim == 2}

    def matmul(a, b):
        if id(b if b.base is None else b.base) not in weights:
            return np.matmul(a, b)
        cut = len(a) // batch * (batch // 2)  # the first half's rows
        return np.concatenate([np.matmul(a[:cut], b), np.matmul(a[cut:], b)])

    by_halves = types.ModuleType("numpy")
    vars(by_halves).update(vars(np), matmul=matmul)
    monkeypatch.setattr(tensor_mod, "np", by_halves)


def step_bytes(model, loss_fn):
    """The loss and every parameter gradient of one taped step."""
    for _, p in model.named_params():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    assert len(tape) == 0
    return [loss.numpy().tobytes()] + [p.grad.tobytes() for _, p in model.named_params()]


class TestHelperThread:
    """An encoder forward runs as two batch halves, odd or even, and under a
    tape so does its backward, with the bytes of the whole batch made at the
    halves' heights."""

    def setup_method(self):
        rng = Rng(16)
        self.encoder = SwinEncoder(tiny_config(), rng.child(0))
        self.token = t32(rng.child(3).normal(size=(16,)))
        self.mim = MIMPretrainModel(tiny_config(), rng.child(4), mask_spec=MaskSpec(16, 0.5))
        self.clf = SwinClassifier(tiny_config(), rng.child(6), with_mask_token=True)
        self.items = (  # five items; a test runs the first four unless it takes another count
            np.concatenate([rng.child(1).normal(size=(4, 64, 64, 3)),
                            rng.child(7).normal(size=(1, 64, 64, 3))]).astype(np.float32),
            np.concatenate([rng.child(2).uniform(size=(4, 16, 16)),
                            rng.child(8).uniform(size=(1, 16, 16))]) < 0.5,
            [generate_mask(self.mim.mask_spec, 64, rng.child(5, j)) for j in range(5)],
            np.eye(10, dtype=np.float32)[[3, 1, 4, 1, 5]])
        self.take(4)

    def take(self, batch):
        """Make the first `batch` of the five items the batch."""
        self.images, self.mask, self.masks, self.labels = (a[:batch] for a in self.items)

    def outputs(self):
        return (encoder_bytes(self.encoder, self.images),
                encoder_bytes(self.encoder, self.images, self.mask, self.token))

    def mim_step(self):
        return step_bytes(self.mim, lambda: self.mim.loss(t32(self.images), self.masks))

    def clf_step(self):
        def loss():
            logits = self.clf(t32(self.images), token_mask=self.mask, training=True,
                              rng=Rng(17))
            return tensor_sum(mul(log_softmax(logits), t32(-self.labels)))
        return step_bytes(self.clf, loss)

    def test_split_forward_matches_whole_batch(self, split_tiny, monkeypatch):
        split = self.outputs()
        assert split_tiny.tasks == 2  # one batch half per forward, nothing else
        assert sorted(split_tiny.halves) == [(0, False, True)] * 2 + [(1, False, False)] * 2
        whole_batch(monkeypatch, self.encoder, 4)
        assert self.outputs() == split
        assert split_tiny.tasks == 2  # a tape-free whole batch splits nothing

    @pytest.mark.parametrize("batch", [3, 5])
    def test_odd_split_forward_matches_whole_batch(self, split_tiny, monkeypatch, batch):
        """An odd batch splits at batch // 2 items, its second half taking
        the extra item, and gives the whole batch's bytes."""
        self.take(batch)
        split = self.outputs()
        assert sorted(split_tiny.halves) == [(0, False, True)] * 2 + [(1, False, False)] * 2
        whole_batch(monkeypatch, self.encoder, batch)
        assert self.outputs() == split

    def test_split_forward_matches_halves_run_alone(self, split_tiny, monkeypatch):
        """The reference of a split forward: each half as a whole batch of
        its own, every kernel call at the half's height, under any BLAS."""
        split = self.outputs()
        whole_batch(monkeypatch)
        images, mask = self.images, self.mask
        alone = []
        for lo, hi in ((0, 2), (2, 4)):
            self.images, self.mask = images[lo:hi], mask[lo:hi]
            alone.append(self.outputs())
        assert split == tuple(a + b for a, b in zip(*alone))

    def split_step_matches_whole_batch(self, split_tiny, monkeypatch, model):
        step = self.mim_step if model == "mim" else self.clf_step
        split = step()
        # a forward and a backward per half, half 0's on the helper
        assert sorted(split_tiny.halves) == [(0, True, True)] * 2 + [(1, True, False)] * 2
        whole_batch(monkeypatch, (self.mim if model == "mim" else self.clf).encoder,
                    len(self.images))
        assert step() == split
        return split

    @pytest.mark.parametrize("model", ["mim", "classifier"])
    def test_split_step_matches_whole_batch(self, split_tiny, monkeypatch, model):
        self.split_step_matches_whole_batch(split_tiny, monkeypatch, model)

    @pytest.mark.parametrize("batch", [3, 5])
    @pytest.mark.parametrize("model", ["mim", "classifier"])
    def test_odd_split_step_matches_whole_batch(self, split_tiny, monkeypatch, model, batch):
        self.take(batch)
        self.split_step_matches_whole_batch(split_tiny, monkeypatch, model)

    @pytest.mark.parametrize("batch", [3, 4])
    def test_drop_path_step_matches_whole_batch(self, split_tiny, monkeypatch, batch):
        """A training step with stochastic depth splits too: the factors are
        drawn for the whole batch first, and each half takes its items'."""
        self.take(batch)
        plain = self.clf_step()
        split_tiny.halves.clear()
        self.clf = SwinClassifier(tiny_config(drop_path=0.1), Rng(16).child(6),
                                  with_mask_token=True)
        dropped = self.split_step_matches_whole_batch(split_tiny, monkeypatch, "classifier")
        assert dropped != plain

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_drop_path_factors_are_a_draw_per_branch(self, monkeypatch, dtype):
        """The factors drawn at once before the split are bitwise those of a
        draw per branch, in block order, the attention branch first."""
        rate, batch, factors = 0.2, 3, []
        encoder = SwinEncoder(tiny_config(drop_path=rate), Rng(16).child(0), dtype)

        def spy(x, keep, drop=swin_mod.drop_path):
            factors.append(keep)
            return drop(x, keep)

        monkeypatch.setattr(swin_mod, "drop_path", spy)
        encoder(Tensor(self.images[:batch].astype(dtype)), training=True, rng=Rng(17))
        draws = Rng(17)
        per_branch = [(draws.uniform(size=(batch,)) >= rate).astype(dtype) / (1.0 - rate)
                      for _ in range(2 * sum(encoder.config.depths))]
        assert [(f.dtype, f.tobytes()) for f in factors] == \
            [(f.dtype, f.tobytes()) for f in per_branch]
        assert any((f == 0).any() for f in factors) and any((f > 0).any() for f in factors)

    @pytest.mark.parametrize("batch", [3, 4])
    def test_helper_runs_only_batch_halves(self, split_tiny, batch):
        """A taped MIM step, odd or even, hands the helper its first batch
        half's forward and its backward and nothing else, though the head's
        weight (128 x 3072) is above the threshold too."""
        self.take(batch)
        self.mim_step()
        assert split_tiny.tasks == 2

    @pytest.mark.parametrize("case", ["one item", "input grad", "small", "mask length"])
    def test_no_split(self, split_tiny, monkeypatch, case):
        """A taped training step that must or cannot split runs the whole batch."""
        images = self.images
        if case == "one item":  # nothing to split, however large
            images = images[:1]
            monkeypatch.setattr(tensor_mod, "_SPLIT_MIN", 2)
        elif case == "small":  # tiny-config work at B=4 sits below the real threshold
            monkeypatch.setattr(tensor_mod, "_SPLIT_MIN", 1 << 15)
        x = t32(images, grad=case == "input grad")
        with Tape() as tape:
            if case == "mask length":  # refused before the split, which would slice it
                with pytest.raises(ShapeError, match="token mask of 2 items for a batch of 4"):
                    self.encoder(x, token_mask=self.mask[:2], mask_token=self.token)
                return
            loss = tensor_sum(self.encoder(x, training=True, rng=Rng(17)))
        tape.backward(loss)
        assert split_tiny.halves == []
        if case == "input grad":
            assert x.grad is not None

    @pytest.mark.parametrize("raising", ["helper", "caller"])
    def test_error_in_either_half_propagates(self, split_tiny, monkeypatch, raising):
        finished = threading.Event()
        whole = SwinEncoder._forward

        def half(encoder, *args):
            if tensor_mod._THREAD.half == (0 if raising == "helper" else 1):
                raise ValueError("boom")
            time.sleep(0.05)
            out = whole(encoder, *args)
            finished.set()
            return out

        monkeypatch.setattr(SwinEncoder, "_forward", half)
        with pytest.raises(ValueError, match="boom"):
            self.encoder(t32(self.images))
        assert finished.is_set()  # the caller waited for the helper first
        assert tensor_mod._THREAD.half is None

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    @pytest.mark.parametrize("raising", ["helper", "caller"])
    def test_error_in_either_half_of_a_step_propagates(self, split_tiny, monkeypatch, phase,
                                                       raising):
        finished = threading.Event()

        def wrap(whole):
            def run(*args):
                if tensor_mod._THREAD.half is None:
                    return whole(*args)
                if tensor_mod._THREAD.half == (0 if raising == "helper" else 1):
                    raise ValueError("boom")
                time.sleep(0.05)
                out = whole(*args)
                finished.set()
                return out
            return run

        if phase == "forward":
            monkeypatch.setattr(SwinEncoder, "_forward", wrap(SwinEncoder._forward))
        else:
            monkeypatch.setattr(tensor_mod.Tape, "backward", wrap(tensor_mod.Tape.backward))
        with pytest.raises(ValueError, match="boom"):
            self.mim_step()
        assert finished.is_set()  # the caller waited for the other half first
        assert tensor_mod._THREAD.half is None and tensor_mod._THREAD.meet is None
        assert tensor_mod._THREAD.tape is None

    def test_wrapped_block_call_does_not_split(self, split_tiny, monkeypatch):
        call = SwinBlock.__call__

        @functools.wraps(call)
        def traced(*args, **kwargs):
            return call(*args, **kwargs)

        monkeypatch.setattr(SwinBlock, "__call__", traced)
        self.outputs()
        self.mim_step()
        assert split_tiny.halves == []

    def test_halves_recording_other_ops_raise(self, split_tiny, monkeypatch):
        whole = SwinEncoder._forward

        def uneven(encoder, *args):  # half 0 runs one more layer norm
            out = whole(encoder, *args)
            return encoder.norm(out) if tensor_mod._THREAD.half == 0 else out

        monkeypatch.setattr(SwinEncoder, "_forward", uneven)
        with pytest.raises((ShapeError, RuntimeError), match="batch halves posted"):
            self.mim_step()


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

    @pytest.mark.parametrize("field,value,match", [
        ("mlp_ratio", 0.01, "stage 0 \\(width 16\\) an MLP hidden width of 0"),
        ("mlp_ratio", float("inf"), "positive and finite"),
        ("embed_dim", 0, "embed_dim must be >= 1")])
    def test_zero_width_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            tiny_config(**{field: value}).validate()

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
