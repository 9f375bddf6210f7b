import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import erf

import swinmim.tensor as tensor_mod
from conftest import tiny_config
from swinmim.mim import MaskSpec, MIMPretrainModel, generate_mask, pretrain_step
from swinmim.rng import Rng
from swinmim.swin import SwinClassifier
from swinmim.train import AdamW, soft_cross_entropy
from swinmim.tensor import (
    Tape,
    Tensor,
    ShapeError,
    absolute,
    add,
    cyclic_shift,
    gelu,
    grad_check,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    mul,
    pad_hw,
    crop_hw,
    gather_rows,
    select_first_axis,
    softmax,
    sub,
    take_tokens,
    tensor_mean,
    tensor_sum,
    transpose,
    reshape,
    where_const,
    window_index,
    window_partition,
    window_reverse,
)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        m = t64([[3.0, -1.0], [2.5, 7.0]], grad=False)
        eye = t64(np.eye(2), grad=False)
        assert np.array_equal(matmul(eye, m).numpy(), m.numpy())

    def test_hand_product(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]], grad=False)
        b = t64([[5.0], [6.0]], grad=False)
        assert matmul(a, b).numpy().tolist() == [[17.0], [39.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_dtype_mismatch(self):
        a = Tensor(np.ones((2, 2), np.float32))
        b = Tensor(np.ones((2, 2), np.float64))
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = Rng(0)
        a = t64(rng.child(0).normal(size=(3, 4)))
        b = t64(rng.child(1).normal(size=(4, 2)), grad=False)
        with Tape() as tape:
            y = tensor_sum(matmul(a, b))
        tape.backward(y)
        expected = np.ones((3, 2)) @ b.numpy().T
        assert np.allclose(a.grad, expected, rtol=1e-12)
        a2 = t64(a.numpy())
        err = grad_check(lambda x: tensor_sum(matmul(x, b)), a2)
        assert err < 1e-6

    def test_batched_matches_loop(self):
        rng = Rng(1)
        a = rng.child(0).normal(size=(5, 3, 4))
        b = rng.child(1).normal(size=(5, 4, 2))
        out = matmul(t64(a, grad=False), t64(b, grad=False)).numpy()
        for i in range(5):
            assert np.array_equal(out[i], a[i] @ b[i])


class TestSoftmax:
    def test_single_element_axis(self):
        out = softmax(t64([[4.2]], grad=False), axis=-1)
        assert out.numpy().tolist() == [[1.0]]

    def test_equal_logits(self):
        out = softmax(t64([1.0, 1.0, 1.0, 1.0], grad=False), axis=0)
        assert np.allclose(out.numpy(), 0.25)

    def test_hand_values(self):
        out = softmax(t64([0.0, math.log(3.0)], grad=False), axis=0)
        assert np.allclose(out.numpy(), [0.25, 0.75], atol=1e-12)

    def test_slices_sum_to_one(self):
        x = t64(Rng(2).child(0).normal(std=5.0, size=(4, 7)), grad=False)
        out = softmax(x, axis=1).numpy()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_large_logits_stable(self):
        out = softmax(t64([1000.0, 1000.0], grad=False), axis=0).numpy()
        assert np.allclose(out, 0.5)


class TestLayerNorm:
    def test_constant_input_zero_output(self):
        x = t64(np.full((3, 5), 7.0), grad=False)
        g, b = t64(np.ones(5), grad=False), t64(np.zeros(5), grad=False)
        assert np.allclose(layer_norm(x, g, b).numpy(), 0.0)

    def test_two_point_standardization(self):
        x = t64([[1.0, 3.0]], grad=False)
        g, b = t64(np.ones(2), grad=False), t64(np.zeros(2), grad=False)
        out = layer_norm(x, g, b, eps=1e-12).numpy()
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-9)

    def test_moments(self):
        x = t64(Rng(3).child(0).normal(size=(6, 16)), grad=False)
        g, b = t64(np.ones(16), grad=False), t64(np.zeros(16), grad=False)
        out = layer_norm(x, g, b).numpy()
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_param_shape_checked(self):
        x = t64(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))


class TestGelu:
    def test_zero(self):
        assert gelu(t64([0.0], grad=False)).numpy()[0] == 0.0

    def test_asymptotics(self):
        out = gelu(t64([30.0, -30.0], grad=False)).numpy()
        assert np.isclose(out[0], 30.0)
        assert np.isclose(out[1], 0.0, atol=1e-12)

    def test_unit_value(self):
        assert np.isclose(gelu(t64([1.0], grad=False)).numpy()[0], 0.8413447460685429)


class TestWindowOps:
    def test_single_window_identity(self):
        x = t64(Rng(4).child(0).normal(size=(4, 4, 3)), grad=False)
        win = window_partition(x, 4)
        assert win.shape == (1, 16, 3)
        assert np.array_equal(win.numpy().reshape(4, 4, 3), x.numpy())

    def test_quadrants(self):
        vals = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
        win = window_partition(t64(vals, grad=False), 2).numpy()
        assert win.shape == (4, 4, 1)
        assert win[0].ravel().tolist() == [0, 1, 4, 5]
        assert win[1].ravel().tolist() == [2, 3, 6, 7]
        assert win[2].ravel().tolist() == [8, 9, 12, 13]
        assert win[3].ravel().tolist() == [10, 11, 14, 15]

    def test_round_trip_bitwise(self):
        x = t64(Rng(5).child(0).normal(size=(8, 8, 3)), grad=False)
        back = window_reverse(window_partition(x, 4), 4, 8, 8)
        assert np.array_equal(back.numpy(), x.numpy())

    def test_batched_round_trip(self):
        x = t64(Rng(5).child(1).normal(size=(2, 8, 8, 3)), grad=False)
        back = window_reverse(window_partition(x, 4), 4, 8, 8, batch=2)
        assert np.array_equal(back.numpy(), x.numpy())

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            window_partition(t64(np.ones((6, 6, 1))), 4)


class TestCyclicShift:
    def test_zero_shift_identity(self):
        x = t64(Rng(6).child(0).normal(size=(3, 3, 2)), grad=False)
        assert np.array_equal(cyclic_shift(x, 0, 0).numpy(), x.numpy())

    def test_hand_roll(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        x = t64(np.array([[a, b], [c, d]]).reshape(2, 2, 1), grad=False)
        out = cyclic_shift(x, 1, 1).numpy().reshape(2, 2)
        assert out.tolist() == [[d, c], [b, a]]

    def test_inverse_pair_bitwise(self):
        x = t64(Rng(6).child(1).normal(size=(5, 7, 3)), grad=False)
        back = cyclic_shift(cyclic_shift(x, 2, 3), -2, -3)
        assert np.array_equal(back.numpy(), x.numpy())


def np_layout(x, m, shift):
    """numpy pad -> roll(-shift) -> window partition of [..., H, W, C]."""
    h, w, c = x.shape[-3:]
    hp, wp = -(-h // m) * m, -(-w // m) * m
    pads = [(0, 0)] * (x.ndim - 3) + [(0, hp - h), (0, wp - w), (0, 0)]
    t = np.roll(np.pad(x, pads), (-shift, -shift), axis=(-3, -2))
    t = t.reshape(-1, hp // m, m, wp // m, m, c).transpose(0, 1, 3, 2, 4, 5)
    return t.reshape(-1, m * m, c)


def np_unlayout(windows, m, shift, shape):
    """numpy window reverse -> roll(+shift) -> crop back to [..., H, W, C]."""
    h, w, c = shape[-3:]
    hp, wp = -(-h // m) * m, -(-w // m) * m
    t = windows.reshape(-1, hp // m, wp // m, m, m, c).transpose(0, 1, 3, 2, 4, 5)
    t = np.roll(t.reshape(-1, hp, wp, c), (shift, shift), axis=(-3, -2))
    return np.ascontiguousarray(t[:, :h, :w]).reshape(shape)


def _forward_and_grad(op, x, probe):
    """op(x) and the gradient of sum(op(x) * probe) with respect to x."""
    x = t64(x)
    with Tape() as tape:
        y = op(x)
        loss = tensor_sum(mul(y, Tensor(probe)))
    tape.backward(loss)
    return y.numpy(), x.grad


LAYOUTS = [  # (input shape, window, shift)
    ((8, 8, 3), 4, 0), ((8, 8, 3), 4, 2), ((2, 12, 8, 3), 4, 2), ((3, 2, 2, 5), 4, 0),
    ((2, 10, 10, 2), 4, 2), ((10, 7, 2), 3, 1), ((1, 6, 6, 4), 6, 0),
]


class TestTakeTokens:
    """take_tokens with window_index against numpy pad/roll/reshape/transpose."""

    @pytest.mark.parametrize("shape,m,shift", LAYOUTS)
    def test_layout_matches_numpy(self, shape, m, shift):
        rng = Rng(21)
        x = rng.child(0).normal(size=shape)
        index, inverse = window_index(shape[-3], shape[-2], m, shift)
        expect = np_layout(x, m, shift)
        probe = rng.child(1).normal(size=expect.shape)
        y, gx = _forward_and_grad(
            lambda v: take_tokens(v, index, inverse, (-1, m * m, shape[-1])), x, probe)
        assert y.tobytes() == expect.tobytes()
        assert gx.tobytes() == np_unlayout(probe, m, shift, shape).tobytes()

    @pytest.mark.parametrize("shape,m,shift", LAYOUTS)
    def test_reverse_matches_numpy(self, shape, m, shift):
        rng = Rng(22)
        index, inverse = window_index(shape[-3], shape[-2], m, shift)
        windows = rng.child(0).normal(size=np_layout(np.zeros(shape), m, shift).shape)
        probe = rng.child(1).normal(size=shape)
        y, gw = _forward_and_grad(lambda v: take_tokens(v, inverse, index, shape), windows, probe)
        assert y.tobytes() == np_unlayout(windows, m, shift, shape).tobytes()
        assert gw.tobytes() == np_layout(probe, m, shift).tobytes()

    def test_padding_rows_are_positive_zero(self):
        x = t64(-np.ones((1, 3, 3, 2)), grad=False)
        y = take_tokens(x, *window_index(3, 3, 2, 0), (-1, 4, 2)).numpy()
        pad = np_layout(np.ones((1, 3, 3, 2)), 2, 0) == 0
        assert pad.sum() == 2 * 7 and (y[pad] == 0).all() and not np.signbit(y[pad]).any()

    def test_one_tape_record(self):
        x = t64(np.ones((2, 5, 5, 3)))
        with Tape() as tape:
            take_tokens(x, *window_index(5, 5, 2, 1), (-1, 4, 3))
        assert len(tape) == 1

    def test_token_count_checked(self):
        with pytest.raises(ShapeError):
            take_tokens(t64(np.ones((2, 5, 3))), *window_index(2, 2, 2, 0), (-1, 4, 3))

    def test_window_index_cached_and_read_only(self):
        maps = window_index(10, 10, 4, 2)
        assert all(a is b for a, b in zip(maps, window_index(10, 10, 4, 2)))
        for m in maps:
            with pytest.raises(ValueError, match="read-only"):
                m[0] = 0


class TestStructuralOpsMatchNumpy:
    """The public structural ops are index maps on take_tokens: forward and
    gradient equal the numpy expression and its adjoint, byte for byte."""

    CASES = {  # name: (op, numpy forward, numpy adjoint of g, input shape)
        "cyclic_shift": (lambda v: cyclic_shift(v, 2, -3),
                         lambda a: np.roll(a, (2, -3), axis=(-3, -2)),
                         lambda g: np.roll(g, (-2, 3), axis=(-3, -2)), (2, 5, 7, 3)),
        "pad_hw": (lambda v: pad_hw(v, 2, 1),
                   lambda a: np.pad(a, ((0, 0), (0, 2), (0, 1), (0, 0))),
                   lambda g: g[:, :5, :7], (2, 5, 7, 3)),
        "crop_hw": (lambda v: crop_hw(v, 3, 4),
                    lambda a: a[..., :3, :4, :],
                    lambda g: np.pad(g, ((0, 2), (0, 3), (0, 0))), (5, 7, 3)),
        "window_partition": (lambda v: window_partition(v, 2),
                             lambda a: a.reshape(2, 3, 2, 2, 2, 3).transpose(0, 1, 3, 2, 4, 5)
                             .reshape(12, 4, 3),
                             lambda g: g.reshape(2, 3, 2, 2, 2, 3).transpose(0, 1, 3, 2, 4, 5)
                             .reshape(2, 6, 4, 3), (2, 6, 4, 3)),
        "window_reverse": (lambda v: window_reverse(v, 2, 6, 4),
                           lambda a: a.reshape(3, 2, 2, 2, 3).transpose(0, 2, 1, 3, 4)
                           .reshape(6, 4, 3),
                           lambda g: g.reshape(3, 2, 2, 2, 3).transpose(0, 2, 1, 3, 4)
                           .reshape(6, 4, 3), (6, 4, 3)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_forward_and_gradient(self, name):
        op, forward, adjoint, shape = self.CASES[name]
        rng = Rng(23)
        x = rng.child(0).normal(size=shape)
        expect = forward(x)
        probe = rng.child(1).normal(size=expect.shape)
        y, gx = _forward_and_grad(op, x, probe)
        assert y.tobytes() == np.ascontiguousarray(expect).tobytes()
        assert gx.tobytes() == np.ascontiguousarray(adjoint(probe)).tobytes()
        with Tape() as tape:
            op(t64(x))
        assert len(tape) == 1


class TestTape:
    def test_single_use(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            y = tensor_sum(mul(x, x))
        tape.backward(y)
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_no_recording_outside_tape(self):
        x = t64([1.0])
        y = mul(x, x)
        assert x.grad is None  # nothing recorded, nothing to replay

    def test_grad_accumulates_over_reuse(self):
        x = t64([3.0])
        with Tape() as tape:
            y = add(mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
        tape.backward(y)
        assert np.allclose(x.grad, [7.0])

    def test_determinism_bitwise(self):
        def run():
            rng = Rng(9)
            x = t64(rng.child(0).normal(size=(4, 4)))
            w = t64(rng.child(1).normal(size=(4, 4)))
            with Tape() as tape:
                y = tensor_sum(softmax(matmul(x, w), axis=-1))
            tape.backward(y)
            return y.numpy().copy(), x.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2)
        assert np.array_equal(g1, g2)


class TestTapeMemoryContract:
    """Backward releases the tape as it runs and hands fresh arrays over
    as grads, without letting two tensors share a grad buffer."""

    def test_tape_released_and_only_leaves_keep_grad(self):
        rng = Rng(31)
        x = t64(rng.child(0).normal(size=(4, 3)))
        w = t64(rng.child(1).normal(size=(4, 5)))
        with Tape() as tape:
            xt = transpose(x, (1, 0))
            h = matmul(xt, w)
            s = softmax(h, axis=-1)
            y = tensor_sum(mul(s, s))
        assert len(tape) == 5
        tape.backward(y)
        assert len(tape) == 0
        assert all(t.grad is None for t in (xt, h, s, y))
        assert w.grad is not None
        # the transposed view reaching x is copied, so every .grad stays C-contiguous
        assert x.grad.flags.c_contiguous and w.grad.flags.c_contiguous

    @pytest.mark.parametrize("op", [add, sub])
    def test_pass_through_grad_not_shared(self, op):
        a = t64([1.0, 2.0, 3.0])
        b = t64([4.0, 5.0, 6.0])
        with Tape() as tape:
            a3 = mul(a, 3.0)  # replayed last: accumulates into a after op's rule
            y = tensor_sum(add(op(a, b), a3))
        tape.backward(y)
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, [4.0, 4.0, 4.0])
        assert np.array_equal(b.grad, [1.0 if op is add else -1.0] * 3)

    def test_mim_param_grads_disjoint(self):
        model = MIMPretrainModel(tiny_config(), Rng(32), mask_spec=MaskSpec(16, 0.5))
        images = Tensor(Rng(33).child(0).normal(size=(2, 64, 64, 3)).astype(np.float32))
        masks = [generate_mask(model.mask_spec, 64, Rng(34).child(j)) for j in range(2)]
        with Tape() as tape:
            loss = model.loss(images, masks)
        tape.backward(loss)
        grads = [(n, p.grad) for n, p in model.named_params() if p.grad is not None]
        assert len(grads) == len(list(model.named_params()))
        for i, (n1, g1) in enumerate(grads):
            assert g1.flags.c_contiguous, n1
            for n2, g2 in grads[i + 1:]:
                assert not np.shares_memory(g1, g2), (n1, n2)

    def test_seed_not_adopted(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            y = mul(x, 3.0)
        seed = np.array([1.0, -1.0])
        tape.backward(y, seed=seed)
        assert np.array_equal(seed, [1.0, -1.0])
        assert np.array_equal(x.grad, [3.0, -3.0])
        assert not np.shares_memory(x.grad, seed)

        leaf = t64([5.0, 6.0])
        seed = np.array([2.0, 2.0])
        with Tape() as tape:
            pass
        tape.backward(leaf, seed=seed)
        assert not np.shares_memory(leaf.grad, seed)
        leaf.grad += 1.0
        assert np.array_equal(seed, [2.0, 2.0])


def paper_shaped_ops():
    """Linear, layer_norm, gelu, matmul and softmax on arrays above the split
    threshold, then one AdamW step. Returns (kernel bytes, reference bytes):
    the outputs, grads, params and moments the kernels give, and the
    outputs and grads of the same arithmetic as numpy expressions: linear as
    two GEMMs over row halves, everything else over whole arrays."""
    rng = Rng(51)

    def leaf(i, shape):
        return Tensor(rng.child(i).normal(size=shape).astype(np.float32), requires_grad=True)

    leaves = {"x": leaf(0, (2, 784, 384)), "w": leaf(1, (384, 1536)), "b": leaf(2, (1536,)),
              "gam": leaf(3, (1536,)), "bet": leaf(4, (1536,)),
              "q": leaf(5, (64, 4, 49, 32)), "k": leaf(6, (64, 4, 32, 49))}
    x, w, b, gam, bet, q, k = leaves.values()
    probe_h = rng.child(7).normal(size=(2, 784, 1536)).astype(np.float32)
    probe_a = rng.child(8).normal(size=(64, 4, 49, 49)).astype(np.float32)
    with Tape() as tape:
        lin = linear(x, w, b)
        ln = layer_norm(lin, gam, bet)
        h = gelu(ln)
        scores = matmul(q, k)
        a = softmax(scores, axis=-1)
        loss = add(tensor_sum(mul(h, Tensor(probe_h))), tensor_sum(mul(a, Tensor(probe_a))))
    tape.backward(loss)
    kernel = [lin.data.tobytes(), scores.data.tobytes(), h.data.tobytes(), a.data.tobytes()]
    kernel += [t.grad.tobytes() for t in leaves.values()]

    z, y, s = lin.data, ln.data, scores.data
    cdf = 0.5 * (1.0 + erf(y / math.sqrt(2.0)))
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    g_y = probe_h * (cdf + y * (np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)))
    centered = z - z.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv
    gg = g_y * gam.data
    g_z = inv * (gg - gg.mean(axis=-1, keepdims=True)
                 - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    g_s = (probe_a - (probe_a * soft).sum(axis=-1, keepdims=True)) * soft
    g2 = g_z.reshape(-1, 1536)
    x2 = x.data.reshape(-1, 384)
    halves = np.concatenate([x2[:784] @ w.data, x2[784:] @ w.data])
    reference = [(halves + b.data).reshape(z.shape).tobytes(), np.matmul(q.data, k.data).tobytes(),
                 (y * cdf).tobytes(), soft.tobytes(),
                 (g2 @ w.data.T).reshape(x.shape).tobytes(),
                 (x2.T @ g2).tobytes(), g2.sum(axis=0).tobytes(),
                 (g_y * xhat).reshape(-1, 1536).sum(axis=0).tobytes(),
                 g_y.reshape(-1, 1536).sum(axis=0).tobytes(),
                 np.matmul(g_s, np.swapaxes(k.data, -1, -2)).tobytes(),
                 np.matmul(np.swapaxes(q.data, -1, -2), g_s).tobytes()]

    opt = AdamW(leaves)
    opt.step(1e-2)
    kernel += [t.data.tobytes() for t in leaves.values()]
    kernel += [opt.m[n].tobytes() + opt.v[n].tobytes() for n in leaves]
    return kernel, reference


class TestHelperThread:
    """Large work splits across the helper thread; results never depend on it."""

    def test_paper_shaped_ops_identical_on_and_off(self, helper_pool, monkeypatch):
        on, ref = paper_shaped_ops()
        # forward and backward of linear, matmul, layer_norm, gelu and softmax,
        # and AdamW on x and w
        assert helper_pool.tasks >= 12
        monkeypatch.setattr(tensor_mod, "_POOL", False)
        off, _ = paper_shaped_ops()
        assert on == off
        assert on[:11] == ref

    def test_halves_cut_does_not_depend_on_helper(self, helper_pool, monkeypatch):
        cuts = []
        for pool in (helper_pool, False):
            monkeypatch.setattr(tensor_mod, "_POOL", pool)
            for size in (tensor_mod._SPLIT_MIN, tensor_mod._SPLIT_MIN - 1):
                calls = []
                tensor_mod._halves(7, size, lambda lo, hi: calls.append((lo, hi)))
                cuts.append(sorted(calls))
        assert cuts == [[(0, 3), (3, 7)], [(0, 7)]] * 2
        assert helper_pool.tasks == 1

    def test_adamw_halves_match_whole_update(self, helper_pool, monkeypatch):
        rng = Rng(52)
        shapes = {"w": (1536, 384), "t": (3, 700, 300), "b": (1536,), "s": ()}
        init = {n: rng.child(i, 0).normal(size=sh).astype(np.float32)
                for i, (n, sh) in enumerate(shapes.items())}
        grads = [{n: rng.child(i, t).normal(size=sh).astype(np.float32)
                  for i, (n, sh) in enumerate(shapes.items())} for t in (1, 2)]
        results = []
        for pool in (helper_pool, False):
            monkeypatch.setattr(tensor_mod, "_POOL", pool)
            params = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
            opt = AdamW(params)
            for lr, step_grads in zip((1e-2, 5e-3), grads):
                for n, p in params.items():
                    p.grad = step_grads[n].copy()
                opt.step(lr)
            results.append([params[n].data.tobytes() + opt.m[n].tobytes() + opt.v[n].tobytes()
                            for n in shapes])
        assert helper_pool.tasks == 4  # w and t, two steps
        assert results[0] == results[1]

    def test_tiny_model_stays_on_caller(self, monkeypatch):
        class NoSplits:
            def submit(self, *args, **kwargs):
                raise AssertionError("tiny-config work was split")

        monkeypatch.setattr(tensor_mod, "_POOL", NoSplits())
        cfg = tiny_config()
        images = Rng(53).child(0).normal(size=(8, 64, 64, 3)).astype(np.float32)
        model = MIMPretrainModel(cfg, Rng(54), mask_spec=MaskSpec(16, 0.5))
        masks = [generate_mask(model.mask_spec, 64, Rng(55).child(j)) for j in range(8)]
        pretrain_step(Tensor(images), masks, model, AdamW(dict(model.named_params())), 1e-3)
        clf = SwinClassifier(cfg, Rng(56), with_mask_token=True)
        token_mask = np.stack([m.token_mask() for m in masks])
        with Tape() as tape:
            logits = clf(Tensor(images), token_mask=token_mask, mask_token=clf.mask_token,
                         training=True)
            loss = soft_cross_entropy(logits, np.eye(10, dtype=np.float32)[:8])
        tape.backward(loss)
        AdamW(dict(clf.named_params())).step(1e-3)

    @pytest.mark.parametrize("raising", ["helper", "caller"])
    def test_exception_in_either_half_propagates(self, helper_pool, raising):
        finished = threading.Event()

        def slow():
            time.sleep(0.05)
            finished.set()
            return 1

        def boom():
            raise ValueError("boom")

        f, g = (boom, slow) if raising == "helper" else (slow, boom)
        with pytest.raises(ValueError, match="boom"):
            tensor_mod._pair(f, g, tensor_mod._SPLIT_MIN)
        assert finished.is_set()  # the caller waited for the helper first

        def half(lo, hi):
            if (lo == 0) == (raising == "helper"):
                raise ValueError("boom")
            slow()

        finished.clear()
        with pytest.raises(ValueError, match="boom"):
            tensor_mod._halves(4, tensor_mod._SPLIT_MIN, half)
        assert finished.is_set()

    def test_helper_tasks_see_callers_errstate(self, helper_pool):
        caller = threading.get_ident()
        seen = []

        def overflow():
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return np.full(4, 3e38, np.float32) * np.float32(10.0)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                tensor_mod._pair(overflow, lambda: None, tensor_mod._SPLIT_MIN)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = tensor_mod._pair(overflow, lambda: None, tensor_mod._SPLIT_MIN)
        assert np.isinf(out).all()
        assert [over for _, over in seen] == ["raise", "ignore"]
        assert all(ident != caller for ident, _ in seen)

    def test_small_work_runs_on_caller(self, helper_pool):
        idents = []
        tensor_mod._halves(8, tensor_mod._SPLIT_MIN - 1, lambda lo, hi: idents.append(
            (threading.get_ident(), lo, hi)))
        assert idents == [(threading.get_ident(), 0, 8)]
        assert helper_pool.tasks == 0

    def test_forked_child_makes_its_own_helper(self, helper_pool):
        tensor_mod._pair(lambda: None, lambda: None, tensor_mod._SPLIT_MIN)  # thread started
        pid = os.fork()
        if pid == 0:  # child: the parent's helper thread does not exist here
            code = 1
            try:
                x = Tensor(np.ones(tensor_mod._SPLIT_MIN, np.float32))
                code = 0 if np.array_equal(gelu(x).data, gelu(x).data) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("a split op in a forked child did not finish")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_no_helper_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_POOL", None)
        monkeypatch.setattr(tensor_mod.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(tensor_mod, "_one_malloc_arena", lambda: pytest.fail("arena capped"))
        assert tensor_mod._helper(tensor_mod._SPLIT_MIN) is None
        assert tensor_mod._POOL is False

    def test_making_the_helper_caps_malloc_arenas_once(self, monkeypatch):
        tensor_mod._one_malloc_arena()  # glibc, or a no-op where there is no mallopt
        capped = []
        monkeypatch.setattr(tensor_mod, "_POOL", None)
        monkeypatch.setattr(tensor_mod.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tensor_mod, "_one_malloc_arena", lambda: capped.append(True))
        pool = tensor_mod._helper(tensor_mod._SPLIT_MIN)
        try:
            assert tensor_mod._helper(tensor_mod._SPLIT_MIN) is pool
        finally:
            pool.shutdown()
        assert capped == [True]


class TestDebugChecks:
    def test_nonfinite_raises(self):
        x = t64([1.0, -1.0], grad=False)
        with pytest.raises(FloatingPointError):
            mul(x, float("inf"))


KERNELS = {
    "matmul": lambda x, aux: tensor_sum(matmul(x, aux["b"])),
    "linear": lambda x, aux: tensor_sum(linear(x, aux["w"], aux["bias"])),
    "linear_weight": lambda w, aux: tensor_sum(linear(aux["x"], w, aux["bias"])),
    "softmax": lambda x, aux: tensor_sum(mul(softmax(x, axis=-1), aux["probe"])),
    "log_softmax": lambda x, aux: tensor_sum(mul(log_softmax(x, axis=-1), aux["probe"])),
    "layer_norm": lambda x, aux: tensor_sum(mul(layer_norm(x, aux["g"], aux["be"]), aux["probe"])),
    "layer_norm_gamma": lambda g, aux: tensor_sum(mul(layer_norm(aux["x4"], g, aux["be"]), aux["probe"])),
    "gelu": lambda x, aux: tensor_sum(mul(gelu(x), aux["probe"])),
    "abs": lambda x, aux: tensor_sum(mul(absolute(x), aux["probe"])),
    "mean": lambda x, aux: tensor_mean(mul(x, aux["probe"])),
    "mul_add": lambda x, aux: tensor_sum(mul(add(x, aux["c"]), x)),
    "transpose_reshape": lambda x, aux: tensor_sum(mul(reshape(transpose(x, (1, 0)), (2, 8)), aux["probe28"])),
    "cyclic_shift": lambda x, aux: tensor_sum(mul(cyclic_shift(reshape(x, (4, 4, 1)), 1, 2), aux["hwc"])),
    "pad_crop": lambda x, aux: tensor_sum(mul(crop_hw(pad_hw(reshape(x, (4, 4, 1)), 2, 1), 5, 5), aux["pc"])),
    "gather": lambda x, aux: tensor_sum(mul(gather_rows(x, aux["idx"]), aux["gath"])),
    "select": lambda x, aux: tensor_sum(mul(select_first_axis(reshape(x, (2, 8)), 1), aux["probe8"])),
    "where": lambda x, aux: tensor_sum(mul(where_const(aux["mask"], aux["vec"], x), aux["probe"])),
    "window_round_trip": lambda x, aux: tensor_sum(
        mul(window_reverse(window_partition(reshape(x, (4, 4, 1)), 2), 2, 4, 4), aux["hwc"])
    ),
    "take_tokens": lambda x, aux: tensor_sum(
        mul(take_tokens(reshape(x, (4, 4, 1)), *window_index(4, 4, 3, 1), (-1, 9, 1)), aux["win"])
    ),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_grad_check(name, seed):
    """Every differentiable kernel vs central differences, 3 random inputs."""
    rng = Rng(100 + seed)
    x = t64(rng.child(0).normal(size=(4, 4)))
    aux = {
        "b": t64(rng.child(1).normal(size=(4, 4)), grad=False),
        "w": t64(rng.child(2).normal(size=(4, 3)), grad=False),
        "bias": t64(rng.child(3).normal(size=3), grad=False),
        "x": t64(rng.child(4).normal(size=(5, 4)), grad=False),
        "x4": t64(rng.child(5).normal(size=(4, 4)), grad=False),
        "g": t64(rng.child(6).normal(size=4), grad=False),
        "be": t64(rng.child(7).normal(size=4), grad=False),
        "probe": t64(rng.child(8).normal(size=(4, 4)), grad=False),
        "probe28": t64(rng.child(9).normal(size=(2, 8)), grad=False),
        "probe8": t64(rng.child(10).normal(size=8), grad=False),
        "hwc": t64(rng.child(11).normal(size=(4, 4, 1)), grad=False),
        "pc": t64(rng.child(12).normal(size=(5, 5, 1)), grad=False),
        "c": t64(rng.child(13).normal(size=(4, 4)), grad=False),
        "idx": np.array([0, 2, 1, 2]),
        "gath": t64(rng.child(14).normal(size=(4, 4)), grad=False),
        "mask": rng.child(15).uniform(size=(4, 4)) > 0.5,
        "vec": t64(rng.child(16).normal(size=(4, 4))),
        "win": t64(rng.child(19).normal(size=(4, 9, 1)), grad=False),
    }
    if name == "linear_weight":
        x = t64(rng.child(17).normal(size=(4, 3)))
    if name == "layer_norm_gamma":
        x = t64(rng.child(18).normal(size=4))
    err = grad_check(lambda v: KERNELS[name](v, aux), x)
    assert err < 1e-4, f"{name}: rel err {err}"


class TestGradCheckOracle:
    def test_sum_gradient_exact(self):
        x = t64(Rng(11).child(0).normal(size=(3, 3)))
        assert grad_check(tensor_sum, x) < 1e-9

    def test_softmax_conservation(self):
        x = t64(Rng(11).child(1).normal(size=(2, 5)))
        err = grad_check(lambda v: tensor_sum(softmax(v, axis=-1)), x)
        assert err < 1e-8

    def test_requires_float64(self):
        with pytest.raises(TypeError):
            grad_check(tensor_sum, Tensor(np.ones(3, np.float32), requires_grad=True))

    @pytest.mark.parametrize("grad,offset", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)])
    def test_non_finite_gradient_fails(self, grad, offset):
        """A non-finite analytic (grad) or numeric (offset) gradient fails any tolerance."""
        def broken_sum(x):
            out = Tensor(np.asarray(x.data.sum() + offset), requires_grad=True)
            tensor_mod._record(out, lambda g: x.accumulate_grad(np.full_like(x.data, grad)))
            return out

        x = t64(Rng(11).child(2).normal(size=(2, 3)))
        assert not grad_check(broken_sum, x) < 1e-4
