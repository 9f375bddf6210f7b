import functools
import gc
import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

import swinmim
import swinmim.swin as swin_mod
import swinmim.tensor as tensor_mod
from conftest import tiny_config
from swinmim.mim import MaskSpec, MIMPretrainModel, generate_mask, pretrain_step
from swinmim.rng import Rng
from swinmim.swin import SwinBlock, SwinClassifier, WindowAttention
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


def rational_erf(z):
    """The rational that `_erf` evaluates, as numpy expressions over the
    whole array: clamp, Horner in x^2, x P / Q, clamp."""
    p_coef, q_coef = ([z.dtype.type(c) for c in cs]
                      for cs in (tensor_mod._ERF_P, tensor_mod._ERF_Q))
    x = np.clip(z, -4.0, 4.0)
    x2 = x * x
    p = functools.reduce(lambda acc, c: acc * x2 + c, p_coef[1:], p_coef[0])
    q = functools.reduce(lambda acc, c: acc * x2 + c, q_coef[1:], q_coef[0])
    return np.clip(x * p / q, -1.0, 1.0)


class TestMatmul:
    def test_identity(self):
        m = t64([[[3.0, -1.0], [2.5, 7.0]]], grad=False)
        eye = t64(np.eye(2)[None], grad=False)
        assert np.array_equal(matmul(eye, m).numpy(), m.numpy())

    def test_hand_product(self):
        a = t64([[[1.0, 2.0], [3.0, 4.0]]], grad=False)
        b = t64([[[5.0], [6.0]]], grad=False)
        assert matmul(a, b).numpy().tolist() == [[[17.0], [39.0]]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.ones((1, 2, 3))), t64(np.ones((1, 2, 3))))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3), (3, 2)), ((2, 2, 3), (1, 3, 2)),
                                                 ((2, 2, 3), (3, 2)), ((1, 2, 2, 3), (2, 3, 2))])
    def test_needs_equal_leading_dims(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="equal leading dims"):
            matmul(t64(np.ones(a_shape)), t64(np.ones(b_shape)))

    def test_dtype_mismatch(self):
        a = Tensor(np.ones((1, 2, 2), np.float32))
        b = Tensor(np.ones((1, 2, 2), np.float64))
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = Rng(0)
        a = t64(rng.child(0).normal(size=(1, 3, 4)))
        b = t64(rng.child(1).normal(size=(1, 4, 2)), grad=False)
        with Tape() as tape:
            y = tensor_sum(matmul(a, b))
        tape.backward(y)
        expected = np.ones((3, 2)) @ b.numpy()[0].T
        assert np.allclose(a.grad[0], expected, rtol=1e-12)
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
        out = softmax(t64([[4.2]], grad=False))
        assert out.numpy().tolist() == [[1.0]]

    def test_equal_logits(self):
        out = softmax(t64([1.0, 1.0, 1.0, 1.0], grad=False))
        assert np.allclose(out.numpy(), 0.25)

    def test_hand_values(self):
        out = softmax(t64([0.0, math.log(3.0)], grad=False))
        assert np.allclose(out.numpy(), [0.25, 0.75], atol=1e-12)

    def test_slices_sum_to_one(self):
        x = t64(Rng(2).child(0).normal(std=5.0, size=(4, 7)), grad=False)
        out = softmax(x).numpy()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_large_logits_stable(self):
        out = softmax(t64([1000.0, 1000.0], grad=False)).numpy()
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


class TestErf:
    """`_erf`, the rational GELU's cdf is made with, against math.erf."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-7), (np.float64, 1e-7)])
    def test_max_abs_error(self, dtype, tol):
        z = np.linspace(-6.0, 6.0, 1_200_001).astype(dtype)
        exact = np.array([math.erf(v) for v in z.tolist()])
        assert np.abs(tensor_mod._erf(z) - exact).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd(self, dtype):
        z = np.linspace(0.0, 6.0, 100_001).astype(dtype)
        assert np.array_equal(tensor_mod._erf(-z), -tensor_mod._erf(z))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bounded_and_one_from_the_clamp(self, dtype):
        z = np.linspace(-40.0, 40.0, 200_001).astype(dtype)
        assert np.abs(tensor_mod._erf(z)).max() <= 1.0
        edge = np.array([4.0, 4.5, 30.0, 1e30, np.inf], dtype)
        assert np.all(tensor_mod._erf(edge) == 1.0) and np.all(tensor_mod._erf(-edge) == -1.0)


class TestGeluBlocks:
    """GELU runs block by block; its output, remake and input gradient are
    bitwise one whole-array numpy expression of the same formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, (1 << 17) - 1, 1 << 17, 3 * (1 << 17) + 17])
    def test_blocks_match_whole_array(self, size, dtype):
        assert tensor_mod._GELU_BLOCK == 1 << 17
        rng = Rng(52)
        x = Tensor((3.0 * rng.child(0).normal(size=size)).astype(dtype), requires_grad=True)
        probe = rng.child(1).normal(size=size).astype(dtype)
        with Tape() as tape:
            y = gelu(x)
        remade = y.remake()
        tape.backward(y, probe.copy())
        z = x.data
        cdf = 0.5 * (1.0 + rational_erf(z / math.sqrt(2.0)))
        dx = probe * (cdf + z * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)))
        assert y.data.tobytes() == (z * cdf).tobytes()
        assert remade.tobytes() == y.data.tobytes()
        assert x.grad.tobytes() == dx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, (1 << 17) - 1, 1 << 17, 3 * (1 << 17) + 17])
    def test_rule_without_remake_keeps_the_input_alone(self, size, dtype):
        """The rule keeps only x. When nothing remade the output (as when
        fc2 is frozen) it makes Phi itself, and its dx is still bitwise the
        whole-array formula; a tape-free forward gives the same bytes."""
        rng = Rng(53)
        x = Tensor((3.0 * rng.child(0).normal(size=size)).astype(dtype), requires_grad=True)
        probe = rng.child(1).normal(size=size).astype(dtype)
        with Tape() as tape:
            y = gelu(x)
        kept = inspect.getclosurevars(tape._records[-1][1]).nonlocals.values()
        arrays = [v for v in kept if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is x.data
        tape.backward(y, probe.copy())
        z = x.data
        cdf = 0.5 * (1.0 + rational_erf(z / math.sqrt(2.0)))
        dx = probe * (cdf + z * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)))
        assert x.grad.tobytes() == dx.tobytes()
        assert gelu(Tensor(z)).data.tobytes() == y.data.tobytes() == (z * cdf).tobytes()


def test_imports_and_steps_without_scipy():
    """swinmim imports, and takes one taped MIM step, where scipy cannot be
    imported."""
    script = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
import numpy as np
import swinmim
import swinmim.cli
from swinmim.mim import MaskSpec, MIMPretrainModel, generate_mask, pretrain_step
from swinmim.rng import Rng
from swinmim.swin import SwinConfig
from swinmim.tensor import Tensor
from swinmim.train import AdamW

config = SwinConfig(img_size=64, embed_dim=16, depths=(2, 2, 2, 2), heads=(2, 2, 4, 4),
                    window_size=4)
model = MIMPretrainModel(config, Rng(0), mask_spec=MaskSpec(16, 0.5))
images = Tensor(Rng(1).child(0).uniform(-1, 1, size=(2, 64, 64, 3)).astype(np.float32))
masks = [generate_mask(model.mask_spec, 64, Rng(2).child(j)) for j in range(2)]
loss = pretrain_step(images, masks, model, AdamW(dict(model.named_params())), lr=1e-3)
assert np.isfinite(loss), loss
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
print("stepped")
"""
    src = os.path.dirname(os.path.dirname(swinmim.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.split() == ["stepped"], proc.stderr


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
            x = t64(rng.child(0).normal(size=(1, 4, 4)))
            w = t64(rng.child(1).normal(size=(1, 4, 4)))
            with Tape() as tape:
                y = tensor_sum(softmax(matmul(x, w)))
            tape.backward(y)
            return y.numpy().copy(), x.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2)
        assert np.array_equal(g1, g2)

    def test_tape_is_per_thread(self):
        x = t64([1.0, 2.0])
        done = []
        with Tape() as tape:
            worker = threading.Thread(target=lambda: done.append(mul(x, x)))
            worker.start()
            worker.join()
            assert len(tape) == 0  # the other thread has no active tape
            with Tape() as inner:
                worker = threading.Thread(target=lambda: done.append(mul(x, x)))
                worker.start()
                worker.join()
            assert len(inner) == 0
            mul(x, x)
        assert len(tape) == 1 and len(done) == 2
        assert tensor_mod._THREAD.tape is None

    def test_mean_grad_stays_float32(self, monkeypatch):
        # a numpy integer count would make a float64 gradient under numpy 2's promotion;
        # the two hand-overs are the loss's ones and the rule's dx, both to cells
        handed = []
        accumulate = tensor_mod._Node.accumulate_grad

        def spy(node, g):
            handed.append(np.asarray(g).dtype)
            accumulate(node, g)

        monkeypatch.setattr(tensor_mod._Node, "accumulate_grad", spy)
        x = Tensor(np.ones((2, 3, 3, 4), np.float32), requires_grad=True)
        with Tape() as tape:
            y = tensor_mean(x, axis=(1, 2))
        tape.backward(y)
        assert handed == [np.float32, np.float32]
        assert x.grad.dtype == np.float32 and np.all(x.grad == np.float32(1 / 9))


class TestTapeMemoryContract:
    """Backward releases the tape as it runs and hands fresh arrays over
    as grads, without letting two tensors share a grad buffer."""

    def test_tape_released_and_only_leaves_keep_grad(self):
        rng = Rng(31)
        x = t64(rng.child(0).normal(size=(1, 4, 3)))
        w = t64(rng.child(1).normal(size=(1, 4, 5)))
        with Tape() as tape:
            xt = transpose(x, (0, 2, 1))
            h = matmul(xt, w)
            s = softmax(h)
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

    def test_block_forward_frees_what_no_rule_reads(self, monkeypatch):
        """A taped shifted-window block keeps only what its rules read: by
        the end of the forward, reference counting alone has freed the qkv
        output, the residual sums, the reverse token gather and the inputs
        of all four linears, which their rules remake from layer norm's
        xhat, the softmax probabilities and v, and GELU's input, while those
        live. Holding every output, as a tape of outputs would, changes no
        gradient byte."""
        def owner(t):  # the array that owns t's bytes
            return weakref.ref(t.data if t.data.base is None else t.data.base)

        def run(hold_outputs):
            rng = Rng(35)
            block = SwinBlock(16, 2, 4, 2, 4.0, rng.child(0))
            x = Tensor(rng.child(1).normal(size=(2, 8, 8, 16)).astype(np.float32),
                       requires_grad=True)
            probe = Tensor(rng.child(2).normal(size=x.shape).astype(np.float32))
            calls = {}  # op -> [(owners of its tensor args, owner of its output)]
            held = []
            with monkeypatch.context() as m:
                for name in ("linear", "gelu", "softmax", "take_tokens", "add"):
                    def spy(*args, op=getattr(swin_mod, name), name=name):
                        out = op(*args)
                        calls.setdefault(name, []).append(
                            ([owner(a) for a in args if isinstance(a, Tensor)], owner(out)))
                        return out
                    m.setattr(swin_mod, name, spy)
                if hold_outputs:
                    record = Tape.record
                    m.setattr(Tape, "record",
                              lambda tape, out, fn: (held.append(out), record(tape, out, fn)))
                gc.disable()
                try:
                    with Tape() as tape:
                        loss = tensor_sum(mul(block(x), probe))
                    if not hold_outputs:
                        alive = lambda ref: ref() is not None
                        saved = [(fn.__qualname__.split(".")[0], var, weakref.ref(value))
                                 for _, fn in tape._records
                                 for var, value in inspect.getclosurevars(fn).nonlocals.items()
                                 if var in ("xhat", "cdf")]
                        assert (len(calls["add"]), len(calls["take_tokens"])) == (4, 2)
                        assert not alive(calls["linear"][0][1])  # qkv output
                        assert not any(alive(out) for _, out in calls["add"][-2:])  # residuals
                        assert not alive(calls["take_tokens"][1][1])  # the reverse gather
                        qkv, proj, fc1, fc2 = (args[0] for args, _ in calls["linear"])
                        assert not any(alive(a) for a in (qkv, proj, fc1, fc2))
                        assert alive(calls["gelu"][0][0][0]) and alive(calls["softmax"][0][1])
                        assert [(op, var) for op, var, _ in saved] == [
                            ("layer_norm", "xhat"), ("layer_norm", "xhat")]
                        assert all(alive(ref) for _, _, ref in saved)
                finally:
                    gc.enable()
            tape.backward(loss)
            return [x.grad.tobytes()] + [p.grad.tobytes() for _, p in block.named_params("b")]

        assert run(hold_outputs=False) == run(hold_outputs=True)

    def test_taped_block_keeps_exact_bytes(self):
        """The float arrays that a taped shifted, padded block's rules keep,
        each owning buffer counted once and parameters left out, are exactly
        both layer norms' xhat and inv, GELU's input, the softmax
        probabilities, q, k transposed, v and q's 0-d scale: every linear's
        input is remade, and GELU keeps no Phi."""
        def kept_buffers(tape):  # owning buffers reachable from the rules' closures
            owners, seen, todo = {}, set(), [fn for _, fn in tape._records]
            while todo:
                v = todo.pop()
                if id(v) in seen:
                    continue
                seen.add(id(v))
                if isinstance(v, np.ndarray):
                    while isinstance(v.base, np.ndarray):
                        v = v.base
                    owners[id(v)] = v
                elif isinstance(v, (list, tuple)):
                    todo.extend(v)
                elif inspect.isfunction(v):  # remake and sums closures too
                    todo.extend(inspect.getclosurevars(v).nonlocals.values())
            return owners.values()

        rng = Rng(42)
        dim, heads, window, hidden = 16, 2, 4, 64
        block = SwinBlock(dim, heads, window, 2, hidden / dim, rng.child(0))
        x = Tensor(rng.child(1).normal(size=(2, 6, 6, dim)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            block(x)
        params = {id(p.data) for _, p in block.named_params("b")}
        kept = [a for a in kept_buffers(tape)  # integer arrays: the cached layout maps
                if np.issubdtype(a.dtype, np.floating) and id(a) not in params]
        tokens = 2 * 6 * 6
        windows = 2 * (8 // window) ** 2  # the 6 x 6 map pads to 8 x 8
        n, dk = window * window, dim // heads
        elements = (2 * (tokens * dim + tokens)  # norm1 and norm2: xhat and inv
                    + tokens * hidden  # GELU's input
                    + windows * heads * n * n  # softmax probabilities
                    + 3 * windows * heads * n * dk  # q, k transposed, v
                    + 1)  # q's scale
        assert sum(a.nbytes for a in kept) == 4 * elements
        assert len(kept) == 10

    def test_attention_forward_frees_transposed_qkv(self, monkeypatch):
        """q, k and v are copies of their slots of the transposed qkv array
        [3, bw, h, n, dk], so the v that the second matmul reads does not
        keep that whole array alive past a taped forward."""
        rng = Rng(36)
        attn = WindowAttention(dim=16, num_heads=2, window=4, rng=rng.child(0))
        x = Tensor(rng.child(1).normal(size=(8, 16, 16)).astype(np.float32), requires_grad=True)
        transposed = []

        def spy(t, axes, op=swin_mod.transpose):
            out = op(t, axes)
            if len(axes) == 5:
                transposed.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(swin_mod, "transpose", spy)
        gc.disable()
        try:
            with Tape() as tape:
                loss = tensor_sum(attn(x))
            assert len(transposed) == 1
            assert transposed[0]() is None
        finally:
            gc.enable()
        tape.backward(loss)
        assert x.grad is not None


class TestRemake:
    """Layer norm, GELU, a matmul whose rule keeps both operands, and a token
    gather, transpose or reshape of such an output give their taped outputs
    a `remake` that a linear keeps instead of its input: the same bytes,
    made again from what the producing rule keeps anyway."""

    @staticmethod
    def _taped_outputs(dtype):
        """(producer, output, its rule, its parameters' arrays) of each op
        that sets remake, on a 5 x 5 map whose shifted 2 x 2 windows pad it
        with zero rows."""
        rng = Rng(37)
        x = Tensor(rng.child(0).normal(size=(2, 5, 5, 6)).astype(dtype), requires_grad=True)
        gamma, beta = (Tensor(rng.child(i).normal(size=6).astype(dtype), requires_grad=True)
                       for i in (1, 2))
        index, inverse = window_index(5, 5, 2, 1)
        assert (index < 0).any()
        outputs = []
        with Tape() as tape:
            def taped(name, out, params=()):
                outputs.append((name, out, tape._records[-1][1], params))
                return out

            norm = taped("layer_norm", layer_norm(x, gamma, beta), (gamma.data, beta.data))
            taped("gelu", gelu(x))
            taped("take_tokens", take_tokens(norm, index, inverse, (-1, 4, 6)))
        return outputs

    @staticmethod
    def _chained_outputs(dtype):
        """(producer, output, its rule, ()) of attn @ v and of the transpose
        and reshape that make proj's input of it, as WindowAttention does."""
        rng = Rng(40)
        attn = Tensor(rng.child(0).uniform(size=(3, 2, 4, 4)).astype(dtype), requires_grad=True)
        v = Tensor(rng.child(1).normal(size=(3, 2, 4, 5)).astype(dtype), requires_grad=True)
        outputs = []
        with Tape() as tape:
            def taped(name, out):
                outputs.append((name, out, tape._records[-1][1], ()))
                return out

            out = taped("matmul", matmul(attn, v))
            out = taped("transpose", transpose(out, (0, 2, 1, 3)))
            taped("reshape", reshape(out, (3, 4, 10)))
        return outputs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_remake_is_bitwise_the_forward(self, dtype):
        outputs = self._taped_outputs(dtype)
        assert [name for name, *_ in outputs] == ["layer_norm", "gelu", "take_tokens"]
        for name, out, _, _ in outputs:
            made = out.remake()
            assert (made.shape, made.dtype) == (out.shape, out.dtype), name
            assert made.tobytes() == out.data.tobytes(), name
            assert made is not out.data and not np.shares_memory(made, out.data), name

    def test_remake_holds_only_what_the_rule_holds(self):
        """Every array a remake closure holds is one its producer's rule
        holds, or a parameter's; a gather's, transpose's or reshape's remake
        holds its input's; GELU's also holds the one-slot cell, shared with
        its rule, that hands Phi over."""
        outputs = self._taped_outputs(np.float32) + self._chained_outputs(np.float32)
        made = {name: out for name, out, _, _ in outputs}
        sources = {"take_tokens": "layer_norm", "transpose": "matmul", "reshape": "transpose"}
        for name, out, rule, params in outputs:
            kept = list(inspect.getclosurevars(rule).nonlocals.values())
            held = [v for v in kept if isinstance(v, np.ndarray)] + list(params)
            for var, value in inspect.getclosurevars(out.remake).nonlocals.items():
                if isinstance(value, np.ndarray):
                    assert any(value is h for h in held), (name, var)
                elif callable(value):
                    assert value is made[sources[name]].remake, (name, var)
                elif isinstance(value, list):
                    assert name == "gelu" and value == [None] and any(value is k for k in kept)
                else:
                    assert isinstance(value, (int, tuple)), (name, var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chained_remakes_are_bitwise_the_forward(self, dtype):
        outputs = self._chained_outputs(dtype)
        assert [name for name, *_ in outputs] == ["matmul", "transpose", "reshape"]
        for name, out, _, _ in outputs:
            made = out.remake()
            assert (made.shape, made.dtype) == (out.shape, out.dtype), name
            assert made.tobytes() == out.data.tobytes(), name
            assert not np.shares_memory(made, out.data), name

    def test_matmul_transpose_reshape_set_no_remake_untaped(self):
        """Off the tape none of them sets remake; nor does a matmul whose rule
        keeps one operand, nor a transpose or reshape of an input without one."""
        rng = Rng(41)
        a, b = (Tensor(rng.child(i).normal(size=(2, 3, 3)), requires_grad=True) for i in (0, 1))
        const = Tensor(b.data)
        for out in (matmul(a, b), transpose(matmul(a, b), (0, 2, 1)),
                    reshape(matmul(a, b), (2, 9))):
            assert out.remake is None
        with Tape():
            kept_one = matmul(a, const)
            assert kept_one.remake is None
            assert transpose(kept_one, (0, 2, 1)).remake is None
            assert reshape(kept_one, (2, 9)).remake is None
            assert matmul(a, b).remake is not None

    def test_tape_free_forward_sets_no_remake(self, monkeypatch):
        inputs = []

        def spy(x, *args, op=swin_mod.linear):
            inputs.append(x.remake)
            return op(x, *args)

        monkeypatch.setattr(swin_mod, "linear", spy)
        rng = Rng(38)
        block = SwinBlock(16, 2, 4, 2, 4.0, rng.child(0))
        x = Tensor(rng.child(1).normal(size=(2, 6, 6, 16)).astype(np.float32), requires_grad=True)
        y = block(x)
        assert inputs == [None] * 4 and y.remake is None
        assert layer_norm(x, block.norm1.gamma, block.norm1.beta).remake is None
        assert gelu(x).remake is None

    def test_block_grads_match_keeping_linear_inputs(self, monkeypatch):
        """A shifted, padded block's gradients are bitwise those of a run in
        which every linear keeps its input, as when nothing sets remake."""
        def run(keep_inputs):
            remade = []

            def spy(x, *args, op=swin_mod.linear):
                remade.append(x.remake is not None)
                if keep_inputs:
                    x.remake = None
                return op(x, *args)

            rng = Rng(39)
            block = SwinBlock(16, 2, 4, 2, 4.0, rng.child(0))
            x = Tensor(rng.child(1).normal(size=(2, 6, 6, 16)).astype(np.float32),
                       requires_grad=True)
            probe = Tensor(rng.child(2).normal(size=x.shape).astype(np.float32))
            with monkeypatch.context() as m:
                m.setattr(swin_mod, "linear", spy)
                with Tape() as tape:
                    loss = tensor_sum(mul(block(x), probe))
            assert remade == [True] * 4  # qkv, proj, fc1, fc2
            tape.backward(loss)
            return [x.grad.tobytes()] + [p.grad.tobytes() for _, p in block.named_params("b")]

        assert run(keep_inputs=False) == run(keep_inputs=True)


def paper_shaped_ops():
    """Linear, layer_norm, gelu, matmul and softmax on arrays above the split
    threshold. Returns (kernel bytes, reference bytes): the outputs and
    grads the kernels give, and those of the same arithmetic as numpy
    expressions over whole arrays, each GEMM one call."""
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
        a = softmax(scores)
        loss = add(tensor_sum(mul(h, Tensor(probe_h))), tensor_sum(mul(a, Tensor(probe_a))))
    tape.backward(loss)
    kernel = [lin.data.tobytes(), scores.data.tobytes(), h.data.tobytes(), a.data.tobytes()]
    kernel += [t.grad.tobytes() for t in leaves.values()]

    z, y, s = lin.data, ln.data, scores.data
    cdf = 0.5 * (1.0 + rational_erf(y / math.sqrt(2.0)))
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
    reference = [(x2 @ w.data + b.data).reshape(z.shape).tobytes(),
                 np.matmul(q.data, k.data).tobytes(), (y * cdf).tobytes(), soft.tobytes(),
                 (g2 @ w.data.T).reshape(x.shape).tobytes(),
                 (x2.T @ g2).tobytes(), g2.sum(axis=0).tobytes(),
                 (g_y * xhat).reshape(-1, 1536).sum(axis=0).tobytes(),
                 g_y.reshape(-1, 1536).sum(axis=0).tobytes(),
                 np.matmul(g_s, np.swapaxes(k.data, -1, -2)).tobytes(),
                 np.matmul(np.swapaxes(q.data, -1, -2), g_s).tobytes()]
    return kernel, reference


class TestHelperThread:
    """The helper thread runs the first half of a batch_halves call and
    nothing else; every op makes the calls a whole array makes."""

    def test_paper_shaped_ops_match_numpy(self, helper_pool):
        kernel, reference = paper_shaped_ops()
        assert helper_pool.tasks == 0  # no op hands work to the helper
        assert kernel == reference

    @pytest.mark.parametrize("op", ["gelu", "softmax", "layer_norm", "matmul", "linear"])
    def test_row_local_ops_make_one_call(self, helper_pool, op):
        """Neither the forward nor the backward of these ops hands anything
        to the helper at any size: a batch pass splits once, at the batch
        (batch_halves)."""
        rng = Rng(58)
        rows = tensor_mod._SPLIT_MIN // 256

        def leaf(i, shape):
            return Tensor(rng.child(i).normal(size=shape).astype(np.float32), requires_grad=True)

        x = leaf(0, (rows, 256))
        leaves = {"gelu": (x,), "softmax": (x,), "layer_norm": (x, leaf(1, (256,)), leaf(2, (256,))),
                  "matmul": (leaf(3, (128, 64, 32)), leaf(4, (128, 32, 64))),
                  "linear": (x, leaf(6, (256, 256)), leaf(7, (256,)))}[op]
        with Tape() as tape:
            y = {"gelu": gelu, "softmax": softmax, "layer_norm": layer_norm,
                 "matmul": matmul, "linear": linear}[op](*leaves)
            assert helper_pool.tasks == 0
            loss = tensor_sum(mul(y, Tensor(rng.child(5).normal(size=y.shape).astype(np.float32))))
        assert y.size == tensor_mod._SPLIT_MIN
        tape.backward(loss)
        assert all(t.grad is not None for t in leaves)
        assert helper_pool.tasks == 0

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
            tensor_mod._pair(f, g)
        assert finished.is_set()  # the caller waited for the helper first

    def test_helper_tasks_see_callers_errstate(self, helper_pool):
        caller = threading.get_ident()
        seen = []

        def overflow():
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return np.full(4, 3e38, np.float32) * np.float32(10.0)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                tensor_mod._pair(overflow, lambda: None)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = tensor_mod._pair(overflow, lambda: None)
        assert np.isinf(out).all()
        assert [over for _, over in seen] == ["raise", "ignore"]
        assert all(ident != caller for ident, _ in seen)

    def test_meet_pairs_posts_in_order_and_checks_shapes(self):
        """Posts pair in order whatever their row counts (an odd batch's
        halves differ by an item), but not across trailing dims."""
        meet = tensor_mod._Meet()
        w = Tensor(np.zeros(3, np.float32), requires_grad=True)

        def sums(rows):
            return [(w, rows.sum(axis=0))]

        meet.post(1, (np.full((2, 3), 2.0, np.float32),), sums)
        meet.post(0, (np.ones((1, 3), np.float32),), sums)
        assert meet.unmatched() == 0
        meet.run_ready()
        assert np.array_equal(w.grad, np.full(3, 5.0, np.float32))
        meet.post(0, (np.ones((2, 3), np.float32),), sums)
        assert meet.unmatched() == 1
        with pytest.raises(ShapeError, match="batch halves posted"):
            meet.post(1, (np.ones((2, 4), np.float32),), sums)

    def test_meet_under_thread_switches_loses_no_sum(self):
        """Four rendezvous at once, each between two posting threads that
        switch often: every sum runs once, on both halves' rows in order."""
        posts, width = 60, 3
        rows = [[np.full((2, width), 10 * k + half, np.float32) for k in range(posts)]
                for half in (0, 1)]
        expected = [np.concatenate([rows[0][k], rows[1][k]]) * np.arange(1, 5)[:, None]
                    for k in range(posts)]
        errors = []

        def run_meet(meet, grads):
            def half(index):
                try:
                    try:
                        for k in range(posts):
                            if (k + index) % 7 == 0:
                                time.sleep(0.001)
                            meet.post(index, (rows[index][k],), lambda r, k=k: [
                                (grads[k], (r * np.arange(1, 5)[:, None]).sum(axis=0))])
                    finally:
                        meet.leave()
                    meet.run_ready(until_both_left=True)
                except Exception as e:  # a thread's exception would not fail the test
                    errors.append(e)
            return [threading.Thread(target=half, args=(i,)) for i in (0, 1)]

        meets = [(tensor_mod._Meet(), [Tensor(np.zeros(width, np.float32), requires_grad=True)
                                       for _ in range(posts)]) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [t for meet, grads in meets for t in run_meet(meet, grads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for meet, grads in meets:
            assert meet.unmatched() == 0
            for k, g in enumerate(grads):
                assert np.array_equal(g.grad, expected[k].sum(axis=0)), k

    def test_small_work_runs_on_caller(self, helper_pool):
        whole = tensor_mod.batch_halves(8, tensor_mod._SPLIT_MIN - 1, lambda lo, hi: (lo, hi))
        assert whole == (0, 8)
        assert helper_pool.tasks == 0

    def test_forked_child_makes_its_own_helper(self, helper_pool):
        tensor_mod._pair(lambda: None, lambda: None)  # thread started
        pid = os.fork()
        if pid == 0:  # child: the parent's helper thread does not exist here
            code = 1
            try:
                x = np.ones((2, 256), np.float32)
                name, y = tensor_mod._pair(lambda: threading.current_thread().name,
                                           lambda: x.sum(axis=1))
                code = 0 if ((y == 256.0).all() and tensor_mod._POOL is not helper_pool
                             and name.startswith("swinmim-helper")) else 1
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

    def test_making_the_helper_caps_malloc_arenas_once(self, monkeypatch):
        """One CPU gets a helper too, and making it caps the arenas once."""
        tensor_mod._steady_malloc()  # glibc, or a no-op where there is no mallopt
        capped = []
        monkeypatch.setattr(tensor_mod, "_POOL", None)
        monkeypatch.setattr(tensor_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(tensor_mod.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(tensor_mod, "_steady_malloc", lambda: capped.append(True))
        assert tensor_mod.batch_halves(8, tensor_mod._SPLIT_MIN - 1, lambda lo, hi: hi) == 8
        assert capped == [] and tensor_mod._POOL is None  # small work makes no helper
        pool = tensor_mod._helper()
        try:
            assert pool is not None
            assert tensor_mod._helper() is pool
        finally:
            pool.shutdown()
        assert capped == [True]


class TestDebugChecks:
    def test_nonfinite_raises(self):
        x = t64([1.0, -1.0], grad=False)
        with pytest.raises(FloatingPointError):
            mul(x, float("inf"))


KERNELS = {
    "matmul": lambda x, aux: tensor_sum(matmul(reshape(x, (1, 4, 4)), aux["b"])),
    "linear": lambda x, aux: tensor_sum(linear(x, aux["w"], aux["bias"])),
    "linear_weight": lambda w, aux: tensor_sum(linear(aux["x"], w, aux["bias"])),
    "softmax": lambda x, aux: tensor_sum(mul(softmax(x), aux["probe"])),
    "log_softmax": lambda x, aux: tensor_sum(mul(log_softmax(x), aux["probe"])),
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
        "b": t64(rng.child(1).normal(size=(1, 4, 4)), grad=False),
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
        err = grad_check(lambda v: tensor_sum(softmax(v)), x)
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
