import math

import numpy as np
import pytest

from conftest import tiny_config
from swinmim.mim import MaskSpec, MIMPretrainModel, generate_mask
from swinmim.rng import Rng
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
    tensor_mean,
    tensor_sum,
    transpose,
    reshape,
    where_const,
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
