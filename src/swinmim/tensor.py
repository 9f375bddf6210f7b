"""Dense CPU tensors and tape-based reverse-mode differentiation.

A Tensor wraps a float32/float64 numpy array. Operations are plain
functions; when a Tape is active and an output requires grad, the op
appends a backward closure to the tape. `Tape.backward(loss)` replays the
closures in reverse recorded order, accumulating gradients into every
participating tensor with requires_grad set.

Training runs in float32; gradient verification (grad_check) runs the same
graph in float64 against central finite differences.
"""

import math

import numpy as np
from scipy.special import erf

_ALLOWED_DTYPES = (np.float32, np.float64)

# Set by set_debug_checks; when on, every kernel asserts finite outputs.
_CHECK_FINITE = False


def set_debug_checks(enabled):
    """Toggle finite-value assertions after every kernel (slow; for tests)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


class ShapeError(ValueError):
    """Raised when tensor extents violate an operation's preconditions."""


class Tensor:
    """Row-major dense array with optional gradient participation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32 if dtype is None else dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self):
        return self.data

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- gradients ---------------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        """Add g into .grad; the first g is adopted without a copy.

        Backward rules hand over arrays that nothing else holds, so a
        C-contiguous, writeable g becomes .grad as is. Views that must not
        be written through (read-only broadcasts, strided slices) are
        copied, which also keeps every .grad C-contiguous. A rule that
        passes one array to two inputs copies it for the second.
        """
        g = np.asarray(g, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ShapeError(f"grad shape {g.shape} != tensor shape {self.data.shape}")
        if self.grad is not None:
            self.grad += g
        elif g.flags.c_contiguous and g.flags.writeable:
            self.grad = g
        else:
            self.grad = g.copy()

    # -- operator sugar (delegates to the functional kernels) ---------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of executed ops; single-use reverse replay.

    Use as a context manager around the forward pass, then call
    `backward(loss)`. Ops executed while no tape is active are not recorded
    (inference mode). Backward releases each record, with the arrays its
    closure saved and its output's .grad, as soon as its rule has run, so
    afterwards the tape is empty and only leaves keep a .grad.
    """

    def __init__(self):
        self._records = []  # (output Tensor, backward closure)
        self._used = False
        self._prev = None

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def __len__(self):
        return len(self._records)

    def record(self, out, backward_fn):
        self._records.append((out, backward_fn))

    def backward(self, root, seed=None):
        """Replay backward rules in reverse order, filling leaf .grad fields.

        `root` is usually the scalar loss; its gradient is seeded with ones
        (or with a copy of `seed` if given). A tape may be replayed only
        once.
        """
        if self._used:
            raise RuntimeError("tape already replayed; record a fresh tape")
        self._used = True
        if seed is None:
            seed = np.ones_like(root.data)
        else:
            seed = np.array(seed, dtype=root.data.dtype)
        root.accumulate_grad(seed)
        records = self._records
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)
                out.grad = None


_ACTIVE_TAPE = None


def _record(out, backward_fn):
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE.record(out, backward_fn)


def _finish(arr):
    if _CHECK_FINITE and not np.isfinite(arr).all():
        raise FloatingPointError("non-finite values produced by a kernel")
    return arr


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data + b.data), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a.accumulate_grad(ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            b.accumulate_grad(gb.copy() if gb is ga else gb)

    _record(out, backward)
    return out


def sub(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data - b.data), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    _record(out, backward)
    return out


def mul(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data * b.data), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    _record(out, backward)
    return out


def absolute(x):
    out = Tensor(_finish(np.abs(x.data)), requires_grad=x.requires_grad)
    sign = np.sign(x.data)

    def backward(g):
        x.accumulate_grad(g * sign)

    _record(out, backward)
    return out


def gelu(x):
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    out = Tensor(_finish(x.data * cdf), requires_grad=x.requires_grad)

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        x.accumulate_grad(g * (cdf + x.data * pdf))

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# contractions and reductions
# ---------------------------------------------------------------------------


def matmul(a, b):
    """Matrix product; leading batch dims broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"matmul dtypes differ: {a.data.dtype} vs {b.data.dtype}")
    out = Tensor(_finish(np.matmul(a.data, b.data)), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.data.shape))

    _record(out, backward)
    return out


def linear(x, weight, bias=None):
    """Position-wise affine map along the last axis: x @ weight + bias."""
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight rows {d_in}")
    x2 = x.data.reshape(-1, d_in)
    y2 = x2 @ weight.data
    if bias is not None:
        y2 += bias.data
    out_shape = x.shape[:-1] + (d_out,)
    requires = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    out = Tensor(_finish(y2.reshape(out_shape)), requires_grad=requires)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        if weight.requires_grad:
            weight.accumulate_grad(x2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad((g2 @ weight.data.T).reshape(x.data.shape))

    _record(out, backward)
    return out


def tensor_sum(x, axis=None, keepdims=False):
    out = Tensor(_finish(x.data.sum(axis=axis, keepdims=keepdims)), requires_grad=x.requires_grad)

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        x.accumulate_grad(np.broadcast_to(g, x.data.shape))

    _record(out, backward)
    return out


def tensor_mean(x, axis=None, keepdims=False):
    n = x.data.size if axis is None else np.prod(
        [x.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    out = Tensor(_finish(x.data.mean(axis=axis, keepdims=keepdims)), requires_grad=x.requires_grad)

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        x.accumulate_grad(np.broadcast_to(g, x.data.shape) / n)

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# normalization and attention math
# ---------------------------------------------------------------------------


def softmax(x, axis=-1):
    """Numerically stabilized softmax; slices along `axis` sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(_finish(s), requires_grad=x.requires_grad)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        x.accumulate_grad((g - dot) * s)

    _record(out, backward)
    return out


def log_softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor(_finish(shifted - log_z), requires_grad=x.requires_grad)
    s = np.exp(shifted - log_z)

    def backward(g):
        x.accumulate_grad(g - s * g.sum(axis=axis, keepdims=True))

    _record(out, backward)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Standardize the last axis to mean 0 / variance 1, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    requires = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = Tensor(_finish(xhat * gamma.data + beta.data), requires_grad=requires)

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gg - m1 - xhat * m2))

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# structural ops (all exact, all invertible)
# ---------------------------------------------------------------------------


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate_grad(g.reshape(x.data.shape))

    _record(out, backward)
    return out


def transpose(x, axes):
    axes = tuple(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)), requires_grad=x.requires_grad)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        x.accumulate_grad(g.transpose(inverse))

    _record(out, backward)
    return out


def select_first_axis(x, index):
    """x[index] along axis 0; backward scatters into a zero tensor."""
    out = Tensor(np.ascontiguousarray(x.data[index]), requires_grad=x.requires_grad)

    def backward(g):
        full = np.zeros_like(x.data)
        full[index] = g
        x.accumulate_grad(full)

    _record(out, backward)
    return out


def gather_rows(table, index):
    """Row lookup `table[index]` for a 1-D integer index array."""
    index = np.asarray(index)
    out = Tensor(np.ascontiguousarray(table.data[index]), requires_grad=table.requires_grad)

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, index, g)
        table.accumulate_grad(full)

    _record(out, backward)
    return out


def where_const(mask, value, x):
    """Replace positions where `mask` is true with (broadcast) `value`.

    `mask` is a constant boolean array; `value` and `x` are tensors. Kept
    positions are copied bitwise from `x`.
    """
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, value.data, x.data)
    out = Tensor(_finish(out_data), requires_grad=x.requires_grad or value.requires_grad)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(_unbroadcast(np.where(mask, 0.0, g), x.data.shape))
        if value.requires_grad:
            value.accumulate_grad(_unbroadcast(np.where(mask, g, 0.0), value.data.shape))

    _record(out, backward)
    return out


def cyclic_shift(x, dy, dx):
    """Toroidal roll of the two spatial axes of [..., H, W, C].

    Positive dy rolls downward, positive dx rolls rightward;
    cyclic_shift(cyclic_shift(x, dy, dx), -dy, -dx) is the identity.
    """
    if x.ndim < 3:
        raise ShapeError(f"cyclic_shift needs [..., H, W, C], got {x.shape}")
    out = Tensor(np.roll(x.data, (dy, dx), axis=(-3, -2)), requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate_grad(np.roll(g, (-dy, -dx), axis=(-3, -2)))

    _record(out, backward)
    return out


def pad_hw(x, pad_bottom, pad_right):
    """Zero-pad the bottom/right of the spatial axes of [..., H, W, C]."""
    if pad_bottom == 0 and pad_right == 0:
        return x
    pads = [(0, 0)] * x.ndim
    pads[-3] = (0, pad_bottom)
    pads[-2] = (0, pad_right)
    out = Tensor(np.pad(x.data, pads), requires_grad=x.requires_grad)
    h, w = x.shape[-3], x.shape[-2]

    def backward(g):
        x.accumulate_grad(g[..., :h, :w, :])

    _record(out, backward)
    return out


def crop_hw(x, height, width):
    """Keep the top-left height x width region of [..., H, W, C]."""
    if height == x.shape[-3] and width == x.shape[-2]:
        return x
    out = Tensor(np.ascontiguousarray(x.data[..., :height, :width, :]), requires_grad=x.requires_grad)

    def backward(g):
        full = np.zeros_like(x.data)
        full[..., :height, :width, :] = g
        x.accumulate_grad(full)

    _record(out, backward)
    return out


def window_partition(x, window):
    """Regroup [H, W, C] (or [B, H, W, C]) into [num_windows, M*M, C] tiles.

    Windows are taken in row-major order over the H/M x W/M grid; tokens
    within each window are row-major too. For batched input the output is
    [B * num_windows, M*M, C] with the batch outermost.
    """
    if x.ndim == 3:
        h, w, c = x.shape
        batch = None
    elif x.ndim == 4:
        batch, h, w, c = x.shape
    else:
        raise ShapeError(f"window_partition expects rank 3 or 4, got {x.shape}")
    if h % window or w % window:
        raise ShapeError(f"window {window} does not divide extents {h}x{w}")
    nh, nw = h // window, w // window
    if batch is None:
        t = reshape(x, (nh, window, nw, window, c))
        t = transpose(t, (0, 2, 1, 3, 4))
        return reshape(t, (nh * nw, window * window, c))
    t = reshape(x, (batch, nh, window, nw, window, c))
    t = transpose(t, (0, 1, 3, 2, 4, 5))
    return reshape(t, (batch * nh * nw, window * window, c))


def window_reverse(windows, window, height, width, batch=None):
    """Inverse of window_partition; bitwise round-trip."""
    nh, nw = height // window, width // window
    c = windows.shape[-1]
    if batch is None:
        t = reshape(windows, (nh, nw, window, window, c))
        t = transpose(t, (0, 2, 1, 3, 4))
        return reshape(t, (height, width, c))
    t = reshape(windows, (batch, nh, nw, window, window, c))
    t = transpose(t, (0, 1, 3, 2, 4, 5))
    return reshape(t, (batch, height, width, c))


def drop_path(x, rate, rng, training):
    """Stochastic depth over the batch axis; identity when rate is 0."""
    if rate <= 0.0 or not training:
        return x
    keep = (rng.uniform(size=(x.shape[0],)) >= rate).astype(x.data.dtype) / (1.0 - rate)
    keep = keep.reshape((x.shape[0],) + (1,) * (x.ndim - 1))
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def grad_check(f, x, h=1e-5, num_samples=None, rng=None):
    """Compare tape gradients of scalar-valued f against central differences.

    Returns the maximum relative error over the checked coordinates of x,
    with the denominator floored at 1 so near-zero gradients are compared
    absolutely. Checks every coordinate unless `num_samples` caps it.
    """
    if x.data.dtype != np.float64:
        raise TypeError("grad_check requires float64 inputs")
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
    if y.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    tape.backward(y)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat_index = np.arange(x.data.size)
    if num_samples is not None and num_samples < x.data.size:
        if rng is None:
            raise ValueError("num_samples requires an rng to choose coordinates")
        flat_index = rng.permutation(x.data.size)[:num_samples]

    worst = 0.0
    flat = x.data.reshape(-1)
    for i in flat_index:
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst
