"""Dense CPU tensors and tape-based reverse-mode differentiation.

A Tensor wraps a float32/float64 numpy array. Operations are plain
functions; when a Tape is active and an output requires grad, the op
appends a backward closure to the tape. `Tape.backward(loss)` replays the
closures in reverse recorded order, accumulating gradients into every
participating tensor with requires_grad set.

Training runs in float32; gradient verification (grad_check) runs the same
graph in float64 against central finite differences.

Large kernels run as two halves (`_pair`, `_halves`), the first on one
helper thread when this process may use two CPUs. Large work is always cut
into the same two calls, helper or not, so every element, row and GEMM is
computed by the same call either way and results do not depend on it.
A tape-free batched pass can instead run as two half-batch passes
(`batch_halves`), one per thread, that make the same kernel calls.
"""

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


# ---------------------------------------------------------------------------
# the helper thread
# ---------------------------------------------------------------------------

# Work whose largest array holds fewer elements than this runs as one call on
# the calling thread; larger work always runs as the same two calls, helper or
# not: forward linear by row halves, a same-batch matmul by halves of its
# leading axis (the windows), GELU / softmax / layer norm forward and backward
# by element or row halves, AdamW by row halves, and linear and matmul
# backward as their two GEMMs. One hand-off to the helper (submit, run a
# no-op under the caller's errstate, wait for it) measured about 50 us on a
# 2-core x86_64 host (Xeon, numpy 2.4.6), and the cheapest chains split here
# (softmax, layer norm) cost about 6 ns per element, so a split pays for its
# hand-off from about 2**14 elements. The threshold sits at the first power
# of two above every tensor of configs/tiny.json (the largest is the MIM
# head's 128 x 3072 weight, 393,216 elements), so desk-scale runs keep their
# per-op cost; at 2**19 the half moved off the caller is worth about thirty
# hand-offs.
_SPLIT_MIN = 1 << 19

# One helper thread, made on first use when this process may run on at least
# two CPUs; False when it may not. A task never submits another one. Kernel
# halves (`_pair`, `_halves`) call only numpy and scipy and write their
# results into arrays the caller allocated (disjoint slices, or a GEMM's
# out=). The first half of `batch_halves` runs a tape-free pass of this
# package: it makes Tensors and allocates. Making the pool caps glibc at one
# malloc arena, so the helper's arrays come from the caller's arena; an
# arena of the helper's own keeps its pages resident (pretrain-192 peak RSS
# 1185 MB uncapped, 1152 MB capped).
_POOL = None
_POOL_LOCK = threading.Lock()
_M_ARENA_MAX = -8  # glibc mallopt parameter


def _one_malloc_arena():
    """Cap glibc at one malloc arena; a no-op where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _forget_pool():
    global _POOL
    _POOL = None  # a forked child has no helper thread; it makes its own


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _helper(size):
    """The helper pool when work of this size is worth splitting, else None."""
    global _POOL
    if size < _SPLIT_MIN:
        return None
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count() or 1)
                if cpus >= 2:
                    _one_malloc_arena()
                    _POOL = ThreadPoolExecutor(1, thread_name_prefix="swinmim-helper")
                else:
                    _POOL = False
    return _POOL or None


class _Half(threading.local):
    index = None  # 0 or 1 while this thread runs that half of a batch_halves call


_HALF = _Half()


def _in_errstate(err, fn):
    with np.errstate(**err):
        return fn()


def _pair(f, g, size):
    """(f(), g()), with f on the helper thread when both are given, the
    largest array holds at least _SPLIT_MIN elements and this thread runs no
    half of batch_halves. A task given as None is skipped and yields None.
    The caller waits for f even when g raises."""
    pool = _helper(size) if f is not None and g is not None and _HALF.index is None else None
    if pool is None:
        return (None if f is None else f()), (None if g is None else g())
    future = pool.submit(_in_errstate, np.geterr(), f)
    try:
        b = g()
    except BaseException:
        wait((future,))
        raise
    return future.result(), b


def _halves(n, size, fn):
    """fn(0, n) for work below _SPLIT_MIN; from there on always the two calls
    fn(0, n // 2) and fn(n // 2, n), the first on the helper thread when there
    is one. fn writes only rows [lo, hi). Within a half of batch_halves it is
    always the one call fn(0, n).

    The cut depends only on n and size, never on the helper, so a GEMM cut by
    rows makes the same BLAS calls with the helper on and off. (A BLAS may
    block a GEMM differently by its row count, so one call over all rows and
    two calls over halves need not give the same bytes.)"""
    if n < 2 or size < _SPLIT_MIN or _HALF.index is not None:
        fn(0, n)
    else:
        _pair(lambda: fn(0, n // 2), lambda: fn(n // 2, n), size)


def _run_half(index, err, fn):
    _HALF.index = index
    try:
        return _in_errstate(err, fn)
    finally:
        _HALF.index = None


def batch_halves(n, size, fn):
    """(fn(0, n // 2), fn(n // 2, n)), the first on the helper thread, for a
    tape-free pass over an even batch of n items whose largest array holds at
    least _SPLIT_MIN elements; None when there is no helper or any of that
    does not hold, and the caller then runs the whole batch itself.

    fn(lo, hi) runs the pass on items [lo, hi); the rows of every kernel's
    arrays must come in whole items. Each half then computes every value as
    the whole batch would: the whole batch's cut at n // 2 falls on the batch
    halves, kernels below _SPLIT_MIN compute each row (a batched matmul each
    window's GEMM) on its own, and a forward linear that the whole batch
    makes as one GEMM is made at the whole batch's height (see linear). The
    caller waits for the helper's half even when its own half raises."""
    if n % 2 or size < _SPLIT_MIN or _ACTIVE_TAPE is not None or _HALF.index is not None:
        return None
    pool = _helper(size)
    if pool is None:
        return None
    err = np.geterr()
    future = pool.submit(_run_half, 0, err, lambda: fn(0, n // 2))
    try:
        second = _run_half(1, err, lambda: fn(n // 2, n))
    except BaseException:
        wait((future,))
        raise
    return future.result(), second


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
    xf = x.data.reshape(-1)
    cdf = np.empty_like(xf)
    y = np.empty_like(xf)

    def forward(lo, hi):  # cdf = 0.5 * (1 + erf(x / sqrt 2)); y = x * cdf
        c = cdf[lo:hi]
        np.divide(xf[lo:hi], math.sqrt(2.0), out=c)
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(xf[lo:hi], c, out=y[lo:hi])

    _halves(xf.size, xf.size, forward)
    out = Tensor(_finish(y.reshape(x.data.shape)), requires_grad=x.requires_grad)

    def backward(g):
        gf = g.reshape(-1)
        dx = np.empty_like(xf)

        def grad(lo, hi):  # g * (cdf + x * exp(-x * x / 2) / sqrt(2 pi))
            xs, t = xf[lo:hi], dx[lo:hi]
            np.multiply(xs, -0.5, out=t)
            t *= xs
            np.exp(t, out=t)
            t /= math.sqrt(2.0 * math.pi)
            t *= xs
            t += cdf[lo:hi]
            t *= gf[lo:hi]

        _halves(xf.size, xf.size, grad)
        x.accumulate_grad(dx.reshape(x.data.shape))

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
    ad, bd = a.data, b.data
    if ad.ndim >= 3 and ad.shape[:-2] == bd.shape[:-2]:  # numpy runs one GEMM per slice
        y = np.empty(ad.shape[:-1] + bd.shape[-1:], ad.dtype)
        _halves(len(ad), max(ad.size, bd.size, y.size),
                lambda lo, hi: np.matmul(ad[lo:hi], bd[lo:hi], out=y[lo:hi]))
    else:
        y = np.matmul(ad, bd)
    out = Tensor(_finish(y), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        ga = None
        if a.requires_grad:  # allocated here, filled by the helper (see _POOL)
            ga = np.empty(g.shape[:-1] + bd.shape[-2:-1], np.result_type(g, bd))
        _, gb = _pair(
            None if ga is None else (lambda: np.matmul(g, np.swapaxes(bd, -1, -2), out=ga)),
            (lambda: np.matmul(np.swapaxes(ad, -1, -2), g)) if b.requires_grad else None,
            max(ad.size, bd.size, g.size))
        if ga is not None:
            a.accumulate_grad(_unbroadcast(ga, ad.shape))
        if gb is not None:
            b.accumulate_grad(_unbroadcast(gb, bd.shape))

    _record(out, backward)
    return out


def linear(x, weight, bias=None):
    """Position-wise affine map along the last axis: x @ weight + bias."""
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight rows {d_in}")
    x2, w = x.data.reshape(-1, d_in), weight.data
    rows, half = len(x2), _HALF.index
    if half is not None and max(2 * x2.size, 2 * rows * d_out, w.size) < _SPLIT_MIN:
        # The whole batch makes one GEMM over both halves' rows here, and a BLAS
        # may give a row another value in a GEMM over fewer rows: make that
        # GEMM, with this half's rows in place and zero rows for the other's.
        xw = np.zeros((2 * rows, d_in), x2.dtype)
        xw[half * rows:(half + 1) * rows] = x2
        yw = np.empty((2 * rows, d_out), np.result_type(x2, w))
        np.matmul(xw, w, out=yw)
        y2 = yw[half * rows:(half + 1) * rows]
    else:
        y2 = np.empty((rows, d_out), np.result_type(x2, w))
        _halves(rows, max(x2.size, y2.size, w.size),
                lambda lo, hi: np.matmul(x2[lo:hi], w, out=y2[lo:hi]))
    if bias is not None:
        y2 += bias.data
    out_shape = x.shape[:-1] + (d_out,)
    requires = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    out = Tensor(_finish(y2.reshape(out_shape)), requires_grad=requires)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        gw = None
        if weight.requires_grad:  # allocated here, filled by the helper (see _POOL)
            gw = np.empty(w.shape, np.result_type(x2, g2))
        _, gx = _pair(None if gw is None else (lambda: np.matmul(x2.T, g2, out=gw)),
                      (lambda: g2 @ w.T) if x.requires_grad else None,
                      max(x2.size, g2.size, w.size))
        if gw is not None:
            weight.accumulate_grad(gw)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=0))
        if gx is not None:
            x.accumulate_grad(gx.reshape(x.data.shape))

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
    """Numerically stabilized softmax along the last axis; rows sum to 1."""
    if axis not in (-1, x.ndim - 1):
        raise ShapeError(f"softmax runs along the last axis, got axis {axis} of rank {x.ndim}")
    d = x.shape[-1]
    x2 = x.data.reshape(-1, d)
    s = np.empty_like(x2)

    def forward(lo, hi):  # exp(x - max) / sum(exp(x - max))
        xs, ss = x2[lo:hi], s[lo:hi]
        np.subtract(xs, xs.max(axis=-1, keepdims=True), out=ss)
        np.exp(ss, out=ss)
        ss /= ss.sum(axis=-1, keepdims=True)

    _halves(len(x2), x2.size, forward)
    out = Tensor(_finish(s.reshape(x.data.shape)), requires_grad=x.requires_grad)

    def backward(g):
        g2 = g.reshape(-1, d)
        dx = np.empty_like(s)

        def grad(lo, hi):  # (g - sum(g * s)) * s
            gs, ss, t = g2[lo:hi], s[lo:hi], dx[lo:hi]
            np.multiply(gs, ss, out=t)
            dot = t.sum(axis=-1, keepdims=True)
            np.subtract(gs, dot, out=t)
            t *= ss

        _halves(len(s), s.size, grad)
        x.accumulate_grad(dx.reshape(x.data.shape))

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
    x2 = x.data.reshape(-1, d)
    xhat = np.empty_like(x2)
    inv = np.empty((len(x2), 1), x2.dtype)
    y = np.empty_like(x2)
    gd, bd = gamma.data, beta.data

    def forward(lo, hi):  # xhat = (x - mean) / sqrt(var + eps); y = xhat * gamma + beta
        xs, xh, iv = x2[lo:hi], xhat[lo:hi], inv[lo:hi]
        np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=xh)
        var = (xh * xh).mean(axis=-1, keepdims=True)
        var += eps
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=iv)
        xh *= iv
        np.multiply(xh, gd, out=y[lo:hi])
        y[lo:hi] += bd

    _halves(len(x2), x2.size, forward)
    requires = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = Tensor(_finish(y.reshape(x.data.shape)), requires_grad=requires)

    def backward(g):
        g2 = g.reshape(-1, d)
        if gamma.requires_grad:
            gamma.accumulate_grad((g2 * xhat).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate_grad(g2.sum(axis=0))
        if x.requires_grad:
            dx = np.empty_like(xhat)

            def grad(lo, hi):  # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gamma
                xh, t = xhat[lo:hi], dx[lo:hi]
                gg = g2[lo:hi] * gd
                m1 = gg.mean(axis=-1, keepdims=True)
                m2 = (gg * xh).mean(axis=-1, keepdims=True)
                np.multiply(xh, m2, out=t)
                gg -= m1
                np.subtract(gg, t, out=t)
                t *= inv[lo:hi]

            _halves(len(xhat), xhat.size, grad)
            x.accumulate_grad(dx.reshape(x.data.shape))

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
    """x[index] along axis 0; backward adds g into that slot of x's grad.

    The first split of x makes one zero grad, so q/k/v splits of one array
    share a single buffer and 0 + g lands in each slot in backward order.
    """
    out = Tensor(np.ascontiguousarray(x.data[index]), requires_grad=x.requires_grad)

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros(x.data.shape, x.data.dtype)
        x.grad[index] += g

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


def take_tokens(x, index, inverse, shape):
    """Gather tokens of x, viewed as [L, len(inverse), C], along the token axis.

    Output token j of each of the L groups is input token index[j]; an entry
    of -1 yields a zero row. `inverse` maps each input token to its output
    position (-1: not gathered), so backward is the same gather of g at
    `inverse`. Both directions are pure copies. The result has `shape`.
    """
    c = x.shape[-1]
    if x.size % (len(inverse) * c):
        raise ShapeError(f"take_tokens: {x.shape} is not a stack of {len(inverse)}-token maps")
    out = Tensor(_take(x.data.reshape(-1, len(inverse), c), index).reshape(shape),
                 requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate_grad(_take(g.reshape(-1, len(index), c), inverse).reshape(x.data.shape))

    _record(out, backward)
    return out


def _take(a, index):
    """a[:, index] of an [L, N, C] array, with zero rows where index is -1."""
    out = np.take(a, index, axis=1)
    out[:, index < 0] = 0
    return out


def _token_maps(order, n_in):
    """(index, inverse) of the gather whose output token j is input token
    order.flat[j] (-1: a zero row), for maps of n_in input tokens."""
    index = np.asarray(order).reshape(-1)
    inverse = np.full(n_in, -1, index.dtype)
    kept = np.flatnonzero(index >= 0)
    inverse[index[kept]] = kept
    return index, inverse


@functools.lru_cache(maxsize=64)
def window_index(height, width, window, shift):
    """(index, inverse) of the shifted-window layout of one height x width map.

    The map is padded bottom/right to a multiple of `window` with zero
    tokens, rolled by (-shift, -shift) and cut into row-major windows of
    row-major tokens: take_tokens(x, index, inverse, (-1, M*M, C)) equals
    window_partition(cyclic_shift(pad_hw(x, ...), -shift, -shift), M), and
    take_tokens(windows, inverse, index, x.shape) undoes it. The maps are
    built once per argument tuple and shared, so they are read-only.
    """
    hp, wp = -(-height // window) * window, -(-width // window) * window
    grid = np.pad(np.arange(height * width).reshape(height, width),
                  ((0, hp - height), (0, wp - width)), constant_values=-1)
    grid = np.roll(grid, (-shift, -shift), axis=(0, 1))
    grid = grid.reshape(hp // window, window, wp // window, window).transpose(0, 2, 1, 3)
    maps = _token_maps(grid, height * width)
    for m in maps:
        m.flags.writeable = False
    return maps


def _regroup(x, edit):
    """take_tokens moving the tokens of each [H, W] plane of x: [..., H, W, C]
    as edit() moves the entries of an [H, W] array of token numbers; an entry
    of -1 becomes a zero token."""
    h, w = x.shape[-3], x.shape[-2]
    grid = edit(np.arange(h * w).reshape(h, w))
    return take_tokens(x, *_token_maps(grid, h * w), x.shape[:-3] + grid.shape + x.shape[-1:])


def cyclic_shift(x, dy, dx):
    """Toroidal roll of the two spatial axes of [..., H, W, C].

    Positive dy rolls downward, positive dx rolls rightward;
    cyclic_shift(cyclic_shift(x, dy, dx), -dy, -dx) is the identity.
    """
    if x.ndim < 3:
        raise ShapeError(f"cyclic_shift needs [..., H, W, C], got {x.shape}")
    return _regroup(x, lambda p: np.roll(p, (dy, dx), axis=(0, 1)))


def pad_hw(x, pad_bottom, pad_right):
    """Zero-pad the bottom/right of the spatial axes of [..., H, W, C]."""
    if pad_bottom == 0 and pad_right == 0:
        return x
    return _regroup(x, lambda p: np.pad(p, ((0, pad_bottom), (0, pad_right)), constant_values=-1))


def crop_hw(x, height, width):
    """Keep the top-left height x width region of [..., H, W, C]."""
    if height == x.shape[-3] and width == x.shape[-2]:
        return x
    return _regroup(x, lambda p: p[:height, :width])


def window_partition(x, window):
    """Regroup [H, W, C] (or [B, H, W, C]) into [num_windows, M*M, C] tiles.

    Windows are taken in row-major order over the H/M x W/M grid; tokens
    within each window are row-major too. For batched input the output is
    [B * num_windows, M*M, C] with the batch outermost.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"window_partition expects rank 3 or 4, got {x.shape}")
    h, w, c = x.shape[-3:]
    if h % window or w % window:
        raise ShapeError(f"window {window} does not divide extents {h}x{w}")
    return take_tokens(x, *window_index(h, w, window, 0), (-1, window * window, c))


def window_reverse(windows, window, height, width, batch=None):
    """Inverse of window_partition; bitwise round-trip."""
    index, inverse = window_index(height, width, window, 0)
    lead = () if batch is None else (batch,)
    return take_tokens(windows, inverse, index, lead + (height, width, windows.shape[-1]))


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
    absolutely, or inf once an analytic or numeric value is not finite.
    Checks every coordinate unless `num_samples` caps it.
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
        if not (math.isfinite(a) and math.isfinite(numeric)):
            return math.inf
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst
