"""Dense CPU tensors and tape-based reverse-mode differentiation.

A Tensor wraps a float32/float64 numpy array and a small gradient cell
(`_Node`: shape, dtype, grad). Operations are plain functions; when a Tape
is active and an output requires grad, the op appends a backward rule to the
tape. A rule holds the cells of the tensors it sends gradients to and only
the arrays it reads, never a Tensor, so an output that no rule reads is freed
as soon as the forward drops it. A taped output of layer norm, GELU, or a
matmul whose rule keeps both operands carries `remake`, which makes it again
from the arrays its own rule keeps, and so does a token gather, transpose or
reshape of such an output. GELU keeps only its input: its remake hands the
Phi it makes to GELU's rule. A `linear` keeps its input's `remake` in place
of the input and remakes the input in backward, so every linear of a block
frees its input.
`Tape.backward(loss)` replays the rules in reverse recorded order,
accumulating gradients into every participating cell.

Training runs in float32; gradient verification (grad_check) runs the same
graph in float64 against central finite differences.

A large encoder pass over two or more items runs as two half-batch passes
(`batch_halves`), the first on one helper thread; that is the only work the
helper runs. Under a tape each half records on a tape of its own; their
backward passes run at the same time and meet for every gradient that sums
over the batch's rows, which is then made by one call over both halves' rows
(`_Meet`). A pass that stays whole runs on the calling thread alone. The
helper exists whatever the CPU count, and one CPU runs the same two halves
time-sliced, so every host makes the same calls and results do not depend on
the number of CPUs.
"""

import collections
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_ALLOWED_DTYPES = (np.float32, np.float64)

# Set by set_debug_checks; when on, every kernel asserts finite outputs.
_CHECK_FINITE = False


def set_debug_checks(enabled):
    """Toggle finite-value assertions after every kernel (slow; for tests)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


class ShapeError(ValueError):
    """Raised when tensor extents violate an operation's preconditions."""


class _Node:
    """The gradient cell of one Tensor: what a backward rule needs of it.

    Rules and tapes hold cells, not tensors, so a cell outlives its tensor's
    data whenever no rule reads that data.
    """

    __slots__ = ("shape", "dtype", "grad")

    def __init__(self, shape, dtype):
        self.shape = shape
        self.dtype = dtype
        self.grad = None

    def accumulate_grad(self, g):
        """Add g into .grad; the first g is adopted without a copy.

        Backward rules hand over arrays that nothing else holds, so a
        C-contiguous, writeable g becomes .grad as is. Views that must not
        be written through (read-only broadcasts, strided slices) are
        copied, which also keeps every .grad C-contiguous. A rule that
        passes one array to two inputs copies it for the second.
        """
        g = np.asarray(g, dtype=self.dtype)
        if g.shape != self.shape:
            raise ShapeError(f"grad shape {g.shape} != tensor shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif g.flags.c_contiguous and g.flags.writeable:
            self.grad = g
        else:
            self.grad = g.copy()


class Tensor:
    """Row-major dense array with optional gradient participation.

    `data` may be rebound only to an array of the same shape and dtype (as
    the checkpoint loaders do), which keeps its gradient cell consistent.
    `remake` is None, or, on an output that a tape recorded, a function of
    no arguments that returns an array bitwise equal to `data`, made from
    arrays that the producing op's rule keeps anyway (and its parameters):
    layer norm, GELU and a matmul that keeps both operands set it, and a
    token gather, transpose or reshape passes it on. `linear` keeps it in
    place of `data` for its weight gradient.
    """

    __slots__ = ("data", "requires_grad", "node", "remake")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32 if dtype is None else dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = _Node(arr.shape, arr.dtype)
        self.remake = None

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- gradients, kept in the cell --------------------------------------

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    def zero_grad(self):
        self.node.grad = None

    def accumulate_grad(self, g):
        """Add g into .grad (see _Node.accumulate_grad)."""
        self.node.accumulate_grad(g)


class Tape:
    """Ordered record of executed ops; single-use reverse replay.

    Use as a context manager around the forward pass, then call
    `backward(loss)`. A tape is active on the thread that entered it: ops
    executed while no tape is active on their thread are not recorded
    (inference mode). A record keeps its output's gradient cell and its
    rule, not the output: the output's data lives only while the forward
    or a rule holds it. Backward releases each record, with the arrays its
    rule saved and its output's .grad, as soon as its rule has run, so
    afterwards the tape is empty and only leaves keep a .grad.
    """

    def __init__(self):
        self._records = []  # (output's gradient cell, backward rule)
        self._used = False
        self._prev = None

    def __enter__(self):
        self._prev = _THREAD.tape
        _THREAD.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.tape = self._prev
        return False

    def __len__(self):
        return len(self._records)

    def record(self, out, backward_fn):
        self._records.append((out.node, backward_fn))

    def backward(self, root, grad=None):
        """Replay backward rules in reverse order, filling leaf .grad fields.

        `root` is a Tensor, usually the scalar loss, or a gradient cell; its
        gradient `grad` defaults to ones. A tape may be replayed only once.
        """
        if self._used:
            raise RuntimeError("tape already replayed; record a fresh tape")
        self._used = True
        root.accumulate_grad(np.ones(root.shape, root.dtype) if grad is None else grad)
        records = self._records
        while records:
            node, fn = records.pop()
            if node.grad is not None:
                fn(node.grad)
                node.grad = None


class _Thread(threading.local):
    tape = None  # the Tape this thread's ops record on
    half = None  # 0 or 1 while this thread runs that half of a batch_halves call
    meet = None  # that call's _Meet when it runs under a tape


_THREAD = _Thread()


def _taped(out):
    """Whether the op that made `out` records a backward rule."""
    return out.requires_grad and _THREAD.tape is not None


def _record(out, backward_fn):
    if _taped(out):
        _THREAD.tape.record(out, backward_fn)


def _finish(arr):
    if _CHECK_FINITE and not np.isfinite(arr).all():
        raise FloatingPointError("non-finite values produced by a kernel")
    return arr


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _cell(t):
    """t's gradient cell when t takes a gradient, else None."""
    return t.node if t.requires_grad else None


# ---------------------------------------------------------------------------
# the helper thread
# ---------------------------------------------------------------------------

# An encoder pass whose largest array holds fewer elements than this, or that
# has one item, runs whole on the calling thread; a larger one runs as its two
# batch halves (`batch_halves`), odd or even. The threshold sits
# at the first power of two above every tensor of configs/tiny.json (the
# largest is the MIM head's 128 x 3072 weight, 393,216 elements), so
# desk-scale runs never split.
_SPLIT_MIN = 1 << 19

# One helper thread, made on first use whatever the CPU count. Its only tasks
# are the first halves of `batch_halves`, each a pass of this package (and
# under a tape its backward) that makes Tensors and arrays; a task never
# submits another one. Making the pool caps glibc at one malloc arena, so the
# helper's arrays come from the caller's arena; an arena of the helper's own
# keeps its pages resident (pretrain-192 peak RSS 1185 MB uncapped, 1152 MB
# capped). It also fixes where that arena's memory lives. A split step
# allocates and frees hundreds of MB, and glibc's defaults (an mmap threshold
# that rises with each freed mapping, a heap top trimmed whenever enough of it
# is free) return a different share of it to the kernel each step depending on
# the order the two threads free their arrays: one finetune-224 process
# faulted in about 18k pages a step, the next about 180k (300-450 ms of system
# time a step). Arrays below 32 MiB (glibc's largest mmap threshold) now
# always come from the heap, and the heap is never trimmed, so its pages stay
# mapped from step to step (no page faults after the first few steps; peak
# RSS unchanged).
_POOL = None
_POOL_LOCK = threading.Lock()
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc mallopt parameters


def _steady_malloc():
    """Cap glibc at one malloc arena, serve arrays below 32 MiB from its
    heap and never trim it; a no-op where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, -1)  # -1: never trim


def _forget_pool():
    global _POOL
    _POOL = None  # a forked child has no helper thread; it makes its own


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _helper():
    """The helper pool, made on first use."""
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                _steady_malloc()
                _POOL = ThreadPoolExecutor(1, thread_name_prefix="swinmim-helper")
    return _POOL


def _in_errstate(err, fn):
    with np.errstate(**err):
        return fn()


def _pair(f, g):
    """(f(), g()), f on the helper thread under the caller's np.errstate and
    g on this one: the two halves of a batch_halves call. The caller waits
    for f even when g raises."""
    future = _helper().submit(_in_errstate, np.geterr(), f)
    try:
        b = g()
    except BaseException:
        wait((future,))
        raise
    return future.result(), b


class _Meet:
    """Where the backward passes of the two half tapes of a batch_halves call
    meet for the gradients that sum over the batch's rows.

    Both tapes record the same op sequence, so the k-th post of one half
    pairs with the k-th post of the other: the same trailing dims, rows of
    either count. A pair is ready once both are posted: its sums then run
    once, on both halves' rows concatenated (the whole batch's call), and
    the posted arrays go. Ready sums wait on a shared list, and a thread
    runs what is ready each time it posts, before it adds its own rows: the
    thread that completes a pair is the one that is behind, and made to run
    every sum it completes it would fall further behind.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._posted = ({}, {})  # per half: post number -> (rows, sums)
        self._counts = [0, 0]
        self._ready = collections.deque()  # ((rows of half 0, rows of half 1), sums)
        self._left = 0  # halves whose tape has finished or failed

    def post(self, half, rows, sums):
        self.run_ready()
        with self._cond:
            key = self._counts[half]
            self._counts[half] += 1
            other = self._posted[1 - half].pop(key, None)
            if other is None:
                self._posted[half][key] = (rows, sums)
                return
            theirs = other[0]
            if [(r.shape[1:], r.dtype) for r in rows] != [(r.shape[1:], r.dtype) for r in theirs]:
                raise ShapeError(f"batch halves posted rows {[r.shape for r in theirs]} and "
                                 f"{[r.shape for r in rows]} to sum {key}")
            self._ready.append(((rows, theirs) if half == 0 else (theirs, rows), sums))
            self._cond.notify()

    def run_ready(self, until_both_left=False):
        """Run ready sums until none is left; with `until_both_left`, wait for
        more until both halves have left."""
        while True:
            with self._cond:
                while until_both_left and not self._ready and self._left < 2:
                    self._cond.wait()
                if not self._ready:
                    return
                halves, sums = self._ready.popleft()
            whole = [np.concatenate(pair) for pair in zip(*halves)]
            del halves
            grads = sums(*whole)
            del whole
            with self._cond:
                for node, g in grads:
                    node.accumulate_grad(g)

    def leave(self):
        with self._cond:
            self._left += 1
            self._cond.notify_all()

    def unmatched(self):
        return sum(map(len, self._posted))


def _run_half(index, meet, fn, tape=None):
    """fn(), run as half `index` of a batch_halves call whose sums meet at
    `meet` and whose ops record on `tape` (None for a tape-free call)."""
    prev = _THREAD.tape
    _THREAD.half, _THREAD.meet, _THREAD.tape = index, meet, tape
    try:
        return fn()
    finally:
        _THREAD.half, _THREAD.meet, _THREAD.tape = None, None, prev


def batch_halves(n, size, fn):
    """The Tensor joining fn(0, n // 2) and fn(n // 2, n) along axis 0, the
    first run on the helper thread (_pair), for a pass over n >= 2 items
    whose largest array holds at least _SPLIT_MIN elements (an odd batch's
    second half has the extra item); when any of that does not hold or this
    thread already runs a half, fn(0, n), the whole batch on this thread.

    fn(lo, hi) runs the pass on items [lo, hi) and returns a Tensor; the rows
    of every kernel's arrays must come in whole items. The halves are the
    reference: each makes every kernel call at its own height, and a whole
    batch of the same n may differ from them where a BLAS blocks a GEMM by
    its row count. On one CPU the two threads run time-sliced.

    Under a tape each half records on a fresh tape of its own, and the join
    is one op on the caller's tape, which keeps the two tapes and the
    halves' gradient cells, not their outputs. Its backward gives each half
    its rows of the gradient and replays the two half tapes at the same
    time, half 0's on the helper thread, waiting for both even when one
    raises. A rule that sums a gradient over the batch's rows posts its rows
    (_batch_sums), so each such sum is still one call over the whole batch's
    rows (_Meet).
    """
    if n < 2 or size < _SPLIT_MIN or _THREAD.half is not None:
        return fn(0, n)
    taped = _THREAD.tape is not None
    tapes = (Tape(), Tape()) if taped else (None, None)
    meet = _Meet() if taped else None
    first, second = _pair(lambda: _run_half(0, meet, lambda: fn(0, n // 2), tapes[0]),
                          lambda: _run_half(1, meet, lambda: fn(n // 2, n), tapes[1]))
    out = Tensor(np.concatenate([first.data, second.data]),
                 requires_grad=first.requires_grad or second.requires_grad)
    rows, roots = len(first.data), (first.node, second.node)

    def backward(g):
        def replay(index, grad):
            try:
                tapes[index].backward(roots[index], grad)
            finally:
                meet.leave()
            meet.run_ready(until_both_left=True)

        _pair(lambda: _run_half(0, meet, lambda: replay(0, g[:rows])),
              lambda: _run_half(1, meet, lambda: replay(1, g[rows:])))
        if meet.unmatched():
            raise RuntimeError(f"batch halves posted {meet.unmatched()} sums the other "
                               "half did not: their tapes recorded different ops")

    _record(out, backward)
    return out


def _unbroadcast(g, shape):
    """Sum a gradient broadcast over leading axes back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _batch_sums(rows, sums):
    """Accumulate each (cell, gradient) pair of sums(*rows), gradients that
    sum the arrays `rows` over their rows.

    Within a half of a taped batch_halves call, the rows are posted instead
    (_Meet): sums then runs once on both halves' rows, the whole batch's
    call."""
    if _THREAD.meet is not None:
        _THREAD.meet.post(_THREAD.half, rows, sums)
        return
    for node, g in sums(*rows):
        node.accumulate_grad(g)


def _grad_to(node, g, copy=False):
    """Accumulate g into a gradient cell, summed over the leading axes that
    its tensor was broadcast along. Returns whether the cell keeps g itself
    (adopts it, or posts it until the other batch half's rows arrive); with
    `copy`, set when another cell keeps g, this one keeps a copy instead."""
    if g.ndim > len(node.shape):
        keeps = _THREAD.meet is not None
        _batch_sums((g.copy() if copy and keeps else g,),
                     lambda g: [(node, _unbroadcast(g, node.shape))])
        return keeps
    node.accumulate_grad(g.copy() if copy else g)
    return True


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data + b.data), requires_grad=a.requires_grad or b.requires_grad)
    an, bn = _cell(a), _cell(b)

    def backward(g):
        kept = an is not None and _grad_to(an, g)
        if bn is not None:
            _grad_to(bn, g, copy=kept)

    _record(out, backward)
    return out


def sub(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data - b.data), requires_grad=a.requires_grad or b.requires_grad)
    an, bn = _cell(a), _cell(b)

    def backward(g):
        if an is not None:
            _grad_to(an, g)
        if bn is not None:
            _grad_to(bn, -g)

    _record(out, backward)
    return out


def mul(a, b):
    b = _as_tensor(b, a)
    out = Tensor(_finish(a.data * b.data), requires_grad=a.requires_grad or b.requires_grad)
    an, bn = _cell(a), _cell(b)
    ad = a.data if bn is not None else None  # b's gradient reads a, and a's reads b
    bd = b.data if an is not None else None

    def backward(g):
        if an is not None:
            _grad_to(an, g * bd)
        if bn is not None:
            _grad_to(bn, g * ad)

    _record(out, backward)
    return out


def absolute(x):
    out = Tensor(_finish(np.abs(x.data)), requires_grad=x.requires_grad)
    if not _taped(out):
        return out
    sign, xn = np.sign(x.data), x.node

    def backward(g):
        xn.accumulate_grad(g * sign)

    _record(out, backward)
    return out


# GELU runs block by block over its flattened arrays, so a block's erf
# temporaries stay in cache. The size was measured: both batch halves run GELU
# at once, and each numpy call takes the GIL between its loops, so small
# blocks convoy. On a 2 vCPU KVM Xeon, one half's stage-0 pretrain-192 GELU
# forward (2 x 2304 x 384 float32) took 16 ms alone at 2**14 elements but
# 52 ms while the other half ran one too; at 2**17, 18 ms alone and 18-20 ms
# together; at 2**18 and above the temporaries leave the cache (24-27 ms).
_GELU_BLOCK = 1 << 17

# erf(x) for |x| <= 4 as x P(x^2) / Q(x^2), the float32 rational of XLA and
# Eigen; beyond |x| = 4, float32 erf is +-1. Highest powers first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_ERF_COEFFS = {np.dtype(t): (tuple(map(t, _ERF_P)), tuple(map(t, _ERF_Q))) for t in _ALLOWED_DTYPES}


def _erf(z, out=None):
    """erf(z) in z's dtype, written into `out` (which may be z) when given.

    Odd, exactly +-1 at and beyond |z| = 4, and within 5e-7 of the exact
    erf in float32 (1e-7 in float64).
    """
    p_coef, q_coef = _ERF_COEFFS[z.dtype]
    x = np.clip(z, -4.0, 4.0)
    x2 = x * x
    p = x2 * p_coef[0]
    p += p_coef[1]
    for c in p_coef[2:]:
        p *= x2
        p += c
    p *= x
    q = np.multiply(x2, q_coef[0], out=x)
    q += q_coef[1]
    for c in q_coef[2:]:
        q *= x2
        q += c
    out = np.divide(p, q, out=p if out is None else out)
    return np.clip(out, -1.0, 1.0, out=out)  # the rational passes 1 near the clamp


def _gelu_blocks(n):
    return (slice(i, i + _GELU_BLOCK) for i in range(0, n, _GELU_BLOCK))


def _cdf(xb, out):
    """Phi(xb) = 0.5 * (1 + erf(xb / sqrt 2)), written into `out`."""
    c = np.divide(xb, math.sqrt(2.0), out=out)
    _erf(c, out=c)
    c += 1.0
    c *= 0.5
    return c


def _whole_cdf(xd):
    """Phi of every element of xd, block by block, as one array."""
    cdf = np.empty(xd.shape, xd.dtype)
    x1, c1 = xd.reshape(-1), cdf.reshape(-1)
    for s in _gelu_blocks(x1.size):
        _cdf(x1[s], c1[s])
    return cdf


def gelu(x):
    """Gaussian error linear unit in its erf form, x * Phi(x), Phi made with `_erf`.

    Only the input is kept for backward. The forward makes Phi a block at a
    time in one reused scratch block; a taped output's remake makes Phi once as a
    whole array and hands it to the rule, which turns it into the input
    gradient in place (the rule makes Phi itself when nothing remade the
    output).
    """
    xd = x.data
    y = np.empty(xd.shape, xd.dtype)
    x1, y1 = xd.reshape(-1), y.reshape(-1)
    scratch = np.empty(min(x1.size, _GELU_BLOCK), xd.dtype)
    for s in _gelu_blocks(x1.size):
        xb = x1[s]
        np.multiply(xb, _cdf(xb, scratch[:xb.size]), out=y1[s])
    out = Tensor(_finish(y), requires_grad=x.requires_grad)
    xn = x.node
    handed = [None]  # Phi, from the remake to the rule

    def remake():  # the forward's product, Phi made again from the input
        handed[0] = cdf = _whole_cdf(xd)
        return xd * cdf

    if _taped(out):
        out.remake = remake

    def backward(g):  # g * (Phi + x * exp(-x * x / 2) / sqrt(2 pi))
        dx, handed[0] = handed[0], None
        if dx is None:
            dx = _whole_cdf(xd)
        x1, g1, d1 = xd.reshape(-1), g.reshape(-1), dx.reshape(-1)
        scratch = np.empty(min(x1.size, _GELU_BLOCK), xd.dtype)
        for s in _gelu_blocks(d1.size):
            xb, d = x1[s], d1[s]
            t = np.multiply(xb, -0.5, out=scratch[:xb.size])
            t *= xb
            np.exp(t, out=t)
            t /= math.sqrt(2.0 * math.pi)
            t *= xb
            d += t
            d *= g1[s]
        xn.accumulate_grad(dx)

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# contractions and reductions
# ---------------------------------------------------------------------------


def matmul(a, b):
    """Batched matrix product over equal leading dims: [..., n, k] @ [..., k, m]."""
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul needs rank >= 3 and equal leading dims: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"matmul dtypes differ: {a.data.dtype} vs {b.data.dtype}")
    out = Tensor(_finish(np.matmul(a.data, b.data)),  # numpy runs one GEMM per slice
                 requires_grad=a.requires_grad or b.requires_grad)
    an, bn = _cell(a), _cell(b)
    ad = a.data if bn is not None else None  # b's gradient reads a, and a's reads b
    bd = b.data if an is not None else None
    if ad is not None and bd is not None and _taped(out):  # the forward's call again
        out.remake = lambda: np.matmul(ad, bd)

    def backward(g):
        if an is not None:
            an.accumulate_grad(np.matmul(g, np.swapaxes(bd, -1, -2)))
        if bn is not None:
            bn.accumulate_grad(np.matmul(np.swapaxes(ad, -1, -2), g))

    _record(out, backward)
    return out


def linear(x, weight, bias=None):
    """Position-wise affine map along the last axis: x @ weight + bias."""
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight rows {d_in}")
    x2, w = x.data.reshape(-1, d_in), weight.data
    y2 = np.matmul(x2, w)
    if bias is not None:
        y2 += bias.data
    out_shape = x.shape[:-1] + (d_out,)
    requires = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    out = Tensor(_finish(y2.reshape(out_shape)), requires_grad=requires)

    params = [p.node for p in (weight, bias) if p is not None and p.requires_grad]
    wn, xn = weight.node, _cell(x)
    # only the weight and bias gradients read x, and they remake it when x can be
    remake = x.remake if params else None
    rows = x2 if params and remake is None else None

    def sums(x2, g2):  # dW, one GEMM over every row, and the bias row sum
        return [(p, np.matmul(x2.T, g2) if p is wn else g2.sum(axis=0)) for p in params]

    def backward(g):
        g2 = g.reshape(-1, d_out)
        if params:
            _batch_sums((rows if remake is None else remake().reshape(-1, d_in), g2), sums)
        if xn is not None:
            xn.accumulate_grad(np.matmul(g2, w.T).reshape(xn.shape))

    _record(out, backward)
    return out


def tensor_sum(x):
    """Sum of every element."""
    out = Tensor(_finish(x.data.sum()), requires_grad=x.requires_grad)
    xn = x.node

    def backward(g):
        xn.accumulate_grad(np.broadcast_to(g, xn.shape))

    _record(out, backward)
    return out


def tensor_mean(x, axis=None):
    """Mean over `axis` (an int or a tuple of ints), or over every element."""
    axes = None if axis is None else (axis if isinstance(axis, tuple) else (axis,))
    n = x.data.size if axes is None else math.prod(x.data.shape[a] for a in axes)
    out = Tensor(_finish(x.data.mean(axis=axis)), requires_grad=x.requires_grad)
    xn = x.node

    def backward(g):
        if axes is not None:
            g = np.expand_dims(g, axes)
        xn.accumulate_grad(np.broadcast_to(g, xn.shape) / n)

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# normalization and attention math
# ---------------------------------------------------------------------------


def softmax(x):
    """Numerically stabilized softmax along the last axis; rows sum to 1."""
    d = x.shape[-1]
    x2 = x.data.reshape(-1, d)
    s = x2 - x2.max(axis=-1, keepdims=True)  # exp(x - max) / sum(exp(x - max))
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Tensor(_finish(s.reshape(x.data.shape)), requires_grad=x.requires_grad)
    xn = x.node

    def backward(g):  # (g - sum(g * s)) * s
        g2 = g.reshape(-1, d)
        dx = g2 * s
        np.subtract(g2, dx.sum(axis=-1, keepdims=True), out=dx)
        dx *= s
        xn.accumulate_grad(dx.reshape(xn.shape))

    _record(out, backward)
    return out


def log_softmax(x):
    """Log of the softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor(_finish(shifted - log_z), requires_grad=x.requires_grad)
    if not _taped(out):
        return out
    s, xn = np.exp(shifted - log_z), x.node

    def backward(g):
        xn.accumulate_grad(g - s * g.sum(axis=-1, keepdims=True))

    _record(out, backward)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Standardize the last axis to mean 0 / variance 1, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    x2, shape = x.data.reshape(-1, d), x.data.shape
    gd, bd = gamma.data, beta.data
    xhat = x2 - x2.mean(axis=-1, keepdims=True)  # (x - mean) / sqrt(var + eps)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    var += eps
    np.sqrt(var, out=var)
    inv = 1.0 / var
    xhat *= inv

    def affine():  # xhat * gamma + beta
        y = xhat * gd
        y += bd
        return y.reshape(shape)

    requires = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = Tensor(_finish(affine()), requires_grad=requires)
    if _taped(out):
        out.remake = affine  # the forward's calls, on xhat, which backward reads

    params = [p.node for p in (gamma, beta) if p.requires_grad]
    gn, xn = gamma.node, _cell(x)

    def sums(g2, xhat):
        return [(p, (g2 * xhat).sum(axis=0) if p is gn else g2.sum(axis=0)) for p in params]

    def backward(g):
        g2 = g.reshape(-1, d)
        if params:
            _batch_sums((g2, xhat), sums)
        if xn is not None:  # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gamma
            gg = g2 * gd
            m1 = gg.mean(axis=-1, keepdims=True)
            dx = xhat * (gg * xhat).mean(axis=-1, keepdims=True)
            gg -= m1
            np.subtract(gg, dx, out=dx)
            dx *= inv
            xn.accumulate_grad(dx.reshape(xn.shape))

    _record(out, backward)
    return out


# ---------------------------------------------------------------------------
# structural ops (all exact, all invertible)
# ---------------------------------------------------------------------------


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)
    xn, remake = x.node, x.remake
    if remake is not None and _taped(out):  # the same reshape of x remade
        out.remake = lambda: remake().reshape(shape)

    def backward(g):
        xn.accumulate_grad(g.reshape(xn.shape))

    _record(out, backward)
    return out


def transpose(x, axes):
    axes = tuple(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)), requires_grad=x.requires_grad)
    inverse = tuple(np.argsort(axes))
    xn, remake = x.node, x.remake
    if remake is not None and _taped(out):  # the same transpose of x remade
        out.remake = lambda: np.ascontiguousarray(remake().transpose(axes))

    def backward(g):
        xn.accumulate_grad(g.transpose(inverse))

    _record(out, backward)
    return out


def select_first_axis(x, index):
    """A copy of x[index] along axis 0; backward adds g into that slot of
    x's grad.

    The copy is made even when the slice is contiguous, so a rule that reads
    the output does not keep the rest of x alive. The first split of x makes
    one zero grad, so q/k/v splits of one array share a single buffer and
    0 + g lands in each slot in backward order.
    """
    out = Tensor(x.data[index].copy(), requires_grad=x.requires_grad)
    xn = x.node

    def backward(g):
        if xn.grad is None:
            xn.grad = np.zeros(xn.shape, xn.dtype)
        xn.grad[index] += g

    _record(out, backward)
    return out


def gather_rows(table, index):
    """Row lookup `table[index]` for a 1-D integer index array."""
    index = np.asarray(index)
    out = Tensor(np.ascontiguousarray(table.data[index]), requires_grad=table.requires_grad)
    tn = table.node

    def backward(g):
        full = np.zeros(tn.shape, tn.dtype)
        np.add.at(full, index, g)
        tn.accumulate_grad(full)

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
    xn, vn = _cell(x), _cell(value)

    def backward(g):
        if xn is not None:
            _grad_to(xn, np.where(mask, 0.0, g))
        if vn is not None:
            _grad_to(vn, np.where(mask, g, 0.0))

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
    xn, remake = x.node, x.remake
    if remake is not None and _taped(out):  # the same gather of x remade
        out.remake = lambda: _take(remake().reshape(-1, len(inverse), c), index).reshape(shape)

    def backward(g):
        xn.accumulate_grad(_take(g.reshape(-1, len(index), c), inverse).reshape(xn.shape))

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


def drop_path(x, keep):
    """Stochastic depth: x times `keep`, one factor per item of the batch; identity for None."""
    if keep is None:
        return x
    return mul(x, Tensor(keep.reshape((len(keep),) + (1,) * (x.ndim - 1))))


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
