"""Dense float32 tensors with reverse-mode gradients.

The tape is define-by-run: every op that touches a gradient-requiring
tensor records a backward closure on its output node. ``backward`` on a
scalar walks the graph once in reverse topological order, accumulates into
``grad`` slots, then frees the tape. Leaf grads stay, so training calls
``backward`` on each chunk's loss as soon as it is built and the gradients
add up over the batch: only one chunk's graph is alive at a time.

An inner node borrows its first incoming gradient array when that array has
the node's own strides, so a gradient passed straight through (an add, a
contiguous reshape) costs no copy. Any other first gradient, and every
leaf's, is copied into a fresh array laid out like the node's data; a leaf
adds later gradients in place, an inner node into a new array, since its
slot may be shared. Each closure also notes at record time which operands
are on the tape, and computes no gradient for constants (group features,
the image input, labels).

Inside ``no_grad()`` no op records: outputs carry no closure, mask or
parents, and forward values are unchanged. A pipeline step without a label
has no loss and runs under it; so does validation, which never backprops.

Every tensor holds ``DTYPE``, float32: inputs are cast as they become tensors.
Only ``float64()`` switches it, for the gradient check's central differences.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError, NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- grad plumbing -------------------------------------------------

    def _accumulate(self, g: np.ndarray):
        # same bits as zeros_like + g, -0.0 aside; a borrowed view must share
        # the data's strides, or later reductions sum in another memory order
        if self.grad is None:
            if not self.requires_grad and g.strides == self.data.strides:
                self.grad = g
            else:
                self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        elif self.requires_grad:
            self.grad += g
        else:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.data))

    def backward(self):
        """Backpropagate from a scalar; accumulates into grad slots and clears the tape."""
        if self.data.shape != ():
            raise ContractError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones((), dtype=DTYPE))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            # free the tape; leaf grads stay
            node._backward_fn = None
            node._parents = ()
            if not node.requires_grad and node is not self:
                node.grad = None

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    @property
    def T(self):
        return transpose(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# Flags for the whole process (not per thread); _recording is set only through
# no_grad(), and DTYPE, the dtype of every tensor made, only through float64().
_recording = True
DTYPE = np.float32


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; the previous mode comes back on exit,
    also after an exception and when blocks nest."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


@contextlib.contextmanager
def float64():
    """Make tensors float64 inside the block; restored on exit as in no_grad()."""
    global DTYPE
    previous, DTYPE = DTYPE, np.float64
    try:
        yield
    finally:
        DTYPE = previous


def _on_tape(*ts: Tensor) -> tuple[bool, ...] | None:
    """Per operand, whether it is on the tape; None when the op records nothing."""
    if not _recording:
        return None
    need = tuple(t.requires_grad or t._backward_fn is not None for t in ts)
    return need if any(need) else None


def _record(out: Tensor, parents: tuple, bwd) -> None:
    out._parents = parents
    out._backward_fn = bwd


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g back to the pre-broadcast shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise -------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data + b.data)
    need = _on_tape(a, b)
    if need:
        need_a, need_b = need
        def bwd(g):
            if need_a:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if need_b:
                b._accumulate(_unbroadcast(g, b.data.shape))
        _record(out, (a, b), bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)
    need = _on_tape(a, b)
    if need:
        need_a, need_b = need
        def bwd(g):
            if need_a:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if need_b:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))
        _record(out, (a, b), bwd)
    return out


def powc(a, p: float) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data ** p)
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g * p * a.data ** (p - 1.0))
        _record(out, (a,), bwd)
    return out


def relu(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.maximum(a.data, 0.0))
    if _on_tape(a):
        mask = a.data > 0.0
        def bwd(g):
            a._accumulate(g * mask)
        _record(out, (a,), bwd)
    return out


def tanh(a) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.data)
    out = Tensor(y)
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g * (1.0 - y * y))
        _record(out, (a,), bwd)
    return out


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g * y * (1.0 - y))
        _record(out, (a,), bwd)
    return out


def exp(a) -> Tensor:
    a = _wrap(a)
    y = np.exp(a.data)
    out = Tensor(y)
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g * y)
        _record(out, (a,), bwd)
    return out


def log(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.data))
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g / a.data)
        _record(out, (a,), bwd)
    return out


# -- reductions / shaping ---------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if _on_tape(a):
        def bwd(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.data.shape).copy())
        _record(out, (a,), bwd)
    return out


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape))
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g.reshape(a.data.shape))
        _record(out, (a,), bwd)
    return out


def transpose(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.T.copy())
    if _on_tape(a):
        def bwd(g):
            a._accumulate(g.T)
        _record(out, (a,), bwd)
    return out


def take(a, idx) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data[idx].copy())
    if _on_tape(a):
        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)
        _record(out, (a,), bwd)
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    need = _on_tape(*tensors)
    if need:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            for t, piece, need_t in zip(tensors, np.split(g, splits, axis=axis), need):
                if need_t:
                    t._accumulate(piece)
        _record(out, tuple(tensors), bwd)
    return out


# -- matmul / softmax --------------------------------------------------


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise DimensionError(f"matmul expects a 1-D or 2-D left and a 2-D right operand, "
                             f"got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray, need_a: bool, need_b: bool) -> None:
    if need_a:
        a._accumulate(g @ b.data.T)
    if need_b:
        b._accumulate(np.atleast_2d(a.data).T @ np.atleast_2d(g))


def matmul(a, b) -> Tensor:
    """a @ b for a matrix b; a is a matrix, or a vector that acts as one row:
    (d,) @ (d, k) gives (k,)."""
    a, b = _wrap(a), _wrap(b)
    _check_matmul(a, b)
    out = Tensor(a.data @ b.data)
    need = _on_tape(a, b)
    if need:
        def bwd(g):
            _matmul_grads(a, b, g, *need)
        _record(out, (a, b), bwd)
    return out


def linear(x, w, b) -> Tensor:
    """x @ w + b as one tape node; x is a matrix of rows or one vector, as in
    matmul, and b a (k,) bias."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    _check_matmul(x, w)
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)
    need = _on_tape(x, w, b)
    if need:
        need_x, need_w, need_b = need
        def bwd(g):
            if need_b:
                b._accumulate(_unbroadcast(g, b.data.shape))
            _matmul_grads(x, w, g, need_x, need_w)
        _record(out, (x, w, b), bwd)
    return out


def segment_pool(x, scores, seg) -> Tensor:
    """Attention pooling of the rows of a V x d matrix x by segment: each
    segment's rows summed with the softmax of their (V,) scores as weights.

    seg gives each row's segment, non-decreasing from 0 in steps of 0 or 1,
    so that no segment is empty; row s of the S x d output pools segment s.
    """
    x, scores = _wrap(x), _wrap(scores)
    seg = np.asarray(seg)
    v = x.data.shape[0] if x.data.ndim == 2 else -1
    if scores.data.shape != (v,) or seg.shape != (v,):
        raise DimensionError(f"segment_pool needs a V x d x, V scores and V segment ids, "
                             f"got {x.data.shape}, {scores.data.shape} and {seg.shape}")
    steps = np.diff(seg, prepend=-1)
    if v == 0 or steps[0] != 1 or not np.all((steps == 0) | (steps == 1)):
        raise ContractError("segment_pool needs segment ids that start at 0 and rise by 0 or 1")
    starts = np.flatnonzero(steps)
    e = np.exp(scores.data - np.maximum.reduceat(scores.data, starts)[seg])
    w = e / np.add.reduceat(e, starts)[seg]
    y = np.add.reduceat(x.data * w[:, None], starts, axis=0)
    out = Tensor(y)
    need = _on_tape(x, scores)
    if need:
        need_x, need_s = need
        def bwd(g):
            g_rows = g[seg]
            if need_s:  # w * (g . x - g . y) per row, row dots without a V x d product
                dots = np.einsum("vd,vd->v", g_rows, x.data)
                scores._accumulate(w * (dots - np.einsum("sd,sd->s", g, y)[seg]))
            if need_x:
                g_rows *= w[:, None]
                x._accumulate(g_rows)
        _record(out, (x, scores), bwd)
    return out


def softmax(a, axis=-1) -> Tensor:
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax received non-finite input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)
    if _on_tape(a):
        def bwd(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - dot))
        _record(out, (a,), bwd)
    return out


# -- conv2d ------------------------------------------------------------


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """x: C x H x W -> (C*k*k, Ho*Wo) columns plus output spatial dims."""
    c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    s0, s1, s2 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, k, k, ho, wo),
        strides=(s0, s1, s2, s1 * stride, s2 * stride),
        writeable=False,
    )
    return windows.reshape(c * k * k, ho * wo), ho, wo


def _col2im(cols: np.ndarray, c: int, h: int, w: int, k: int, stride: int, pad: int):
    """Scatter-add columns back into a C x H x W image (adjoint of _im2col)."""
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    x = np.zeros((c, hp, wp), dtype=DTYPE)
    cols = cols.reshape(c, k, k, ho, wo)
    for ki in range(k):
        for kj in range(k):
            x[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += cols[:, ki, kj]
    # floor mode leaves the last rows/columns unread when (h + 2*pad - k) is
    # not a multiple of stride; they get zero gradient
    return x[:, pad:pad + h, pad:pad + w]


def conv2d(x, kernels, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of a C x H x W input with F x C x k x k kernels;
    floor mode: output is (H + 2*pad - k) // stride + 1 rows, likewise columns."""
    x, kernels = _wrap(x), _wrap(kernels)
    if x.data.ndim != 3 or kernels.data.ndim != 4:
        raise DimensionError("conv2d expects CxHxW input and FxCxkxk kernels")
    f, ck, kh, kw = kernels.data.shape
    c, h, w = x.data.shape
    if ck != c:
        raise DimensionError(f"kernel channels {ck} != input channels {c}")
    if kh != kw or kh % 2 == 0:
        raise DimensionError("conv2d requires odd square kernels")
    k = kh
    cols, ho, wo = _im2col(x.data, k, stride, pad)
    w2d = kernels.data.reshape(f, c * k * k)
    out = Tensor((w2d @ cols).reshape(f, ho, wo))
    need = _on_tape(x, kernels)
    if need:
        need_x, need_k = need
        def bwd(g):
            g2d = g.reshape(f, ho * wo)
            if need_k:
                kernels._accumulate((g2d @ cols.T).reshape(kernels.data.shape))
            if need_x:
                x._accumulate(_col2im(w2d.T @ g2d, c, h, w, k, stride, pad))
        _record(out, (x, kernels), bwd)
    return out


# -- batch norm / dropout ---------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Normalize each channel of a C x H x W map over its H*W pixels; running
    stats updated in place in train mode."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.data.ndim != 3:
        raise DimensionError("batch_norm expects a C x H x W input")
    c, h, w = x.data.shape
    axes = (1, 2)  # each channel's pixels
    if training:
        if h * w < 2:
            raise DimensionError("batch_norm train mode needs H*W >= 2")
        mean, var = x.data.mean(axis=axes), x.data.var(axis=axes)  # biased
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
    # each channel's values as C x 1 x 1, broadcast over its pixels
    mean, inv_std, g3, b3 = (v.reshape(c, 1, 1) for v in (
        mean, 1.0 / np.sqrt(var + BN_EPS), gamma.data, beta.data))
    xhat = (x.data - mean) * inv_std
    out = Tensor(xhat * g3 + b3)
    need = _on_tape(x, gamma, beta)
    if need:
        need_x, need_gamma, need_beta = need
        def bwd(g):
            if need_gamma:
                gamma._accumulate((g * xhat).sum(axis=axes))
            if need_beta:
                beta._accumulate(g.sum(axis=axes))
            if need_x:
                gx = g * g3
                if training:  # the paths through the batch mean and variance
                    gx = (gx - gx.mean(axis=axes, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
                x._accumulate(gx * inv_std)
        _record(out, (x, gamma, beta), bwd)
    return out


def dropout(x, rate: float, rng) -> Tensor:
    """Inverted (train-mode) dropout; mask drawn from the caller's PRNG and
    reused in backward."""
    from .errors import ConfigError

    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = _wrap(x)
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate).astype(DTYPE) / (1.0 - rate)
    out = Tensor(x.data * mask)
    if _on_tape(x):
        def bwd(g):
            x._accumulate(g * mask)
        _record(out, (x,), bwd)
    return out


def assert_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {what}")
    return t
