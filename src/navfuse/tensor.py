"""Dense float32 tensors with reverse-mode gradients.

The tape is define-by-run. Every op hands ``_record`` its output, its
operands and one gradient function per operand, mapping the output's
gradient to that operand's. ``_record`` alone decides which operands get a
gradient: it keeps the (operand, function) pairs whose operand is on the
tape (it requires grad, or is itself an op's output on the tape), so no
gradient is computed for constants (group features, the image input,
labels), and an op with no such operand records nothing. ``backward`` on a
scalar walks the graph once in reverse topological order, accumulates into
``grad`` slots, then frees the tape. Leaf grads stay, so training calls
``backward`` on each chunk's loss as soon as it is built and the gradients
add up over the batch: only one chunk's graph is alive at a time.

An inner node borrows its first incoming gradient array when that array has
the node's own strides, so a gradient passed straight through (an add, a
contiguous reshape) costs no copy. Any other first gradient, and every
leaf's, is copied into a fresh array laid out like the node's data; a leaf
adds later gradients in place, an inner node into a new array, since its
slot may be shared.

Inside ``no_grad()`` no op records: outputs carry no gradient functions or
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
        self._backward_fn = None  # (operand, gradient function) pairs while on the tape

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
                for t, grad in node._backward_fn:
                    t._accumulate(grad(node.grad))
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


def _record(out: Tensor, parents: tuple, *grads) -> None:
    """Put out on the tape: grads[i] maps out's gradient to parents[i]'s.
    Only the pairs whose operand is on the tape are kept; with none, out
    records nothing."""
    # a loop, not a comprehension, which on Python 3.11 costs a frame per op
    pairs = []
    for t, grad in zip(parents, grads):
        if t.requires_grad or t._backward_fn is not None:
            pairs.append((t, grad))
    if pairs:
        out._parents = parents
        out._backward_fn = pairs


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
    if _recording:
        _record(out, (a, b), lambda g: _unbroadcast(g, a.data.shape),
                lambda g: _unbroadcast(g, b.data.shape))
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)
    if _recording:
        _record(out, (a, b), lambda g: _unbroadcast(g * b.data, a.data.shape),
                lambda g: _unbroadcast(g * a.data, b.data.shape))
    return out


def powc(a, p: float) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data ** p)
    if _recording:
        _record(out, (a,), lambda g: g * p * a.data ** (p - 1.0))
    return out


def relu(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.maximum(a.data, 0.0))
    if _recording:
        _record(out, (a,), lambda g: g * (a.data > 0.0))
    return out


def tanh(a) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.data)
    out = Tensor(y)
    if _recording:
        _record(out, (a,), lambda g: g * (1.0 - y * y))
    return out


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)
    if _recording:
        _record(out, (a,), lambda g: g * y * (1.0 - y))
    return out


def exp(a) -> Tensor:
    a = _wrap(a)
    y = np.exp(a.data)
    out = Tensor(y)
    if _recording:
        _record(out, (a,), lambda g: g * y)
    return out


def log(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.data))
    if _recording:
        _record(out, (a,), lambda g: g / a.data)
    return out


# -- reductions / shaping ---------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.sum(axis=axis))
    if _recording:
        _record(out, (a,), lambda g: np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), a.data.shape).copy())
    return out


def tmean(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape))
    if _recording:
        _record(out, (a,), lambda g: g.reshape(a.data.shape))
    return out


def transpose(a) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.T.copy())
    if _recording:
        _record(out, (a,), lambda g: g.T)
    return out


def take(a, idx) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data[idx].copy())
    if _recording:
        def grad(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return full
        _record(out, (a,), grad)
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    if _recording:
        # each operand's gradient is its slice of g along axis, a view
        lead = (slice(None),) * (axis % out.data.ndim)
        ends = np.cumsum([t.data.shape[axis] for t in tensors])
        slices = [lead + (slice(end - t.data.shape[axis], end),) for t, end in zip(tensors, ends)]
        _record(out, tuple(tensors), *(lambda g, s=s: g[s] for s in slices))
    return out


# -- matmul / softmax --------------------------------------------------


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise DimensionError(f"matmul expects a 1-D or 2-D left and a 2-D right operand, "
                             f"got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")


def matmul(a, b) -> Tensor:
    """a @ b for a matrix b; a is a matrix, or a vector that acts as one row:
    (d,) @ (d, k) gives (k,)."""
    a, b = _wrap(a), _wrap(b)
    _check_matmul(a, b)
    out = Tensor(a.data @ b.data)
    if _recording:
        _record(out, (a, b), lambda g: g @ b.data.T,
                lambda g: np.atleast_2d(a.data).T @ np.atleast_2d(g))
    return out


def linear(x, w, b) -> Tensor:
    """x @ w + b as one tape node; x is a matrix of rows or one vector, as in
    matmul, and b a (k,) bias."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    _check_matmul(x, w)
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)
    if _recording:
        _record(out, (x, w, b), lambda g: g @ w.data.T,
                lambda g: np.atleast_2d(x.data).T @ np.atleast_2d(g),
                lambda g: _unbroadcast(g, b.data.shape))
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
    if _recording:
        def x_grad(g):
            rows = g[seg]
            rows *= w[:, None]
            return rows
        # w * (g . x - g . y) per row, row dots without a V x d product
        _record(out, (x, scores), x_grad, lambda g: w * (
            np.einsum("vd,vd->v", g[seg], x.data) - np.einsum("sd,sd->s", g, y)[seg]))
    return out


def softmax(a, axis=-1) -> Tensor:
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax received non-finite input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)
    if _recording:
        _record(out, (a,), lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True)))
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
    if _recording:
        _record(out, (x, kernels),
                lambda g: _col2im(w2d.T @ g.reshape(f, ho * wo), c, h, w, k, stride, pad),
                lambda g: (g.reshape(f, ho * wo) @ cols.T).reshape(kernels.data.shape))
    return out


# -- batch norm / dropout ---------------------------------------------

BN_EPS = 1e-5


def batch_norm(x, gamma, beta) -> Tensor:
    """Normalize each channel of a C x H x W map by the mean and variance of
    its own H*W pixels, in every mode: a frame is its own batch."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.data.ndim != 3:
        raise DimensionError("batch_norm expects a C x H x W input")
    c, h, w = x.data.shape
    if h * w < 2:
        raise DimensionError("batch_norm needs H*W >= 2")
    axes = (1, 2)  # each channel's pixels
    mean, var = x.data.mean(axis=axes), x.data.var(axis=axes)  # biased
    # each channel's values as C x 1 x 1, broadcast over its pixels
    mean, inv_std, g3, b3 = (v.reshape(c, 1, 1) for v in (
        mean, 1.0 / np.sqrt(var + BN_EPS), gamma.data, beta.data))
    xhat = (x.data - mean) * inv_std
    out = Tensor(xhat * g3 + b3)
    if _recording:
        def x_grad(g):
            gx = g * g3
            # the paths through the channel mean and variance
            gx = (gx - gx.mean(axis=axes, keepdims=True)
                  - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
            return gx * inv_std
        _record(out, (x, gamma, beta), x_grad,
                lambda g: (g * xhat).sum(axis=axes), lambda g: g.sum(axis=axes))
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
    if _recording:
        _record(out, (x,), lambda g: g * mask)
    return out


def assert_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {what}")
    return t
