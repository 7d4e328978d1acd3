import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse import tensor as T
from navfuse.errors import ContractError, DimensionError, NumericError
from navfuse.gradcheck import grad_check
from navfuse.optim import clip_global_norm
from navfuse.params import ParamRegistry, linear, make_rng, register_linear
from navfuse.pipeline import init_pipeline, initial_state, pipeline_step
from navfuse.verify import OP_CLOSURES, small_pipeline_config, small_synth_frames


def scalar_loss(t):
    return T.tsum(t)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[3.0], [4.0]])
        out = T.matmul(a, b)
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[0.0, 1.0], [1.0, 0.0]])
        out = T.matmul(a, b)
        assert np.array_equal(out.data, [[2.0, 1.0], [4.0, 3.0]])

    def test_hand_product_vector_left(self):
        a = T.Tensor([1.0, 2.0])
        b = T.Tensor([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
        out = T.matmul(a, b)
        assert out.data.shape == (3,)
        assert np.array_equal(out.data, [2.0, 1.0, 8.0])

    def test_mismatched_inner_dims(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            T.matmul(a, b)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3,), (2, 4)),          # left vector of the wrong length
        ((2, 3), (3,)),          # vector on the right
        ((2, 2, 3), (3, 4)),     # 3-D left
        ((2, 3), (3, 4, 1)),     # 3-D right
    ])
    def test_rejected_operand_shapes(self, a_shape, b_shape):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros(a_shape)), T.Tensor(np.zeros(b_shape)))


# the dense layers of the default pipeline, d_in -> d_out
PIPELINE_LINEAR_SHAPES = [(192, 64), (128, 64), (64, 64), (64, 5), (32, 64), (16, 64), (8, 64)]


@pytest.mark.parametrize("d_in,d_out", PIPELINE_LINEAR_SHAPES)
def test_linear_vector_bitwise_equals_row_form(d_in, d_out):
    # vector layers used to run as a 1 x d_in row; the forward pass stays
    # bitwise unchanged only if numpy's vector @ matrix equals that row product
    rng = make_rng(d_in * 1000 + d_out)
    params = ParamRegistry()
    register_linear(params, rng, "fc", d_in, d_out)
    params.get("fc.b").data = rng.normal(size=d_out)
    for _ in range(20):
        x = T.Tensor(rng.normal(size=d_in))
        row = T.add(T.matmul(T.reshape(x, (1, d_in)), params.get("fc.w")), params.get("fc.b"))
        out = linear(x, params, "fc")
        assert out.shape == (d_out,)
        assert np.array_equal(out.data, T.reshape(row, (d_out,)).data)


# the point branch's dense layers at desk scale (180 groups x 32 slots) and
# its output layer, x_shape -> d_out
@pytest.mark.parametrize("x_shape,d_out", [((5760, 5), 32), ((5760, 32), 64), ((192,), 64)])
def test_linear_node_bitwise_equals_matmul_then_add(x_shape, d_out):
    rng = make_rng(x_shape[-1] * 1000 + d_out)
    x0, w0, b0 = (rng.normal(size=s) for s in (x_shape, (x_shape[-1], d_out), (d_out,)))
    upstream = rng.normal(size=x_shape[:-1] + (d_out,))

    def run(layer):
        x, w, b = (T.Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0))
        y = layer(x, w, b)
        T.tsum(T.mul(y, upstream)).backward()
        return y.data, x.grad, w.grad, b.grad

    one_node = run(T.linear)
    two_nodes = run(lambda x, w, b: T.add(T.matmul(x, w), b))
    for got, want in zip(one_node, two_nodes):
        assert got.tobytes() == want.tobytes()


def _dense_segment_pool(x, scores, seg):
    """Per-segment softmax and weighted sum, one segment at a time."""
    rows = []
    for s in range(seg[-1] + 1):
        mine = seg == s
        rows.append(T.tsum(T.mul(x[mine], T.reshape(T.softmax(scores[mine]), (-1, 1))), axis=0))
    return T.concat([T.reshape(r, (1, -1)) for r in rows], axis=0)


# groups of uneven size with a singleton (the group pooling) and one segment
# (the global pooling)
@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("sizes", [(1, 5, 2, 7, 1), (12,)])
def test_segment_pool_matches_dense_per_segment_softmax(sizes):
    rng = make_rng(len(sizes))
    seg = np.repeat(np.arange(len(sizes)), sizes)
    x0, s0 = rng.normal(size=(len(seg), 4)), 3.0 * rng.normal(size=len(seg))
    upstream = rng.normal(size=(len(sizes), 4))

    def run(pool):
        x, s = T.Tensor(x0.copy(), requires_grad=True), T.Tensor(s0.copy(), requires_grad=True)
        y = pool(x, s, seg)
        T.tsum(T.mul(y, upstream)).backward()
        return y.data, x.grad, s.grad

    for got, want in zip(run(T.segment_pool), run(_dense_segment_pool)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("x_shape,s_len,seg_len", [((5, 3), 4, 5), ((5, 3), 5, 4),
                                                   ((4, 3), 5, 5), ((5,), 5, 5)])
def test_segment_pool_rejects_mismatched_lengths(x_shape, s_len, seg_len):
    with pytest.raises(DimensionError):
        T.segment_pool(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(s_len)),
                       np.zeros(seg_len, dtype=int))


@pytest.mark.parametrize("seg", [[1, 1, 2], [0, 2, 2], [0, 1, 0], []])
def test_segment_pool_rejects_unordered_or_empty_segments(seg):
    with pytest.raises(ContractError):
        T.segment_pool(T.Tensor(np.zeros((len(seg), 2))), T.Tensor(np.zeros(len(seg))),
                       np.array(seg, dtype=int))


def test_linear_keeps_matmul_shape_checks():
    with pytest.raises(DimensionError):
        T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(3)))


@pytest.mark.usefixtures("float64")
def test_each_leaf_owns_its_grad_and_clip_scales_it_once():
    # add hands one gradient array to both operands; a leaf that kept it
    # instead of copying would be scaled twice by the in-place clip
    params = ParamRegistry()
    p, q, r = (params.register(name, np.ones(3)) for name in ("p", "q", "r"))
    T.add(T.tsum(T.add(p, q)), T.tsum(T.add(r, r))).backward()
    assert p.grad is not q.grad
    norm = clip_global_norm(params, 1.0)
    assert norm == np.sqrt(18.0)
    scale = 1.0 / norm
    assert np.array_equal(p.grad, np.full(3, scale))
    assert np.array_equal(q.grad, np.full(3, scale))
    assert np.array_equal(r.grad, np.full(3, 2.0 * scale))


def test_inner_nodes_sharing_a_gradient_keep_their_own_sums():
    # add hands one array to both operands and inner nodes keep it; one that
    # summed a second gradient into it in place would change the other's
    p = T.Tensor(np.ones(3), requires_grad=True)
    q = T.Tensor(np.ones(3), requires_grad=True)
    u, v = T.mul(p, 2.0), T.mul(q, 3.0)
    T.tsum(T.add(T.add(u, v), u)).backward()
    assert np.array_equal(p.grad, np.full(3, 4.0))
    assert np.array_equal(q.grad, np.full(3, 3.0))


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.arange(9.0).reshape(1, 3, 3))
        k = T.Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, k, stride=1, pad=0)
        assert np.array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        x = T.Tensor(np.ones((1, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=1, pad=0)
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0

    def test_stride_output_size(self):
        x = T.Tensor(np.zeros((1, 5, 5)))
        k = T.Tensor(np.zeros((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=2, pad=0)
        assert out.data.shape == (1, 2, 2)

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("h, w", [(6, 6), (7, 7), (6, 9), (9, 8)])
    def test_stride2_equals_subsampled_stride1(self, h, w, pad):
        # floor mode: the strided conv is the stride-1 conv's every second
        # pixel whether or not the sizes divide. Each output is the same dot
        # product, but BLAS may sum a tile-edge column in another order, so
        # the last bit can differ where the column counts differ
        rng = make_rng(h * 10 + w)
        x = T.Tensor(rng.normal(size=(2, h, w)))
        for k in (1, 3):
            ker = T.Tensor(rng.normal(size=(3, 2, k, k)))
            full = T.conv2d(x, ker, stride=1, pad=pad).data[:, ::2, ::2]
            np.testing.assert_allclose(T.conv2d(x, ker, stride=2, pad=pad).data, full,
                                       rtol=0, atol=1e-13)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_hand_value(self):
        out = T.softmax(T.Tensor([0.0, np.log(0.5)]))
        assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0])

    def test_overflow_stability(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 0.999999

    def test_nonfinite_input(self):
        with pytest.raises(NumericError):
            T.softmax(T.Tensor([np.inf, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_simplex(self, xs):
        with T.float64():  # summed to 1 within 1e-12, finer than float32 resolves
            out = T.softmax(T.Tensor(xs))
        assert np.all(out.data > 0)
        assert abs(out.data.sum() - 1.0) < 1e-12


def _batch_norm_rows(x, gamma, beta, running_mean, running_var, training, g):
    """Reference batch norm of an N x C matrix over its rows, the layout a
    C x H x W map reaches by reshape and transpose: the output and the x,
    gamma and beta gradients for the upstream gradient g. Running stats
    update in place."""
    n = x.shape[0]
    if training:
        mean, var = x.mean(axis=0), x.var(axis=0)
        running_mean *= 1.0 - T.BN_MOMENTUM
        running_mean += T.BN_MOMENTUM * mean
        running_var *= 1.0 - T.BN_MOMENTUM
        running_var += T.BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + T.BN_EPS)
    xhat = (x - mean) * inv_std
    gx = g * gamma
    if training:
        dx = inv_std / n * (n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0))
    else:
        dx = gx * inv_std
    return xhat * gamma + beta, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


class TestBatchNorm:
    def test_already_normalized(self):
        rng = make_rng(0)
        x = rng.normal(size=(3, 20, 10))
        x = (x - x.mean(axis=(1, 2), keepdims=True)) / x.std(axis=(1, 2), keepdims=True)
        g = T.Tensor(np.ones(3))
        b = T.Tensor(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batch_norm(T.Tensor(x), g, b, rm, rv, training=True)
        assert np.allclose(out.data, x, atol=1e-4)

    def test_constant_channel(self):
        x = T.Tensor(np.full((1, 2, 2), 7.0))
        out = T.batch_norm(x, T.Tensor([1.0]), T.Tensor([2.5]), np.zeros(1), np.ones(1),
                           training=True)
        assert np.allclose(out.data, 2.5)

    def test_hand_value(self):
        x = T.Tensor([[[1.0], [3.0]]])
        out = T.batch_norm(x, T.Tensor([1.0]), T.Tensor([0.0]), np.zeros(1), np.ones(1),
                           training=True)
        expect = (np.array([[[1.0], [3.0]]]) - 2.0) / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out.data, expect)

    def test_single_row_train_rejected(self):
        # a C x 1 x 1 map has one pixel per channel: no batch statistics
        with pytest.raises(DimensionError, match=r"H\*W >= 2"):
            T.batch_norm(T.Tensor(np.ones((2, 1, 1))), T.Tensor([1.0, 1.0]),
                         T.Tensor([0.0, 0.0]), np.zeros(2), np.ones(2), training=True)

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionError, match="C x H x W"):
            T.batch_norm(T.Tensor(np.ones((4, 2))), T.Tensor([1.0, 1.0]),
                         T.Tensor([0.0, 0.0]), np.zeros(2), np.ones(2), training=False)

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("shape", [(3, 5, 4), (8, 7, 9), (2, 1, 6)])
    def test_matches_the_row_layout(self, shape, training):
        # each channel's pixels are the rows of the N x C layout; eval mode is
        # elementwise, so bitwise equal, and train mode sums in another order
        c = shape[0]
        rng = make_rng(sum(shape))
        x = 3.0 * rng.normal(size=shape) + 1.0
        gamma, beta, g = rng.normal(size=c), rng.normal(size=c), rng.normal(size=shape)
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        rm_rows, rv_rows = rm.copy(), rv.copy()

        def rows(a):
            return a.reshape(c, -1).T

        want, dx, dgamma, dbeta = _batch_norm_rows(rows(x), gamma, beta, rm_rows, rv_rows,
                                                   training, rows(g))
        xt, gt, bt = (T.Tensor(v, requires_grad=True) for v in (x, gamma, beta))
        out = T.batch_norm(xt, gt, bt, rm, rv, training=training)
        T.tsum(T.mul(out, g)).backward()
        if training:
            for got, exp in ((rows(out.data), want), (rm, rm_rows), (rv, rv_rows)):
                np.testing.assert_allclose(got, exp, rtol=0, atol=1e-13)
        else:
            np.testing.assert_array_equal(rows(out.data), want)
            np.testing.assert_array_equal(rows(xt.grad), dx)
            np.testing.assert_array_equal(rm, rm_rows)
            np.testing.assert_array_equal(rv, rv_rows)
        for got, exp in ((rows(xt.grad), dx), (gt.grad, dgamma), (bt.grad, dbeta)):
            np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)

    @pytest.mark.usefixtures("float64")
    def test_train_mode_ignores_a_per_channel_constant(self):
        # the mean subtraction cancels any per-channel offset, which is why
        # the RGB stages' convs carry no bias
        rng = make_rng(5)
        x = rng.normal(size=(4, 6, 5))
        shift = 10.0 * rng.normal(size=(4, 1, 1))
        gamma, beta = T.Tensor(rng.normal(size=4)), T.Tensor(rng.normal(size=4))
        plain = T.batch_norm(T.Tensor(x), gamma, beta, np.zeros(4), np.ones(4), training=True)
        shifted = T.batch_norm(T.Tensor(x + shift), gamma, beta, np.zeros(4), np.ones(4),
                               training=True)
        np.testing.assert_allclose(shifted.data, plain.data, rtol=0, atol=1e-12)


class TestDropout:
    def test_rate_zero_identity(self):
        x = T.Tensor([1.0, 2.0, 3.0])
        out = T.dropout(x, 0.0, make_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_survivor_count_binomial(self):
        from scipy.stats import binom
        n, rate = 10_000, 0.5
        x = T.Tensor(np.ones(n))
        out = T.dropout(x, rate, make_rng(7))
        survivors = int(np.count_nonzero(out.data))
        lo, hi = binom.ppf([0.0005, 0.9995], n, 1 - rate)
        assert lo <= survivors <= hi
        # survivors scaled by 1/(1-rate)
        assert np.allclose(out.data[out.data != 0], 1.0 / (1.0 - rate))

    def test_bad_rate(self):
        from navfuse.errors import ConfigError
        with pytest.raises(ConfigError):
            T.dropout(T.Tensor([1.0]), 1.0, make_rng(0))


class TestBackward:
    def test_sum_grad_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_grad(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_accumulation_across_calls(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        first = x.grad.copy()
        T.tsum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, 2 * first)

    def test_non_scalar_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.mul(x, x).backward()


class TestNoGrad:
    def test_records_nothing_and_nests(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            # leaving the inner block keeps the outer one in force
            y = T.relu(T.mul(x, x))
            assert y._backward_fn is None and y._parents == ()
        z = T.relu(T.mul(x, x))
        assert z._backward_fn is not None
        np.testing.assert_array_equal(y.data, z.data)

    def test_restores_recording_after_exception(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NumericError):
            with T.no_grad():
                T.softmax(T.Tensor([np.nan]))
        T.tsum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0])


class TestFloat64:
    def test_switches_the_dtype_and_nests(self):
        assert T.Tensor([1.0]).data.dtype == np.float32
        with T.float64():
            with T.float64():
                pass
            # leaving the inner block keeps the outer one in force
            x = T.Tensor([1.0], requires_grad=True)
            y = T.mul(x, 2.0)
            assert x.data.dtype == y.data.dtype == np.float64
            T.tsum(y).backward()
            assert x.grad.dtype == np.float64
        assert T.mul(T.Tensor([1.0]), 2.0).data.dtype == np.float32

    def test_restores_the_dtype_after_exception(self):
        with pytest.raises(NumericError):
            with T.float64():
                T.softmax(T.Tensor([np.nan]))
        assert T.Tensor([1.0]).data.dtype == np.float32


class TestGradCheck:
    def test_runs_in_float64_and_puts_the_float32_arrays_back(self):
        params = ParamRegistry()
        rng = make_rng(0)
        x = params.register("x", rng.normal(size=(3, 4)))
        w = params.register("w", rng.normal(size=(4, 2)))
        before = {k: (p.data, p.data.tobytes()) for k, p in params.items()}
        seen = set()

        def f():
            seen.update((x.data.dtype, w.data.dtype))
            return T.tsum(T.tanh(T.matmul(x, w)))

        rep = grad_check(f, params)
        assert rep.passed and seen == {np.dtype(np.float64)}
        for k, p in params.items():
            assert p.data is before[k][0] and p.data.dtype == np.float32
            assert p.data.tobytes() == before[k][1]
            assert p.grad is None
        assert T.Tensor([1.0]).data.dtype == np.float32

    def test_quadratic(self):
        params = ParamRegistry()
        x = params.register("x", np.array([3.0]))
        rep = grad_check(lambda: T.tsum(T.mul(x, x)), params)
        assert rep.passed
        assert rep.max_rel_err < 1e-7

    def test_constant(self):
        params = ParamRegistry()
        params.register("x", np.array([3.0]))
        rep = grad_check(lambda: T.Tensor(np.float64(5.0)), params)
        assert rep.passed
        assert rep.max_rel_err == 0.0

    def test_nondeterministic_rejected(self):
        import itertools
        params = ParamRegistry()
        x = params.register("x", np.array([1.0]))
        counter = itertools.count()
        with pytest.raises(ContractError):
            grad_check(lambda: T.tsum(x) * float(next(counter)), params)
        assert x.data.dtype == np.float32 and x.grad is None


OPS_FOR_CHECK = [
    ("matmul", lambda p: T.tsum(T.tanh(T.matmul(p["a2"], p["b2"])))),
    ("matmul_vec", lambda p: T.tsum(T.tanh(T.matmul(p["row"], p["b2"])))),
    ("conv2d", lambda p: T.tsum(T.tanh(T.conv2d(p["img"], p["ker"], stride=2, pad=1)))),
    ("softmax", lambda p: T.tsum(T.mul(T.softmax(p["vec"]), p["vec"]))),
    ("relu", lambda p: T.tsum(T.relu(p["vec"]))),
    ("tanh", lambda p: T.tsum(T.tanh(p["vec"]))),
    ("sigmoid", lambda p: T.tsum(T.sigmoid(p["vec"]))),
    ("exp", lambda p: T.tsum(T.exp(p["vec"]))),
    ("add_broadcast", lambda p: T.tsum(T.mul(T.add(p["a2"], p["row"]), p["a2"]))),
    ("concat", lambda p: T.tsum(T.tanh(T.concat([p["vec"], p["row"]], axis=0)))),
    ("take", lambda p: T.tsum(T.mul(p["vec"][1:3], p["vec"][0:2]))),
    ("mean", lambda p: T.tmean(T.mul(p["a2"], p["a2"]))),
    ("transpose", lambda p: T.tsum(T.matmul(p["a2"].T, p["a2"]))),
]


@pytest.mark.parametrize("name,fn", OPS_FOR_CHECK, ids=[n for n, _ in OPS_FOR_CHECK])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_op_grad_check(name, fn, seed):
    # 3 seeds x several shapes per the numeric-core invariant
    rng = make_rng(seed)
    shapes = {
        "a2": (3 + seed, 4),
        "b2": (4, 2 + seed),
        "row": (4,) if name != "concat" else (5,),
        "vec": (4 + seed,),
        "img": (2, 5 + 2 * seed, 7),
        "ker": (3, 2, 3, 3),
    }
    params = ParamRegistry()
    tensors = {}
    for key, shape in shapes.items():
        tensors[key] = params.register(key, rng.normal(size=shape))
    if name == "concat":
        shapes["row"] = (5,)
    rep = grad_check(lambda: fn(tensors), params)
    assert rep.passed, f"{name}: max rel err {rep.max_rel_err}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_norm_grad_check(seed):
    rng = make_rng(seed)
    params = ParamRegistry()
    x = params.register("x", rng.normal(size=(3, 5 + seed, 2)))
    g = params.register("g", rng.normal(size=3))
    b = params.register("b", rng.normal(size=3))

    def f():
        rm, rv = np.zeros(3), np.ones(3)  # fresh stats: keeps f deterministic
        return T.tsum(T.tanh(T.batch_norm(x, g, b, rm, rv, training=True)))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err


def test_dropout_grad_check_fixed_mask():
    # deterministic by re-seeding the mask inside f
    params = ParamRegistry()
    x = params.register("x", make_rng(3).normal(size=8))

    def f():
        return T.tsum(T.mul(T.dropout(x, 0.5, make_rng(11)), x))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err


def _gradcheck_row(op, args, kwargs):
    """The verify.OP_CLOSURES row that checks one call of a navfuse.tensor op."""
    if op in ("matmul", "linear") and np.ndim(getattr(args[0], "data", args[0])) == 1:
        return op + "_vec"
    if op == "conv2d" and kwargs.get("stride", args[2] if len(args) > 2 else 1) != 1:
        return "conv2d_stride2"
    return {"tsum": "sum", "tmean": "mean"}.get(op, op)


def test_every_op_a_training_step_runs_has_a_gradcheck_row(monkeypatch):
    # wrap each op at its module attribute, where every caller looks it up
    # (Tensor.__getitem__ and .T too), as the traced benchmark does
    ops = [name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in ("no_grad", "assert_finite")]
    seen = set()
    for op in ops:
        def counted(*args, _op=op, _fn=getattr(T, op), **kwargs):
            seen.add(_gradcheck_row(_op, args, kwargs))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(T, op, counted)

    model = init_pipeline(small_pipeline_config(), seed=0)
    lf = small_synth_frames(3)[0]
    res = pipeline_step(lf.frame, initial_state(model.cfg), model, mode="train",
                        rng=make_rng(0), label=lf)
    res.loss.backward()
    assert {"take", "matmul_vec", "linear_vec", "conv2d_stride2", "dropout"} <= seen
    assert seen - {name for name, _ in OP_CLOSURES} == set()
