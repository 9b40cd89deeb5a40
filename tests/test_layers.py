import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demesh.layers import (Conv2d, Dense, FrozenParameterError,
                           INFERENCE_CHUNK, MaxFeatureMap,
                           MaxPool2x2, MaxUnpool2x2, NonFiniteGradientError,
                           NoRecordError, Param, ReLU, ShapeError, Sigmoid,
                           adam_step,
                           gather_pool_indices, grad_check, map_chunks,
                           maxpool2_indices, mfm, mfm_backward,
                           softmax_cross_entropy, unpool_indices)
from demesh.trainer import PSI_BLOCK


def scalar_through(layer, x, weights):
    """Build fn(x) = <weights, layer(x)> with its analytic input gradient."""
    def fn(inp):
        out = layer.forward(inp)
        for p in layer.params():
            p.zero_grad()
        grad_in = layer.backward(weights)
        return float(np.sum(out * weights)), grad_in
    return fn


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_identity_kernel_copies_input():
    conv = Conv2d(1, 1, 1)
    conv.weight.value[:] = 1.0
    x = np.arange(12.0).reshape(1, 1, 3, 4)
    np.testing.assert_array_equal(conv.forward(x), x)

def test_conv_single_window_dot_product():
    # [[1,2],[3,4]] against a 2x2 kernel of ones: 1+2+3+4 = 10
    conv = Conv2d(1, 1, 2)
    conv.weight.value[:] = 1.0
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = conv.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 10.0

def test_conv_output_extent_formula():
    rng = np.random.default_rng(0)
    for h, w, k, p in [(5, 7, 3, 0), (8, 8, 3, 1), (9, 6, 5, 2), (4, 4, 1, 0),
                       (6, 5, 3, 2)]:
        conv = Conv2d(2, 3, k, pad=p, rng=rng)
        out = conv.forward(rng.normal(size=(1, 2, h, w)))
        assert out.shape[2] == h + 2 * p - k + 1
        assert out.shape[3] == w + 2 * p - k + 1

@pytest.mark.parametrize("k, p", [(3, 3), (1, 1), (3, -1)])
def test_conv_rejects_padding_the_flipped_kernel_backward_cannot_handle(k, p):
    with pytest.raises(ValueError, match="pad must be in"):
        Conv2d(1, 1, k, pad=p)

def test_conv_channel_mismatch_names_dimensions():
    conv = Conv2d(3, 4, 3, name="enc1")
    with pytest.raises(ShapeError, match="enc1.*2 channels.*expects 3"):
        conv.forward(np.zeros((1, 2, 8, 8)))

def test_conv_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    conv = Conv2d(4, 3, 3, pad=1, rng=rng)
    x = rng.normal(size=(1, 4, 5, 5))
    weights = rng.normal(size=(1, 3, 5, 5))
    report = grad_check(scalar_through(conv, x, weights), x)
    assert report.passed, report

def test_conv_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    conv = Conv2d(2, 3, 3, pad=1, rng=rng)
    x = rng.normal(size=(2, 2, 6, 6))
    weights = rng.normal(size=(2, 3, 6, 6))

    def fn_of_weight(w):
        conv.weight.value = w
        conv.weight.zero_grad()
        out = conv.forward(x)
        conv.backward(weights)
        return float(np.sum(out * weights)), conv.weight.grad.copy()

    def fn_of_bias(b):
        conv.bias.value = b
        conv.bias.zero_grad()
        out = conv.forward(x)
        conv.backward(weights)
        return float(np.sum(out * weights)), conv.bias.grad.copy()

    assert grad_check(fn_of_weight, conv.weight.value.copy()).passed
    assert grad_check(fn_of_bias, conv.bias.value.copy()).passed


# The batch-wide im2col lowering the per-image conv replaced. Its patch
# matrix is (N, C*k*k, OH*OW); the stacked matmul runs the same GEMM per
# image that the layer now runs one image at a time.
def _ref_im2col(x, k, pad):
    n, c, h, w = x.shape
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, k, k, oh, ow))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + oh, kj:kj + ow]
    return cols.reshape(n, c * k * k, oh * ow)

def _ref_corr2d(x, weight, pad):
    n, _, h, w = x.shape
    oc, _, k, _ = weight.shape
    out = np.matmul(weight.reshape(oc, -1), _ref_im2col(x, k, pad))
    return out.reshape(n, oc, h + 2 * pad - k + 1, w + 2 * pad - k + 1)

def _ref_conv(x, weight, bias, pad, grad):
    """Output, input gradient and the weight and bias gradients accumulated
    into zeroed parameters, all through the batch-wide lowering."""
    n, oc, oh, ow = grad.shape
    k = weight.shape[2]
    cols = _ref_im2col(x, k, pad)
    out = np.matmul(weight.reshape(oc, -1), cols)
    out += bias[:, None]
    g_mat = grad.reshape(n, oc, oh * ow)
    dw = np.zeros(weight.shape)
    dw += np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    db = np.zeros(oc)
    db += grad.sum(axis=(0, 2, 3))
    w_flip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = _ref_corr2d(grad, np.ascontiguousarray(w_flip), k - 1 - pad)
    return out.reshape(n, oc, oh, ow), dx, dw, db

def _conv_case(n, c, o, k, pad, h, w, seed):
    rng = np.random.default_rng(seed)
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    return (rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c, k, k)),
            rng.normal(size=o), pad, rng.normal(size=(n, o, oh, ow)))

@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5, 7]))
    pad = draw(st.integers(0, k - 1))
    smallest = max(1, k - 2 * pad)  # one output pixel
    return _conv_case(draw(st.integers(1, 9)), draw(st.integers(1, 5)),
                      draw(st.integers(1, 5)), k, pad,
                      draw(st.integers(smallest, smallest + 8)),
                      draw(st.integers(smallest, smallest + 8)),
                      draw(st.integers(0, 2 ** 32 - 1)))

@settings(max_examples=200, deadline=None, derandomize=True)
@given(conv_cases())
@example(_conv_case(9, 1, 1, 1, 0, 5, 4, seed=0))
@example(_conv_case(9, 1, 1, 1, 0, 1, 1, seed=1))
def test_conv_matches_batch_im2col_reference_bitwise(case):
    x, weight, bias, pad, grad = case
    conv = Conv2d(weight.shape[1], weight.shape[0], weight.shape[2], pad=pad)
    conv.weight.value[...] = weight
    conv.bias.value[...] = bias
    got = (conv.forward(x), conv.backward(grad), conv.weight.grad,
           conv.bias.grad)
    for name, g, r in zip(("out", "dx", "dw", "db"), got,
                          _ref_conv(x, weight, bias, pad, grad)):
        assert g.shape == r.shape and g.tobytes() == r.tobytes(), name

def test_conv_forward_peak_memory_stays_below_twice_the_input():
    # the batch-wide patch matrix alone would be 9x the input
    x = np.random.default_rng(17).normal(size=(8, 16, 64, 48))
    conv = Conv2d(16, 1, 3, pad=1, rng=np.random.default_rng(18))
    tracemalloc.start()
    try:
        conv.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes


# ---------------------------------------------------------------------------
# pooling / unpooling
# ---------------------------------------------------------------------------

def test_pool_single_window_takes_max_and_records_position():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out, idx = maxpool2_indices(x)
    assert out[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 3  # window position (1, 1) = 2*1 + 1

def test_pool_constant_ties_break_to_first_scan_position():
    out, idx = maxpool2_indices(np.full((1, 2, 4, 4), 5.0))
    np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 5.0))
    np.testing.assert_array_equal(idx, np.zeros((1, 2, 2, 2), dtype=idx.dtype))

def test_pool_rejects_odd_extents():
    with pytest.raises(ShapeError, match="even"):
        maxpool2_indices(np.zeros((1, 1, 3, 4)))

def test_unpool_single_window_scatter():
    pooled = np.array(4.0).reshape(1, 1, 1, 1)
    idx = np.array(3, dtype=np.int64).reshape(1, 1, 1, 1)
    out = unpool_indices(pooled, idx, (2, 2))
    np.testing.assert_array_equal(out[0, 0], [[0.0, 0.0], [0.0, 4.0]])

def test_unpool_zero_input_gives_zero_output():
    idx = np.zeros((1, 1, 2, 2), dtype=np.int64)
    out = unpool_indices(np.zeros((1, 1, 2, 2)), idx, (4, 4))
    assert not out.any()

def test_unpool_rejects_out_of_range_indices():
    idx = np.full((1, 1, 1, 1), 4, dtype=np.int64)
    with pytest.raises(ValueError, match="out of bounds"):
        unpool_indices(np.ones((1, 1, 1, 1)), idx, (2, 2))

def test_pool_unpool_round_trip_is_sparse_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 8, 8))
    pooled, idx = maxpool2_indices(x)
    restored = unpool_indices(pooled, idx, (8, 8))
    # plain-loop oracle: the recorded position of every window holds the
    # pooled value, everything else is zero
    expected = np.zeros_like(x)
    for n, c, i, j in np.ndindex(pooled.shape):
        r, col = divmod(int(idx[n, c, i, j]), 2)
        expected[n, c, 2 * i + r, 2 * j + col] = pooled[n, c, i, j]
    np.testing.assert_array_equal(restored, expected)

def test_pool_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    pool = MaxPool2x2()
    x = rng.normal(size=(1, 2, 6, 6))
    weights = rng.normal(size=(1, 2, 3, 3))
    assert grad_check(scalar_through(pool, x, weights), x).passed

def test_unpool_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    pool = MaxPool2x2()
    pool.forward(rng.normal(size=(1, 2, 8, 8)))
    unpool = MaxUnpool2x2(pool)
    x = rng.normal(size=(1, 2, 4, 4))
    weights = rng.normal(size=(1, 2, 8, 8))
    assert grad_check(scalar_through(unpool, x, weights), x).passed

def test_gather_is_adjoint_of_unpool_scatter():
    rng = np.random.default_rng(6)
    _, idx = maxpool2_indices(rng.normal(size=(1, 2, 8, 8)))
    u = rng.normal(size=(1, 2, 4, 4))
    v = rng.normal(size=(1, 2, 8, 8))
    lhs = np.sum(unpool_indices(u, idx, (8, 8)) * v)
    rhs = np.sum(u * gather_pool_indices(v, idx))
    assert abs(lhs - rhs) < 1e-12

# The four-way stack, argmax and masked sums the pairwise pooling kernels
# replaced.
def _ref_window_views(x):
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
            x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])

def _ref_maxpool2(x):
    stacked = np.stack(_ref_window_views(x))
    idx = stacked.argmax(axis=0)
    return np.take_along_axis(stacked, idx[None], axis=0)[0], idx

def _ref_unpool(x, indices):
    n, c, oh, ow = x.shape
    out = np.zeros((n, c, 2 * oh, 2 * ow))
    for q, view in enumerate(_ref_window_views(out)):
        view += x * (indices == q)
    return out

def _ref_gather(grad, indices):
    out = np.zeros(indices.shape, dtype=np.float64)
    for q, view in enumerate(_ref_window_views(grad)):
        out += view * (indices == q)
    return out

# few distinct values, so most windows hold ties; -0.0 ties +0.0
_TIE_VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])

@st.composite
def pool_cases(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             2 * draw(st.integers(1, 5)), 2 * draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.choice(_TIE_VALUES, size=shape)
    if draw(st.booleans()):  # argmax's rule: the first NaN wins
        x[rng.random(shape) < 0.1] = rng.choice([np.nan, -np.nan, np.inf,
                                                 -np.inf])
    grad = rng.choice(_TIE_VALUES, size=shape)
    return x, grad

@settings(max_examples=500, deadline=None, derandomize=True)
@given(pool_cases())
def test_pool_kernels_match_stack_argmax_reference_bitwise(case):
    x, grad = case
    out, idx = maxpool2_indices(x)
    ref_out, ref_idx = _ref_maxpool2(x)
    assert out.tobytes() == ref_out.tobytes()
    assert idx.dtype == np.int8 and np.array_equal(idx, ref_idx)
    with np.errstate(invalid="ignore"):  # inf * 0 in the reference
        up, ref_up = unpool_indices(out, idx, x.shape[2:]), _ref_unpool(out, idx)
    assert up.tobytes() == ref_up.tobytes()
    back, ref_back = gather_pool_indices(grad, idx), _ref_gather(grad, idx)
    assert back.dtype == ref_back.dtype and back.tobytes() == ref_back.tobytes()



# ---------------------------------------------------------------------------
# max-feature-map
# ---------------------------------------------------------------------------

def test_mfm_takes_channelwise_max():
    x = np.zeros((1, 2, 1, 1))
    x[0, 0] = 1.0
    x[0, 1] = 3.0
    assert mfm(x)[0, 0, 0, 0] == 3.0

def test_mfm_rejects_odd_channel_count():
    with pytest.raises(ShapeError, match="even channel"):
        mfm(np.zeros((1, 3, 2, 2)))

def test_mfm_tie_routes_gradient_to_first_half():
    x = np.ones((1, 4, 2, 2))
    out = mfm(x)
    np.testing.assert_array_equal(out, np.ones((1, 2, 2, 2)))
    grad = mfm_backward(np.ones((1, 2, 2, 2)), x[:, :2] >= x[:, 2:])
    np.testing.assert_array_equal(grad[:, :2], np.ones((1, 2, 2, 2)))
    np.testing.assert_array_equal(grad[:, 2:], np.zeros((1, 2, 2, 2)))

def test_mfm_gradient_matches_finite_differences_away_from_ties():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 4, 3, 3))
    # keep every pairwise comparison far from the tie so fd stays one-sided
    gaps = np.abs(x[:, :2] - x[:, 2:])
    x[:, :2] += np.where(gaps < 1e-3, 0.1, 0.0)
    layer = MaxFeatureMap()
    weights = rng.normal(size=(1, 2, 3, 3))
    assert grad_check(scalar_through(layer, x, weights), x).passed

def test_mfm_works_on_flat_feature_vectors():
    x = np.array([[1.0, 5.0, 2.0, 0.5]])
    np.testing.assert_array_equal(mfm(x), [[2.0, 5.0]])

def _ref_mfm_backward(grad, x):
    """The two products and the concatenate the mask-record backward
    replaced."""
    half = x.shape[1] // 2
    first_wins = x[:, :half] >= x[:, half:]
    return np.concatenate([grad * first_wins, grad * ~first_wins], axis=1)

_MFM_VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan, -np.nan, np.inf,
                        -np.inf])

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_mfm_mask_record_backward_is_bitwise_the_reference(n, half, flat,
                                                           seed):
    rng = np.random.default_rng(seed)
    shape = (n, 2 * half) if flat else (n, 2 * half, 3, 2)
    # few distinct values, so most pairs tie, ±0 included
    x = rng.choice(_MFM_VALUES, size=shape)
    grad = rng.choice(_MFM_VALUES, size=(n, half, *shape[2:]))
    layer = MaxFeatureMap()
    with np.errstate(invalid="ignore"):  # inf * 0 routes a NaN
        assert layer.forward(x).tobytes() == mfm(x).tobytes()
        expected = _ref_mfm_backward(grad, x)
        assert layer.backward(grad).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------

def _ref_sigmoid(x):
    """The boolean-mask form the one-exp Sigmoid replaced."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y

_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                  5e-324, -5e-324]

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(-800.0, 800.0),
                          st.sampled_from(_SIGMOID_EDGES)),
                min_size=1, max_size=70))
@example(_SIGMOID_EDGES)
def test_sigmoid_matches_the_boolean_mask_reference_bitwise(values):
    x = np.array(values).reshape(1, 1, 1, -1)
    y = Sigmoid().forward(x, keep=False)
    assert y.tobytes() == _ref_sigmoid(x).tobytes()


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def test_dense_identity_weight_copies_flattened_input():
    fc = Dense(6, 6)
    fc.weight.value = np.eye(6)
    x = np.arange(6.0).reshape(1, 2, 3)
    np.testing.assert_array_equal(fc.forward(x)[0], np.arange(6.0))

def test_dense_ones_weight_sums_input():
    fc = Dense(5, 4)
    fc.weight.value[:] = 1.0
    out = fc.forward(np.ones((2, 5)))
    np.testing.assert_array_equal(out, np.full((2, 4), 5.0))

def test_dense_length_mismatch():
    fc = Dense(6, 2, name="head")
    with pytest.raises(ShapeError, match="head.*length 4"):
        fc.forward(np.zeros((1, 4)))

def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    fc = Dense(6, 3, rng=rng)
    x = rng.normal(size=(2, 6))
    weights = rng.normal(size=(2, 3))
    assert grad_check(scalar_through(fc, x, weights), x).passed

    def fn_of_weight(w):
        fc.weight.value = w
        fc.weight.zero_grad()
        out = fc.forward(x)
        fc.backward(weights)
        return float(np.sum(out * weights)), fc.weight.grad.copy()

    assert grad_check(fn_of_weight, fc.weight.value.copy()).passed


# ---------------------------------------------------------------------------
# gradients nobody reads
# ---------------------------------------------------------------------------

_PARAM_LAYERS = {
    "conv": (lambda: Conv2d(2, 4, 3, pad=1, rng=np.random.default_rng(0)),
             (3, 2, 5, 4)),
    "dense": (lambda: Dense(2 * 5 * 4, 3, rng=np.random.default_rng(0)),
              (3, 2, 5, 4)),
}

def _backward_once(layer, shape, **kwargs):
    rng = np.random.default_rng(1)
    out = layer.forward(rng.normal(size=shape))
    return layer.backward(rng.normal(size=out.shape), **kwargs)

@pytest.mark.parametrize("kind", sorted(_PARAM_LAYERS))
def test_frozen_layer_leaves_its_grads_zero_and_the_input_gradient_bitwise(
        kind):
    make, shape = _PARAM_LAYERS[kind]
    live, frozen = make(), make()
    for p in frozen.params():
        p.frozen = True
    expected = _backward_once(live, shape)
    got = _backward_once(frozen, shape)
    assert got.tobytes() == expected.tobytes()
    assert all(p.grad.any() for p in live.params())
    assert not any(p.grad.any() for p in frozen.params())

def test_conv_without_input_gradient_gives_bitwise_the_parameter_gradients():
    make, shape = _PARAM_LAYERS["conv"]
    full, partial = make(), make()
    _backward_once(full, shape)
    assert _backward_once(partial, shape, input_grad=False) is None
    for a, b in zip(full.params(), partial.params()):
        assert a.grad.tobytes() == b.grad.tobytes()


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters_and_moments_untouched():
    p = Param("w", np.array([1.0, -2.0]))
    adam_step(p, np.zeros(2), lr=0.1)
    np.testing.assert_array_equal(p.value, [1.0, -2.0])
    assert not p.m.any() and not p.v.any()
    assert p.step == 1

def test_adam_single_step_matches_hand_computed_update():
    # one step at g=1, lr=0.1, defaults: m=0.1, v=0.001, m^=1, v^=1,
    # delta = lr * 1 / (sqrt(1) + eps)
    p = Param("w", np.array([0.0]))
    adam_step(p, np.array([1.0]), lr=0.1)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = (1 - beta1) * 1.0
    v = (1 - beta2) * 1.0
    expected = -0.1 * (m / (1 - beta1)) / (np.sqrt(v / (1 - beta2)) + eps)
    np.testing.assert_allclose(p.value, [expected], rtol=0, atol=0)

def test_adam_constant_gradient_update_magnitude_approaches_lr():
    p = Param("w", np.array([0.0]))
    lr = 0.01
    prev = p.value.copy()
    for _ in range(400):
        prev = p.value.copy()
        adam_step(p, np.array([1.0]), lr=lr)
    assert abs(abs((p.value - prev)[0]) - lr) < 1e-4 * lr

def test_adam_step_counter_increments_by_one():
    p = Param("w", np.zeros(3))
    for expected in range(1, 5):
        adam_step(p, np.ones(3), lr=0.1)
        assert p.step == expected

def test_adam_rejects_non_finite_gradient():
    p = Param("w", np.zeros(2))
    with pytest.raises(NonFiniteGradientError, match="'w'"):
        adam_step(p, np.array([1.0, np.nan]), lr=0.1)

def test_adam_rejects_shape_mismatch_and_frozen_params():
    p = Param("w", np.zeros(2))
    with pytest.raises(ShapeError):
        adam_step(p, np.zeros(3), lr=0.1)
    p.frozen = True
    with pytest.raises(FrozenParameterError):
        adam_step(p, np.zeros(2), lr=0.1)


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------

def test_grad_check_accepts_correct_gradient():
    def sum_of_squares(x):
        return float(np.sum(x * x)), 2.0 * x

    x = np.random.default_rng(11).normal(size=(3, 4))
    report = grad_check(sum_of_squares, x)
    assert report.passed and report.max_rel_err < 1e-6

def test_grad_check_through_conv_mfm_dense_stack():
    rng = np.random.default_rng(12)
    conv = Conv2d(1, 4, 3, pad=1, rng=rng)
    act = MaxFeatureMap()
    fc = Dense(2 * 6 * 6, 3, rng=rng)
    weights = rng.normal(size=(1, 3))

    def fn(x):
        out = fc.forward(act.forward(conv.forward(x)))
        for layer in (conv, fc):
            for p in layer.params():
                p.zero_grad()
        grad = conv.backward(act.backward(fc.backward(weights)))
        return float(np.sum(out * weights)), grad

    x = rng.normal(size=(1, 1, 6, 6))
    assert grad_check(fn, x).passed

def test_grad_check_flags_corrupted_backward():
    def wrong(x):
        return float(np.sum(x * x)), -2.0 * x  # sign flipped on purpose

    report = grad_check(wrong, np.random.default_rng(13).normal(size=(2, 2)))
    assert not report.passed


# ---------------------------------------------------------------------------
# shared engine properties
# ---------------------------------------------------------------------------

def test_forward_and_backward_stay_finite_on_random_stacks():
    rng = np.random.default_rng(14)
    for trial in range(5):
        conv = Conv2d(2, 8, 3, pad=1, rng=rng)
        layers = [conv, MaxFeatureMap(), MaxPool2x2(), ReLU(), Sigmoid()]
        x = rng.normal(size=(2, 2, 8, 8)) * 10.0 ** trial
        out = x
        for layer in layers:
            out = layer.forward(out)
        assert np.all(np.isfinite(out))
        grad = rng.normal(size=out.shape)
        for layer in reversed(layers):
            grad = layer.backward(grad)
        assert np.all(np.isfinite(grad))
        assert all(np.all(np.isfinite(p.grad)) for p in conv.params())

def test_forward_is_deterministic_for_identical_inputs():
    rng = np.random.default_rng(15)
    conv1 = Conv2d(1, 4, 3, pad=1, rng=np.random.default_rng(42))
    conv2 = Conv2d(1, 4, 3, pad=1, rng=np.random.default_rng(42))
    x = rng.normal(size=(1, 1, 6, 6))
    np.testing.assert_array_equal(conv1.forward(x), conv2.forward(x))

def test_softmax_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    labels = np.array([0, 2, 1])

    def fn(logits):
        loss, grad = softmax_cross_entropy(logits, labels)
        return loss, grad

    assert grad_check(fn, rng.normal(size=(3, 4))).passed


# ---------------------------------------------------------------------------
# record-free (inference) forward
# ---------------------------------------------------------------------------

def _pool_unpool():
    pool = MaxPool2x2()
    return pool, MaxUnpool2x2(pool)

_LAYERS = {
    "conv": lambda: Conv2d(2, 4, 3, pad=1, rng=np.random.default_rng(0)),
    "pool": MaxPool2x2,
    "mfm": MaxFeatureMap,
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "dense": lambda: Dense(2 * 4 * 4, 3, rng=np.random.default_rng(0)),
}


@pytest.mark.parametrize("kind", sorted(_LAYERS))
def test_record_free_forward_matches_and_clears_the_record(kind):
    layer = _LAYERS[kind]()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 4, 4))
    x[0, 0, 0, :2] = 0.0  # ties and zeros
    recorded = layer.forward(x)
    free = layer.forward(x, keep=False)
    assert free.tobytes() == recorded.tobytes()
    with pytest.raises(NoRecordError, match=type(layer).__name__):
        layer.backward(np.ones_like(free))
    # a recording pass afterwards is differentiable again
    layer.forward(x)
    layer.backward(np.ones_like(recorded))


def test_backward_without_any_forward_raises():
    with pytest.raises(NoRecordError):
        ReLU().backward(np.ones((1, 1, 2, 2)))


def test_unpool_clears_its_pool_indices_after_a_record_free_read():
    pool, unpool = _pool_unpool()
    x = np.random.default_rng(2).normal(size=(2, 3, 4, 4))
    pooled = pool.forward(x, keep=False)
    assert pool.indices is not None  # forward data for the paired unpool
    out = unpool.forward(pooled, keep=False)
    assert out.tobytes() == unpool_indices(pooled, maxpool2_indices(x)[1],
                                           (4, 4)).tobytes()
    assert pool.indices is None
    with pytest.raises(NoRecordError):
        unpool.backward(np.ones_like(out))
    with pytest.raises(NoRecordError):
        pool.backward(np.ones_like(pooled))


def test_unpaired_pool_keeps_no_indices_in_a_record_free_pass():
    pool = MaxPool2x2()
    pool.forward(np.ones((1, 1, 2, 2)), keep=False)
    assert pool.indices is None


def test_recording_unpool_leaves_indices_for_both_backward_passes():
    pool, unpool = _pool_unpool()
    rng = np.random.default_rng(3)
    pooled = pool.forward(rng.normal(size=(1, 2, 4, 4)))
    unpool.forward(pooled)
    unpool.backward(np.ones((1, 2, 4, 4)))
    pool.backward(np.ones_like(pooled))


# ---------------------------------------------------------------------------
# chunked inference
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 1000))
@example(0)
@example(8)
@example(9)
@example(64)
@example(65)
@example(128)
@example(129)
def test_map_chunks_covers_the_rows_in_order_with_near_equal_chunks(n):
    for rows in (INFERENCE_CHUNK, PSI_BLOCK):  # φ's and ψ's bounds
        chunks = []

        def rows_of(chunk):
            chunks.append(chunk)
            return np.arange(n)[chunk]

        np.testing.assert_array_equal(map_chunks(rows_of, n, rows),
                                      np.arange(n))
        lengths = [chunk.stop - chunk.start for chunk in chunks]
        assert len(chunks) == max(1, -(-n // rows))
        assert max(lengths) - min(lengths) <= 1
        assert max(lengths) <= rows
        if n > rows:
            assert min(lengths) >= rows // 2
