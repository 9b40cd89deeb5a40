import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demesh.stn import (DegenerateLandmarksError, SampleGrid,
                        SimilarityParams, TARGET_EYES, _corner_weights,
                        alignment_grid, bilinear_backward, bilinear_sample,
                        denormalize_coords, generate_grid, normalize_coords,
                        resize_grid, solve_similarity)


# ---------------------------------------------------------------------------
# coordinate normalization
# ---------------------------------------------------------------------------

def test_normalize_endpoints():
    assert normalize_coords(0, 0, 128, 128) == (-1.0, -1.0)
    assert normalize_coords(127, 127, 128, 128) == (1.0, 1.0)

def test_normalize_center_of_odd_extent_is_zero():
    xn, yn = normalize_coords(3, 2, 5, 7)
    assert xn == 0.0 and yn == 0.0

def test_normalize_direct_evaluation():
    xn, yn = normalize_coords(96, 32, 128, 128)
    assert xn == pytest.approx(96 * 2 / 127 - 1, abs=1e-12)
    assert yn == pytest.approx(32 * 2 / 127 - 1, abs=1e-12)

def test_denormalize_inverts_normalize():
    xs = np.linspace(0, 47, 20)
    ys = np.linspace(0, 63, 20)
    xn, yn = normalize_coords(xs, ys, 64, 48)
    xb, yb = denormalize_coords(xn, yn, 64, 48)
    np.testing.assert_allclose(xb, xs, atol=1e-12)
    np.testing.assert_allclose(yb, ys, atol=1e-12)


# ---------------------------------------------------------------------------
# similarity solve
# ---------------------------------------------------------------------------

def test_solve_identity_correspondence():
    p = solve_similarity(*TARGET_EYES)
    assert (p.a, p.b, p.tx, p.ty) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)

def test_solve_quarter_turn_correspondence():
    # crop rotated a quarter turn: left target eye lands at (-0.5, 0.5)
    p = solve_similarity((-0.5, 0.5), (-0.5, -0.5))
    assert p.a == pytest.approx(0.0, abs=1e-14)
    assert abs(p.b) == pytest.approx(1.0, abs=1e-14)
    # the round trip is the authoritative statement of correctness
    for (xt, yt), src in zip(TARGET_EYES, ((-0.5, 0.5), (-0.5, -0.5))):
        xs, ys = p.apply(np.array(xt), np.array(yt))
        assert (float(xs), float(ys)) == pytest.approx(src, abs=1e-12)

def test_solve_round_trip_residual_on_random_landmarks():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        left = tuple(rng.uniform(-0.9, 0.9, size=2))
        right = tuple(rng.uniform(-0.9, 0.9, size=2))
        if np.hypot(right[0] - left[0], right[1] - left[1]) < 1e-3:
            continue
        p = solve_similarity(left, right)
        for (xt, yt), src in zip(TARGET_EYES, (left, right)):
            xs, ys = p.apply(np.array(xt), np.array(yt))
            assert abs(float(xs) - src[0]) < 1e-12
            assert abs(float(ys) - src[1]) < 1e-12

def test_solve_rejects_coincident_eyes():
    with pytest.raises(DegenerateLandmarksError):
        solve_similarity((0.1, 0.2), (0.1, 0.2))

def test_batched_solve_names_the_first_coincident_pair():
    left = [(0.0, 0.0), (0.1, 0.2), (0.3, 0.3)]
    right = [(0.5, 0.0), (0.1, 0.2), (0.3, 0.3)]
    with pytest.raises(DegenerateLandmarksError, match=r"\(0\.1, 0\.2\)"):
        solve_similarity(left, right)


# ---------------------------------------------------------------------------
# grid generation
# ---------------------------------------------------------------------------

def test_identity_grid_is_the_regular_target_grid():
    grid = generate_grid(SimilarityParams(1, 0, 0, 0), 4, 6)
    assert grid.shape == (1, 4, 6)
    np.testing.assert_allclose(grid.xs[0], np.tile(np.linspace(-1, 1, 6), (4, 1)))
    np.testing.assert_allclose(grid.ys[0], np.tile(np.linspace(-1, 1, 4)[:, None], (1, 6)))

def test_translation_shifts_every_grid_point():
    base = generate_grid(SimilarityParams(1, 0, 0, 0), 3, 3)
    moved = generate_grid(SimilarityParams(1, 0, 0.1, 0), 3, 3)
    np.testing.assert_allclose(moved.xs, base.xs + 0.1, atol=1e-15)
    np.testing.assert_allclose(moved.ys, base.ys, atol=1e-15)

def test_grid_is_affine_in_target_coords():
    rng = np.random.default_rng(22)
    p = SimilarityParams(*rng.normal(size=4))
    grid = generate_grid(p, 7, 9)
    for arr in (grid.xs[0], grid.ys[0]):
        row_second = np.diff(arr, n=2, axis=1)
        col_second = np.diff(arr, n=2, axis=0)
        np.testing.assert_allclose(row_second, 0.0, atol=1e-12)
        np.testing.assert_allclose(col_second, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def test_sampling_at_exact_pixel_centers_copies_pixels():
    rng = np.random.default_rng(23)
    img = rng.normal(size=(3, 2, 5, 7))
    grid = resize_grid(3, 5, 7)  # identity on matching extents
    np.testing.assert_array_equal(bilinear_sample(img, grid), img)

def test_sample_at_geometric_center_of_2x2():
    img = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2)
    grid = SampleGrid(np.array([[[0.0]]]), np.array([[[0.0]]]))
    assert bilinear_sample(img, grid)[0, 0, 0, 0] == pytest.approx(1.5, abs=1e-15)

def test_constant_image_stays_constant_for_in_range_grids():
    rng = np.random.default_rng(24)
    img = np.full((2, 1, 8, 8), 0.7)
    grid = SampleGrid(rng.uniform(-0.99, 0.99, size=(2, 4, 4)),
                      rng.uniform(-0.99, 0.99, size=(2, 4, 4)))
    np.testing.assert_allclose(bilinear_sample(img, grid), 0.7, atol=1e-12)

def test_backward_identity_grid_passes_gradient_through():
    rng = np.random.default_rng(25)
    g = rng.normal(size=(2, 1, 6, 5))
    out = bilinear_backward(g, resize_grid(2, 6, 5), (6, 5))
    np.testing.assert_array_equal(out, g)

def test_backward_fully_out_of_range_grid_is_zero():
    grid = SampleGrid(np.full((1, 3, 3), 5.0), np.full((1, 3, 3), -7.0))
    out = bilinear_backward(np.ones((1, 1, 3, 3)), grid, (4, 4))
    assert not out.any()

def test_sample_backward_adjoint_identity():
    rng = np.random.default_rng(26)
    for _ in range(20):
        grid = SampleGrid(rng.uniform(-1.3, 1.3, size=(3, 5, 4)),
                          rng.uniform(-1.3, 1.3, size=(3, 5, 4)))
        u = rng.normal(size=(3, 2, 6, 7))
        v = rng.normal(size=(3, 2, 5, 4))
        lhs = np.sum(bilinear_sample(u, grid) * v)
        rhs = np.sum(u * bilinear_backward(v, grid, (6, 7)))
        assert abs(lhs - rhs) < 1e-10

def test_sampler_rejects_mismatched_gradient_shape():
    grid = resize_grid(2, 4, 4)
    with pytest.raises(Exception, match="does not match"):
        bilinear_backward(np.ones((2, 1, 3, 3)), grid, (4, 4))
    with pytest.raises(Exception, match="does not match"):
        bilinear_backward(np.ones((3, 1, 4, 4)), grid, (4, 4))

def test_sampler_rejects_a_batch_the_grid_does_not_cover():
    with pytest.raises(Exception, match="expected 2"):
        bilinear_sample(np.ones((3, 1, 4, 4)), resize_grid(2, 4, 4))


# ---------------------------------------------------------------------------
# full alignment
# ---------------------------------------------------------------------------

def test_align_is_pixel_exact_when_eyes_already_sit_at_targets():
    # 33x33 image, eyes at pixels (8, 8) and (24, 8): exactly the normalized
    # (-0.5,-0.5) / (0.5,-0.5) targets, so alignment is the identity
    rng = np.random.default_rng(28)
    img = rng.uniform(size=(1, 33, 33))
    eyes = np.array([[[8.0, 8.0], [24.0, 8.0]]])
    crop = bilinear_sample(img[None], alignment_grid(eyes, 33, 33, 33, 33))
    np.testing.assert_array_equal(crop[0], img)

def test_align_translation_equivariance_under_joint_integer_shifts():
    rng = np.random.default_rng(29)
    img = np.zeros((1, 40, 40))
    img[0, 12:24, 12:24] = rng.uniform(size=(12, 12))
    eyes = np.array([[15.0, 16.0], [21.0, 16.0]])
    shifted = np.zeros_like(img)
    shifted[0, 14:26, 9:21] = img[0, 12:24, 12:24]
    # both placements in one batch, each with its own landmarks
    grid = alignment_grid(np.stack([eyes, eyes + (-3.0, 2.0)]), 40, 40, 12, 12)
    crop, crop2 = bilinear_sample(np.stack([img, shifted]), grid)
    np.testing.assert_allclose(crop2, crop, atol=1e-12)

def test_alignment_sample_differentiable_wrt_image_through_public_api():
    eyes = np.array([[[3.0, 3.5], [8.5, 3.2]]])
    img = np.random.default_rng(31).uniform(size=(1, 1, 12, 12))
    crop = bilinear_sample(img, alignment_grid(eyes, 12, 12, 6, 6))
    assert crop.shape == (1, 1, 6, 6)
    assert np.all(np.isfinite(crop))


# ---------------------------------------------------------------------------
# batched path against a per-image reference
# ---------------------------------------------------------------------------

def _reference_grid(eyes, src_h, src_w, crop_h, crop_w):
    """One sample's grid, solved and generated on its own."""
    rows, rhs = [], []
    for (xt, yt), (x, y) in zip(TARGET_EYES, eyes):
        xn, yn = normalize_coords(x, y, src_h, src_w)
        rows += [[xt, yt, 1.0, 0.0], [yt, -xt, 0.0, 1.0]]
        rhs += [float(xn), float(yn)]
    a, b, tx, ty = (float(v) for v in np.linalg.solve(np.array(rows),
                                                      np.array(rhs)))
    xg, yg = np.meshgrid(np.linspace(-1.0, 1.0, crop_w),
                         np.linspace(-1.0, 1.0, crop_h))
    return a * xg + b * yg + tx, -b * xg + a * yg + ty


def _reference_corners(xs, ys, h, w):
    px, py = denormalize_coords(xs.ravel(), ys.ravel(), h, w)
    px = np.where(np.abs(px - np.round(px)) < 1e-9, np.round(px), px)
    py = np.where(np.abs(py - np.round(py)) < 1e-9, np.round(py), py)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    for yi, wy in ((y0, 1.0 - (py - y0)), (y0 + 1, py - y0)):
        for xi, wx in ((x0, 1.0 - (px - x0)), (x0 + 1, px - x0)):
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            yield np.where(valid, yi * w + xi, 0), wx * wy * valid


def _reference_sample(image, xs, ys):
    c, h, w = image.shape
    out = np.zeros((c, xs.size))
    for idx, wgt in _reference_corners(xs, ys, h, w):
        out += image.reshape(c, -1)[:, idx] * wgt
    return out.reshape(c, *xs.shape)


def _reference_backward(grad, xs, ys, h, w):
    c = grad.shape[0]
    grad_in = np.zeros((c, h * w))
    for idx, wgt in _reference_corners(xs, ys, h, w):
        np.add.at(grad_in, (np.arange(c)[:, None], idx[None, :]),
                  grad.reshape(c, -1) * wgt)
    return grad_in.reshape(c, h, w)


@st.composite
def sampler_batches(draw):
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    h, w = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    crop_h, crop_w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    eyes = []
    for _ in range(n):
        # eyes anywhere around the frame, so crops run partly off the image
        lx, ly = rng.uniform(-0.5 * w, 1.5 * w), rng.uniform(-0.5 * h, 1.5 * h)
        span, angle = rng.uniform(0.5, w), rng.uniform(-1.0, 1.0)
        eyes.append([[lx, ly], [lx + span * np.cos(angle),
                                ly + span * np.sin(angle)]])
    images = rng.normal(size=(n, c, h, w))
    grads = rng.normal(size=(n, c, crop_h, crop_w))
    return np.array(eyes), images, grads


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sampler_batches())
def test_batched_sampler_matches_per_image_reference_bitwise(batch):
    eyes, images, grads = batch
    n, _, h, w = images.shape
    crop_h, crop_w = grads.shape[2:]
    grid = alignment_grid(eyes, h, w, crop_h, crop_w)
    assert grid.shape == (n, crop_h, crop_w)
    crops = bilinear_sample(images, grid)
    back = bilinear_backward(grads, grid, (h, w))
    for i in range(n):
        xs, ys = _reference_grid(eyes[i], h, w, crop_h, crop_w)
        np.testing.assert_array_equal(grid.xs[i], xs)
        np.testing.assert_array_equal(grid.ys[i], ys)
        np.testing.assert_array_equal(crops[i], _reference_sample(images[i], xs, ys))
        np.testing.assert_array_equal(back[i],
                                      _reference_backward(grads[i], xs, ys, h, w))


def _add_at_backward(grad_out, grid, input_hw):
    """The batched adjoint as one ``np.add.at`` per bilinear corner, the
    form ``bilinear_backward`` had before its single ``np.bincount``."""
    n, c = grad_out.shape[:2]
    h, w = input_hw
    grad_in = np.zeros((n, c, h * w))
    g = grad_out.reshape(n, c, -1)
    samples = np.arange(n)[:, None, None]
    channels = np.arange(c)[None, :, None]
    for idx, wgt in _corner_weights(grid, h, w):
        np.add.at(grad_in, (samples, channels, idx[:, None, :]),
                  g * wgt[:, None, :])
    return grad_in.reshape(n, c, h, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sampler_batches())
def test_bincount_backward_is_bitwise_the_add_at_scatter(batch):
    eyes, images, grads = batch
    h, w = images.shape[2:]
    grid = alignment_grid(eyes, h, w, *grads.shape[2:])
    assert bilinear_backward(grads, grid, (h, w)).tobytes() == \
        _add_at_backward(grads, grid, (h, w)).tobytes()

