from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demesh.featnet import (EARLY_CONV, FINAL_FEATURE, FeatureNet,
                            FeatureSpec, build_phi)
from demesh.layers import (Conv2d, MaxFeatureMap, NoRecordError, ShapeError,
                           grad_check)
from demesh.losses import (LossConfig, VARIANTS, dynamic_c, feature_loss,
                           pixel_loss, reverse_huber, unified_loss,
                           variant_config)
from demesh.stn import alignment_grid, bilinear_sample

TINY_PHI_SPEC = FeatureSpec(crop=8, widths=(4,), feature_width=8)


def tiny_phi(seed=1):
    return build_phi("fixed_random", seed=seed, spec=TINY_PHI_SPEC)


def eyes_for(n, rng, h, w):
    out = []
    for _ in range(n):
        lx = rng.uniform(0.25 * w, 0.4 * w)
        rx = rng.uniform(0.6 * w, 0.75 * w)
        y = rng.uniform(0.3 * h, 0.5 * h)
        out.append([[lx, y], [rx, y + rng.uniform(-1, 1)]])
    return np.array(out)


# ---------------------------------------------------------------------------
# pixel loss
# ---------------------------------------------------------------------------

def test_pixel_loss_zero_when_prediction_matches_target():
    x = np.random.default_rng(0).uniform(size=(2, 1, 4, 4))
    mask = np.zeros_like(x)
    lv = pixel_loss(x, x, mask, lam=1.0)
    assert lv.value == 0.0
    assert not lv.grad.any()

def test_pixel_loss_without_mask_weight_is_plain_squared_error():
    rng = np.random.default_rng(1)
    pred = rng.uniform(size=(1, 1, 3, 3))
    target = rng.uniform(size=(1, 1, 3, 3))
    mask = (rng.uniform(size=(1, 1, 3, 3)) > 0.5).astype(float)
    lv = pixel_loss(pred, target, mask, lam=0.0)
    assert lv.value == pytest.approx(np.sum((pred - target) ** 2), abs=1e-15)

def test_pixel_loss_hand_computed_example():
    # diff [[1,0],[0,1]], mask [[1,0],[0,0]], lam 1: 2 + 1 = 3
    pred = np.array([[1.0, 0.0], [0.0, 1.0]])
    target = np.zeros((2, 2))
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    lv = pixel_loss(pred, target, mask, lam=1.0)
    assert lv.value == 3.0
    np.testing.assert_array_equal(lv.grad, [[4.0, 0.0], [0.0, 2.0]])

def test_pixel_loss_rejects_non_binary_mask():
    x = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError, match="binary"):
        pixel_loss(x, x, np.full_like(x, 0.25))

def test_pixel_loss_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        pixel_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)),
                   np.zeros((1, 1, 2, 2)))

def test_pixel_loss_gradient_matches_finite_differences_tightly():
    rng = np.random.default_rng(2)
    target = rng.uniform(size=(2, 1, 3, 3))
    mask = (rng.uniform(size=(2, 1, 3, 3)) > 0.6).astype(float)

    def fn(pred):
        lv = pixel_loss(pred, target, mask, lam=0.7)
        return lv.value, lv.grad

    report = grad_check(fn, rng.uniform(size=(2, 1, 3, 3)))
    assert report.max_rel_err < 1e-6

@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), lam=st.floats(0.0, 4.0),
       seed=st.integers(0, 2 ** 16))
def test_pixel_loss_with_a_bool_mask_is_bitwise_the_float_mask_result(
        n, lam, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(n, 1, 5, 4))
    target = rng.uniform(size=(n, 1, 5, 4))
    mask = rng.uniform(size=(n, 1, 5, 4)) > 0.7
    by_bool = pixel_loss(pred, target, mask, lam)
    by_float = pixel_loss(pred, target, mask.astype(np.float64), lam)
    assert by_bool.value == by_float.value
    assert by_bool.grad.tobytes() == by_float.grad.tobytes()

def test_pixel_loss_averages_over_batch():
    pred = np.ones((4, 1, 2, 2))
    target = np.zeros_like(pred)
    mask = np.zeros_like(pred)
    lv = pixel_loss(pred, target, mask, lam=1.0)
    assert lv.value == pytest.approx(4.0)  # 4 pixels each, / batch 4


# ---------------------------------------------------------------------------
# dynamic threshold and reverse Huber
# ---------------------------------------------------------------------------

def test_dynamic_c_is_fraction_of_max_abs_residual():
    assert dynamic_c(np.array([-5.0, 1.0, 2.0]), 0.2) == 1.0

def test_dynamic_c_floors_all_zero_batches():
    c = dynamic_c(np.zeros(10), 0.2)
    assert 0 < c <= 1e-12
    assert reverse_huber(np.zeros(10), c).value == 0.0

def test_dynamic_c_matches_independent_recomputation():
    rng = np.random.default_rng(3)
    r = rng.normal(size=(4, 7))
    assert dynamic_c(r, 0.2) == pytest.approx(0.2 * np.abs(r).max(), abs=0)

def test_reverse_huber_quadratic_branch_value():
    lv = reverse_huber(np.array([0.5]), c=1.0)
    assert lv.value == pytest.approx((0.25 + 1.0) / 2.0, abs=1e-15)
    assert lv.grad[0] == pytest.approx(0.5, abs=1e-15)

def test_reverse_huber_linear_branch_value():
    lv = reverse_huber(np.array([2.0]), c=1.0)
    assert lv.value == 2.0
    assert lv.grad[0] == 1.0

def test_reverse_huber_c1_continuity_at_the_branch_point():
    for c in (0.3, 1.0, 2.5):
        for sign in (1.0, -1.0):
            r = sign * c
            linear_value, linear_slope = abs(r), np.sign(r)
            quad_value, quad_slope = (r * r + c * c) / (2 * c), r / c
            assert abs(linear_value - quad_value) < 1e-12
            assert abs(linear_slope - quad_slope) < 1e-12
            lv = reverse_huber(np.array([r]), c)
            assert abs(lv.value - linear_value) < 1e-12
            assert abs(lv.grad[0] - linear_slope) < 1e-12

def test_reverse_huber_nonnegative_and_zero_only_at_zero():
    rng = np.random.default_rng(4)
    r = rng.normal(size=100)
    lv = reverse_huber(r, c=0.5)
    assert lv.value > 0
    assert reverse_huber(np.zeros(3), c=0.5).value == 0.0
    assert not reverse_huber(np.zeros(3), c=0.5).grad.any()

def test_reverse_huber_monotone_in_residual_magnitude():
    r = np.linspace(0, 3, 200)
    vals = [reverse_huber(np.array([v]), c=0.8).value for v in r]
    assert np.all(np.diff(vals) >= 0)

def test_small_residual_gradient_dominates_plain_squared_error():
    # for |r| <= c < 1 the slope |r|/c is at least r^2, the quadratic value
    c = 0.4
    r = np.linspace(-c, c, 101)
    lv = reverse_huber(r, c)
    assert np.all(np.abs(lv.grad) >= r * r - 1e-15)

def test_reverse_huber_rejects_non_positive_threshold():
    with pytest.raises(ValueError):
        reverse_huber(np.ones(3), c=0.0)


# ---------------------------------------------------------------------------
# feature loss
# ---------------------------------------------------------------------------

def test_feature_loss_zero_for_identical_images():
    phi = tiny_phi()
    rng = np.random.default_rng(5)
    img = rng.uniform(size=(2, 1, 16, 12))
    eyes = eyes_for(2, rng, 16, 12)
    lv = feature_loss(img, img.copy(), eyes, phi, LossConfig())
    assert lv.value == 0.0
    assert not lv.grad.any()

def test_feature_loss_matches_hand_trace_on_tiny_net():
    # 1x1 conv (weights +1 and -1, zero bias) + max-feature-map computes
    # |x| pointwise; with the resize path on matching extents the crops are
    # the images themselves
    conv = Conv2d(1, 2, 1, name="conv1")
    conv.weight.value[0, 0, 0, 0] = 1.0
    conv.weight.value[1, 0, 0, 0] = -1.0
    phi = FeatureNet([conv, MaxFeatureMap()], {EARLY_CONV: 1},
                     FeatureSpec(crop=2))
    pred = np.array([[[[0.2, -0.4], [0.9, 0.0]]]])
    target = np.array([[[[0.1, 0.5], [0.1, 0.3]]]])
    cfg = LossConfig(taps=(EARLY_CONV,), align=False)

    residual = np.abs(pred) - np.abs(target)        # phi(x) = |x|
    c = 0.2 * np.abs(residual).max()
    expected = np.where(np.abs(residual) > c, np.abs(residual),
                        (residual ** 2 + c ** 2) / (2 * c)).sum()
    lv = feature_loss(pred, target, None, phi, cfg)
    assert lv.value == pytest.approx(expected, rel=1e-12)

def test_feature_loss_returns_its_thresholds_and_leaves_no_record_in_phi():
    phi = tiny_phi(seed=13)
    rng = np.random.default_rng(8)
    pred, target = rng.uniform(size=(2, 2, 1, 12, 10))
    eyes = eyes_for(2, rng, 12, 10)
    cfg = LossConfig()
    lv = feature_loss(pred, target, eyes, phi, cfg)
    grid = alignment_grid(eyes, 12, 10, phi.crop, phi.crop)
    acts_p, acts_t = (phi.forward_taps(bilinear_sample(img, grid), keep=False)
                      for img in (pred, target))
    assert lv.thresholds == {tap: dynamic_c(acts_p[tap] - acts_t[tap])
                             for tap in cfg.taps}
    # frozen at the thresholds it reports, the loss is bitwise itself
    frozen = feature_loss(pred, target, eyes, phi, cfg, fixed_c=lv.thresholds)
    assert (frozen.value, frozen.grad.tobytes()) == (lv.value, lv.grad.tobytes())
    mask = np.zeros_like(pred)
    assert unified_loss(pred, target, mask, eyes, phi, cfg).thresholds == \
        lv.thresholds
    squared = replace(cfg, feature_penalty="squared")
    assert feature_loss(pred, target, eyes, phi, squared).thresholds == {}
    with pytest.raises(NoRecordError):
        phi.backward_taps({FINAL_FEATURE: np.ones((2, 8))})

def test_whole_image_resize_path_needs_no_landmarks():
    phi = tiny_phi(seed=13)
    rng = np.random.default_rng(8)
    pred = rng.uniform(size=(2, 1, 16, 12))
    target = rng.uniform(size=(2, 1, 16, 12))
    lv = feature_loss(pred, target, None, phi,
                      LossConfig(taps=(EARLY_CONV,), align=False))
    assert lv.value > 0
    assert lv.grad.shape == pred.shape


# ---------------------------------------------------------------------------
# unified loss
# ---------------------------------------------------------------------------

def test_unified_loss_reduces_to_pixel_loss_when_feature_weight_is_zero():
    rng = np.random.default_rng(9)
    pred = rng.uniform(size=(2, 1, 8, 8))
    target = rng.uniform(size=(2, 1, 8, 8))
    mask = (rng.uniform(size=(2, 1, 8, 8)) > 0.7).astype(float)
    cfg = LossConfig(lambda_feature=0.0)
    ul = unified_loss(pred, target, mask, None, None, cfg)
    px = pixel_loss(pred, target, mask, cfg.lambda_mask)
    assert ul.value == px.value
    np.testing.assert_array_equal(ul.grad, px.grad)
    assert ul.feature == 0.0

def test_unified_loss_zero_under_every_variant_when_equal():
    phi = tiny_phi(seed=14)
    rng = np.random.default_rng(10)
    img = rng.uniform(size=(1, 1, 16, 16))
    mask = (rng.uniform(size=(1, 1, 16, 16)) > 0.8).astype(float)
    eyes = eyes_for(1, rng, 16, 16)
    for variant in ("fcne", "fcnw", "fcnf", "demesh_e", "demesh"):
        ul = unified_loss(img, img.copy(), mask, eyes, phi,
                          variant_config(variant))
        assert ul.value == 0.0, variant
        assert not ul.grad.any(), variant

def test_unified_loss_recomposes_from_independent_parts():
    phi = tiny_phi(seed=15)
    rng = np.random.default_rng(11)
    pred = rng.uniform(size=(2, 1, 16, 12))
    target = rng.uniform(size=(2, 1, 16, 12))
    mask = (rng.uniform(size=(2, 1, 16, 12)) > 0.7).astype(float)
    eyes = eyes_for(2, rng, 16, 12)
    cfg = LossConfig(lambda_mask=0.8, lambda_feature=1.3)
    ul = unified_loss(pred, target, mask, eyes, phi, cfg)
    px = pixel_loss(pred, target, mask, 0.8)
    ft = feature_loss(pred, target, eyes, phi, cfg)
    assert ul.value == pytest.approx(px.value + 1.3 * ft.value, rel=1e-12)
    np.testing.assert_allclose(ul.grad, px.grad + 1.3 * ft.grad, atol=1e-15)
    assert ul.pixel == px.value and ul.feature == ft.value

def test_losses_are_invariant_to_batch_permutation():
    phi = tiny_phi(seed=16)
    rng = np.random.default_rng(12)
    pred = rng.uniform(size=(3, 1, 16, 12))
    target = rng.uniform(size=(3, 1, 16, 12))
    mask = (rng.uniform(size=(3, 1, 16, 12)) > 0.75).astype(float)
    eyes = eyes_for(3, rng, 16, 12)
    cfg = LossConfig()
    base = unified_loss(pred, target, mask, eyes, phi, cfg)
    perm = [2, 0, 1]
    shuffled = unified_loss(pred[perm], target[perm], mask[perm],
                            eyes[perm], phi, cfg)
    assert shuffled.value == pytest.approx(base.value, rel=1e-12)
    np.testing.assert_allclose(shuffled.grad, base.grad[perm], atol=1e-14)

def test_variant_configs_match_their_definitions():
    fcne = variant_config("fcne")
    assert fcne.lambda_mask == 0.0 and fcne.lambda_feature == 0.0
    fcnw = variant_config("fcnw")
    assert fcnw.lambda_mask == 1.0 and fcnw.lambda_feature == 0.0
    fcnf = variant_config("fcnf")
    assert fcnf.taps == (EARLY_CONV,) and not fcnf.align
    assert variant_config("demesh_e").feature_penalty == "squared"
    demesh = variant_config("demesh")
    assert demesh.taps == (EARLY_CONV, FINAL_FEATURE)
    assert demesh.feature_penalty == "berhu" and demesh.align
    with pytest.raises(ValueError):
        variant_config("mtnet")


def config_for(variant, base=None):
    """The reference: each variant's default config, then the base's c
    fraction and the weights of the terms the variant keeps."""
    cfg = {"fcne": LossConfig(lambda_mask=0.0, lambda_feature=0.0),
           "fcnw": LossConfig(lambda_feature=0.0),
           "fcnf": LossConfig(taps=(EARLY_CONV,), align=False),
           "demesh_e": LossConfig(feature_penalty="squared"),
           "demesh": LossConfig()}[variant]
    if base is not None:
        cfg = replace(cfg, c_fraction=base.c_fraction)
        if variant not in ("fcne",):
            cfg = replace(cfg, lambda_mask=base.lambda_mask)
        if variant not in ("fcne", "fcnw"):
            cfg = replace(cfg, lambda_feature=base.lambda_feature)
    return cfg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
       st.floats(0.0, 1.0, exclude_min=True))
def test_variant_config_weights_match_the_reference(lambda_mask,
                                                    lambda_feature,
                                                    c_fraction):
    base = LossConfig(lambda_mask=lambda_mask, lambda_feature=lambda_feature,
                      c_fraction=c_fraction)
    for variant in VARIANTS:
        assert variant_config(variant) == config_for(variant), variant
        assert variant_config(variant, lambda_mask, lambda_feature,
                              c_fraction) == config_for(variant, base), variant
