import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demesh import facegen, stn
from demesh.featnet import (EARLY_CONV, FINAL_FEATURE, FeatureNet,
                            FeatureSpec, build_phi, classify, load_phi,
                            pretrain_step, save_phi)
from demesh.layers import (PSI_BLOCK, Dense, FrozenParameterError,
                           NoRecordError, ShapeError, adam_step, grad_check,
                           he_normal)

SMALL_SPEC = FeatureSpec(crop=16, widths=(8, 16), feature_width=32)


def _trainable_phi(seed: int, spec: FeatureSpec = SMALL_SPEC) -> FeatureNet:
    """The stack ``build_phi("fixed_random", seed, spec)`` freezes, left
    trainable."""
    return FeatureNet.from_spec(spec, he_normal(np.random.default_rng(seed)))


@pytest.fixture(scope="module")
def pretrained():
    return build_phi("pretrain", seed=3, spec=SMALL_SPEC, n_identities=8,
                     per_identity=24, steps=300, render_hw=(32, 24))


def test_fixed_random_same_seed_gives_identical_features():
    x = np.random.default_rng(0).uniform(size=(1, 16, 16))
    f1 = build_phi("fixed_random", 7, SMALL_SPEC).features(x[None])[0]
    f2 = build_phi("fixed_random", 7, SMALL_SPEC).features(x[None])[0]
    np.testing.assert_array_equal(f1, f2)

def test_extract_feature_is_deterministic_per_call(pretrained):
    x = np.random.default_rng(1).uniform(size=(1, 16, 16))
    np.testing.assert_array_equal(pretrained.features(x[None])[0],
                                  pretrained.features(x[None])[0])

def test_feature_width_matches_spec(pretrained):
    f = pretrained.features(np.zeros((1, 1, 16, 16)))[0]
    assert f.shape == (32,)
    assert np.all(np.isfinite(f))

def test_pretrain_accuracy_clears_chance(pretrained):
    assert pretrained.pretrain_accuracy is not None
    assert pretrained.pretrain_accuracy > 2.0 / 8.0

def test_final_tap_consistent_with_extract_feature(pretrained):
    x = np.random.default_rng(2).uniform(size=(PSI_BLOCK, 1, 16, 16))
    acts = pretrained.forward_taps(x, taps=(FINAL_FEATURE,))
    assert acts[FINAL_FEATURE].tobytes() == pretrained.features(x).tobytes()

def test_early_tap_on_zero_image_is_bias_driven(pretrained):
    zero = np.zeros((1, 1, 16, 16))
    a = pretrained.forward_taps(zero, taps=(EARLY_CONV,))[EARLY_CONV][0]
    b = pretrained.forward_taps(zero, taps=(EARLY_CONV,))[EARLY_CONV][0]
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))
    # away from padding effects the map is constant per channel, driven by
    # the stacked biases
    interior = a[:, 1:-1, 1:-1].reshape(a.shape[0], -1)
    assert np.allclose(interior, interior[:, :1])

def test_unknown_tap_rejected(pretrained):
    with pytest.raises(KeyError, match="unknown tap"):
        pretrained.forward_taps(np.zeros((1, 1, 16, 16)), taps=("conv9",))

def test_extent_mismatch_rejected(pretrained):
    with pytest.raises(ShapeError):
        pretrained.features(np.zeros((1, 1, 8, 8)))

def test_distinct_images_do_not_reach_self_similarity(pretrained):
    rng = np.random.default_rng(4)
    a = pretrained.features(rng.uniform(size=(1, 16, 16))[None])[0]
    b = pretrained.features(rng.uniform(size=(1, 16, 16))[None])[0]
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1.0

def _aligned_render(identity, seed, spec):
    img, eyes = facegen.render_face(identity, seed)
    _, h, w = img.shape
    grid = stn.alignment_grid(eyes[None], h, w, spec.crop, spec.crop)
    return stn.bilinear_sample(img[None], grid)[0]

def test_intra_identity_similarity_exceeds_inter_identity(pretrained):
    rng = np.random.default_rng(5)
    feats = []
    for i in range(8):
        ident = facegen.sample_identity(f"probe{i}", int(rng.integers(2**32)),
                                        32, 24)
        crops = np.stack([_aligned_render(ident, int(rng.integers(2**32)),
                                          SMALL_SPEC) for _ in range(4)])
        feats.append(pretrained.features(crops))
    norm = [g / np.linalg.norm(g, axis=1, keepdims=True) for g in feats]
    intra, inter = [], []
    for i in range(8):
        sims = norm[i] @ norm[i].T
        intra.extend(sims[np.triu_indices(4, k=1)])
        for j in range(i + 1, 8):
            inter.extend((norm[i] @ norm[j].T).ravel())
    assert np.mean(intra) > np.mean(inter)

def test_tap_gradient_matches_finite_differences():
    phi = build_phi("fixed_random", seed=9,
                    spec=FeatureSpec(crop=8, widths=(4,), feature_width=8))
    rng = np.random.default_rng(9)
    weights = rng.normal(size=(1, 2, 8, 8))

    def fn(crop):
        acts = phi.forward_taps(crop, taps=(EARLY_CONV,))
        grad = phi.backward_taps({EARLY_CONV: weights})
        return float(np.sum(acts[EARLY_CONV] * weights)), grad

    assert grad_check(fn, rng.uniform(size=(1, 1, 8, 8))).passed

def test_two_tap_backward_matches_finite_differences():
    phi = build_phi("fixed_random", seed=10,
                    spec=FeatureSpec(crop=8, widths=(4,), feature_width=8))
    rng = np.random.default_rng(10)
    w_early = rng.normal(size=(1, 2, 8, 8))
    w_final = rng.normal(size=(1, 8))

    def fn(crop):
        acts = phi.forward_taps(crop)
        value = float(np.sum(acts[EARLY_CONV] * w_early)
                      + np.sum(acts[FINAL_FEATURE] * w_final))
        grad = phi.backward_taps({EARLY_CONV: w_early, FINAL_FEATURE: w_final})
        return value, grad

    assert grad_check(fn, rng.uniform(size=(1, 1, 8, 8))).passed

def test_backward_taps_without_input_gradient_gives_bitwise_the_grads():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(3, 1, 16, 16))
    w_early = rng.normal(size=(3, 8, 8, 8))
    w_final = rng.normal(size=(3, 32))
    nets = []
    for input_grad in (True, False):
        phi = _trainable_phi(12)
        phi.forward_taps(x)
        grad = phi.backward_taps({EARLY_CONV: w_early, FINAL_FEATURE: w_final},
                                 input_grad=input_grad)
        assert (grad is None) != input_grad
        nets.append(phi)
    for a, b in zip(*(phi.params() for phi in nets)):
        assert a.grad.any() and a.grad.tobytes() == b.grad.tobytes()

def test_frozen_net_holds_no_grads_and_gives_the_crop_gradient_bitwise():
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(2, 1, 16, 16))
    w_final = rng.normal(size=(2, 32))
    frozen = build_phi("fixed_random", 14, SMALL_SPEC)
    live = _trainable_phi(14)
    for a, b in zip(frozen.params(), live.params()):
        assert a.value.tobytes() == b.value.tobytes()
    grads = []
    for phi in (frozen, live):
        phi.forward_taps(x)
        grads.append(phi.backward_taps({FINAL_FEATURE: w_final}))
    assert grads[0].tobytes() == grads[1].tobytes()
    assert all(p.grad is None for p in frozen.params())
    assert all(p.grad.any() for p in live.params())

def test_parameters_are_frozen_after_construction(pretrained):
    p = pretrained.params()[0]
    with pytest.raises(FrozenParameterError):
        adam_step(p, np.zeros_like(p.value), lr=0.1)

def test_built_and_loaded_phi_hold_no_gradient_or_adam_state(tmp_path,
                                                             pretrained):
    fixed = build_phi("fixed_random", 5, SMALL_SPEC)
    save_phi(fixed, tmp_path / "phi.ckpt")
    loaded = load_phi(tmp_path / "phi.ckpt")
    for phi in (pretrained, fixed, loaded):
        assert all(p.frozen and p.grad is p.m is p.v is None
                   for p in phi.params())
    for p in loaded.params():
        with pytest.raises(FrozenParameterError):
            adam_step(p, np.zeros_like(p.value), lr=0.1)

def test_save_load_round_trip_preserves_values_and_freeze(tmp_path, pretrained):
    path = tmp_path / "phi.ckpt"
    save_phi(pretrained, path)
    loaded = load_phi(path)
    assert all(p.frozen for p in loaded.params())
    x = np.random.default_rng(6).uniform(size=(1, 16, 16))
    np.testing.assert_array_equal(loaded.features(x[None])[0],
                                  pretrained.features(x[None])[0])

def test_pretrain_requires_enough_identities():
    with pytest.raises(ValueError, match="at least 2"):
        build_phi("pretrain", seed=0, spec=SMALL_SPEC, n_identities=1)

def test_pretrain_requires_at_least_one_render_per_identity():
    with pytest.raises(ValueError, match="at least 1 render per identity"):
        build_phi("pretrain", seed=0, spec=SMALL_SPEC, n_identities=2,
                  per_identity=0)

def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        build_phi("finetune", seed=0, spec=SMALL_SPEC)


# ---------------------------------------------------------------------------
# record-free (inference) forward
# ---------------------------------------------------------------------------

_RECORDS = ("_x", "_xf", "_first_wins", "indices")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(taps=st.sampled_from([None, (EARLY_CONV,), (FINAL_FEATURE,),
                             (FINAL_FEATURE, EARLY_CONV)]),
       n=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1),
       levels=st.sampled_from([0, 2]))
@example(taps=None, n=17, seed=17, levels=2)  # three blocks before fc
@example(taps=None, n=65, seed=65, levels=0)
def test_record_free_taps_are_bitwise_the_recording_taps(taps, n, seed,
                                                         levels):
    phi = build_phi("fixed_random", seed % 1000, SMALL_SPEC)
    x = np.random.default_rng(seed).uniform(size=(n, 1, 16, 16))
    if levels:  # few gray levels, so max-feature-map and pooling tie
        x = np.round(x * levels) / levels
    recorded = phi.forward_taps(x, taps)
    free = phi.forward_taps(x, taps, keep=False)
    assert sorted(free) == sorted(recorded)
    for tap in recorded:
        assert free[tap].tobytes() == recorded[tap].tobytes()
    assert all(getattr(layer, name) is None for layer in phi.layers
               for name in _RECORDS if hasattr(layer, name))
    feats = phi.features(x)
    for start in range(0, n - PSI_BLOCK + 1, PSI_BLOCK):  # each full block
        block = x[start:start + PSI_BLOCK]
        assert feats[start:start + PSI_BLOCK].tobytes() == \
            phi.forward_taps(block, (FINAL_FEATURE,))[FINAL_FEATURE].tobytes()


def test_record_free_features_run_every_layer_on_8_row_blocks():
    phi = build_phi("fixed_random", 4, SMALL_SPEC)
    rows = {}
    for layer in phi.layers:
        def spy(x, *, keep=True, layer=layer, forward=layer.forward):
            rows.setdefault(getattr(layer, "name", type(layer).__name__),
                            []).append(len(x))
            return forward(x, keep=keep)
        layer.forward = spy
    for n in (1, 20, 130):
        rows.clear()
        phi.features(np.zeros((n, 1, 16, 16)))
        # blocks of PSI_BLOCK rows, the last one shorter before fc and
        # zero-padded from fc on
        blocks = [min(PSI_BLOCK, n - start) for start in range(0, n, PSI_BLOCK)]
        assert rows["conv1"] == rows["conv2"] == blocks
        assert rows["fc"] == [PSI_BLOCK] * len(blocks)
        # conv1 and conv2 apply their own max-feature-map; the one layer
        # left is fc's, on the padded block
        assert rows["MaxFeatureMap"] == [PSI_BLOCK] * len(blocks)
        assert [layer.mfm for layer in phi.layers
                if hasattr(layer, "mfm")] == [True, True]


def test_backward_taps_after_a_record_free_forward_raises():
    phi = build_phi("fixed_random", 4, SMALL_SPEC)
    x = np.random.default_rng(0).uniform(size=(2, 1, 16, 16))
    phi.forward_taps(x)
    acts = phi.forward_taps(x, keep=False)
    with pytest.raises(NoRecordError):
        phi.backward_taps({FINAL_FEATURE: np.ones_like(acts[FINAL_FEATURE])})


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

# (seed, pretrain_accuracy) as the 64-row accuracy chunks and the full
# backward gave them; the parameters matched bitwise too
@pytest.mark.parametrize("seed, accuracy", [(1, 0.95), (2, 119 / 120)])
def test_pretrain_accuracy_is_pinned(seed, accuracy):
    phi = build_phi("pretrain", seed, SMALL_SPEC, n_identities=6,
                    per_identity=20, steps=60, render_hw=(32, 24))
    assert phi.pretrain_accuracy == accuracy


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def default_classifier():
    """φ at the default spec, a 16-identity head and 256 random crops."""
    rng = np.random.default_rng(0)
    phi = _trainable_phi(0, FeatureSpec())
    head = Dense(64, 16, name="head", init=he_normal(rng))
    crops = rng.uniform(size=(256, 1, 32, 32))
    return phi, head, crops, np.repeat(np.arange(16), 16)


def test_pretraining_step_peak_memory_at_batch_32(default_classifier):
    phi, head, crops, labels = default_classifier
    pretrain_step(phi, head, crops[:32], labels[:32], 1e-3)
    peak = _traced_peak(lambda: pretrain_step(phi, head, crops[32:64],
                                              labels[32:64], 1e-3))
    # 18.1 MiB here when max-feature-map kept its input, the pool int64
    # indices and conv1 its input gradient; 6.6 MiB without them; 4.1 MiB
    # with the max-feature-map inside each conv, image by image
    assert peak < 10 * 2 ** 20


def test_accuracy_pass_peak_memory_in_batch_sized_chunks(default_classifier):
    phi, head, crops, _ = default_classifier
    preds = classify(phi, head, crops)
    assert preds.shape == (256,)
    # 12.0 MiB here when each 64-row chunk ran φ's whole stack at once,
    # 6.0 MiB in 32-row chunks, 2.1 MiB with 64-row fc chunks, 1.6 MiB in
    # 8-row blocks, 1.2 MiB with the max-feature-map inside each conv
    assert _traced_peak(lambda: classify(phi, head, crops)) < 8 * 2 ** 20
