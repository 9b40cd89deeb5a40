import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demesh import stn
from demesh.facegen import load_split, make_dataset
from demesh.featnet import FeatureSpec, build_phi
from demesh.inpaint import InpaintSpec, build_psi
from demesh.layers import ShapeError
from demesh.trainer import batched_forward
from demesh.verifier import (EvalReport, FPR_TARGETS, RocPoint, ScoreSet,
                             _aligned_features, feature_rmse, psnr,
                             read_roc_tsv, roc, run_protocol, tpr_at_fpr,
                             verification_scores, write_report_tsv,
                             write_roc_tsv)


# ---------------------------------------------------------------------------
# an exhaustive threshold-enumeration oracle, kept independent of the module
# ---------------------------------------------------------------------------

def brute_points(genuine, impostor):
    pts = set()
    for t in set(genuine) | set(impostor):
        fpr = sum(s >= t for s in impostor) / len(impostor)
        tpr = sum(s >= t for s in genuine) / len(genuine)
        pts.add((round(fpr, 12), round(tpr, 12)))
    return pts

def brute_tpr_at(genuine, impostor, target):
    best = 0.0
    for t in set(genuine) | set(impostor):
        fpr = sum(s >= t for s in impostor) / len(impostor)
        if fpr <= target:
            best = max(best, sum(s >= t for s in genuine) / len(genuine))
    return best


# ---------------------------------------------------------------------------
# the per-threshold sweep and per-pair scoring loops that roc and
# verification_scores replaced, kept as oracles
# ---------------------------------------------------------------------------

def loop_roc(genuine, impostor):
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    points = []
    for t in np.unique(np.concatenate([genuine, impostor])):
        points.append((float(np.mean(impostor >= t)),
                       float(np.mean(genuine >= t)), float(t)))
    points.sort(key=lambda p: (p[0], p[1]))
    return points

def loop_scores(gallery, probes):
    genuine, impostor = [], []
    for i, g in enumerate(gallery):
        for j, p in enumerate(probes):
            s = float(np.dot(g, p) / (float(np.linalg.norm(g))
                                      * float(np.linalg.norm(p))))
            (genuine if i == j else impostor).append(s)
    return genuine, impostor


# ---------------------------------------------------------------------------
# cosine scores
# ---------------------------------------------------------------------------

def cosine(f1, f2):
    scores = verification_scores(f1[None], f2[None])
    assert scores.impostor == []
    return scores.genuine[0]

def test_cosine_of_identical_vectors_is_one():
    f = np.array([0.3, -1.2, 4.0])
    assert cosine(f, f) == pytest.approx(1.0, abs=1e-15)

def test_cosine_of_orthogonal_unit_vectors_is_zero():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

def test_cosine_is_scale_invariant():
    f = np.array([2.0, -1.0, 0.5])
    assert cosine(f, 3.0 * f) == pytest.approx(1.0, abs=1e-15)

def test_cosine_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(np.zeros(3), np.ones(3))

def test_scores_reject_mismatched_shapes():
    with pytest.raises(ShapeError):
        verification_scores(np.ones((2, 3)), np.ones((2, 4)))

@st.composite
def feature_pairs(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    row = st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                   min_size=d, max_size=d).filter(
                       lambda r: np.linalg.norm(r) > 1e-3)
    return [np.array(draw(st.lists(row, min_size=n, max_size=n)))
            for _ in range(2)]

@settings(max_examples=300, deadline=None, derandomize=True)
@given(feature_pairs())
def test_scores_match_the_per_pair_loop(pair):
    gallery, probes = pair
    scores = verification_scores(gallery, probes)
    genuine, impostor = loop_scores(gallery, probes)
    assert len(scores.genuine) == len(genuine)
    assert len(scores.impostor) == len(impostor)
    np.testing.assert_allclose(scores.genuine, genuine, rtol=0, atol=1e-15)
    np.testing.assert_allclose(scores.impostor, impostor, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# roc / operating points
# ---------------------------------------------------------------------------

def test_separable_scores_reach_the_perfect_corner():
    points = roc(ScoreSet(genuine=[0.9], impostor=[0.1]))
    assert any(p.fpr == 0.0 and p.tpr == 1.0 for p in points)

def test_identical_distributions_sit_on_the_diagonal():
    points = roc(ScoreSet(genuine=[0.2, 0.5, 0.8], impostor=[0.2, 0.5, 0.8]))
    for p in points:
        assert p.fpr == pytest.approx(p.tpr, abs=1e-12)

def test_roc_matches_exhaustive_threshold_enumeration():
    genuine = [0.9, 0.7, 0.4]
    impostor = [0.8, 0.3, 0.2]
    points = roc(ScoreSet(genuine, impostor))
    got = {(round(p.fpr, 12), round(p.tpr, 12)) for p in points}
    assert got == brute_points(genuine, impostor)

def test_roc_is_monotone_after_sorting_by_fpr():
    rng = np.random.default_rng(41)
    for _ in range(20):
        scores = ScoreSet(list(rng.normal(0.6, 0.2, size=30)),
                          list(rng.normal(0.4, 0.2, size=50)))
        points = roc(scores)
        tprs = [p.tpr for p in points]
        assert all(b >= a - 1e-15 for a, b in zip(tprs, tprs[1:]))

def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc(ScoreSet([], [0.1]))

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        roc(ScoreSet([0.5, bad], [0.1]))
    with pytest.raises(ValueError, match="finite"):
        roc(ScoreSet([0.5], [bad, 0.1]))

# a coarse grid makes ties within and across the classes common
grid_scores = st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=1,
                       max_size=12)

@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid_scores, grid_scores)
def test_roc_equals_the_per_threshold_loop_in_order(genuine, impostor):
    points = roc(ScoreSet(genuine, impostor))
    assert [(p.fpr, p.tpr, p.threshold) for p in points] == \
        loop_roc(genuine, impostor)

@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
def test_roc_equals_the_per_threshold_loop_on_arbitrary_floats(genuine,
                                                               impostor):
    points = roc(ScoreSet(genuine, impostor))
    assert [(p.fpr, p.tpr, p.threshold) for p in points] == \
        loop_roc(genuine, impostor)

def test_tpr_at_fpr_hand_walked_step_function():
    # thresholds 0.9..0.2; at target 0.34 the largest reachable fpr is 1/3,
    # where dropping the threshold to 0.4 lifts tpr to 1
    points = roc(ScoreSet([0.9, 0.7, 0.4], [0.8, 0.3, 0.2]))
    assert tpr_at_fpr(points, 0.34) == 1.0
    assert tpr_at_fpr(points, 0.34) == brute_tpr_at(
        [0.9, 0.7, 0.4], [0.8, 0.3, 0.2], 0.34)

def test_tpr_at_fpr_on_separable_scores_is_one_everywhere():
    points = roc(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    for target in FPR_TARGETS:
        assert tpr_at_fpr(points, target) == 1.0

def test_tpr_at_fpr_near_chance_tracks_the_target():
    rng = np.random.default_rng(42)
    pool = list(rng.uniform(size=400))
    points = roc(ScoreSet(pool[:200], pool[200:]))
    assert tpr_at_fpr(points, 0.5) == pytest.approx(0.5, abs=0.1)

def test_tpr_at_fpr_is_monotone_in_the_target():
    rng = np.random.default_rng(43)
    points = roc(ScoreSet(list(rng.normal(0.7, 0.15, 40)),
                          list(rng.normal(0.3, 0.2, 60))))
    targets = np.linspace(0.01, 0.9, 30)
    vals = [tpr_at_fpr(points, t) for t in targets]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

def test_tpr_matches_brute_force_on_random_score_sets():
    rng = np.random.default_rng(44)
    for _ in range(25):
        genuine = list(np.round(rng.uniform(size=rng.integers(2, 8)), 3))
        impostor = list(np.round(rng.uniform(size=rng.integers(2, 8)), 3))
        points = roc(ScoreSet(genuine, impostor))
        for target in (0.01, 0.1, 0.25, 0.5):
            assert tpr_at_fpr(points, target) == pytest.approx(
                brute_tpr_at(genuine, impostor, target), abs=1e-12)


# ---------------------------------------------------------------------------
# psnr / rmse
# ---------------------------------------------------------------------------

def test_psnr_of_identical_images_is_infinite():
    img = np.random.default_rng(45).uniform(size=(1, 8, 8))
    assert math.isinf(psnr(img, img.copy()))

def test_psnr_of_constant_offset_has_closed_form():
    img = np.random.default_rng(46).uniform(0.0, 0.8, size=(1, 8, 8))
    assert psnr(img + 0.1, img) == pytest.approx(20.0, abs=1e-12)

def test_psnr_matches_independent_two_liner():
    rng = np.random.default_rng(47)
    a, b = rng.uniform(size=(1, 6, 6)), rng.uniform(size=(1, 6, 6))
    mse = np.mean((a - b) ** 2)
    assert psnr(a, b) == pytest.approx(10 * np.log10(1.0 / mse), abs=1e-10)

def test_feature_rmse_trivials_and_brute_loop():
    f = [np.array([1.0, 2.0]), np.array([0.0, -1.0])]
    assert feature_rmse(f, [v.copy() for v in f]) == 0.0
    assert feature_rmse([np.zeros(3)], [np.array([0.0, 1.0, 0.0])]) == 1.0
    rng = np.random.default_rng(48)
    preds = [rng.normal(size=5) for _ in range(7)]
    targets = [rng.normal(size=5) for _ in range(7)]
    brute = sum(math.sqrt(sum((p - t) ** 2)) for p, t in
                zip(preds, targets)) / 7
    assert feature_rmse(preds, targets) == pytest.approx(brute, abs=1e-10)

def test_feature_rmse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        feature_rmse([np.ones(2)], [])


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def protocol_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("proto") / "data"
    make_dataset(root, 6, 2, seed=99, ratios=(0.0, 0.0, 1.0))
    data = load_split(root, "test")
    phi = build_phi("pretrain", seed=2,
                    spec=FeatureSpec(in_h=16, in_w=16, widths=(8, 16),
                                     feature_width=32),
                    n_identities=6, per_identity=16, steps=200)
    return data, phi

def test_identity_recovery_equals_corrupted_baseline(protocol_setup):
    data, phi = protocol_setup
    a = run_protocol("model", lambda xs: xs, data, phi)
    b = run_protocol("corrupted", lambda xs: xs.copy(), data, phi)
    assert a.psnr_db == b.psnr_db
    assert a.feature_rmse == b.feature_rmse
    assert a.tpr_at == b.tpr_at

def test_truth_oracle_recovery_equals_clear_baseline(protocol_setup):
    data, phi = protocol_setup
    report = run_protocol("oracle", lambda xs: data.y, data, phi)
    assert math.isinf(report.psnr_db)
    assert report.feature_rmse == 0.0

def test_handcrafted_feature_sets_match_brute_force_exactly():
    rng = np.random.default_rng(50)
    gallery = rng.normal(size=(5, 8))
    probes = gallery + rng.normal(scale=0.3, size=(5, 8))
    scores = verification_scores(gallery, probes)
    assert len(scores.genuine) == 5
    assert len(scores.impostor) == 20
    points = roc(scores)
    for target in (0.01, 0.05, 0.21, 0.5):
        assert tpr_at_fpr(points, target) == pytest.approx(
            brute_tpr_at(scores.genuine, scores.impostor, target), abs=1e-12)

def test_protocol_scoreset_counts_follow_identity_count(protocol_setup):
    data, phi = protocol_setup
    report = run_protocol("m", lambda xs: xs, data, phi)
    n = len(set(data.identity))
    assert len(report.roc) >= 2
    # N genuine + N(N-1) impostor scores swept over distinct thresholds
    assert max(p.fpr for p in report.roc) == 1.0
    assert max(p.tpr for p in report.roc) == 1.0
    assert n == 6


# ---------------------------------------------------------------------------
# chunked inference
# ---------------------------------------------------------------------------

CHUNK_PHI = build_phi("fixed_random", seed=4, spec=FeatureSpec())
CHUNK_PSI = build_psi(InpaintSpec(height=16, width=12, widths=(4, 8)), seed=8)
# row counts just past one and two chunks of 64: fixed 64-row chunks leave a
# remainder of 1-7 rows there, whose φ features round differently
EDGE_ROWS = (*range(65, 72), *range(129, 136))


def with_edge_rows(test):
    for n in EDGE_ROWS:
        test = example(n=n, seed=n)(test)
    return test


def faces(n, seed, h=64, w=48):
    """Random (n, 1, h, w) images with jittered eye landmarks."""
    rng = np.random.default_rng(seed)
    left = rng.normal((0.35 * w, 0.4 * h), 1.5, size=(n, 2))
    right = rng.normal((0.65 * w, 0.4 * h), 1.5, size=(n, 2))
    eyes = [stn.Landmarks(tuple(a), tuple(b)) for a, b in zip(left, right)]
    return rng.uniform(size=(n, 1, h, w)), eyes


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_edge_rows
def test_chunked_phi_features_are_bitwise_the_one_batch_features(n, seed):
    images, eyes = faces(n, seed)
    grid = stn.alignment_grid(eyes, 64, 48, CHUNK_PHI.in_h, CHUNK_PHI.in_w)
    one_batch = CHUNK_PHI.features(stn.bilinear_sample(images, grid),
                                   keep=False)
    assert _aligned_features(CHUNK_PHI, images, eyes).tobytes() == \
        one_batch.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_edge_rows
def test_chunked_psi_is_bitwise_the_one_batch_forward(n, seed):
    xs = np.random.default_rng(seed).uniform(size=(n, 1, 16, 12))
    assert batched_forward(CHUNK_PSI, xs).tobytes() == \
        CHUNK_PSI.forward(xs, keep=False).tobytes()


def test_aligned_features_hold_one_chunk_at_a_time():
    images, eyes = faces(400, seed=6)
    _aligned_features(CHUNK_PHI, images[:2], eyes[:2])
    tracemalloc.start()
    try:
        feats = _aligned_features(CHUNK_PHI, images, eyes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.shape == (400, FeatureSpec().feature_width)
    assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_tsv_and_roc_round_trip(tmp_path):
    report = EvalReport("demo", math.inf, 0.0,
                        {1e-2: 1.0, 1e-3: 0.5, 1e-4: 0.25},
                        [RocPoint(0.0, 0.5, 0.9), RocPoint(0.5, 1.0, 0.3)])
    write_report_tsv([report], tmp_path / "report.tsv")
    text = (tmp_path / "report.tsv").read_text()
    assert text.splitlines()[0].startswith("model\ttpr_fpr_1e2")
    assert "\tinf\t" in text.splitlines()[1]
    path = write_roc_tsv(report, tmp_path)
    assert path.name == "roc_demo.tsv"
    points = read_roc_tsv(path)
    assert [(p.fpr, p.tpr, p.threshold) for p in points] == \
        [(0.0, 0.5, 0.9), (0.5, 1.0, 0.3)]
