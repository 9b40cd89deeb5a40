import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demesh import stn
from demesh.facegen import SplitData, load_split, make_dataset, to_float
from demesh.featnet import FINAL_FEATURE, FeatureSpec, build_phi
from demesh.inpaint import InpaintSpec, build_psi
from demesh.layers import PSI_BLOCK, ShapeError
from demesh.trainer import evaluate
from demesh.verifier import (EvalReport, FPR_TARGETS, RocTableError, ScoreSet,
                             _aligned_features, feature_rmse, psnr,
                             read_roc_tsv, recovery_metrics, roc,
                             run_protocol, tpr_at_fpr, verification_scores,
                             write_report_tsv, write_roc_tsv)


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
# the per-threshold sweep, per-pair scoring, per-image PSNR and per-row norm
# loops that roc, verification_scores and recovery_metrics replaced, and the
# per-point ROC formatting, kept as oracles
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

def loop_mean_psnr(recovered, clear):
    dbs = []
    for r, c in zip(recovered, clear):
        mse = float(np.mean((r - to_float(c)) ** 2))
        dbs.append(math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse))
    return float(np.mean(dbs))

def loop_feature_rmse(preds, targets):
    return float(np.mean([float(np.linalg.norm(p - t))
                          for p, t in zip(preds, targets)]))

def loop_roc_text(points):
    lines = ["fpr\ttpr\tthreshold"]
    lines += [f"{fpr:.9f}\t{tpr:.9f}\t{thr:.9f}" for fpr, tpr, thr in points]
    return "\n".join(lines) + "\n"

def score_set(genuine, impostor):
    return ScoreSet(np.array(genuine, dtype=np.float64),
                    np.array(impostor, dtype=np.float64))


# ---------------------------------------------------------------------------
# cosine scores
# ---------------------------------------------------------------------------

def cosine(f1, f2):
    scores = verification_scores(f1[None], f2[None])
    assert scores.impostor.size == 0
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
    table = roc(score_set([0.9], [0.1]))
    assert table.shape == (2, 3) and table.dtype == np.float64
    assert any(fpr == 0.0 and tpr == 1.0 for fpr, tpr, _ in table)

def test_identical_distributions_sit_on_the_diagonal():
    table = roc(score_set([0.2, 0.5, 0.8], [0.2, 0.5, 0.8]))
    np.testing.assert_allclose(table[:, 0], table[:, 1], rtol=0, atol=1e-12)

def test_roc_matches_exhaustive_threshold_enumeration():
    genuine = [0.9, 0.7, 0.4]
    impostor = [0.8, 0.3, 0.2]
    table = roc(score_set(genuine, impostor))
    got = {(round(fpr, 12), round(tpr, 12)) for fpr, tpr, _ in table}
    assert got == brute_points(genuine, impostor)

def test_roc_is_monotone_after_sorting_by_fpr():
    rng = np.random.default_rng(41)
    for _ in range(20):
        scores = ScoreSet(rng.normal(0.6, 0.2, size=30),
                          rng.normal(0.4, 0.2, size=50))
        tprs = roc(scores)[:, 1]
        assert np.all(np.diff(tprs) >= -1e-15)

def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc(score_set([], [0.1]))

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        roc(score_set([0.5, bad], [0.1]))
    with pytest.raises(ValueError, match="finite"):
        roc(score_set([0.5], [bad, 0.1]))

# a coarse grid makes ties within and across the classes common
grid_scores = st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=1,
                       max_size=12)

@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid_scores, grid_scores)
def test_roc_equals_the_per_threshold_loop_in_order(genuine, impostor):
    table = roc(score_set(genuine, impostor))
    assert [tuple(row) for row in table] == loop_roc(genuine, impostor)

@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
def test_roc_equals_the_per_threshold_loop_on_arbitrary_floats(genuine,
                                                               impostor):
    table = roc(score_set(genuine, impostor))
    assert [tuple(row) for row in table] == loop_roc(genuine, impostor)

@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_scores, grid_scores)
def test_roc_table_text_is_the_per_point_formatting_byte_for_byte(
        tmp_path_factory, genuine, impostor):
    report = EvalReport("m", 0.0, 0.0, {}, roc(score_set(genuine, impostor)))
    path = write_roc_tsv(report, tmp_path_factory.mktemp("roc"))
    assert path.read_text() == loop_roc_text(loop_roc(genuine, impostor))

@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_scores, grid_scores, st.floats(1e-6, 1.0, exclude_max=True))
def test_tpr_at_fpr_equals_the_brute_force_enumeration(genuine, impostor,
                                                       target):
    table = roc(score_set(genuine, impostor))
    assert tpr_at_fpr(table, target) == brute_tpr_at(genuine, impostor,
                                                     target)

def test_tpr_at_fpr_hand_walked_step_function():
    # thresholds 0.9..0.2; at target 0.34 the largest reachable fpr is 1/3,
    # where dropping the threshold to 0.4 lifts tpr to 1
    table = roc(score_set([0.9, 0.7, 0.4], [0.8, 0.3, 0.2]))
    assert tpr_at_fpr(table, 0.34) == 1.0
    assert tpr_at_fpr(table, 0.34) == brute_tpr_at(
        [0.9, 0.7, 0.4], [0.8, 0.3, 0.2], 0.34)

def test_tpr_at_fpr_on_separable_scores_is_one_everywhere():
    table = roc(score_set([0.9, 0.8], [0.1, 0.2]))
    for target in FPR_TARGETS:
        assert tpr_at_fpr(table, target) == 1.0

def test_tpr_at_fpr_near_chance_tracks_the_target():
    rng = np.random.default_rng(42)
    pool = rng.uniform(size=400)
    table = roc(ScoreSet(pool[:200], pool[200:]))
    assert tpr_at_fpr(table, 0.5) == pytest.approx(0.5, abs=0.1)

def test_tpr_at_fpr_is_monotone_in_the_target():
    rng = np.random.default_rng(43)
    table = roc(ScoreSet(rng.normal(0.7, 0.15, 40), rng.normal(0.3, 0.2, 60)))
    targets = np.linspace(0.01, 0.9, 30)
    vals = [tpr_at_fpr(table, t) for t in targets]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

def test_tpr_matches_brute_force_on_random_score_sets():
    rng = np.random.default_rng(44)
    for _ in range(25):
        genuine = list(np.round(rng.uniform(size=rng.integers(2, 8)), 3))
        impostor = list(np.round(rng.uniform(size=rng.integers(2, 8)), 3))
        table = roc(score_set(genuine, impostor))
        for target in (0.01, 0.1, 0.25, 0.5):
            assert tpr_at_fpr(table, target) == pytest.approx(
                brute_tpr_at(genuine, impostor, target), abs=1e-12)


# ---------------------------------------------------------------------------
# psnr / rmse
# ---------------------------------------------------------------------------

def test_psnr_of_identical_images_is_infinite():
    img = np.random.default_rng(45).uniform(size=(2, 1, 8, 8))
    assert np.isposinf(psnr(img, img.copy())).all()

def test_psnr_of_constant_offset_has_closed_form():
    img = np.random.default_rng(46).uniform(0.0, 0.8, size=(2, 1, 8, 8))
    np.testing.assert_allclose(psnr(img + 0.1, img), 20.0, rtol=0, atol=1e-12)

def test_psnr_matches_independent_two_liner():
    rng = np.random.default_rng(47)
    a, b = rng.uniform(size=(3, 1, 6, 6)), rng.uniform(size=(3, 1, 6, 6))
    b[1] = a[1]
    mse = np.mean((a - b) ** 2, axis=(1, 2, 3))
    got = psnr(a, b)
    assert got.shape == (3,) and math.isinf(got[1])
    np.testing.assert_allclose(got[[0, 2]], 10 * np.log10(1.0 / mse[[0, 2]]),
                               rtol=0, atol=1e-10)

def test_psnr_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        psnr(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 3)))

def test_feature_rmse_trivials_and_brute_loop():
    f = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert feature_rmse(f, f.copy()) == 0.0
    assert feature_rmse(np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]])) == 1.0
    rng = np.random.default_rng(48)
    preds, targets = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
    brute = sum(math.sqrt(sum((p - t) ** 2)) for p, t in
                zip(preds, targets)) / 7
    assert feature_rmse(preds, targets) == pytest.approx(brute, abs=1e-10)

def test_feature_rmse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        feature_rmse(np.ones((1, 2)), np.ones((0, 2)))
    with pytest.raises(ShapeError):
        feature_rmse(np.ones((1, 2)), np.ones((1, 3)))

@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), width=st.integers(1, 160),
       seed=st.integers(0, 2 ** 16))
@example(n=200, width=64, seed=0)
def test_feature_rmse_is_bitwise_the_per_row_norm_loop(n, width, seed):
    rng = np.random.default_rng(seed)
    preds, targets = rng.normal(size=(2, n, width))
    assert feature_rmse(preds, targets) == loop_feature_rmse(preds, targets)

@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@example(n=1, seed=1)
@example(n=7, seed=7)
@example(n=200, seed=200)
def test_blocked_psnr_is_bitwise_the_per_image_loop(n, seed):
    rng = np.random.default_rng(seed)
    clear = rng.integers(0, 256, size=(n, 1, 64, 48), dtype=np.uint8)
    recovered = rng.uniform(size=clear.shape)
    data = SplitData(x=clear, y=clear, m=clear > 127, eyes=[], identity=[],
                     sample=[str(i) for i in range(n)], dailies={})
    loaded = []

    def load(rows):
        loaded.append(rows)
        return recovered[rows]

    mean_psnr, rmse, feats = recovery_metrics(load, data, None)
    assert mean_psnr == loop_mean_psnr(recovered, clear)
    assert math.isnan(rmse) and feats is None
    # one call per row, in order, in blocks of at most PSI_BLOCK rows
    assert [i for rows in loaded for i in range(n)[rows]] == list(range(n))
    assert max(rows.stop - rows.start for rows in loaded) <= PSI_BLOCK


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def protocol_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("proto") / "data"
    make_dataset(root, 6, 2, seed=99, ratios=(0.0, 0.0, 1.0))
    data = load_split(root, "test")
    phi = build_phi("pretrain", seed=2,
                    spec=FeatureSpec(crop=16, widths=(8, 16), feature_width=32),
                    n_identities=6, per_identity=16, steps=200)
    return data, phi

def test_identity_recovery_equals_corrupted_baseline(protocol_setup):
    data, phi = protocol_setup
    a = run_protocol("model", lambda rows: to_float(data.x[rows]), data, phi)
    b = run_protocol("corrupted", lambda rows: to_float(data.x[rows].copy()),
                     data, phi)
    assert a.psnr_db == b.psnr_db
    assert a.feature_rmse == b.feature_rmse
    assert a.tpr_at == b.tpr_at

def test_truth_oracle_recovery_equals_clear_baseline(protocol_setup):
    data, phi = protocol_setup
    report = run_protocol("oracle", lambda rows: to_float(data.y[rows]),
                          data, phi)
    assert math.isinf(report.psnr_db)
    assert report.feature_rmse == 0.0

@pytest.mark.parametrize("recover", [
    pytest.param(lambda xs: xs, id="graymap"),
    pytest.param(lambda xs: to_float(xs).astype(np.float32), id="float32"),
])
def test_a_recovery_that_is_not_float64_is_refused(protocol_setup, recover):
    data, phi = protocol_setup
    with pytest.raises(TypeError, match="float64"):
        run_protocol("raw", lambda rows: recover(data.x[rows]), data, phi)

def test_a_recovery_of_other_rows_is_refused(protocol_setup):
    data, phi = protocol_setup
    with pytest.raises(ShapeError, match="batch shape"):
        run_protocol("all", lambda rows: to_float(data.x), data, phi)

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
    report = run_protocol("m", lambda rows: to_float(data.x[rows]), data, phi)
    n = len(set(data.identity))
    assert len(report.roc) >= 2
    # N genuine + N(N-1) impostor scores swept over distinct thresholds
    assert report.roc[:, :2].max(axis=0).tolist() == [1.0, 1.0]
    assert n == 6


# ---------------------------------------------------------------------------
# blocked inference
# ---------------------------------------------------------------------------

BLOCK_PHI = build_phi("fixed_random", seed=4, spec=FeatureSpec())
BLOCK_PSI = build_psi(InpaintSpec(height=16, width=12, widths=(4, 8)), seed=8)
# row counts around one, two, eight and sixteen 8-row blocks
BLOCK_EDGE_ROWS = (*range(7, 10), *range(15, 18), *range(63, 72),
                   *range(129, 136))


def with_rows(counts):
    def add_examples(test):
        for n in counts:
            test = example(n=n, seed=n)(test)
        return test
    return add_examples


def faces(n, seed, h=64, w=48):
    """Random (n, 1, h, w) images with jittered eye landmarks."""
    rng = np.random.default_rng(seed)
    left = rng.normal((0.35 * w, 0.4 * h), 1.5, size=(n, 2))
    right = rng.normal((0.65 * w, 0.4 * h), 1.5, size=(n, 2))
    return rng.uniform(size=(n, 1, h, w)), np.stack([left, right], axis=1)


class HeldCrops:
    """The first ``n`` of ``crops`` as ``FeatureNet.features`` reads them,
    each slice recorded; the array holds a block of rows more than
    ``len()``, as a loader may."""

    def __init__(self, crops, n):
        self.crops, self.n, self.read = crops, n, []

    def __len__(self):
        return self.n

    def __getitem__(self, rows):
        self.read.append(rows)
        return self.crops[rows]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_rows((*range(1, PSI_BLOCK + 1), 66, 400, 401))
def test_phi_features_of_each_row_are_those_of_the_row_alone(n, seed):
    crops = np.random.default_rng(seed).uniform(
        size=(n + PSI_BLOCK, 1, BLOCK_PHI.crop, BLOCK_PHI.crop))
    held = HeldCrops(crops, n)
    feats = BLOCK_PHI.features(held)
    # each row read once, in order, by slices inside [0, n)
    assert [i for rows in held.read for i in range(rows.start, rows.stop)] \
        == list(range(n))
    assert all(0 <= rows.start < rows.stop <= n for rows in held.read)
    for i in range(n):
        assert feats[i].tobytes() == \
            BLOCK_PHI.features(crops[i:i + 1])[0].tobytes()
    for start in range(0, n - PSI_BLOCK + 1, PSI_BLOCK):  # each full block
        block = crops[start:start + PSI_BLOCK]
        assert feats[start:start + PSI_BLOCK].tobytes() == \
            BLOCK_PHI.forward_taps(block, (FINAL_FEATURE,),
                                   keep=False)[FINAL_FEATURE].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_rows(BLOCK_EDGE_ROWS)
def test_chunked_psi_is_bitwise_the_one_batch_forward(n, seed):
    xs = np.random.default_rng(seed).integers(0, 256, size=(n, 1, 16, 12),
                                              dtype=np.uint8)
    blocks = [BLOCK_PSI.forward(to_float(xs[start:start + PSI_BLOCK]),
                                keep=False)
              for start in range(0, n, PSI_BLOCK)]
    assert np.concatenate(blocks).tobytes() == \
        BLOCK_PSI.forward(to_float(xs), keep=False).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_rows((*range(7, 10), *range(63, 66), *range(129, 136)))
def test_features_of_a_cropping_view_are_bitwise_those_of_the_crops(n, seed):
    images, eyes = faces(n, seed)
    loaded = []

    def load(rows):
        loaded.append(rows)
        return images[rows]

    grid = stn.alignment_grid(eyes, 64, 48, BLOCK_PHI.crop, BLOCK_PHI.crop)
    stacked = BLOCK_PHI.features(stn.bilinear_sample(images, grid))
    assert _aligned_features(BLOCK_PHI, load, eyes).tobytes() == \
        stacked.tobytes()
    # one call per row, in order, in blocks of at most PSI_BLOCK rows
    assert [i for rows in loaded for i in range(n)[rows]] == list(range(n))
    assert max(rows.stop - rows.start for rows in loaded) <= PSI_BLOCK


def test_aligned_features_hold_one_chunk_at_a_time():
    images, eyes = faces(400, seed=6)
    _aligned_features(BLOCK_PHI, lambda rows: images[rows], eyes[:2])
    tracemalloc.start()
    try:
        feats = _aligned_features(BLOCK_PHI, lambda rows: images[rows], eyes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.shape == (400, FeatureSpec().feature_width)
    # one block of images, crops and φ's activations
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# the streamed protocol against the stacked one
# ---------------------------------------------------------------------------

def stacked_run_protocol(model, recover_all, data, phi):
    """``run_protocol`` as it was before it streamed: ``recover_all`` maps
    all N corrupted graymaps to one (N, 1, H, W) stack, PSNR runs over that
    stack, and φ's features over one stack of all N crops."""
    recovered = recover_all(data.x)
    dbs = psnr(recovered, to_float(data.y))

    def features(images, eyes):
        grid = stn.alignment_grid(np.asarray(eyes), *images.shape[2:],
                                  phi.crop, phi.crop)
        return phi.features(stn.bilinear_sample(images, grid))

    feats = features(recovered, data.eyes)
    clear = features(to_float(data.y), data.eyes)
    gallery_rows = np.sort(np.unique(data.identity, return_index=True)[1])
    idents = [data.identity[i] for i in gallery_rows]
    probe_imgs, probe_eyes = zip(*(data.dailies[ident] for ident in idents))
    probes = features(to_float(np.stack(probe_imgs)), probe_eyes)
    table = roc(verification_scores(feats[gallery_rows], probes))
    return EvalReport(model, float(np.mean(dbs)), feature_rmse(feats, clear),
                      {t: tpr_at_fpr(table, t) for t in FPR_TARGETS}, table)


def gallery_split(n, seed, h=16, w=12):
    """A test split of n rows, two per identity, each identity with a daily
    photo; random graymaps with jittered eyes."""
    images, eyes = faces(n, seed, h, w)
    clear, _ = faces(n, seed + 1, h, w)
    n_ids = -(-n // 2)
    daily, daily_eyes = faces(n_ids, seed + 2, h, w)
    graymap = lambda a: (a * 255.0).astype(np.uint8)
    x = graymap(images)
    return SplitData(
        x=x, y=graymap(clear), m=x > 127, eyes=eyes,
        identity=[f"id{i // 2:03d}" for i in range(n)],
        sample=[f"s{i:03d}" for i in range(n)],
        dailies={f"id{i:03d}": (graymap(daily[i]), daily_eyes[i])
                 for i in range(n_ids)})


STREAM_PHI = build_phi("fixed_random", seed=5,
                       spec=FeatureSpec(crop=16, widths=(8, 16), feature_width=32))


def outcome(tmp_path, protocol):
    """A protocol run's report row and ROC TSV bytes, or its error."""
    try:
        report = protocol()
    except ValueError as err:
        return repr(err)
    return report.row(), write_roc_tsv(report, tmp_path).read_bytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@with_rows((*range(7, 10), *range(63, 66), *range(129, 136)))
def test_streamed_protocol_is_bitwise_the_stacked_protocol(
        tmp_path_factory, n, seed):
    data = gallery_split(n, seed)
    streamed = outcome(tmp_path_factory.mktemp("streamed"), lambda: evaluate(
        "m", BLOCK_PSI, data, STREAM_PHI))
    stacked = outcome(tmp_path_factory.mktemp("stacked"), lambda:
                      stacked_run_protocol("m", lambda xs: BLOCK_PSI.forward(
                          to_float(xs), keep=False), data, STREAM_PHI))
    assert streamed == stacked
    if n == 1:  # one identity has no impostor pairs
        assert "impostor" in streamed


def test_protocol_holds_no_stack_of_recoveries():
    data = gallery_split(400, seed=9, h=64, w=48)
    psi = build_psi(InpaintSpec(), seed=8)
    evaluate("warm", psi, gallery_split(3, seed=10, h=64, w=48), BLOCK_PHI)
    tracemalloc.start()
    try:
        report = evaluate("m", psi, data, BLOCK_PHI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.psnr_db)
    # above the split's own bytes: the 400 recoveries alone would take 9.4
    # MiB as one stack; the stacked protocol peaked at 23.4 MiB here
    assert peak < 10 * 2 ** 20


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_tsv_and_roc_round_trip(tmp_path):
    report = EvalReport("demo", math.inf, 0.0,
                        {1e-2: 1.0, 1e-3: 0.5, 1e-4: 0.25},
                        np.array([[0.0, 0.5, 0.9], [0.5, 1.0, 0.3]]))
    write_report_tsv([report], tmp_path / "report.tsv")
    text = (tmp_path / "report.tsv").read_text()
    assert text.splitlines()[0].startswith("model\ttpr_fpr_1e2")
    assert "\tinf\t" in text.splitlines()[1]
    path = write_roc_tsv(report, tmp_path)
    assert path.name == "roc_demo.tsv"
    table = read_roc_tsv(path)
    assert table.dtype == np.float64
    assert table.tolist() == [[0.0, 0.5, 0.9], [0.5, 1.0, 0.3]]


@pytest.fixture(scope="module")
def roc_blob(tmp_path_factory):
    """The bytes of a ROC table the protocol wrote for 12 gallery rows."""
    report = evaluate("m", BLOCK_PSI, gallery_split(12, seed=3), STREAM_PHI)
    return write_roc_tsv(report, tmp_path_factory.mktemp("roc")).read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_roc_table_byte_flips_and_truncations_load_or_raise_roc_table_error(
        roc_blob, tmp_path_factory, data):
    blob = bytearray(roc_blob)
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= \
                data.draw(st.integers(1, 255))
    path = tmp_path_factory.getbasetemp() / "roc_fuzzed.tsv"
    path.write_bytes(bytes(blob))
    try:
        read_roc_tsv(path)
    except RocTableError:
        pass
