"""Verification protocol and image metrics.

One gallery image (the recovered ID photo) and one daily probe per identity
give N genuine and N^2 - N impostor cosine scores, all read off one
normalized gallery-by-probe matrix product. The ROC is swept over every
distinct score with step semantics (no interpolation): each class is sorted
once, and the number of its scores at or above each threshold is its size
minus a binary-search rank, so the sweep costs O(S log S) for S scores.
Operating points are read off conservatively: the point with the largest
false-positive rate not exceeding the target. PSNR and feature RMSE report
pixel- and feature-space distance to the clear ground truth over all test
triplets.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import atomic, stn
from .facegen import SplitData
from .featnet import FeatureNet
from .layers import ShapeError, map_chunks

Array = np.ndarray

FPR_TARGETS = (1e-2, 1e-3, 1e-4)
REPORT_HEADER = "model\ttpr_fpr_1e2\ttpr_fpr_1e3\ttpr_fpr_1e4\tpsnr_db\tfeature_rmse"


@dataclass
class ScoreSet:
    genuine: list[float]
    impostor: list[float]


@dataclass
class RocPoint:
    fpr: float
    tpr: float
    threshold: float


@dataclass
class EvalReport:
    model: str
    psnr_db: float
    feature_rmse: float
    tpr_at: dict[float, float]
    roc: list[RocPoint] = field(default_factory=list)

    def row(self) -> str:
        psnr = "inf" if math.isinf(self.psnr_db) else f"{self.psnr_db:.6f}"
        tprs = "\t".join(f"{self.tpr_at[t]:.6f}" for t in FPR_TARGETS)
        return f"{self.model}\t{tprs}\t{psnr}\t{self.feature_rmse:.6f}"


# ---------------------------------------------------------------------------
# scalar metrics
# ---------------------------------------------------------------------------

def psnr(pred: Array, target: Array, max_val: float = 1.0) -> float:
    """10 log10(max^2 / MSE); identical images report +inf."""
    if pred.shape != target.shape:
        raise ShapeError(f"image shapes differ: {pred.shape} vs {target.shape}")
    mse = float(np.mean((pred - target) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / mse)


def feature_rmse(preds: Sequence[Array], targets: Sequence[Array]) -> float:
    """Mean over samples (rows) of the Euclidean feature distance."""
    if len(preds) != len(targets):
        raise ValueError(f"sample counts differ: {len(preds)} vs {len(targets)}")
    dists = []
    for p, t in zip(preds, targets):
        if p.shape != t.shape:
            raise ShapeError(f"feature widths differ: {p.shape} vs {t.shape}")
        dists.append(float(np.linalg.norm(p - t)))
    return float(np.mean(dists))


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def _count_at_or_above(scores: Array, thresholds: Array) -> Array:
    return scores.size - np.searchsorted(np.sort(scores), thresholds, side="left")


def roc(scores: ScoreSet) -> list[RocPoint]:
    """Threshold sweep over every distinct score; a pair accepts when its
    score is >= the threshold. Points come out sorted by FPR (then TPR).
    Scores must be finite."""
    if not scores.genuine or not scores.impostor:
        raise ValueError("both genuine and impostor scores are required")
    genuine = np.asarray(scores.genuine, dtype=np.float64)
    impostor = np.asarray(scores.impostor, dtype=np.float64)
    if not (np.isfinite(genuine).all() and np.isfinite(impostor).all()):
        raise ValueError("scores must be finite (no NaN or inf)")
    thr = np.unique(np.concatenate([genuine, impostor]))
    fpr = _count_at_or_above(impostor, thr) / impostor.size
    tpr = _count_at_or_above(genuine, thr) / genuine.size
    order = np.lexsort((thr, tpr, fpr))
    return [RocPoint(f, t, h) for f, t, h in zip(
        fpr[order].tolist(), tpr[order].tolist(), thr[order].tolist())]


def tpr_at_fpr(points: list[RocPoint], target: float) -> float:
    """TPR of the point with the largest FPR <= target; 0 when only the
    trivial origin qualifies."""
    if not (0.0 < target < 1.0):
        raise ValueError(f"target FPR must be in (0, 1), got {target}")
    best = 0.0
    for p in points:
        if p.fpr <= target:
            best = max(best, p.tpr)
    return best


def verification_scores(gallery: Array, probes: Array) -> ScoreSet:
    """All-pairs cosine scores between N gallery and N probe features; the
    diagonal pairs are genuine, everything else (row-major) impostor."""
    if gallery.shape != probes.shape:
        raise ShapeError(f"gallery {gallery.shape} vs probes {probes.shape}")
    g_norm = np.linalg.norm(gallery, axis=1)
    p_norm = np.linalg.norm(probes, axis=1)
    if not (g_norm.all() and p_norm.all()):
        raise ValueError("cosine similarity undefined for a zero-norm feature")
    s = (gallery @ probes.T) / np.outer(g_norm, p_norm)
    off_diagonal = ~np.eye(len(s), dtype=bool)
    return ScoreSet(np.diagonal(s).tolist(), s[off_diagonal].tolist())


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------

def _aligned_features(phi: FeatureNet, images: Array, eyes) -> Array:
    """φ's features of each image's eye-aligned crop, one chunk at a time."""
    _, _, h, w = images.shape

    def crop_features(rows: slice) -> Array:
        grid = stn.alignment_grid(eyes[rows], h, w, phi.in_h, phi.in_w)
        return phi.features(stn.bilinear_sample(images[rows], grid), keep=False)
    return map_chunks(crop_features, len(images))


def recovery_metrics(recovered: Array, data: SplitData,
                     phi: FeatureNet | None):
    """Mean PSNR and feature RMSE of recovered (N, 1, H, W) images against
    the split's clear ones, plus the recovered images' aligned features.
    Without a feature net the RMSE is nan and there are no features."""
    mean_psnr = float(np.mean([psnr(r, c) for r, c in zip(recovered, data.y)]))
    if phi is None:
        return mean_psnr, float("nan"), None
    feats = _aligned_features(phi, recovered, data.eyes)
    rmse = feature_rmse(feats, _aligned_features(phi, data.y, data.eyes))
    return mean_psnr, rmse, feats


def run_protocol(model: str, recover_fn, data: SplitData,
                 phi: FeatureNet) -> EvalReport:
    """Evaluate one recovery function on a test split.

    ``recover_fn`` maps a batch of corrupted images (N, 1, H, W) to recovered
    images of the same shape. PSNR and feature RMSE are computed against the
    clear ground truth over every row; verification scores every
    (recovered gallery, daily probe) pair over one gallery image (the
    identity's first row) and one daily photo per identity.
    """
    if not len(data):
        raise ValueError("empty test split")
    recovered = recover_fn(data.x)
    if recovered.shape != data.x.shape:
        raise ShapeError(f"recovery changed the batch shape: "
                         f"{recovered.shape} vs {data.x.shape}")

    mean_psnr, rmse, feats_rec = recovery_metrics(recovered, data, phi)

    # each identity's first row, in first-seen order
    gallery_rows = np.sort(np.unique(data.identity, return_index=True)[1])
    idents = [data.identity[i] for i in gallery_rows]
    missing = [ident for ident in idents if ident not in data.dailies]
    if missing:
        raise ValueError(f"identities without a daily photo: {missing}")
    probe_imgs, probe_eyes = zip(*(data.dailies[ident] for ident in idents))
    probe_feats = _aligned_features(phi, np.stack(probe_imgs), probe_eyes)

    scores = verification_scores(feats_rec[gallery_rows], probe_feats)
    points = roc(scores)
    return EvalReport(
        model=model,
        psnr_db=mean_psnr,
        feature_rmse=rmse,
        tpr_at={t: tpr_at_fpr(points, t) for t in FPR_TARGETS},
        roc=points)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_report_tsv(reports: list[EvalReport], path: str | Path) -> None:
    lines = [REPORT_HEADER] + [r.row() for r in reports]
    atomic.write_file(path, "\n".join(lines) + "\n")


def write_roc_tsv(report: EvalReport, out_dir: str | Path) -> Path:
    path = Path(out_dir) / f"roc_{report.model}.tsv"
    lines = ["fpr\ttpr\tthreshold"]
    lines += [f"{p.fpr:.9f}\t{p.tpr:.9f}\t{p.threshold:.9f}" for p in report.roc]
    atomic.write_file(path, "\n".join(lines) + "\n")
    return path


def read_roc_tsv(path: str | Path) -> list[RocPoint]:
    lines = Path(path).read_text().splitlines()
    points = []
    for line in lines[1:]:
        fpr, tpr, thr = (float(v) for v in line.split("\t"))
        points.append(RocPoint(fpr, tpr, thr))
    return points
