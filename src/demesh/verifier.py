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
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic, stn
from .facegen import SplitData, to_float
from .featnet import FeatureNet
from .layers import PSI_BLOCK, ShapeError, map_chunks

Array = np.ndarray

FPR_TARGETS = (1e-2, 1e-3, 1e-4)
REPORT_HEADER = "model\ttpr_fpr_1e2\ttpr_fpr_1e3\ttpr_fpr_1e4\tpsnr_db\tfeature_rmse"
ROC_HEADER = "fpr\ttpr\tthreshold"


class RocTableError(ValueError):
    """A ROC table that is not what ``write_roc_tsv`` writes."""


@dataclass
class ScoreSet:  # float64 cosine scores
    genuine: Array
    impostor: Array


@dataclass
class EvalReport:
    model: str
    psnr_db: float
    feature_rmse: float
    tpr_at: dict[float, float]
    roc: Array  # the (P, 3) table of roc()

    def row(self) -> str:
        tprs = "\t".join(f"{self.tpr_at[t]:.6f}" for t in FPR_TARGETS)
        return f"{self.model}\t{tprs}\t{self.psnr_db:.6f}\t{self.feature_rmse:.6f}"


# ---------------------------------------------------------------------------
# image and feature metrics
# ---------------------------------------------------------------------------

def psnr(pred: Array, target: Array) -> Array:
    """Per-image PSNR in dB of (N, 1, H, W) images in [0, 1] against their
    targets; +inf for an identical pair. Each image's dB comes from
    ``math.log10``: ``np.log10``'s SIMD loops round differently across CPUs."""
    if pred.shape != target.shape:
        raise ShapeError(f"image shapes differ: {pred.shape} vs {target.shape}")
    mse = np.mean((pred - target) ** 2, axis=(1, 2, 3))
    return np.array([10.0 * math.log10(1.0 / m) if m else math.inf for m in mse])


def feature_rmse(preds: Array, targets: Array) -> float:
    """Mean over rows of the Euclidean distance between (N, F) features.
    A stacked (1, F) @ (F, 1) product per row gives the bits of a per-row
    ``np.linalg.norm``; ``norm(d, axis=1)`` does not."""
    if preds.shape != targets.shape:
        raise ShapeError(f"feature shapes differ: {preds.shape} vs {targets.shape}")
    d = preds - targets
    return float(np.mean(np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])))


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def _count_at_or_above(scores: Array, thresholds: Array) -> Array:
    return scores.size - np.searchsorted(np.sort(scores), thresholds, side="left")


def roc(scores: ScoreSet) -> Array:
    """Threshold sweep over every distinct score; a pair accepts when its
    score is >= the threshold. Returns a (P, 3) float64 table of (fpr, tpr,
    threshold) rows, sorted by FPR, then TPR, then threshold. Scores must be
    finite."""
    genuine, impostor = scores.genuine, scores.impostor
    if not genuine.size or not impostor.size:
        raise ValueError("both genuine and impostor scores are required")
    if not (np.isfinite(genuine).all() and np.isfinite(impostor).all()):
        raise ValueError("scores must be finite (no NaN or inf)")
    thr = np.unique(np.concatenate([genuine, impostor]))
    fpr = _count_at_or_above(impostor, thr) / impostor.size
    tpr = _count_at_or_above(genuine, thr) / genuine.size
    return np.column_stack((fpr, tpr, thr))[np.lexsort((thr, tpr, fpr))]


def tpr_at_fpr(table: Array, target: float) -> float:
    """TPR of the ROC point with the largest FPR <= target; 0 when only the
    trivial origin qualifies."""
    if not (0.0 < target < 1.0):
        raise ValueError(f"target FPR must be in (0, 1), got {target}")
    return float(np.max(table[:, 1], where=table[:, 0] <= target, initial=0.0))


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
    return ScoreSet(np.diagonal(s), s[~np.eye(len(s), dtype=bool)])


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------

def _aligned_features(phi: FeatureNet, load, eyes) -> Array:
    """φ's features of each image's eye-aligned crop, one chunk at a time;
    ``load(rows)`` gives a slice of rows' float images (n, 1, H, W)."""
    def crop_features(rows: slice) -> Array:
        images = load(rows)
        grid = stn.alignment_grid(eyes[rows], *images.shape[2:], phi.in_h,
                                  phi.in_w)
        return phi.features(stn.bilinear_sample(images, grid), keep=False)
    return map_chunks(crop_features, len(eyes))


def clear_features(data: SplitData, phi: FeatureNet) -> Array:
    """φ's aligned features of the split's clear images, the reference of
    ``recovery_metrics``' feature RMSE."""
    return _aligned_features(phi, lambda rows: to_float(data.y[rows]),
                             data.eyes)


def recovery_metrics(recovered: Array, data: SplitData,
                     phi: FeatureNet | None, clear: Array | None = None):
    """Mean PSNR and feature RMSE of recovered (N, 1, H, W) float images
    against the split's clear graymaps, plus the recovered images' aligned
    features. ``clear`` is the split's ``clear_features``, computed here
    when not given. Without a feature net the RMSE is nan and there are no
    features. PSNR runs in blocks of rows, never all clear images in float."""
    mean_psnr = float(np.mean(map_chunks(
        lambda rows: psnr(recovered[rows], to_float(data.y[rows])),
        len(recovered), PSI_BLOCK)))
    if phi is None:
        return mean_psnr, float("nan"), None
    feats = _aligned_features(phi, lambda rows: recovered[rows], data.eyes)
    if clear is None:
        clear = clear_features(data, phi)
    return mean_psnr, feature_rmse(feats, clear), feats


def run_protocol(model: str, recover_fn, data: SplitData,
                 phi: FeatureNet, clear: Array | None = None) -> EvalReport:
    """Evaluate one recovery function on a test split.

    ``recover_fn`` maps the split's corrupted graymaps (N, 1, H, W) to
    recovered float64 images of the same shape; any other dtype raises
    TypeError. PSNR and feature RMSE are computed against the clear ground
    truth over every row (``clear`` passes the split's ``clear_features``
    to rows that share them); verification scores every
    (recovered gallery, daily probe) pair over one gallery image (the
    identity's first row) and one daily photo per identity.
    """
    if not len(data):
        raise ValueError("empty test split")
    recovered = recover_fn(data.x)
    if recovered.shape != data.x.shape:
        raise ShapeError(f"recovery changed the batch shape: "
                         f"{recovered.shape} vs {data.x.shape}")
    if recovered.dtype != np.float64:
        raise TypeError(f"recovery must be float64 images in [0, 1], got "
                        f"{recovered.dtype} (convert graymaps with to_float)")

    mean_psnr, rmse, feats_rec = recovery_metrics(recovered, data, phi, clear)

    # each identity's first row, in first-seen order
    gallery_rows = np.sort(np.unique(data.identity, return_index=True)[1])
    idents = [data.identity[i] for i in gallery_rows]
    missing = [ident for ident in idents if ident not in data.dailies]
    if missing:
        raise ValueError(f"identities without a daily photo: {missing}")
    probe_imgs, probe_eyes = zip(*(data.dailies[ident] for ident in idents))
    probe_feats = _aligned_features(
        phi, lambda rows: to_float(np.stack(probe_imgs[rows])), probe_eyes)

    table = roc(verification_scores(feats_rec[gallery_rows], probe_feats))
    return EvalReport(model=model, psnr_db=mean_psnr, feature_rmse=rmse,
                      tpr_at={t: tpr_at_fpr(table, t) for t in FPR_TARGETS},
                      roc=table)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_report_tsv(reports: list[EvalReport], path: str | Path) -> None:
    lines = [REPORT_HEADER] + [r.row() for r in reports]
    atomic.write_file(path, "\n".join(lines) + "\n")


def roc_lines(table: Array) -> list[str]:
    """The ROC table's rows as TSV lines, formatted in one pass."""
    return ("%.9f\t%.9f\t%.9f\n" * len(table) % tuple(table.ravel())).splitlines()


def write_roc_tsv(report: EvalReport, out_dir: str | Path) -> Path:
    path = Path(out_dir) / f"roc_{report.model}.tsv"
    atomic.write_file(path, "\n".join([ROC_HEADER, *roc_lines(report.roc)]) + "\n")
    return path


_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_BAD_ROW = re.compile(rf"^(?!{_NUMBER}\t{_NUMBER}\t{_NUMBER}$).*$", re.M | re.A)


def read_roc_tsv(path: str | Path) -> Array:
    """The (P, 3) table of a ``write_roc_tsv`` file. A wrong header, no rows,
    a row that is not three tab-separated decimal numbers, a rate outside
    [0, 1] or an infinite threshold raise RocTableError at ``path:line``."""
    lines = Path(path).read_text(errors="replace").splitlines()
    if lines[:1] != [ROC_HEADER] or len(lines) == 1:
        raise RocTableError(f"{path}:1: want the header {ROC_HEADER!r} and rows")
    body = "\n".join(lines[1:])
    bad = _BAD_ROW.search(body)  # the first line not of three numbers
    if bad:
        line = 2 + body.count("\n", 0, bad.start())
        raise RocTableError(f"{path}:{line}: not three tab-separated decimal "
                            f"numbers: {bad[0]!r}")
    table = np.array(body.split(), dtype=np.float64).reshape(-1, 3)
    ok = np.isfinite(table[:, 2]) & ((table[:, :2] >= 0.0)
                                     & (table[:, :2] <= 1.0)).all(axis=1)
    if not ok.all():
        raise RocTableError(f"{path}:{2 + int(np.argmin(ok))}: a rate outside "
                            f"[0, 1] or an infinite threshold")
    return table
