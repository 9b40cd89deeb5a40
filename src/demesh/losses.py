"""Training losses: weighted pixel loss, reverse Huber with a dynamic
threshold, the two-tap feature loss through the aligning sampler, and their
unified sum.

Reductions are per sample: sums over elements, means over the batch extent.
The reverse-Huber threshold c is a batch statistic (a fraction of the
largest absolute residual) and is treated as a constant in differentiation;
pass ``fixed_c`` to differentiate at a frozen threshold, e.g. for
finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import stn
from .featnet import EARLY_CONV, FINAL_FEATURE, FeatureNet
from .layers import ShapeError

Array = np.ndarray

C_FLOOR = 1e-12  # threshold floor for an all-zero residual batch

VARIANTS = ("fcne", "fcnw", "fcnf", "demesh_e", "demesh")


@dataclass
class LossValue:
    value: float
    grad: Array


@dataclass
class UnifiedLoss:
    value: float
    grad: Array
    pixel: float
    feature: float


@dataclass(frozen=True)
class LossConfig:
    """Loss knobs: the mask-term weight, the feature-term weight, the
    dynamic-threshold fraction, which taps contribute, the feature penalty
    (reverse Huber or plain squared error), and whether the feature branch
    aligns crops or just resizes the whole image."""

    lambda_mask: float = 1.0
    lambda_feature: float = 1.0
    c_fraction: float = 0.2
    taps: tuple[str, ...] = (EARLY_CONV, FINAL_FEATURE)
    feature_penalty: str = "berhu"
    align: bool = True

    def validate(self) -> None:
        if self.lambda_mask < 0 or self.lambda_feature < 0:
            raise ValueError("loss weights must be non-negative")
        if not (0.0 < self.c_fraction <= 1.0):
            raise ValueError(f"c_fraction must be in (0, 1], got {self.c_fraction}")
        if self.feature_penalty not in ("berhu", "squared"):
            raise ValueError(f"unknown feature penalty {self.feature_penalty!r}")


def variant_config(variant: str, lambda_mask: float = 1.0,
                   lambda_feature: float = 1.0,
                   c_fraction: float = 0.2) -> LossConfig:
    """Loss configuration of one variant of the comparison matrix, with the
    c fraction and the weights of the terms it keeps (fcne keeps neither
    weighted term, fcnw no feature term)."""
    base = LossConfig(lambda_mask=lambda_mask, lambda_feature=lambda_feature,
                      c_fraction=c_fraction)
    configs = {
        "fcne": replace(base, lambda_mask=0.0, lambda_feature=0.0),
        "fcnw": replace(base, lambda_feature=0.0),
        "fcnf": replace(base, taps=(EARLY_CONV,), align=False),
        "demesh_e": replace(base, feature_penalty="squared"),
        "demesh": base,
    }
    if variant not in configs:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return configs[variant]


# ---------------------------------------------------------------------------
# pixel level
# ---------------------------------------------------------------------------

def _batch_extent(arr: Array) -> int:
    return arr.shape[0] if arr.ndim == 4 else 1


def pixel_loss(pred: Array, target: Array, mask: Array,
               lam: float = 1.0) -> LossValue:
    """Squared error plus a mask-weighted squared error on corrupted pixels.

    Summed over pixels, averaged over the batch. The gradient is with
    respect to the prediction.
    """
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError(
            f"pred {pred.shape}, target {target.shape}, mask {mask.shape} "
            f"must agree")
    if not np.all(np.isin(np.unique(mask), (0.0, 1.0))):
        raise ValueError("mask must be binary")
    n = _batch_extent(pred)
    d = pred - target
    masked = mask * d
    value = (np.sum(d * d) + lam * np.sum(masked * masked)) / n
    grad = (2.0 * d + 2.0 * lam * masked) / n
    return LossValue(float(value), grad)


# ---------------------------------------------------------------------------
# reverse Huber
# ---------------------------------------------------------------------------

def dynamic_c(residual: Array, fraction: float = 0.2) -> float:
    """Threshold for this batch: fraction of the largest absolute residual."""
    if residual.size == 0:
        raise ValueError("empty residual")
    c = fraction * float(np.max(np.abs(residual)))
    return max(c, C_FLOOR)


def reverse_huber(residual: Array, c: float) -> LossValue:
    """Elementwise |r| beyond the threshold, (r^2 + c^2) / 2c inside it.

    Both branches meet at |r| = c with matching value c and slope sign(r),
    so the loss is C1 there. The sum over all elements is returned; the
    threshold is a constant for differentiation purposes.
    """
    if c <= 0:
        raise ValueError(f"threshold must be positive, got {c}")
    r = np.asarray(residual, dtype=np.float64)
    if not np.any(r):
        # continuous extension of the dynamic-threshold case: as the batch
        # residual vanishes so does c, and the loss goes to zero with it
        return LossValue(0.0, np.zeros_like(r))
    a = np.abs(r)
    outside = a > c
    value = np.where(outside, a, (r * r + c * c) / (2.0 * c))
    grad = np.where(outside, np.sign(r), r / c)
    return LossValue(float(value.sum()), grad)


# ---------------------------------------------------------------------------
# feature level
# ---------------------------------------------------------------------------

def _feature_grid(pred: Array, eyes, phi: FeatureNet, align: bool):
    n, _, h, w = pred.shape
    if align:
        if eyes is None or len(eyes) != n:
            raise ValueError(f"need one landmark pair per sample ({n})")
        return stn.alignment_grid(eyes, h, w, phi.in_h, phi.in_w)
    return stn.resize_grid(n, phi.in_h, phi.in_w)


def _tap_residuals(pred: Array, target: Array, eyes, phi: FeatureNet,
                   cfg: LossConfig, keep: bool):
    """Aligned crops of both branches, their per-tap residuals, and the
    batch grid. The target branch is a constant and keeps no backward
    record; the prediction branch keeps one when ``keep`` is set. A
    record-free pass clears φ's record, so the prediction branch runs last."""
    grid = _feature_grid(pred, eyes, phi, cfg.align)
    acts_t = phi.forward_taps(stn.bilinear_sample(target, grid), taps=cfg.taps,
                              keep=False)
    acts_p = phi.forward_taps(stn.bilinear_sample(pred, grid), taps=cfg.taps,
                              keep=keep)
    residuals = {tap: acts_p[tap] - acts_t[tap] for tap in cfg.taps}
    return residuals, grid


def feature_thresholds(pred: Array, target: Array, eyes, phi: FeatureNet,
                       cfg: LossConfig) -> dict[str, float]:
    """Per-tap dynamic thresholds for this batch (each tap gets its own c,
    keeping the two taps' scales comparable)."""
    residuals, _ = _tap_residuals(pred, target, eyes, phi, cfg, keep=False)
    return {tap: dynamic_c(r, cfg.c_fraction) for tap, r in residuals.items()}


def feature_loss(pred: Array, target: Array, eyes, phi: FeatureNet,
                 cfg: LossConfig,
                 fixed_c: dict[str, float] | None = None) -> LossValue:
    """Penalty on per-tap activation differences between the aligned
    prediction and the aligned target.

    The gradient flows through the feature net and the sampler into the
    prediction only; the target branch is a constant.
    """
    cfg.validate()
    n = pred.shape[0]
    residuals, grid = _tap_residuals(pred, target, eyes, phi, cfg, keep=True)
    total = 0.0
    tap_grads: dict[str, Array] = {}
    for tap, r in residuals.items():
        if cfg.feature_penalty == "squared":
            lv = LossValue(float(np.sum(r * r)), 2.0 * r)
        else:
            c = fixed_c[tap] if fixed_c is not None \
                else dynamic_c(r, cfg.c_fraction)
            lv = reverse_huber(r, c)
        total += lv.value
        tap_grads[tap] = lv.grad
    grad_crops = phi.backward_taps(tap_grads)
    grad_pred = stn.bilinear_backward(grad_crops, grid, pred.shape[2:])
    return LossValue(total / n, grad_pred / n)


# ---------------------------------------------------------------------------
# unified objective
# ---------------------------------------------------------------------------

def unified_loss(pred: Array, target: Array, mask: Array, eyes,
                 phi: FeatureNet | None, cfg: LossConfig,
                 fixed_c: dict[str, float] | None = None) -> UnifiedLoss:
    """Pixel loss plus the weighted feature loss; gradients summed."""
    cfg.validate()
    px = pixel_loss(pred, target, mask, cfg.lambda_mask)
    if cfg.lambda_feature == 0.0:
        return UnifiedLoss(px.value, px.grad, px.value, 0.0)
    if phi is None:
        raise ValueError("a feature net is required when lambda_feature > 0")
    feat = feature_loss(pred, target, eyes, phi, cfg, fixed_c)
    value = px.value + cfg.lambda_feature * feat.value
    grad = px.grad + cfg.lambda_feature * feat.grad
    return UnifiedLoss(float(value), grad, px.value, feat.value)
