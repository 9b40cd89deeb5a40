"""Seeded finite-difference suites over the differentiable surface.

Each check builds a fresh random instance and compares the analytic gradient
of a scalar-valued function against central differences at many seeded
points. Dynamic-threshold losses are checked at a frozen per-batch
threshold, since that is the function the implemented gradient
differentiates (the threshold is a batch statistic, held constant per step).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import losses, stn
from .featnet import FeatureSpec, build_phi
from .layers import Conv2d, Dense, MaxFeatureMap, MaxPool2x2, MaxUnpool2x2, \
    grad_check, he_normal

TOLERANCE = 1e-4
MODULES = ("layers", "stn", "losses")


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    passed: bool


def _scalar_through(layer, weights):
    def fn(x):
        out = layer.forward(x)
        for p in layer.params():
            p.zero_grad()
        grad = layer.backward(weights)
        return float(np.sum(out * weights)), grad
    return fn


def _check_conv_input(rng, corrupt: bool = False):
    conv = Conv2d(3, 4, 3, pad=1, init=he_normal(rng))
    x = rng.normal(size=(1, 3, 5, 5))
    w = rng.normal(size=(1, 4, 5, 5))
    inner = _scalar_through(conv, w)
    if corrupt:
        def flipped(inp):
            value, grad = inner(inp)
            return value, -grad
        return grad_check(flipped, x)
    return grad_check(inner, x)


def _check_conv_weight(rng):
    conv = Conv2d(2, 3, 3, pad=1, init=he_normal(rng))
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(2, 3, 5, 5))

    def fn(weight):
        conv.weight.value = weight
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        out = conv.forward(x)
        conv.backward(w)
        return float(np.sum(out * w)), conv.weight.grad.copy()

    return grad_check(fn, conv.weight.value.copy())


def _check_pool(rng):
    pool = MaxPool2x2()
    x = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(1, 2, 3, 3))
    return grad_check(_scalar_through(pool, w), x)


def _check_unpool(rng):
    pool = MaxPool2x2()
    pool.forward(rng.normal(size=(1, 2, 8, 8)))
    unpool = MaxUnpool2x2(pool)
    x = rng.normal(size=(1, 2, 4, 4))
    w = rng.normal(size=(1, 2, 8, 8))
    return grad_check(_scalar_through(unpool, w), x)


def _check_mfm(rng):
    x = rng.normal(size=(1, 4, 4, 4))
    gaps = np.abs(x[:, :2] - x[:, 2:])
    x[:, :2] += np.where(gaps < 1e-3, 0.1, 0.0)  # stay away from ties
    w = rng.normal(size=(1, 2, 4, 4))
    return grad_check(_scalar_through(MaxFeatureMap(), w), x)


def _check_dense(rng):
    fc = Dense(8, 5, init=he_normal(rng))
    x = rng.normal(size=(2, 8))
    w = rng.normal(size=(2, 5))
    return grad_check(_scalar_through(fc, w), x)


def _check_dense_weight(rng):
    fc = Dense(6, 4, init=he_normal(rng))
    x = rng.normal(size=(2, 6))
    w = rng.normal(size=(2, 4))

    def fn(weight):
        fc.weight.value = weight
        fc.weight.zero_grad()
        fc.bias.zero_grad()
        out = fc.forward(x)
        fc.backward(w)
        return float(np.sum(out * w)), fc.weight.grad.copy()

    return grad_check(fn, fc.weight.value.copy())


def _check_bilinear_backward(rng):
    # two samples with their own grids: a backward that routes one sample's
    # gradient into the other fails the check
    grid = stn.SampleGrid(rng.uniform(-1.2, 1.2, size=(2, 4, 4)),
                          rng.uniform(-1.2, 1.2, size=(2, 4, 4)))
    w = rng.normal(size=(2, 1, 4, 4))

    def fn(img):
        out = stn.bilinear_sample(img, grid)
        return float(np.sum(out * w)), stn.bilinear_backward(w, grid, (6, 6))

    return grad_check(fn, rng.normal(size=(2, 1, 6, 6)))


def _check_alignment_sample(rng):
    eyes = np.array([[[rng.uniform(3, 5), rng.uniform(4, 6)],
                      [rng.uniform(8, 10), rng.uniform(4, 6)]]
                     for _ in range(2)])
    grid = stn.alignment_grid(eyes, 14, 12, 6, 6)
    w = rng.normal(size=(2, 1, 6, 6))

    def fn(img):
        crop = stn.bilinear_sample(img, grid)
        return float(np.sum(crop * w)), stn.bilinear_backward(w, grid, (14, 12))

    return grad_check(fn, rng.uniform(size=(2, 1, 14, 12)))


def _check_pixel_loss(rng):
    target = rng.uniform(size=(2, 1, 4, 4))
    mask = (rng.uniform(size=(2, 1, 4, 4)) > 0.6).astype(float)

    def fn(pred):
        lv = losses.pixel_loss(pred, target, mask, lam=0.8)
        return lv.value, lv.grad

    return grad_check(fn, rng.uniform(size=(2, 1, 4, 4)))


def _check_reverse_huber(rng):
    c = 0.5
    r = rng.normal(size=(3, 5))
    r += np.where(np.abs(np.abs(r) - c) < 1e-3, 0.01, 0.0)  # off the knee

    def fn(res):
        lv = losses.reverse_huber(res, c)
        return lv.value, lv.grad

    return grad_check(fn, r)


def _tiny_phi(rng):
    return build_phi("fixed_random", seed=int(rng.integers(2 ** 31)),
                     spec=FeatureSpec(in_h=8, in_w=8, widths=(4,),
                                      feature_width=8))


def _loss_instance(rng):
    phi = _tiny_phi(rng)
    h, w = 12, 10
    target = rng.uniform(size=(1, 1, h, w))
    pred = rng.uniform(size=(1, 1, h, w))
    eyes = np.array([[[rng.uniform(2.5, 4), rng.uniform(3, 5)],
                      [rng.uniform(6, 8), rng.uniform(3, 5)]]])
    return phi, pred, target, eyes


def _check_feature_loss(rng):
    phi, pred, target, eyes = _loss_instance(rng)
    cfg = losses.LossConfig()
    fixed = losses.feature_loss(pred, target, eyes, phi, cfg).thresholds

    def fn(p):
        lv = losses.feature_loss(p, target, eyes, phi, cfg, fixed_c=fixed)
        return lv.value, lv.grad

    return grad_check(fn, pred)


def _check_unified_loss(rng):
    phi, pred, target, eyes = _loss_instance(rng)
    mask = (rng.uniform(size=pred.shape) > 0.7).astype(float)
    cfg = losses.LossConfig()
    fixed = losses.feature_loss(pred, target, eyes, phi, cfg).thresholds

    def fn(p):
        ul = losses.unified_loss(p, target, mask, eyes, phi, cfg, fixed_c=fixed)
        return ul.value, ul.grad

    return grad_check(fn, pred)


_CHECKS = {
    "layers": [
        ("conv_input", _check_conv_input),
        ("conv_weight", _check_conv_weight),
        ("maxpool", _check_pool),
        ("unpool", _check_unpool),
        ("max_feature_map", _check_mfm),
        ("dense_input", _check_dense),
        ("dense_weight", _check_dense_weight),
    ],
    "stn": [
        ("bilinear_backward", _check_bilinear_backward),
        ("alignment_sample", _check_alignment_sample),
    ],
    "losses": [
        ("pixel_loss", _check_pixel_loss),
        ("reverse_huber", _check_reverse_huber),
        ("feature_loss", _check_feature_loss),
        ("unified_loss", _check_unified_loss),
    ],
}


def run_suite(module: str = "all", seed: int = 0, points: int = 20,
              sabotage: bool = False) -> list[CheckResult]:
    """Run every check of the chosen module group at ``points`` seeded
    instances each; a check passes when its worst relative error over all
    points stays under TOLERANCE.

    ``sabotage`` flips the sign of one analytic gradient (negative control:
    the suite must then fail).
    """
    if module == "all":
        groups = list(_CHECKS)
    elif module in _CHECKS:
        groups = [module]
    else:
        raise ValueError(f"unknown module {module!r}; "
                         f"expected all|{'|'.join(_CHECKS)}")
    results = []
    for group in groups:
        for name, check in _CHECKS[group]:
            worst = 0.0
            for point in range(points):
                rng = np.random.default_rng(
                    (seed, zlib.crc32(name.encode()), point))
                if sabotage and name == "conv_input":
                    report = _check_conv_input(rng, corrupt=True)
                else:
                    report = check(rng)
                worst = max(worst, report.max_rel_err)
            results.append(CheckResult(name, worst, worst < TOLERANCE))
    return results
