"""Seeded finite-difference suites over the differentiable surface.

Each check builds a fresh random instance and compares the analytic gradient
of a scalar-valued function against central differences at many seeded
points. Dynamic-threshold losses are checked at a frozen per-batch
threshold, since that is the function the implemented gradient
differentiates (the threshold is a batch statistic, held constant per step).

The suite is one table that maps each check name to its module group and a
builder. A builder draws its instance from a seeded ``rng``, always in the
same order, and returns ``(fn, x)``: ``fn`` maps an array to ``(scalar,
gradient)`` and ``x`` is the point it is checked at. Three drivers make
every builder: ``_layer`` (a layer's ``sum(out * w)``), ``_sampler`` (the
sampler's ``sum(bilinear_sample(img, grid) * w)``) and ``_loss`` (a loss).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import losses, stn
from .featnet import FeatureSpec, build_phi
from .layers import GRAD_TOLERANCE, Conv2d, Dense, MaxFeatureMap, MaxPool2x2, \
    MaxUnpool2x2, ReLU, Sigmoid, grad_check, he_normal, softmax_cross_entropy

MODULES = ("layers", "stn", "losses")


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    passed: bool


def _layer(make, x_shape, param: str | None = None, nudge=None):
    """``sum(layer(x) * w)`` with respect to x, or to the layer's ``param``
    (``"weight"`` or ``"bias"``) from its initial value. ``make(rng)``
    builds the layer; then x is drawn (and moved off any kink by ``nudge``),
    then w of the output's shape."""
    def build(rng):
        layer = make(rng)
        x = rng.normal(size=x_shape)
        if nudge is not None:
            x = nudge(x)
        w = rng.normal(size=layer.forward(x).shape)
        p = getattr(layer, param) if param else None

        def fn(v):
            if p is not None:
                p.value = v
            out = layer.forward(x if p is not None else v)
            for q in layer.params():
                q.zero_grad()
            dx = layer.backward(w)
            return float(np.sum(out * w)), dx if p is None else p.grad.copy()

        return fn, x if p is None else p.value.copy()
    return build


def _sampler(grid, img):
    """``sum(bilinear_sample(img, grid) * w)`` with respect to the images:
    ``grid(rng)`` draws the grids, then w is drawn, then ``img(rng)``."""
    def build(rng):
        g = grid(rng)
        w = rng.normal(size=(g.shape[0], 1) + g.shape[1:])

        def fn(v):
            out = stn.bilinear_sample(v, g)
            return float(np.sum(out * w)), stn.bilinear_backward(w, g, v.shape[2:])

        return fn, img(rng)
    return build


def _loss(loss, draw, wrt: str = "pred"):
    """``loss(**args)`` with respect to ``args[wrt]``; ``draw(rng)`` returns
    ``args``, drawn in the order they are written. ``loss`` returns a
    ``(value, grad)`` pair or a result with those two fields."""
    def build(rng):
        args = draw(rng)
        x = args.pop(wrt)

        def fn(v):
            out = loss(**args, **{wrt: v})
            return out if isinstance(out, tuple) else (out.value, out.grad)

        return fn, x
    return build


def _he(cls, *dims, **kw):
    """A layer maker: ``cls(*dims, **kw)`` with He-normal weights."""
    return lambda rng: cls(*dims, **kw, init=he_normal(rng))


def _unpool(rng):
    pool = MaxPool2x2()
    pool.forward(rng.normal(size=(1, 2, 8, 8)))
    return MaxUnpool2x2(pool)


# Each nudge moves its input, in place, off the points where the function
# has no derivative, and returns it.

def _off_ties(x):
    """max_feature_map's first channel half, off ties with the second."""
    x[:, :2] += np.where(np.abs(x[:, :2] - x[:, 2:]) < 1e-3, 0.1, 0.0)
    return x


def _off_kink(x):
    """ReLU's input, off its kink at zero."""
    x += np.where(np.abs(x) < 1e-3, 0.1, 0.0)
    return x


def _off_knee(r, c):
    """reverse_huber's residual, off its knees at +-c."""
    r += np.where(np.abs(np.abs(r) - c) < 1e-3, 0.01, 0.0)
    return r


def _eyes(rng, n, left_x, right_x, y):
    """``n`` eye pairs ``[[left_x, y], [right_x, y]]`` in pixels, each
    coordinate drawn from its own ``(low, high)`` range."""
    low, high = np.transpose([left_x, y, right_x, y])
    return rng.uniform(low, high, size=(n, 4)).reshape(n, 2, 2)


def _phi_loss_args(rng, mask: bool = False,
                   cfg: losses.LossConfig = losses.LossConfig()):
    """A tiny fixed-random φ, a 12x10 target and prediction, one eye pair
    when ``cfg`` aligns, a pixel mask when ``mask``, and each reverse-Huber
    tap's threshold held at the one the prediction gives."""
    phi = build_phi("fixed_random", seed=int(rng.integers(2 ** 31)),
                    spec=FeatureSpec(crop=8, widths=(4,), feature_width=8))
    args = dict(target=rng.uniform(size=(1, 1, 12, 10)),
                pred=rng.uniform(size=(1, 1, 12, 10)),
                eyes=_eyes(rng, 1, (2.5, 4), (6, 8), (3, 5)) if cfg.align
                else None, phi=phi, cfg=cfg)
    if mask:
        args["mask"] = (rng.uniform(size=(1, 1, 12, 10)) > 0.7).astype(float)
    args["fixed_c"] = losses.feature_loss(
        args["pred"], args["target"], args["eyes"], phi, args["cfg"]).thresholds
    return args


# check name -> (module group, builder), in the order the suite runs them
_CHECKS = {
    "conv_input": ("layers", _layer(_he(Conv2d, 3, 4, 3, pad=1), (1, 3, 5, 5))),
    "conv_weight": ("layers", _layer(_he(Conv2d, 2, 3, 3, pad=1), (2, 2, 5, 5),
                                     "weight")),
    "maxpool": ("layers", _layer(lambda rng: MaxPool2x2(), (1, 2, 6, 6))),
    "unpool": ("layers", _layer(_unpool, (1, 2, 4, 4))),
    "max_feature_map": ("layers", _layer(lambda rng: MaxFeatureMap(),
                                         (1, 4, 4, 4), nudge=_off_ties)),
    "dense_input": ("layers", _layer(_he(Dense, 8, 5), (2, 8))),
    "dense_weight": ("layers", _layer(_he(Dense, 6, 4), (2, 6), "weight")),
    # two samples with their own grids: a backward that routes one sample's
    # gradient into the other fails the check
    "bilinear_backward": ("stn", _sampler(
        lambda rng: stn.SampleGrid(rng.uniform(-1.2, 1.2, size=(2, 4, 4)),
                                   rng.uniform(-1.2, 1.2, size=(2, 4, 4))),
        lambda rng: rng.normal(size=(2, 1, 6, 6)))),
    "alignment_sample": ("stn", _sampler(
        lambda rng: stn.alignment_grid(
            _eyes(rng, 2, (3, 5), (8, 10), (4, 6)), 14, 12, 6, 6),
        lambda rng: rng.uniform(size=(2, 1, 14, 12)))),
    "pixel_loss": ("losses", _loss(losses.pixel_loss, lambda rng: dict(
        target=rng.uniform(size=(2, 1, 4, 4)),
        mask=(rng.uniform(size=(2, 1, 4, 4)) > 0.6).astype(float),
        pred=rng.uniform(size=(2, 1, 4, 4)), lam=0.8))),
    "reverse_huber": ("losses", _loss(losses.reverse_huber, lambda rng: dict(
        residual=_off_knee(rng.normal(size=(3, 5)), 0.5), c=0.5),
        wrt="residual")),
    "feature_loss": ("losses", _loss(losses.feature_loss, _phi_loss_args)),
    "unified_loss": ("losses", _loss(
        losses.unified_loss, lambda rng: _phi_loss_args(rng, mask=True))),
    "conv_bias": ("layers", _layer(_he(Conv2d, 2, 3, 3, pad=1), (2, 2, 5, 5),
                                   "bias")),
    "dense_bias": ("layers", _layer(_he(Dense, 6, 4), (2, 6), "bias")),
    "relu": ("layers", _layer(lambda rng: ReLU(), (2, 3, 4, 4),
                              nudge=_off_kink)),
    "sigmoid": ("layers", _layer(lambda rng: Sigmoid(), (2, 3, 4, 4))),
    # φ's pretraining head
    "softmax_cross_entropy": ("layers", _loss(
        softmax_cross_entropy, lambda rng: dict(
            logits=rng.normal(size=(4, 5)), labels=rng.integers(5, size=4)),
        wrt="logits")),
    # the feature losses of the variants that leave the default: fcnf's
    # early tap on a whole-image resize, demesh_e's squared penalty
    "feature_loss_fcnf": ("losses", _loss(
        losses.feature_loss,
        lambda rng: _phi_loss_args(rng, cfg=losses.variant_config("fcnf")))),
    "feature_loss_demesh_e": ("losses", _loss(
        losses.feature_loss,
        lambda rng: _phi_loss_args(rng,
                                   cfg=losses.variant_config("demesh_e")))),
    # φ's conv stage: a conv that applies its max-feature-map image by
    # image, on two non-square images
    "conv_mfm_input": ("layers", _layer(_he(Conv2d, 3, 4, 3, pad=1, mfm=True),
                                        (2, 3, 5, 4))),
    "conv_mfm_weight": ("layers", _layer(
        _he(Conv2d, 2, 4, 3, pad=1, mfm=True), (2, 2, 5, 4), "weight")),
    "conv_mfm_bias": ("layers", _layer(
        _he(Conv2d, 2, 4, 3, pad=1, mfm=True), (2, 2, 5, 4), "bias")),
}


def _negated(fn):
    """``fn`` with the sign of its gradient flipped."""
    def flipped(v):
        value, grad = fn(v)
        return value, -grad
    return flipped


def run_suite(module: str = "all", seed: int = 0, points: int = 20,
              sabotage: bool = False) -> list[CheckResult]:
    """Run every check of the chosen module group at ``points`` (at least
    one) seeded instances each; a check passes when its worst relative
    error over all points stays under ``GRAD_TOLERANCE``.

    ``sabotage`` flips the sign of conv_input's analytic gradient (negative
    control: the suite must then fail).
    """
    if module != "all" and module not in MODULES:
        raise ValueError(f"unknown module {module!r}; "
                         f"expected all|{'|'.join(MODULES)}")
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    results = []
    for name, (group, build) in _CHECKS.items():
        if module not in ("all", group):
            continue
        worst = 0.0
        for point in range(points):
            fn, x = build(np.random.default_rng(
                (seed, zlib.crc32(name.encode()), point)))
            if sabotage and name == "conv_input":
                fn = _negated(fn)
            worst = max(worst, grad_check(fn, x).max_rel_err)
        results.append(CheckResult(name, worst, worst < GRAD_TOLERANCE))
    return results
