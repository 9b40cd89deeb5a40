"""The frozen feature extraction network.

A small conv/max-feature-map stack ending in a compact feature vector, used
both as the target space of the feature-level training loss and as the
measurement instrument for verification. Two activations are exposed as
named taps: an early convolutional map and the final feature vector.

The real-world counterpart would be pretrained on a large face corpus; here
``build_phi`` either trains the stack as an identity classifier on synthetic
faces (then drops the classifier head) or just freezes seeded random
weights. Either way the parameters are immutable afterwards: no optimizer
may bind to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint, configio, facegen, stn
from .layers import (Conv2d, Dense, MaxFeatureMap, MaxPool2x2, Param,
                     ShapeError, adam_step, map_chunks,
                     softmax_cross_entropy)

Array = np.ndarray

EARLY_CONV = "early_conv"
FINAL_FEATURE = "final_feature"


@dataclass(frozen=True)
class FeatureSpec:
    """Input crop extents, conv widths per block (pre-activation, even),
    kernel size, and the final feature width."""

    in_h: int = 32
    in_w: int = 32
    widths: tuple[int, ...] = (16, 32)
    kernel: int = 3
    feature_width: int = 64

    def validate(self) -> None:
        if any(w % 2 for w in self.widths):
            raise ValueError(f"conv widths must be even (max-feature-map halves "
                             f"them), got {self.widths}")
        factor = 2 ** len(self.widths)
        if self.in_h % factor or self.in_w % factor:
            raise ShapeError(
                f"crop extents {self.in_h}x{self.in_w} not divisible by 2^"
                f"{len(self.widths)}")

    def to_kv(self) -> dict[str, object]:
        return {
            "kind": "feature",
            "in_h": self.in_h,
            "in_w": self.in_w,
            "widths": configio.format_tuple(self.widths),
            "kernel": self.kernel,
            "feature_width": self.feature_width,
        }

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "FeatureSpec":
        return cls(in_h=int(kv["in_h"]), in_w=int(kv["in_w"]),
                   widths=configio.parse_int_tuple(kv["widths"]),
                   kernel=int(kv["kernel"]),
                   feature_width=int(kv["feature_width"]))


def _build_layers(spec: FeatureSpec, rng: np.random.Generator):
    spec.validate()
    layers: list = []
    taps: dict[str, int] = {}
    prev = 1
    h, w = spec.in_h, spec.in_w
    for i, width in enumerate(spec.widths, start=1):
        layers.append(Conv2d(prev, width, spec.kernel, pad=spec.kernel // 2,
                             name=f"conv{i}", rng=rng))
        layers.append(MaxFeatureMap())
        # the early tap reads the deepest conv activation before pooling
        taps[EARLY_CONV] = len(layers) - 1
        layers.append(MaxPool2x2())
        prev = width // 2
        h, w = h // 2, w // 2
    layers.append(Dense(prev * h * w, 2 * spec.feature_width, name="fc",
                        rng=rng))
    layers.append(MaxFeatureMap())
    taps[FINAL_FEATURE] = len(layers) - 1
    return layers, taps


class FeatureNet:
    """Layer stack with named activation taps.

    ``backward_taps`` differentiates the most recent forward pass, injecting
    per-tap gradients where the taps sit and returning the gradient with
    respect to the input crop (None with ``input_grad=False``). A forward
    pass with ``keep=False`` (inference) gives the same activations but
    keeps nothing for ``backward_taps``.
    """

    def __init__(self, layers: list, taps: dict[str, int], spec: FeatureSpec):
        self.layers = layers
        self.taps = taps
        self.spec = spec
        self.in_h, self.in_w = spec.in_h, spec.in_w
        self.pretrain_accuracy: float | None = None

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def freeze(self) -> None:
        for p in self.params():
            p.frozen = True

    def _check_input(self, x: Array) -> None:
        if x.ndim != 4 or x.shape[1:] != (1, self.in_h, self.in_w):
            raise ShapeError(
                f"expected crops (N, 1, {self.in_h}, {self.in_w}), got {x.shape}")

    def forward_taps(self, x: Array, taps: tuple[str, ...] | None = None, *,
                     keep: bool = True) -> dict[str, Array]:
        self._check_input(x)
        wanted = self.taps if taps is None else \
            {t: self._tap_index(t) for t in taps}
        stop = max(wanted.values())
        acts: dict[str, Array] = {}
        for i, layer in enumerate(self.layers[:stop + 1]):
            x = layer.forward(x, keep=keep)
            for tap, idx in wanted.items():
                if idx == i:
                    acts[tap] = x
        return acts

    def backward_taps(self, tap_grads: dict[str, Array], *,
                      input_grad: bool = True) -> Array | None:
        indexed = {self._tap_index(t): g for t, g in tap_grads.items()}
        grad: Array | None = None
        for i in range(max(indexed), -1, -1):
            if i in indexed:
                grad = indexed[i] if grad is None else grad + indexed[i]
            if i:
                grad = self.layers[i].backward(grad)
        # the first layer is a conv, which may skip the input gradient
        return self.layers[0].backward(grad, input_grad=input_grad)

    def _tap_index(self, tap: str) -> int:
        if tap not in self.taps:
            raise KeyError(f"unknown tap {tap!r}; have {sorted(self.taps)}")
        return self.taps[tap]

    def features(self, x: Array, *, keep: bool = True) -> Array:
        """Final compact features for a batch of aligned crops: (N, width)."""
        return self.forward_taps(x, taps=(FINAL_FEATURE,),
                                 keep=keep)[FINAL_FEATURE]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _aligned_identity_crops(spec: FeatureSpec, rng: np.random.Generator,
                            n_identities: int, per_identity: int,
                            render_hw: tuple[int, int]):
    """Render jittered faces per synthetic identity and align each
    identity's renders to the crop extent using their exact landmarks."""
    h, w = render_hw
    crops = np.empty((n_identities, per_identity, 1, spec.in_h, spec.in_w))
    for i in range(n_identities):
        ident = facegen.sample_identity(
            f"phi{i:03d}", int(rng.integers(0, 2 ** 63)), h, w)
        renders = [facegen.render_face(ident, int(rng.integers(0, 2 ** 63)))
                   for _ in range(per_identity)]
        grid = stn.alignment_grid([eyes for _, eyes in renders], h, w,
                                  spec.in_h, spec.in_w)
        crops[i] = stn.bilinear_sample(np.stack([img for img, _ in renders]),
                                       grid)
    labels = np.repeat(np.arange(n_identities, dtype=np.int64), per_identity)
    return crops.reshape(-1, 1, spec.in_h, spec.in_w), labels


def build_phi(mode: str = "pretrain", seed: int = 0,
              spec: FeatureSpec = FeatureSpec(), *,
              n_identities: int = 32, per_identity: int = 200,
              steps: int = 600, batch_size: int = 32, lr: float = 1e-3,
              render_hw: tuple[int, int] = (64, 48)) -> FeatureNet:
    """Construct the frozen feature net.

    ``pretrain`` trains the stack as a classifier over synthetic identities
    (cross-entropy on identity labels), records the final training accuracy,
    strips the classifier head and freezes everything. ``fixed_random``
    freezes seeded random weights directly.
    """
    rng = np.random.default_rng(seed)
    layers, taps = _build_layers(spec, rng)
    net = FeatureNet(layers, taps, spec)
    if mode == "fixed_random":
        net.freeze()
        return net
    if mode != "pretrain":
        raise ValueError(f"unknown mode {mode!r} (want 'pretrain' or 'fixed_random')")
    if n_identities < 2:
        raise ValueError(f"need at least 2 identities to pretrain, got {n_identities}")
    if per_identity < 1:
        raise ValueError(f"need at least 1 render per identity, got {per_identity}")

    crops, labels = _aligned_identity_crops(spec, rng, n_identities,
                                            per_identity, render_hw)
    head = Dense(spec.feature_width, n_identities, name="head", rng=rng)
    order = rng.permutation(len(crops))
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > len(order):
            order = rng.permutation(len(crops))
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        pretrain_step(net, head, crops[idx], labels[idx], lr)

    correct = np.count_nonzero(classify(net, head, crops, batch_size) == labels)
    net.pretrain_accuracy = correct / len(crops)
    net.freeze()  # the head is discarded; phi serves features only
    return net


def pretrain_step(net: FeatureNet, head: Dense, crops: Array, labels: Array,
                  lr: float) -> None:
    """One Adam step of φ and its classifier ``head`` on a batch of crops
    under softmax cross-entropy. Nothing reads the crops' gradient, so
    φ's first conv skips it."""
    trainable = net.params() + head.params()
    logits = head.forward(net.features(crops))
    _, grad_logits = softmax_cross_entropy(logits, labels)
    for p in trainable:
        p.zero_grad()
    net.backward_taps({FINAL_FEATURE: head.backward(grad_logits)},
                      input_grad=False)
    for p in trainable:
        adam_step(p, p.grad, lr)


def classify(net: FeatureNet, head: Dense, crops: Array, rows: int) -> Array:
    """The head's predicted class per crop, in record-free chunks of at
    most ``rows`` crops. ``Dense`` gives a row the same bits at 8 or more
    rows per product on the OpenBLAS SkylakeX kernel, so chunks of at least
    8 rows predict as one batch does."""
    def predict(chunk: slice) -> Array:
        feats = net.features(crops[chunk], keep=False)
        return np.argmax(head.forward(feats, keep=False), axis=1)
    return map_chunks(predict, len(crops), rows)


def save_phi(net: FeatureNet, path) -> None:
    checkpoint.save_checkpoint(path, configio.format_kv(net.spec.to_kv()),
                               net.params())


def load_phi(path) -> FeatureNet:
    arch_text, records = checkpoint.load_checkpoint(path)
    kv = configio.parse_kv(arch_text)
    if kv.get("kind") != "feature":
        raise checkpoint.CheckpointError(
            f"{path}: checkpoint holds a {kv.get('kind')!r} net, expected feature")
    spec = FeatureSpec.from_kv(kv)
    layers, taps = _build_layers(spec, rng=np.random.default_rng(0))
    net = FeatureNet(layers, taps, spec)
    checkpoint.fill_params(net.params(), records, path)
    return net
