"""The frozen feature extraction network.

A small conv/max-feature-map stack ending in a compact feature vector, used
both as the target space of the feature-level training loss and as the
measurement instrument for verification. Two activations are exposed as
named taps: an early convolutional map and the final feature vector.

The real-world counterpart would be pretrained on a large face corpus; here
``build_phi`` either trains the stack as an identity classifier on synthetic
faces (then drops the classifier head) or just freezes seeded random
weights. Either way the parameters are immutable afterwards: no optimizer
may bind to them, and they hold no gradient or optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint, configio, facegen, stn
from .layers import (PSI_BLOCK, Conv2d, Dense, MaxFeatureMap, MaxPool2x2,
                     Param, ShapeError, adam_step, he_normal,
                     softmax_cross_entropy)

Array = np.ndarray

EARLY_CONV = "early_conv"
FINAL_FEATURE = "final_feature"

# φ pretraining's classifier batch and Adam step size
PRETRAIN_BATCH = 32
PRETRAIN_LR = 1e-3
# every conv's square kernel; its padding keeps the extent
KERNEL = 3


@dataclass(frozen=True)
class FeatureSpec:
    """The square input crop's extent, conv widths per block
    (pre-activation, even), and the final feature width."""

    crop: int = 32
    widths: tuple[int, ...] = (16, 32)
    feature_width: int = 64

    def validate(self) -> None:
        if min(self.crop, self.feature_width, *self.widths) < 1:
            raise ValueError(f"the crop and every width must be positive, "
                             f"got {self}")
        if any(w % 2 for w in self.widths):
            raise ValueError(f"conv widths must be even (max-feature-map halves "
                             f"them), got {self.widths}")
        if self.crop % 2 ** len(self.widths):
            raise ShapeError(f"crop extent {self.crop} not divisible by 2^"
                             f"{len(self.widths)}")


class FeatureNet:
    """Layer stack with named activation taps.

    ``backward_taps`` differentiates the most recent forward pass once,
    injecting per-tap gradients where the taps sit and returning the
    gradient with respect to the input crop (None with
    ``input_grad=False``); each layer it walks drops its record. A forward
    pass with ``keep=False`` (inference) gives the same activations but
    keeps nothing for ``backward_taps``; so does ``features``.
    """

    def __init__(self, layers: list, taps: dict[str, int], spec: FeatureSpec):
        self.layers = layers
        self.taps = taps
        self.spec = spec
        self.crop = spec.crop
        self.pretrain_accuracy: float | None = None

    @classmethod
    def from_spec(cls, spec: FeatureSpec, init) -> FeatureNet:
        """φ's conv/max-feature-map stack under ``spec``, its parameters
        taken from the source ``init`` (see ``layers``)."""
        spec.validate()
        layers: list = []
        taps: dict[str, int] = {}
        prev = 1
        side = spec.crop
        for i, width in enumerate(spec.widths, start=1):
            # each conv applies its max-feature-map itself, image by image
            layers.append(Conv2d(prev, width, KERNEL, pad=KERNEL // 2,
                                 name=f"conv{i}", init=init, mfm=True))
            # the early tap reads the deepest conv activation before pooling
            taps[EARLY_CONV] = len(layers) - 1
            layers.append(MaxPool2x2())
            prev = width // 2
            side //= 2
        layers.append(Dense(prev * side * side, 2 * spec.feature_width,
                            name="fc", init=init))
        layers.append(MaxFeatureMap())
        taps[FINAL_FEATURE] = len(layers) - 1
        return cls(layers, taps, spec)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def freeze(self) -> None:
        """Drop every parameter's gradient and Adam state for good."""
        for p in self.params():
            p.freeze()

    def _check_input(self, x: Array) -> None:
        if x.ndim != 4 or x.shape[1:] != (1, self.crop, self.crop):
            raise ShapeError(
                f"expected crops (N, 1, {self.crop}, {self.crop}), got {x.shape}")

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

    def features(self, crops) -> Array:
        """Final compact features of aligned crops: (N, width).

        ``crops`` is an (N, 1, H, W) array or any object with ``len()``
        whose ``crops[rows]`` gives a slice of rows' crops; each row is read
        once, in order, in blocks of ``PSI_BLOCK`` rows (the last one
        shorter), and no slice reaches past N. This record-free pass runs
        every layer per block. ``fc`` is the one product across rows, so it
        and its MFM always see exactly ``PSI_BLOCK`` rows: a short block is
        zero-padded, and the padded rows' outputs are dropped. A row's
        features are then those of the row alone, whatever the other rows
        hold, and a full block's are its ``forward_taps`` features."""
        fc = self.taps[FINAL_FEATURE] - 1  # fc, then its MFM, the tap
        n = len(crops)
        out = np.empty((n, self.spec.feature_width))
        for start in range(0, n, PSI_BLOCK):
            rows = slice(start, min(start + PSI_BLOCK, n))
            x = crops[rows]
            self._check_input(x)
            for layer in self.layers[:fc]:
                x = layer.forward(x, keep=False)
            h = np.zeros((PSI_BLOCK, *x.shape[1:]))
            h[:len(x)] = x
            for layer in self.layers[fc:]:
                h = layer.forward(h, keep=False)
            out[rows] = h[:len(x)]
        return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _aligned_identity_crops(spec: FeatureSpec, rng: np.random.Generator,
                            n_identities: int, per_identity: int,
                            render_hw: tuple[int, int]):
    """Render jittered faces per synthetic identity and align each
    identity's renders to the crop extent using their exact landmarks."""
    h, w = render_hw
    crops = np.empty((n_identities, per_identity, 1, spec.crop, spec.crop))
    for i in range(n_identities):
        ident = facegen.sample_identity(
            f"phi{i:03d}", int(rng.integers(0, 2 ** 63)), h, w)
        images, eyes = zip(*(facegen.render_face(ident,
                                                 int(rng.integers(0, 2 ** 63)))
                             for _ in range(per_identity)))
        grid = stn.alignment_grid(np.stack(eyes), h, w, spec.crop, spec.crop)
        crops[i] = stn.bilinear_sample(np.stack(images), grid)
    labels = np.repeat(np.arange(n_identities, dtype=np.int64), per_identity)
    return crops.reshape(-1, 1, spec.crop, spec.crop), labels


def build_phi(mode: str = "pretrain", seed: int = 0,
              spec: FeatureSpec = FeatureSpec(), *,
              n_identities: int = 32, per_identity: int = 200, steps: int = 600,
              render_hw: tuple[int, int] = (64, 48)) -> FeatureNet:
    """Construct the frozen feature net.

    ``pretrain`` trains the stack as a classifier over synthetic identities
    (cross-entropy on identity labels), records the final training accuracy,
    strips the classifier head and freezes everything. ``fixed_random``
    freezes seeded random weights directly.
    """
    rng = np.random.default_rng(seed)
    net = FeatureNet.from_spec(spec, he_normal(rng))
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
    head = Dense(spec.feature_width, n_identities, name="head",
                 init=he_normal(rng))
    order = rng.permutation(len(crops))
    cursor = 0
    for _ in range(steps):
        if cursor + PRETRAIN_BATCH > len(order):
            order = rng.permutation(len(crops))
            cursor = 0
        idx = order[cursor:cursor + PRETRAIN_BATCH]
        cursor += PRETRAIN_BATCH
        pretrain_step(net, head, crops[idx], labels[idx], PRETRAIN_LR)

    correct = np.count_nonzero(classify(net, head, crops) == labels)
    net.pretrain_accuracy = correct / len(crops)
    net.freeze()  # the head is discarded; phi serves features only
    return net


def pretrain_step(net: FeatureNet, head: Dense, crops: Array, labels: Array,
                  lr: float) -> None:
    """One Adam step of φ and its classifier ``head`` on a batch of crops
    under softmax cross-entropy. Nothing reads the crops' gradient, so
    φ's first conv skips it."""
    trainable = net.params() + head.params()
    feats = net.forward_taps(crops, (FINAL_FEATURE,))[FINAL_FEATURE]
    logits = head.forward(feats)
    _, grad_logits = softmax_cross_entropy(logits, labels)
    for p in trainable:
        p.zero_grad()
    net.backward_taps({FINAL_FEATURE: head.backward(grad_logits)},
                      input_grad=False)
    for p in trainable:
        adam_step(p, lr)


def classify(net: FeatureNet, head: Dense, crops: Array) -> Array:
    """The head's predicted class per crop, from φ's record-free
    ``features`` pass."""
    return np.argmax(head.forward(net.features(crops), keep=False), axis=1)


def save_phi(net: FeatureNet, path) -> None:
    checkpoint.save_checkpoint(path, configio.format_fields(net.spec, kind="feature"),
                               net.params())


def load_phi(path) -> FeatureNet:
    """φ as saved at ``path``. A frozen φ comes back frozen: its
    parameters hold their values only."""
    return checkpoint.load_net(path, FeatureSpec, "feature",
                               FeatureNet.from_spec)
