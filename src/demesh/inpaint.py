"""The inpainting network: an encoder-decoder FCN with index-preserving
pooling, mapping a corrupted grayscale image to a same-size recovered image.

Down/up-sampling expands the receptive field so the net can see enough
context to tell mesh strokes from face texture; every unpooling stage reuses
the argmax indices of its paired encoder pool (innermost pair first). The
output passes through a logistic so predictions stay in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint, configio
from .layers import (Conv2d, MaxPool2x2, MaxUnpool2x2, Param, ReLU, ShapeError,
                     Sigmoid, he_normal)

Array = np.ndarray


@dataclass(frozen=True)
class InpaintSpec:
    """Architecture knobs: image extents, encoder widths (one per pooling
    stage), and the square kernel size (odd, padding preserves extents)."""

    height: int = 64
    width: int = 48
    widths: tuple[int, ...] = (16, 32)
    kernel: int = 3

    def validate(self) -> None:
        if not self.widths:
            raise ValueError("at least one encoder stage is required")
        if min(self.height, self.width, *self.widths) < 1:
            raise ValueError(f"extents and widths must be positive, got {self}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        factor = 2 ** len(self.widths)
        if self.height % factor or self.width % factor:
            raise ShapeError(
                f"extents {self.height}x{self.width} not divisible by "
                f"2^{len(self.widths)} (pooling stages)")


class InpaintNet:
    """Fixed sequence of layers plus the pool/unpool index pairing."""

    def __init__(self, spec: InpaintSpec, init):
        """ψ under ``spec``, its parameters taken from the source ``init``
        (see ``layers``)."""
        spec.validate()
        self.spec = spec
        pad = spec.kernel // 2
        layers: list = []
        pools: list[MaxPool2x2] = []
        prev = 1
        for i, width in enumerate(spec.widths, start=1):
            layers.append(Conv2d(prev, width, spec.kernel, pad=pad,
                                 name=f"enc{i}", init=init))
            layers.append(ReLU())
            pool = MaxPool2x2()
            pools.append(pool)
            layers.append(pool)
            prev = width
        out_widths = list(spec.widths[-2::-1]) + [1]
        for i, (pool, width) in enumerate(zip(reversed(pools), out_widths), start=1):
            layers.append(MaxUnpool2x2(pool))
            layers.append(Conv2d(prev, width, spec.kernel, pad=pad,
                                 name=f"dec{i}", init=init))
            if width != 1:
                layers.append(ReLU())
            prev = width
        layers.append(Sigmoid())
        self.layers = layers

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        """Recovered images for a corrupted batch. ``keep=False`` is the
        inference pass: the same outputs, but no layer keeps a record for
        ``backward``."""
        if x.ndim != 4 or x.shape[1:] != (1, self.spec.height, self.spec.width):
            raise ShapeError(
                f"expected input (N, 1, {self.spec.height}, {self.spec.width}), "
                f"got {x.shape}")
        for layer in self.layers:
            x = layer.forward(x, keep=keep)
        return x

    def backward(self, grad: Array, *, input_grad: bool = True
                 ) -> Array | None:
        """Gradients of the last recorded pass, whose records each layer
        drops once read; returns the gradient with respect to the input
        images, or None with ``input_grad=False`` (the first conv then
        skips it)."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        return first.backward(grad, input_grad=input_grad)


def build_psi(spec: InpaintSpec = InpaintSpec(), seed: int = 0) -> InpaintNet:
    """Deterministically initialize an inpainting net from a seed."""
    return InpaintNet(spec, he_normal(np.random.default_rng(seed)))


def save_psi(net: InpaintNet, path) -> None:
    checkpoint.save_checkpoint(path, configio.format_fields(net.spec, kind="inpaint"),
                               net.params())


def load_psi(path) -> InpaintNet:
    return checkpoint.load_net(path, InpaintSpec, "inpaint", InpaintNet)
