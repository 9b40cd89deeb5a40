"""Dense float64 layers with explicit forward and backward passes.

The networks in this project are fixed layer sequences (plus one sampling
branch), so there is no general autograd graph: each layer keeps a small
record of its forward pass and a network walks its layer list in reverse.
A conv keeps a reference to its input and lowers one image at a time: it
fills that image's patch matrix into one reused buffer and multiplies it,
and its backward pass refills the patches. Pooling keeps its argmax
indices as int8 (0..3), a max-feature-map the boolean mask of where its
first half won, ReLU its mask and Sigmoid its output. A conv built with
``mfm=True`` applies the max-feature-map itself, one image at a time, and
keeps its input plus that mask. All math is 64-bit
so central-difference gradient checks at tight tolerances are meaningful.

A record lives until its ``backward`` reads it: each ``backward`` drops its
layer's record once it has read it, so one recording forward serves one
backward and a second ``backward`` raises ``NoRecordError``. A conv drops
its input after the weight gradient, so the input and its patch buffer are
never live beside the input gradient. A pool's indices are read by its
paired unpool's backward first and dropped by the pool's own backward.

A trainable ``Param`` holds four arrays of one shape: its value, its
gradient and Adam's two moments. A frozen one (``freeze``) holds its value
alone, so a frozen net such as φ costs one array per parameter.

A backward pass computes only what is read. ``Conv2d`` and ``Dense`` skip
the gradient of a frozen parameter, which has none to add into, and
``Conv2d.backward(grad, input_grad=False)`` returns no input gradient: a
net's first conv needs none when nothing reads the gradient with respect
to the images.

A layer takes its parameters from a parameter source, ``init(name, shape)
-> Param``: ``zero_init`` (the default), ``he_normal(rng)`` for seeded
draws, or a checkpoint's records (``checkpoint.load_net``), which are
checked against each shape before anything of that shape is allocated.

Every ``forward`` takes ``keep``: with ``keep=False`` (inference) it does
the same arithmetic but keeps no record and clears the previous one, so a
later ``backward`` raises ``NoRecordError``. A pool's indices are also
forward data for its paired unpool; a record-free pass holds them only
until that unpool has read them.

Pooling and its gradient gather pick one of two float64 operands per
element, and the pick depends on the data. ``np.where`` branches per element
on that mask, which costs several times a contiguous compare when the mask
is irregular, as argmax masks are. ``_select`` instead computes
``f + (l - f) * wins`` on the int64 views of the operands: the arithmetic
wraps modulo 2**64, so it hands back one operand's exact bit pattern
(-0.0, infinities and NaNs of either sign included) with no branch.

Array layout is NCHW: an explicit batch extent, then channels, height, width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """An input does not match a layer's configured shape."""


class FrozenParameterError(RuntimeError):
    """A frozen parameter was asked for a gradient or an optimizer step."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient contains NaN or Inf (training divergence signal)."""


class NoRecordError(RuntimeError):
    """``backward`` ran without a recording forward pass before it."""


def _recorded(record, layer):
    """``layer``'s record of its last forward pass; raises when that pass
    kept none or no forward pass ran."""
    if record is None:
        raise NoRecordError(
            f"{type(layer).__name__}.backward needs a recording forward "
            f"pass (keep=True) before it")
    return record


class Param:
    """A learnable array and the state that training it needs.

    A trainable param holds its value, the gradient a backward pass adds
    into (``grad``) and Adam's two moment estimates (``m``, ``v``), each an
    array of the value's shape, plus Adam's step count. A frozen param
    holds its value only: ``grad``, ``m`` and ``v`` are None, a backward
    pass skips its gradient, and ``zero_grad`` and ``adam_step`` refuse
    it. ``freeze`` drops that state and nothing gives it back, so
    ``frozen`` is whether it is gone. A float64 ``value`` is adopted, not
    copied.
    """

    __slots__ = ("name", "value", "grad", "m", "v", "step")

    def __init__(self, name: str, value: Array, frozen: bool = False):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.step = 0
        self.grad = self.m = self.v = None
        if not frozen:
            self.grad = np.zeros_like(self.value)
            self.m = np.zeros_like(self.value)
            self.v = np.zeros_like(self.value)

    @property
    def frozen(self) -> bool:
        return self.grad is None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def freeze(self) -> None:
        """Drop the gradient and the Adam moments for good."""
        self.grad = self.m = self.v = None

    def zero_grad(self) -> None:
        if self.frozen:
            raise FrozenParameterError(f"parameter '{self.name}' is frozen")
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape}, frozen={self.frozen})"


def zero_init(name: str, shape: tuple[int, ...]) -> Param:
    """A layer's parameter source that starts every parameter at zero."""
    return Param(name, np.zeros(shape))


def he_normal(rng: np.random.Generator):
    """A layer's parameter source that draws each weight (two or more
    axes, output first) from ``rng`` with He fan-in scaling, the usual
    choice for conv+ReLU stacks, and starts each bias (one axis) at zero.

    A parameter source is any ``init(name, shape) -> Param``; a layer asks
    it for its weight, then its bias. ``checkpoint.load_net`` has one that
    hands out a checkpoint's records.
    """
    def init(name: str, shape: tuple[int, ...]) -> Param:
        if len(shape) == 1:
            return Param(name, np.zeros(shape))
        std = np.sqrt(2.0 / math.prod(shape[1:]))
        return Param(name, rng.normal(0.0, std, size=shape))
    return init


def adam_step(param: Param, grad: Array, lr: float) -> None:
    """Apply one bias-corrected Adam update to ``param`` in place, with
    Kingma and Ba's beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""
    if param.frozen:
        raise FrozenParameterError(f"parameter '{param.name}' is frozen")
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if grad.shape != param.value.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match parameter "
            f"'{param.name}' shape {param.value.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            f"non-finite gradient for parameter '{param.name}'")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    param.step += 1
    t = param.step
    # in place, in the order of m = b1 * m + (1 - b1) * g (v alike) and
    # value -= lr * m_hat / (sqrt(v_hat) + eps): the same bits, and at most
    # two parameter-sized temporaries alive at once
    param.m *= beta1
    param.m += (1.0 - beta1) * grad
    param.v *= beta2
    param.v += (1.0 - beta2) * (grad * grad)
    denom = param.v / (1.0 - beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += eps
    update = param.m / (1.0 - beta1 ** t)
    update *= lr
    update /= denom
    param.value -= update


# ---------------------------------------------------------------------------
# functional cores (shared by the layer classes and tested directly)
# ---------------------------------------------------------------------------

def _window_views(x: Array):
    """The four quadrant views of 2x2 windows, in row-major window order."""
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
            x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])


def _later_wins(first: Array, later: Array) -> Array:
    """Where ``later`` beats ``first`` under argmax's rule: it is greater,
    or it is NaN and ``first`` is not; ties keep ``first``."""
    return ~(later <= first) & (first == first)


def _select(first: Array, later: Array, wins: Array) -> Array:
    """``later`` where ``wins``, else ``first``, bit for bit and without a
    branch (see the module docstring)."""
    f = first.view(np.int64)
    picked = later.view(np.int64) - f
    picked *= wins
    picked += f
    return picked.view(np.float64)


def maxpool2_indices(x: Array) -> tuple[Array, Array]:
    """2x2 non-overlapping max pooling with argmax bookkeeping.

    Returns (pooled, indices). ``indices`` holds, per pooled cell, the flat
    position of the max inside its 2x2 window in row-major order (int8
    0..3, i.e. 2*row + col); ties go to the first element in that scan
    order.
    The window is reduced pairwise (each row, then top against bottom),
    which picks the same element as ``argmax`` over the four.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial extents, got {h}x{w}")
    # every row's horizontal pairs at once, then rows 2i and 2i + 1
    pairs = x.reshape(-1, 2)
    left, right = pairs[:, 0], pairs[:, 1]
    right_wins = _later_wins(left, right)
    rows = _select(left, right, right_wins).reshape(-1, 2, w // 2)
    top, bottom = rows[:, 0], rows[:, 1]
    lower = _later_wins(top, bottom)
    out = _select(top, bottom, lower)
    col = right_wins.view(np.int8).reshape(-1, 2, w // 2)
    idx = col[:, 1] + 2 - col[:, 0]  # 2*row + col, by the same select
    idx *= lower
    idx += col[:, 0]
    pooled = (n, c, h // 2, w // 2)
    return out.reshape(pooled), idx.reshape(pooled)


def unpool_indices(x: Array, indices: Array) -> Array:
    """Scatter pooled values back to their recorded argmax positions.

    The result has twice ``x``'s extent (``maxpool2_indices`` pools only
    even extents) and is zero everywhere except at the recorded index of
    each 2x2 window, where it equals the corresponding pooled value (a -0.0
    comes back as +0.0).
    """
    n, c, h, w = x.shape
    if indices.shape != x.shape:
        raise ShapeError(
            f"index map shape {indices.shape} does not match input {x.shape}")
    if indices.min() < 0 or indices.max() > 3:
        raise ValueError("pooling index out of bounds (expected 0..3)")
    out = np.empty((n, c, 2 * h, 2 * w))
    for q, view in enumerate(_window_views(out)):
        np.multiply(x, indices == q, out=view)
    out += 0.0  # -0.0 becomes +0.0, as in a sum into zeros
    return out


def gather_pool_indices(grad: Array, indices: Array) -> Array:
    """Collect, per 2x2 window, the gradient entry at the recorded index
    (a -0.0 comes back as +0.0)."""
    v0, v1, v2, v3 = _window_views(grad)
    out = _select(v0, v1, indices == 1)
    out = _select(out, v2, indices == 2)
    out = _select(out, v3, indices == 3)
    out += 0.0  # -0.0 becomes +0.0, as in a sum into zeros
    return out


def mfm(x: Array, out: Array | None = None) -> Array:
    """Max-feature-map: split channels in half, take the elementwise max
    (into ``out`` when given)."""
    c = x.shape[1]
    if c % 2:
        raise ShapeError(f"max-feature-map requires an even channel count, got {c}")
    half = c // 2
    return np.maximum(x[:, :half], x[:, half:], out=out)


def mfm_backward(grad: Array, first_wins: Array,
                 out: Array | None = None) -> Array:
    """Route the gradient to the winning half, given the forward pass's
    boolean ``a >= b`` mask of the two halves (ties go to the first half).
    Both halves are written into one array, ``out`` when given."""
    half = grad.shape[1]
    if out is None:
        out = np.empty((grad.shape[0], 2 * half, *grad.shape[2:]), grad.dtype)
    np.multiply(grad, first_wins, out=out[:, :half])
    np.multiply(grad, ~first_wins, out=out[:, half:])
    return out


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _overlap(shift: int, size: int, out_size: int) -> tuple[slice, slice]:
    """(output slice, input slice) along one axis where a window offset by
    ``shift`` reads inside an input of extent ``size``."""
    lo = max(0, -shift)
    hi = max(lo, min(out_size, size - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _patch_matrices(images, shape: tuple[int, int, int], k: int, pad: int):
    """Yield each image's channel-major patch matrix, (C*k*k, OH*OW), for
    the (C, H, W) ``shape`` images that ``images`` yields.

    One zeroed buffer serves the whole batch: per image only the cells a
    shifted window reads inside the image are written, so the zero padding
    is never rewritten. Each matrix is overwritten by the next one.
    """
    c, h, w = shape
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    rows = [_overlap(d - pad, h, oh) for d in range(k)]
    cols = [_overlap(d - pad, w, ow) for d in range(k)]
    patches = np.zeros((c, k, k, oh, ow))
    mat = patches.reshape(c * k * k, oh * ow)
    for img in images:
        for ki, (out_r, in_r) in enumerate(rows):
            for kj, (out_c, in_c) in enumerate(cols):
                patches[:, ki, kj, out_r, out_c] = img[:, in_r, in_c]
        yield mat


def _corr2d(images, shape: tuple[int, ...], weight: Array, pad: int) -> Array:
    """Plain cross-correlation of the NCHW ``shape`` batch that ``images``
    yields image by image with OIHW weights, one GEMM per image."""
    n, _, h, w = shape
    oc, _, k, _ = weight.shape
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    w_mat = weight.reshape(oc, -1)
    out = np.empty((n, oc, oh * ow))
    for i, mat in enumerate(_patch_matrices(images, shape[1:], k, pad)):
        np.matmul(w_mat, mat, out=out[i])
    return out.reshape(n, oc, oh, ow)


class Conv2d:
    """2D stride-1 convolution (cross-correlation) over NCHW batches,
    lowered to one im2col GEMM per image.

    The padding is at most ``ksize - 1``: the input gradient is a
    correlation with the flipped kernel at padding ``ksize - 1 - pad``.

    With ``mfm=True`` a max-feature-map follows the conv inside it, image
    by image: each image's GEMM writes into one reused (out_ch, OH*OW)
    buffer, gets its bias, and ``mfm`` writes its halved map into the
    output, so no batch-sized full-width map is made. The record is then
    the input plus the mask of where the first half won, and ``backward``
    expands the gradient through that mask one image at a time. Every
    output and gradient is bitwise that of a plain conv followed by a
    ``MaxFeatureMap``.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int, pad: int = 0, *,
                 name: str = "conv", init=zero_init, mfm: bool = False):
        if not 0 <= pad <= ksize - 1:
            raise ValueError(f"pad must be in [0, {ksize - 1}], got {pad}")
        if mfm and out_ch % 2:
            raise ShapeError(f"max-feature-map requires an even channel "
                             f"count, got {out_ch}")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.ksize = ksize
        self.pad = pad
        self.name = name
        self.mfm = mfm
        self.weight = init(f"{name}.weight", (out_ch, in_ch, ksize, ksize))
        self.bias = init(f"{name}.bias", (out_ch,))
        self._x: Array | None = None
        self._first_wins: Array | None = None

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, p = self.ksize, self.pad
        return h + 2 * p - k + 1, w + 2 * p - k + 1

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        n, c, h, w = x.shape
        if c != self.in_ch:
            raise ShapeError(
                f"conv '{self.name}': input has {c} channels, kernel expects "
                f"{self.in_ch} (input shape {x.shape})")
        k, p = self.ksize, self.pad
        oh, ow = self.out_hw(h, w)
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"conv '{self.name}': {h}x{w} input too small for kernel {k} "
                f"with pad {p}")
        self._x = x if keep else None
        if not self.mfm:
            out = _corr2d(x, x.shape, self.weight.value, p)
            out += self.bias.value[:, None, None]
            return out
        half = self.out_ch // 2
        w_mat = self.weight.value.reshape(self.out_ch, -1)
        bias = self.bias.value[:, None]
        full = np.empty((self.out_ch, oh * ow))
        img = full.reshape(1, self.out_ch, oh, ow)
        out = np.empty((n, half, oh, ow))
        first_wins = np.empty(out.shape, bool) if keep else None
        for i, mat in enumerate(_patch_matrices(x, x.shape[1:], k, p)):
            np.matmul(w_mat, mat, out=full)
            full += bias
            mfm(img, out=out[i:i + 1])
            if keep:
                np.greater_equal(img[:, :half], img[:, half:],
                                 out=first_wins[i:i + 1])
        self._first_wins = first_wins
        return out

    def backward(self, grad: Array, *, input_grad: bool = True
                 ) -> Array | None:
        """Accumulate the gradients of the parameters that are not frozen
        and return the input gradient, or None with ``input_grad=False``."""
        x = _recorded(self._x, self)
        first_wins = self._first_wins
        self._x = self._first_wins = None
        n, _, oh, ow = grad.shape
        if first_wins is None:
            def grads():
                return grad
        else:
            def grads():
                # each image's gradient with respect to its full-width map,
                # expanded into one reused buffer
                full = np.empty((1, self.out_ch, oh, ow))
                for g, wins in zip(grad, first_wins):
                    yield mfm_backward(g[None], wins[None], out=full)[0]
        # with mfm the bias sum runs image by image, in image order, in the
        # weight-gradient pass when there is one: bitwise the batch sum
        image_bias = first_wins is not None and not self.bias.frozen
        db = np.zeros(self.out_ch)
        if not self.weight.frozen:
            # one product per image, reduced over the batch in one sum (a
            # running += would round differently)
            dw = np.empty((n, self.out_ch, self.weight.value[0].size))
            for i, (g, mat) in enumerate(zip(grads(), _patch_matrices(
                    x, x.shape[1:], self.ksize, self.pad))):
                np.matmul(g.reshape(self.out_ch, oh * ow), mat.T, out=dw[i])
                if image_bias:
                    db += g.sum(axis=(1, 2))
            self.weight.grad += dw.sum(axis=0).reshape(self.weight.shape)
        elif image_bias:
            for g in grads():
                db += g.sum(axis=(1, 2))
        del x  # the input is not live beside the input gradient
        if not self.bias.frozen:
            self.bias.grad += db if image_bias else grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        # input gradient as a correlation with the spatially flipped,
        # channel-swapped kernel
        w_flip = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _corr2d(grads(), (n, self.out_ch, oh, ow),
                       np.ascontiguousarray(w_flip), self.ksize - 1 - self.pad)


class MaxPool2x2:
    """2x2/stride-2 max pooling that remembers its argmax positions.

    A pool with a paired unpool (``paired``, set by ``MaxUnpool2x2``) keeps
    its indices in a record-free pass too, for that unpool to read.
    """

    def __init__(self):
        self.indices: Array | None = None
        self.paired = False

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        out, indices = maxpool2_indices(x)
        self.indices = indices if keep or self.paired else None
        return out

    def backward(self, grad: Array) -> Array:
        indices = _recorded(self.indices, self)
        self.indices = None
        return unpool_indices(grad, indices)


class MaxUnpool2x2:
    """Sparse upsampling using the paired encoder pool's recorded indices.
    A record-free forward clears them once it has read them; a backward
    leaves them for the pool's own backward."""

    def __init__(self, pool: MaxPool2x2):
        self.pool = pool
        pool.paired = True

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        if self.pool.indices is None:
            raise RuntimeError("paired pool layer has not run forward yet")
        out = unpool_indices(x, self.pool.indices)
        if not keep:
            self.pool.indices = None
        return out

    def backward(self, grad: Array) -> Array:
        return gather_pool_indices(grad, _recorded(self.pool.indices, self))


class MaxFeatureMap:
    """Channel-halving activation: elementwise max of the two channel
    halves. It keeps one bit per output, where the first half won."""

    def __init__(self):
        self._first_wins: Array | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        out = mfm(x)
        half = out.shape[1]
        self._first_wins = x[:, :half] >= x[:, half:] if keep else None
        return out

    def backward(self, grad: Array) -> Array:
        first_wins = _recorded(self._first_wins, self)
        self._first_wins = None
        return mfm_backward(grad, first_wins)


class ReLU:
    def __init__(self):
        self._mask: Array | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        mask = x > 0
        self._mask = mask if keep else None
        return x * mask

    def backward(self, grad: Array) -> Array:
        mask = _recorded(self._mask, self)
        self._mask = None
        return grad * mask


class Sigmoid:
    """Saturating logistic output, bounding activations to (0, 1)."""

    def __init__(self):
        self._y: Array | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
        # overflows; min(x, -x) is -|x| but keeps a NaN's sign bit
        y = np.exp(np.minimum(x, -x))
        denom = 1.0 + y
        np.copyto(y, 1.0, where=x >= 0)
        y /= denom
        self._y = y if keep else None
        return y

    def backward(self, grad: Array) -> Array:
        y = _recorded(self._y, self)
        self._y = None
        return grad * y * (1.0 - y)


class Dense:
    """Affine map on flattened inputs: y = x @ W.T + b."""

    def __init__(self, in_dim: int, out_dim: int, *, name: str = "fc",
                 init=zero_init):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name
        self.weight = init(f"{name}.weight", (out_dim, in_dim))
        self.bias = init(f"{name}.bias", (out_dim,))
        self._xf: Array | None = None
        self._in_shape: tuple[int, ...] | None = None

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        n = x.shape[0]
        xf = x.reshape(n, -1)
        if xf.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense '{self.name}': flattened input length {xf.shape[1]} "
                f"does not match weight matrix ({self.in_dim})")
        self._xf = xf if keep else None
        self._in_shape = x.shape
        return xf @ self.weight.value.T + self.bias.value

    def backward(self, grad: Array) -> Array:
        xf = _recorded(self._xf, self)
        self._xf = None
        if not self.weight.frozen:
            self.weight.grad += grad.T @ xf
        if not self.bias.frozen:
            self.bias.grad += grad.sum(axis=0)
        return (grad @ self.weight.value).reshape(self._in_shape)


def softmax_cross_entropy(logits: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy over a batch; returns (loss, grad wrt logits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


# ---------------------------------------------------------------------------
# blocked inference
# ---------------------------------------------------------------------------

# The inference block of every stage: ψ, the PSNR, the alignment crop and
# all of φ. At 8 rows ψ's largest activation, (8, 16, 64, 48), is 3.1 MB,
# against 25 MB at 64 rows. That is more than the 2 MiB per-core L2 of the
# Xeon measured here, so the block is sized by measurement, not to a cache
# level. Over 400 64x48 images (one thread, 2-vCPU Xeon, medians of 10
# interleaved runs) bounds of 4, 8, 16, 32 and 64 rows took 1.66, 1.65,
# 1.85, 1.91 and 2.00 s. Only φ's ``fc`` has a matrix product across rows,
# and a product's rounding depends on its row count, so ``fc`` always runs
# on exactly this many rows (``FeatureNet.features``).
PSI_BLOCK = 8


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

# the relative error a checked gradient stays under, and the finite step
GRAD_TOLERANCE = 1e-4
GRAD_STEP = 1e-5


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    worst_index: tuple[int, ...]


def grad_check(fn, x: Array) -> GradCheckReport:
    """Compare fn's analytic gradient against central finite differences.

    ``fn`` maps an array to ``(scalar_value, gradient_array)``. The numeric
    gradient is computed coordinate by coordinate with the two-sided formula
    over ``GRAD_STEP``, and the report carries the worst elementwise
    relative error, which passes under ``GRAD_TOLERANCE``. The denominator
    is floored so near-zero entries compare on an absolute scale.

    A step that crosses a kink (a max or pooling tie) makes the central
    difference no oracle there: where it misses by the tolerance and the two
    one-sided differences also disagree by it, the analytic value is
    compared with the nearer one-sided difference instead.
    """
    f0, analytic = fn(x)
    f_plus = np.zeros_like(x, dtype=np.float64)
    f_minus = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += GRAD_STEP
        f_plus[idx], _ = fn(xp)
        xm = x.copy()
        xm[idx] -= GRAD_STEP
        f_minus[idx], _ = fn(xm)

    def rel_err(a, b):
        return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                          1e-3)

    numeric = (f_plus - f_minus) / (2.0 * GRAD_STEP)
    right, left = (f_plus - f0) / GRAD_STEP, (f0 - f_minus) / GRAD_STEP
    kink = (rel_err(analytic, numeric) >= GRAD_TOLERANCE) & \
        (rel_err(right, left) >= GRAD_TOLERANCE)
    nearer = np.where(np.abs(analytic - right) <= np.abs(analytic - left),
                      right, left)
    rel = rel_err(analytic, np.where(kink, nearer, numeric))
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    max_rel = float(rel[worst])
    return GradCheckReport(max_rel, max_rel < GRAD_TOLERANCE, worst)
