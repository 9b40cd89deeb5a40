"""Dense float64 layers with explicit forward and backward passes.

The networks in this project are fixed layer sequences (plus one sampling
branch), so there is no general autograd graph: each layer keeps a small
record of its forward pass and a network walks its layer list in reverse.
A conv keeps a reference to its input and lowers one image at a time: it
fills that image's patch matrix into one reused buffer and multiplies it,
and its backward pass refills the patches. Pooling keeps its argmax
indices, activations their input, mask or output. All math is 64-bit so
central-difference gradient checks at tight tolerances are meaningful.

Every ``forward`` takes ``keep``: with ``keep=False`` (inference) it does
the same arithmetic but keeps no record and clears the previous one, so a
later ``backward`` raises ``NoRecordError``. A pool's indices are also
forward data for its paired unpool; a record-free pass holds them only
until that unpool has read them.

Array layout is NCHW: an explicit batch extent, then channels, height, width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """An input does not match a layer's configured shape."""


class FrozenParameterError(RuntimeError):
    """An optimizer step was attempted on a frozen parameter."""


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
    """A learnable array together with its gradient and Adam state."""

    __slots__ = ("name", "value", "grad", "m", "v", "step", "frozen")

    def __init__(self, name: str, value: Array, frozen: bool = False):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0
        self.frozen = frozen

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape}, frozen={self.frozen})"


def adam_step(param: Param, grad: Array, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Apply one bias-corrected Adam update to ``param`` in place."""
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
    param.step += 1
    t = param.step
    param.m = beta1 * param.m + (1.0 - beta1) * grad
    param.v = beta2 * param.v + (1.0 - beta2) * (grad * grad)
    m_hat = param.m / (1.0 - beta1 ** t)
    v_hat = param.v / (1.0 - beta2 ** t)
    param.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def maxpool2_indices(x: Array) -> tuple[Array, Array]:
    """2x2 non-overlapping max pooling with argmax bookkeeping.

    Returns (pooled, indices). ``indices`` holds, per pooled cell, the flat
    position of the max inside its 2x2 window in row-major order (0..3,
    i.e. 2*row + col); ties go to the first element in that scan order.
    The window is reduced pairwise (each row, then top against bottom),
    which picks the same element as ``argmax`` over the four.
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial extents, got {h}x{w}")
    a, b, c, d = _window_views(x)
    right_top = _later_wins(a, b)
    top = np.where(right_top, b, a)
    right_bottom = _later_wins(c, d)
    bottom = np.where(right_bottom, d, c)
    lower = _later_wins(top, bottom)
    out = np.where(lower, bottom, top)
    idx = np.where(lower, right_bottom + 2, right_top).astype(np.intp, copy=False)
    return out, idx


def unpool_indices(x: Array, indices: Array, out_hw: tuple[int, int]) -> Array:
    """Scatter pooled values back to their recorded argmax positions.

    The result is zero everywhere except at the recorded index of each 2x2
    window, where it equals the corresponding pooled value (a -0.0 comes
    back as +0.0).
    """
    n, c, oh, ow = x.shape
    h, w = out_hw
    if indices.shape != x.shape:
        raise ShapeError(
            f"index map shape {indices.shape} does not match input {x.shape}")
    if (h, w) != (2 * oh, 2 * ow):
        raise ShapeError(
            f"output extent {h}x{w} does not match pooled input {oh}x{ow}")
    if indices.min() < 0 or indices.max() > 3:
        raise ValueError("pooling index out of bounds (expected 0..3)")
    out = np.empty((n, c, h, w))
    for q, view in enumerate(_window_views(out)):
        np.multiply(x, indices == q, out=view)
    out += 0.0  # -0.0 becomes +0.0, as in a sum into zeros
    return out


def gather_pool_indices(grad: Array, indices: Array) -> Array:
    """Collect, per 2x2 window, the gradient entry at the recorded index
    (a -0.0 comes back as +0.0)."""
    v0, v1, v2, v3 = _window_views(grad)
    out = np.where(indices == 0, v0, v1)
    out = np.where(indices == 2, v2, out)
    out = np.where(indices == 3, v3, out)
    out += 0.0  # -0.0 becomes +0.0, as in a sum into zeros
    return out


def mfm(x: Array) -> Array:
    """Max-feature-map: split channels in half, take the elementwise max."""
    c = x.shape[1]
    if c % 2:
        raise ShapeError(f"max-feature-map requires an even channel count, got {c}")
    half = c // 2
    return np.maximum(x[:, :half], x[:, half:])


def mfm_backward(grad: Array, x: Array) -> Array:
    """Route the gradient to the winning half; ties go to the first half."""
    half = x.shape[1] // 2
    a, b = x[:, :half], x[:, half:]
    first_wins = a >= b
    return np.concatenate([grad * first_wins, grad * ~first_wins], axis=1)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _overlap(shift: int, size: int, out_size: int) -> tuple[slice, slice]:
    """(output slice, input slice) along one axis where a window offset by
    ``shift`` reads inside an input of extent ``size``."""
    lo = max(0, -shift)
    hi = max(lo, min(out_size, size - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _patch_matrices(x: Array, k: int, pad: int):
    """Yield each image's channel-major patch matrix, (C*k*k, OH*OW).

    One zeroed buffer serves the whole batch: per image only the cells a
    shifted window reads inside the image are written, so the zero padding
    is never rewritten. Each matrix is overwritten by the next one.
    """
    _, c, h, w = x.shape
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    rows = [_overlap(d - pad, h, oh) for d in range(k)]
    cols = [_overlap(d - pad, w, ow) for d in range(k)]
    patches = np.zeros((c, k, k, oh, ow))
    mat = patches.reshape(c * k * k, oh * ow)
    for img in x:
        for ki, (out_r, in_r) in enumerate(rows):
            for kj, (out_c, in_c) in enumerate(cols):
                patches[:, ki, kj, out_r, out_c] = img[:, in_r, in_c]
        yield mat


def _corr2d(x: Array, weight: Array, pad: int) -> Array:
    """Plain cross-correlation of NCHW input with OIHW weights, one GEMM
    per image."""
    n, _, h, w = x.shape
    oc, _, k, _ = weight.shape
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    w_mat = weight.reshape(oc, -1)
    out = np.empty((n, oc, oh * ow))
    for i, mat in enumerate(_patch_matrices(x, k, pad)):
        np.matmul(w_mat, mat, out=out[i])
    return out.reshape(n, oc, oh, ow)


class Conv2d:
    """2D stride-1 convolution (cross-correlation) over NCHW batches,
    lowered to one im2col GEMM per image.

    The padding is at most ``ksize - 1``: the input gradient is a
    correlation with the flipped kernel at padding ``ksize - 1 - pad``.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int, pad: int = 0, *,
                 name: str = "conv", rng: np.random.Generator | None = None):
        if not 0 <= pad <= ksize - 1:
            raise ValueError(f"pad must be in [0, {ksize - 1}], got {pad}")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.ksize = ksize
        self.pad = pad
        self.name = name
        if rng is None:
            w = np.zeros((out_ch, in_ch, ksize, ksize))
        else:
            # He fan-in scaling, the usual choice for conv+ReLU stacks
            std = np.sqrt(2.0 / (in_ch * ksize * ksize))
            w = rng.normal(0.0, std, size=(out_ch, in_ch, ksize, ksize))
        self.weight = Param(f"{name}.weight", w)
        self.bias = Param(f"{name}.bias", np.zeros(out_ch))
        self._x: Array | None = None

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
        out = _corr2d(x, self.weight.value, p)
        out += self.bias.value[:, None, None]
        self._x = x if keep else None
        return out

    def backward(self, grad: Array) -> Array:
        x = _recorded(self._x, self)
        n, _, oh, ow = grad.shape
        g_mat = grad.reshape(n, self.out_ch, oh * ow)
        # one product per image, reduced over the batch in one sum (a
        # running += would round differently)
        dw = np.empty((n, self.out_ch, self.weight.value[0].size))
        for i, mat in enumerate(_patch_matrices(x, self.ksize, self.pad)):
            np.matmul(g_mat[i], mat.T, out=dw[i])
        self.weight.grad += dw.sum(axis=0).reshape(self.weight.shape)
        self.bias.grad += grad.sum(axis=(0, 2, 3))
        # input gradient as a correlation with the spatially flipped,
        # channel-swapped kernel
        w_flip = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _corr2d(grad, np.ascontiguousarray(w_flip),
                       self.ksize - 1 - self.pad)


class MaxPool2x2:
    """2x2/stride-2 max pooling that remembers its argmax positions.

    A pool with a paired unpool (``paired``, set by ``MaxUnpool2x2``) keeps
    its indices in a record-free pass too, for that unpool to read.
    """

    def __init__(self):
        self.indices: Array | None = None
        self.in_hw: tuple[int, int] | None = None
        self.paired = False

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        out, indices = maxpool2_indices(x)
        self.indices = indices if keep or self.paired else None
        self.in_hw = x.shape[2:]
        return out

    def backward(self, grad: Array) -> Array:
        return unpool_indices(grad, _recorded(self.indices, self), self.in_hw)


class MaxUnpool2x2:
    """Sparse upsampling using the paired encoder pool's recorded indices.
    A record-free forward clears them once it has read them."""

    def __init__(self, pool: MaxPool2x2):
        self.pool = pool
        pool.paired = True

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        if self.pool.indices is None:
            raise RuntimeError("paired pool layer has not run forward yet")
        out = unpool_indices(x, self.pool.indices, self.pool.in_hw)
        if not keep:
            self.pool.indices = None
        return out

    def backward(self, grad: Array) -> Array:
        return gather_pool_indices(grad, _recorded(self.pool.indices, self))


class MaxFeatureMap:
    """Channel-halving activation: elementwise max of the two channel halves."""

    def __init__(self):
        self._x: Array | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        self._x = x if keep else None
        return mfm(x)

    def backward(self, grad: Array) -> Array:
        return mfm_backward(grad, _recorded(self._x, self))


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
        return grad * _recorded(self._mask, self)


class Sigmoid:
    """Saturating logistic output, bounding activations to (0, 1)."""

    def __init__(self):
        self._y: Array | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: Array, *, keep: bool = True) -> Array:
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._y = y if keep else None
        return y

    def backward(self, grad: Array) -> Array:
        y = _recorded(self._y, self)
        return grad * y * (1.0 - y)


class Dense:
    """Affine map on flattened inputs: y = x @ W.T + b."""

    def __init__(self, in_dim: int, out_dim: int, *, name: str = "fc",
                 rng: np.random.Generator | None = None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name
        if rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(out_dim, in_dim))
        self.weight = Param(f"{name}.weight", w)
        self.bias = Param(f"{name}.bias", np.zeros(out_dim))
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
        self.weight.grad += grad.T @ _recorded(self._xf, self)
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
# chunked inference
# ---------------------------------------------------------------------------

INFERENCE_CHUNK = 64  # most rows in one inference chunk


def map_chunks(fn, n: int) -> Array:
    """``fn(rows)`` over ceil(n / INFERENCE_CHUNK) slices ``rows`` that cover
    range(n) in order, their lengths differing by at most one, concatenated
    along the first axis.

    Near-equal slices, not 64 rows plus a short remainder: a matrix product
    of a few rows rounds differently (OpenBLAS switches kernels), which moved
    φ's Dense output by up to 9e-15. One slice, or slices of 32 rows or
    more, give φ's features bitwise as one batch does.
    """
    k = max(1, -(-n // INFERENCE_CHUNK))
    return np.concatenate([fn(slice(i * n // k, (i + 1) * n // k))
                           for i in range(k)])


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tolerance: float
    worst_index: tuple[int, ...]

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} max_rel_err={self.max_rel_err:.3e} "
                f"(tol {self.tolerance:.1e}, worst at {self.worst_index})")


def grad_check(fn, x: Array, tolerance: float = 1e-4,
               step: float = 1e-5) -> GradCheckReport:
    """Compare fn's analytic gradient against central finite differences.

    ``fn`` maps an array to ``(scalar_value, gradient_array)``. The numeric
    gradient is computed coordinate by coordinate with the two-sided formula,
    and the report carries the worst elementwise relative error. The
    denominator is floored so near-zero entries compare on an absolute scale.
    """
    _, analytic = fn(x)
    numeric = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        f_plus, _ = fn(xp)
        xm = x.copy()
        xm[idx] -= step
        f_minus, _ = fn(xm)
        numeric[idx] = (f_plus - f_minus) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    rel = np.abs(analytic - numeric) / denom
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    max_rel = float(rel[worst])
    return GradCheckReport(max_rel, max_rel < tolerance, tolerance, worst)
