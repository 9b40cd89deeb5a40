"""Dense float64 layers with explicit forward and backward passes.

The networks in this project are fixed layer sequences (plus one sampling
branch), so there is no general autograd graph: each layer keeps a small
record of its forward pass and a network walks its layer list in reverse.
A conv keeps a reference to its input and lowers one image at a time: it
fills that image's patch matrix into one reused buffer and multiplies it,
and its backward pass refills the patches. Pooling keeps its argmax
indices as int8 (0..3), a max-feature-map the boolean mask of where its
first half won, ReLU its mask and Sigmoid its output. All math is 64-bit
so central-difference gradient checks at tight tolerances are meaningful.

A backward pass computes only what is read. ``Conv2d`` and ``Dense`` skip
the gradient of a frozen parameter, so its ``grad`` stays as it was, and
``Conv2d.backward(grad, input_grad=False)`` returns no input gradient: a
net's first conv needs none when nothing reads the gradient with respect
to the images.

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
    out = _select(v0, v1, indices == 1)
    out = _select(out, v2, indices == 2)
    out = _select(out, v3, indices == 3)
    out += 0.0  # -0.0 becomes +0.0, as in a sum into zeros
    return out


def mfm(x: Array) -> Array:
    """Max-feature-map: split channels in half, take the elementwise max."""
    c = x.shape[1]
    if c % 2:
        raise ShapeError(f"max-feature-map requires an even channel count, got {c}")
    half = c // 2
    return np.maximum(x[:, :half], x[:, half:])


def mfm_backward(grad: Array, first_wins: Array) -> Array:
    """Route the gradient to the winning half, given the forward pass's
    boolean ``a >= b`` mask of the two halves (ties go to the first half).
    Both halves are written into one array."""
    half = grad.shape[1]
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

    def backward(self, grad: Array, *, input_grad: bool = True
                 ) -> Array | None:
        """Accumulate the gradients of the parameters that are not frozen
        and return the input gradient, or None with ``input_grad=False``."""
        x = _recorded(self._x, self)
        if not self.weight.frozen:
            n, _, oh, ow = grad.shape
            g_mat = grad.reshape(n, self.out_ch, oh * ow)
            # one product per image, reduced over the batch in one sum (a
            # running += would round differently)
            dw = np.empty((n, self.out_ch, self.weight.value[0].size))
            for i, mat in enumerate(_patch_matrices(x, self.ksize, self.pad)):
                np.matmul(g_mat[i], mat.T, out=dw[i])
            self.weight.grad += dw.sum(axis=0).reshape(self.weight.shape)
        if not self.bias.frozen:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
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
        return mfm_backward(grad, _recorded(self._first_wins, self))


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
        xf = _recorded(self._xf, self)
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
# chunked inference
# ---------------------------------------------------------------------------

INFERENCE_CHUNK = 64  # most rows in one inference chunk, by default

# ψ's inference block: at 8 rows the largest activation, (8, 16, 64, 48),
# is 3.1 MB, against 25 MB at 64 rows. That is more than the 2 MiB per-core
# L2 of the Xeon measured here, so the block is sized by measurement, not to
# a cache level. Over 400 64x48 images (one thread, 2-vCPU Xeon, medians of
# 10 interleaved runs) bounds of 4, 8, 16, 32 and 64 rows took 1.66, 1.65,
# 1.85, 1.91 and 2.00 s. ψ has no matrix product across rows, so any block gives the
# one-batch output bitwise.
PSI_BLOCK = 8


def map_chunks(fn, n: int, rows: int = INFERENCE_CHUNK) -> Array:
    """``fn(chunk)`` over ceil(n / rows) slices ``chunk`` that cover
    range(n) in order, their lengths differing by at most one, stacked
    along the first axis.

    Near-equal slices, not 64 rows plus a short remainder: a matrix product
    of a few rows rounds differently (OpenBLAS switches kernels), which moved
    φ's Dense output by up to 9e-15. One slice, or slices of 32 rows or
    more, give φ's features bitwise as one batch does. A net without a
    matrix product across rows, like ψ, may take smaller slices.
    """
    k = max(1, -(-n // rows))
    out = None
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        part = fn(slice(lo, hi))
        if out is None:
            out = np.empty((n, *part.shape[1:]), dtype=part.dtype)
        out[lo:hi] = part
    return out


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
