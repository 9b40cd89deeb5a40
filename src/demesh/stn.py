"""Landmark-driven spatial transformer for face alignment.

Alignment is a similarity transform fixed analytically by the two eye
centers, so there is no learned localization: we solve the four transform
parameters from the eye correspondences, generate a sampling grid over the
target crop, and bilinearly sample the source image. Every step works on a
whole batch: N landmark pairs give N grids, and the sampler maps N images
through them in one pass (the batched grid generator and sampler of
Jaderberg et al. 2015, arXiv 1506.02025). The sampler is
differentiable with respect to the image (not the grid; the transform is
never learned), and out-of-range samples read as zero.

Coordinates are normalized per axis so pixel 0 maps to -1 and pixel
(extent - 1) maps to +1. In the aligned crop the eye centers always sit at
normalized (-0.5, -0.5) and (+0.5, -0.5); with the default 32x32 crop that
places them at the usual quarter-width / quarter-height positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ShapeError

Array = np.ndarray

# normalized eye-center positions in the aligned crop: (x, y), left then right
TARGET_EYES = ((-0.5, -0.5), (0.5, -0.5))


class DegenerateLandmarksError(ValueError):
    """Eye centers coincide; the alignment transform is not determined."""


@dataclass(frozen=True)
class SimilarityParams:
    """Scalars (a, b, tx, ty) of the transform [[a, b, tx], [-b, a, ty]];
    each is a float or an (N,) array with one entry per sample."""

    a: float | Array
    b: float | Array
    tx: float | Array
    ty: float | Array

    def apply(self, x: Array, y: Array) -> tuple[Array, Array]:
        """Map target-space coords to source-space coords, pointwise."""
        return (self.a * x + self.b * y + self.tx,
                -self.b * x + self.a * y + self.ty)


@dataclass(frozen=True)
class SampleGrid:
    """Continuous normalized source coordinates, one pair per output pixel
    of each sample."""

    xs: Array  # (N, out_h, out_w)
    ys: Array

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.xs.shape


def normalize_coords(x, y, height: int, width: int):
    """Map pixel coords to [-1, 1] per axis (0 -> -1, extent-1 -> +1)."""
    if height < 2 or width < 2:
        raise ValueError("normalization needs extents >= 2")
    return 2.0 * np.asarray(x) / (width - 1) - 1.0, \
        2.0 * np.asarray(y) / (height - 1) - 1.0


def denormalize_coords(xn, yn, height: int, width: int):
    """Inverse of normalize_coords."""
    return (np.asarray(xn) + 1.0) * (width - 1) / 2.0, \
        (np.asarray(yn) + 1.0) * (height - 1) / 2.0


def solve_similarity(left, right) -> SimilarityParams:
    """Solve (a, b, tx, ty) so the canonical target eyes map onto the
    given source eyes (both in normalized coordinates).

    ``left`` and ``right`` are (x, y) pairs or (N, 2) arrays of them. Each
    correspondence contributes two linear equations
    (x_s = a*x_t + b*y_t + tx and y_s = -b*x_t + a*y_t + ty), giving an
    exactly determined 4x4 system per sample.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    span = np.hypot(right[..., 0] - left[..., 0], right[..., 1] - left[..., 1])
    bad = np.flatnonzero(np.ravel(span) < 1e-12)
    if bad.size:
        where = np.reshape(left, (-1, 2))[bad[0]].tolist()
        raise DegenerateLandmarksError(f"eye centers coincide at {tuple(where)}")
    rows = []
    for xt, yt in TARGET_EYES:
        rows += [[xt, yt, 1.0, 0.0], [yt, -xt, 0.0, 1.0]]
    rhs = np.stack([left[..., 0], left[..., 1], right[..., 0], right[..., 1]],
                   axis=-1)
    system = np.broadcast_to(np.array(rows), rhs.shape + (4,))
    a, b, tx, ty = np.moveaxis(np.linalg.solve(system, rhs[..., None])[..., 0],
                               -1, 0)
    if np.any(a * a + b * b <= 0.0):
        raise DegenerateLandmarksError("solved transform has zero scale")
    return SimilarityParams(a, b, tx, ty)


def generate_grid(params: SimilarityParams, out_h: int, out_w: int) -> SampleGrid:
    """Source coordinates for every pixel of a regular out_h x out_w grid,
    one grid per sample of ``params``."""
    if out_h < 2 or out_w < 2:
        raise ValueError("grid extents must be >= 2")
    xt = np.linspace(-1.0, 1.0, out_w)
    yt = np.linspace(-1.0, 1.0, out_h)
    xg, yg = np.meshgrid(xt, yt)
    per_sample = SimilarityParams(*(np.reshape(v, (-1, 1, 1)) for v in (
        params.a, params.b, params.tx, params.ty)))
    xs, ys = per_sample.apply(xg, yg)
    return SampleGrid(xs, ys)


def resize_grid(n: int, out_h: int, out_w: int) -> SampleGrid:
    """Identity-orientation grids for n samples: a plain bilinear resize of
    each full image."""
    one, zero = np.ones(n), np.zeros(n)
    return generate_grid(SimilarityParams(one, zero, zero, zero), out_h, out_w)


def alignment_grid(eyes, src_h: int, src_w: int,
                   crop_h: int, crop_w: int) -> SampleGrid:
    """Grids that cut an aligned crop_h x crop_w face region from each
    src_h x src_w source; ``eyes`` is (N, 2, 2), each sample's
    ``[[left_x, left_y], [right_x, right_y]]`` in pixels."""
    pts = np.asarray(eyes, dtype=np.float64)
    xn, yn = normalize_coords(pts[..., 0], pts[..., 1], src_h, src_w)
    params = solve_similarity(np.stack([xn[:, 0], yn[:, 0]], axis=-1),
                              np.stack([xn[:, 1], yn[:, 1]], axis=-1))
    return generate_grid(params, crop_h, crop_w)


def _corner_weights(grid: SampleGrid, height: int, width: int):
    """Shared corner/weight computation for the sampler and its adjoint.

    Yields, one bilinear corner at a time, the flat source index and the
    weight of every grid point, each (N, out_h * out_w); out-of-range
    corners get index 0 and weight 0. Coordinates within 1e-9 of an integer
    pixel are snapped so identity grids sample pixel-exactly despite
    normalization round-trip rounding.
    """
    n = grid.shape[0]
    px, py = denormalize_coords(grid.xs.reshape(n, -1), grid.ys.reshape(n, -1),
                                height, width)
    px = np.where(np.abs(px - np.round(px)) < 1e-9, np.round(px), px)
    py = np.where(np.abs(py - np.round(py)) < 1e-9, np.round(py), py)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    wx1 = px - x0
    wy1 = py - y0
    for yi, wy in ((y0, 1.0 - wy1), (y0 + 1, wy1)):
        for xi, wx in ((x0, 1.0 - wx1), (x0 + 1, wx1)):
            valid = (xi >= 0) & (xi < width) & (yi >= 0) & (yi < height)
            yield np.where(valid, yi * width + xi, 0), wx * wy * valid


def bilinear_sample(images: Array, grid: SampleGrid) -> Array:
    """Sample each image at its grid's source positions with a bilinear
    kernel.

    ``images`` is (N, channels, H, W) and ``grid`` holds N grids. Positions
    outside the image contribute zero (zero-padding semantics), so the
    kernel is a partition of unity only strictly inside the border.
    """
    if images.ndim != 4 or images.shape[0] != grid.shape[0]:
        raise ShapeError(f"expected {grid.shape[0]} (channels, H, W) images, "
                         f"got {images.shape}")
    n, c, h, w = images.shape
    flat = images.reshape(n, c, h * w)
    out = np.zeros((n, c, grid.xs[0].size))
    for idx, wgt in _corner_weights(grid, h, w):
        out += np.take_along_axis(flat, idx[:, None, :], axis=2) * wgt[:, None, :]
    return out.reshape(n, c, *grid.shape[1:])


def bilinear_backward(grad_out: Array, grid: SampleGrid,
                      input_hw: tuple[int, int]) -> Array:
    """Adjoint of bilinear_sample: scatter (N, C, out_h, out_w) output
    gradients back to (N, C, H, W) sources.

    No gradient with respect to grid coordinates is produced; the transform
    parameters are solved, not learned.
    """
    if grad_out.ndim != 4 or \
            (grad_out.shape[0],) + grad_out.shape[2:] != grid.shape:
        raise ShapeError(
            f"gradient shape {grad_out.shape} does not match grid {grid.shape}")
    n, c = grad_out.shape[:2]
    h, w = input_hw
    g = grad_out.reshape(n, c, -1)
    # each (sample, channel) plane's offset in the flat (N, C, H * W) result
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1)
    targets, values = [], []
    for idx, wgt in _corner_weights(grid, h, w):
        targets.append((planes + idx[:, None, :]).ravel())
        values.append((g * wgt[:, None, :]).ravel())
    # one scatter-add, corner by corner in (sample, channel, point) order:
    # the additions, and so the bits, of one np.add.at per corner
    grad_in = np.bincount(np.concatenate(targets), np.concatenate(values),
                          minlength=n * c * h * w)
    return grad_in.reshape(n, c, h, w)
