"""Procedural triplet generator: synthetic ID faces with known eye centers,
mesh-like corruption masks, and the composited corrupted images.

Faces are parametric (ellipse head, eye disks, nose/mouth strokes, hair cap
over a smooth background), so landmarks never need detection: every render
jitters the whole geometry analytically and the stored eye centers are exact.
Each identity also gets a "daily photo" render with a harder jitter profile
to play the probe role in verification.

Datasets are persisted as binary PGM files plus small text metadata and are a
pure function of the root seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic
from .stn import Landmarks

Array = np.ndarray

MASK_DENSITY_MIN = 0.03
MASK_DENSITY_MAX = 0.25
EYE_MARGIN = 2.0
SPLITS = ("train", "val", "test")


class RenderError(RuntimeError):
    """Jitter kept pushing the eyes out of frame."""


class DatasetError(ValueError):
    """A persisted dataset violates its invariants."""


# ---------------------------------------------------------------------------
# identities and jitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """Face geometry (fractions of image extent) and base gray levels."""

    ident: str
    height: int
    width: int
    head_rx: float      # head ellipse semi-axes
    head_ry: float
    eye_dx: float       # eye half-spacing / height above center, in pixels
    eye_dy: float
    eye_r: float
    nose_len: float
    mouth_dy: float
    mouth_half: float
    hair_frac: float    # fraction of head_ry above which the hair cap sits
    bg_gray: float
    bg_slope_x: float
    bg_slope_y: float
    skin_gray: float
    hair_gray: float
    eye_gray: float
    stroke_gray: float

    @property
    def center(self) -> tuple[float, float]:
        return (self.width / 2.0, self.height / 2.0)

    def canonical_eyes(self) -> Landmarks:
        cx, cy = self.center
        return Landmarks((cx - self.eye_dx, cy - self.eye_dy),
                         (cx + self.eye_dx, cy - self.eye_dy))


def sample_identity(ident: str, seed: int, height: int = 64,
                    width: int = 48) -> Identity:
    """Draw identity parameters from documented ranges.

    Ranges keep both eyes at least EYE_MARGIN pixels inside the frame under
    the worst daily-profile jitter for the default extents, so render retries
    stay rare.
    """
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return Identity(
        ident=ident,
        height=height,
        width=width,
        head_rx=u(0.28, 0.36) * width,
        head_ry=u(0.33, 0.42) * height,
        eye_dx=u(0.14, 0.20) * width,
        eye_dy=u(0.10, 0.16) * height,
        eye_r=u(0.028, 0.05) * width,
        nose_len=u(0.08, 0.14) * height,
        mouth_dy=u(0.18, 0.26) * height,
        mouth_half=u(0.09, 0.16) * width,
        hair_frac=u(0.45, 0.75),
        bg_gray=u(0.15, 0.45),
        bg_slope_x=u(-0.1, 0.1),
        bg_slope_y=u(-0.1, 0.1),
        skin_gray=u(0.55, 0.80),
        hair_gray=u(0.08, 0.35),
        eye_gray=u(0.02, 0.22),
        stroke_gray=u(0.15, 0.40),
    )


@dataclass(frozen=True)
class Jitter:
    """One render's rigid perturbation: p' = c + s*R(angle)(p - c) + (dx, dy)."""

    dx: float = 0.0
    dy: float = 0.0
    angle: float = 0.0   # radians
    scale: float = 1.0
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class JitterProfile:
    max_shift: float
    max_rot_deg: float
    max_scale: float
    noise_sigma: float

    def draw(self, rng: np.random.Generator) -> Jitter:
        return Jitter(
            dx=float(rng.uniform(-self.max_shift, self.max_shift)),
            dy=float(rng.uniform(-self.max_shift, self.max_shift)),
            angle=math.radians(float(rng.uniform(-self.max_rot_deg, self.max_rot_deg))),
            scale=1.0 + float(rng.uniform(-self.max_scale, self.max_scale)),
            noise_sigma=self.noise_sigma,
        )


TRAIN_PROFILE = JitterProfile(max_shift=3.0, max_rot_deg=8.0, max_scale=0.08,
                              noise_sigma=0.01)
DAILY_PROFILE = JitterProfile(max_shift=5.0, max_rot_deg=15.0, max_scale=0.15,
                              noise_sigma=0.03)


def _transform_point(p, jitter: Jitter, center) -> tuple[float, float]:
    cx, cy = center
    ca, sa = math.cos(jitter.angle), math.sin(jitter.angle)
    px, py = p[0] - cx, p[1] - cy
    return (cx + jitter.scale * (ca * px - sa * py) + jitter.dx,
            cy + jitter.scale * (sa * px + ca * py) + jitter.dy)


def render_with_jitter(identity: Identity, jitter: Jitter,
                       noise_rng: np.random.Generator | None = None
                       ) -> tuple[Array, Landmarks]:
    """Render one face under an explicit jitter; landmarks are exact.

    All shapes are tested in the canonical (unjittered) frame by inverse
    transforming the pixel grid, so the returned eye centers are simply the
    forward transform of the identity's canonical eye positions.
    """
    h, w = identity.height, identity.width
    cx, cy = identity.center
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    # inverse map into the canonical frame
    ca, sa = math.cos(-jitter.angle), math.sin(-jitter.angle)
    ux = (xx - cx - jitter.dx) / jitter.scale
    uy = (yy - cy - jitter.dy) / jitter.scale
    qx = cx + ca * ux - sa * uy
    qy = cy + sa * ux + ca * uy

    img = np.clip(identity.bg_gray + identity.bg_slope_x * (qx / w - 0.5)
                  + identity.bg_slope_y * (qy / h - 0.5), 0.0, 1.0)

    head = (((qx - cx) / identity.head_rx) ** 2
            + ((qy - cy) / identity.head_ry) ** 2) <= 1.0
    img[head] = identity.skin_gray
    hair = head & (qy <= cy - identity.hair_frac * identity.head_ry)
    img[hair] = identity.hair_gray

    eyes = identity.canonical_eyes()
    for ex, ey in (eyes.left, eyes.right):
        disk = (qx - ex) ** 2 + (qy - ey) ** 2 <= identity.eye_r ** 2
        img[disk] = identity.eye_gray

    nose = (np.abs(qx - cx) <= 0.6) & (qy >= cy - 1.0) & \
        (qy <= cy + identity.nose_len)
    img[nose] = identity.stroke_gray
    mouth = (np.abs(qy - (cy + identity.mouth_dy)) <= 0.7) & \
        (np.abs(qx - cx) <= identity.mouth_half)
    img[mouth] = identity.stroke_gray

    if noise_rng is not None and jitter.noise_sigma > 0:
        img = img + noise_rng.normal(0.0, jitter.noise_sigma, size=img.shape)
    img = np.clip(img, 0.0, 1.0)

    left = _transform_point(eyes.left, jitter, (cx, cy))
    right = _transform_point(eyes.right, jitter, (cx, cy))
    return img[None, :, :], Landmarks(left, right)


def _eyes_in_frame(eyes: Landmarks, height: int, width: int) -> bool:
    for x, y in (eyes.left, eyes.right):
        if not (EYE_MARGIN <= x <= width - 1 - EYE_MARGIN
                and EYE_MARGIN <= y <= height - 1 - EYE_MARGIN):
            return False
    return True


def render_face(identity: Identity, jitter_seed: int,
                profile: JitterProfile = TRAIN_PROFILE) -> tuple[Array, Landmarks]:
    """Render one jittered face; resamples jitter if eyes leave the frame."""
    rng = np.random.default_rng(jitter_seed)
    for _ in range(100):
        jitter = profile.draw(rng)
        eyes = Landmarks(
            _transform_point(identity.canonical_eyes().left, jitter, identity.center),
            _transform_point(identity.canonical_eyes().right, jitter, identity.center))
        if _eyes_in_frame(eyes, identity.height, identity.width):
            return render_with_jitter(identity, jitter, noise_rng=rng)
    raise RenderError(
        f"could not place eyes inside the frame for {identity.ident} "
        f"after 100 jitter draws")


# ---------------------------------------------------------------------------
# mesh masks
# ---------------------------------------------------------------------------

_THICKNESS_OFFSETS = {
    1: [(0, 0)],
    2: [(0, 0), (0, 1), (1, 0), (1, 1)],
    3: [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
        if abs(di) + abs(dj) < 2] + [(1, 1)],
}


def _stroke_mask(rng: np.random.Generator, height: int, width: int) -> Array:
    """One border-to-border stroke, optionally sinusoidally perturbed."""
    horizontal = bool(rng.random() < 0.5)
    if horizontal:
        p0 = np.array([0.0, rng.uniform(0, height - 1)])
        p1 = np.array([width - 1.0, rng.uniform(0, height - 1)])
    else:
        p0 = np.array([rng.uniform(0, width - 1), 0.0])
        p1 = np.array([rng.uniform(0, width - 1), height - 1.0])
    thickness = int(rng.integers(1, 4))
    amp = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.5 else 0.0
    periods = int(rng.integers(1, 4))

    t = np.linspace(0.0, 1.0, 4 * max(height, width))
    line = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    if amp > 0:
        direction = (p1 - p0) / np.linalg.norm(p1 - p0)
        normal = np.array([-direction[1], direction[0]])
        # integer period count keeps both endpoints on their borders
        line = line + np.sin(np.pi * periods * t)[:, None] * amp * normal[None, :]
    xs = np.clip(np.round(line[:, 0]).astype(int), 0, width - 1)
    ys = np.clip(np.round(line[:, 1]).astype(int), 0, height - 1)
    mask = np.zeros((height, width), dtype=bool)
    for di, dj in _THICKNESS_OFFSETS[thickness]:
        mask[np.clip(ys + di, 0, height - 1), np.clip(xs + dj, 0, width - 1)] = True
    return mask


def _rect_mask(rng: np.random.Generator, height: int, width: int) -> Array:
    rh = int(rng.integers(2, 7))
    rw = int(rng.integers(4, 13))
    top = int(rng.integers(0, height - rh))
    left = int(rng.integers(0, width - rw))
    mask = np.zeros((height, width), dtype=bool)
    mask[top:top + rh, left:left + rw] = True
    return mask


def synth_mesh(seed: int, height: int = 64, width: int = 48) -> Array:
    """Random mesh-like corruption mask with density clamped to
    [MASK_DENSITY_MIN, MASK_DENSITY_MAX].

    2-6 strokes spanning opposite borders plus up to 2 small watermark
    blobs; candidates that would push the density past the upper bound are
    dropped, and extra strokes are added while the mask is too sparse.
    """
    if height < 16 or width < 16:
        raise ValueError(f"mask extents must be >= 16, got {height}x{width}")
    rng = np.random.default_rng(seed)
    total = height * width
    mask = np.zeros((height, width), dtype=bool)

    candidates = [_stroke_mask(rng, height, width)
                  for _ in range(int(rng.integers(2, 7)))]
    candidates += [_rect_mask(rng, height, width)
                   for _ in range(int(rng.integers(0, 3)))]
    for cand in candidates:
        trial = mask | cand
        if trial.sum() / total <= MASK_DENSITY_MAX:
            mask = trial
    attempts = 0
    while mask.sum() / total < MASK_DENSITY_MIN and attempts < 64:
        cand = _stroke_mask(rng, height, width)
        trial = mask | cand
        if trial.sum() / total <= MASK_DENSITY_MAX:
            mask = trial
        attempts += 1
    return mask[None, :, :].astype(np.float64)


# forward half of the 8-neighbourhood: east, south-west, south, south-east
_FORWARD_NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _label_components(mask2d: Array) -> tuple[Array, int]:
    """8-connected component labels in first-pixel scan order (plumbing for
    per-stroke gray assignment; strokes that cross share a label).

    Hooking and pointer jumping (Shiloach & Vishkin 1982): every edge
    between two mask pixels hooks both endpoints' roots to the smaller one,
    then each pixel jumps to its root, until every edge joins one root.
    Each component's root is then its first pixel in scan order, so
    numbering the roots in increasing order keeps the scan order.
    """
    h, w = mask2d.shape
    flat = np.arange(h * w).reshape(h, w)
    heads, tails = [], []
    for di, dj in _FORWARD_NEIGHBOURS:
        src = (slice(0, h - di), slice(max(0, -dj), w - max(0, dj)))
        dst = (slice(di, h), slice(max(0, dj), w + min(0, dj)))
        both = mask2d[src] & mask2d[dst]
        heads.append(flat[src][both])
        tails.append(flat[dst][both])
    a, b = np.concatenate(heads), np.concatenate(tails)
    parent = np.arange(h * w)
    while True:
        root_a, root_b = parent[a], parent[b]
        if np.array_equal(root_a, root_b):
            break
        lower = np.minimum(root_a, root_b)
        np.minimum.at(parent, root_a, lower)
        np.minimum.at(parent, root_b, lower)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    on = mask2d.ravel()
    roots, numbers = np.unique(parent[on], return_inverse=True)
    labels = np.zeros(h * w, dtype=np.int64)
    labels[on] = numbers + 1
    return labels.reshape(h, w), len(roots)


def apply_mesh(clear: Array, mask: Array, stroke_seed: int) -> Array:
    """Composite the mesh onto the clear image: off-mask pixels are copied
    bit for bit, on-mask pixels take a per-stroke constant gray drawn from
    [0, 0.3] or [0.7, 1.0] (dark or light mesh)."""
    if clear.shape != mask.shape:
        raise ValueError(f"image {clear.shape} vs mask {mask.shape}")
    vals = np.unique(mask)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValueError("mask must be binary")
    rng = np.random.default_rng(stroke_seed)
    labels, count = _label_components(mask[0] > 0.5)
    grays = np.empty(count + 1)  # per label; label 0 is off-mask
    for k in range(1, count + 1):
        dark = rng.random() < 0.5
        grays[k] = rng.uniform(0.0, 0.3) if dark else rng.uniform(0.7, 1.0)
    out = clear.copy()
    on = labels > 0
    out[0][on] = grays[labels[on]]
    return out


# ---------------------------------------------------------------------------
# portable graymap i/o
# ---------------------------------------------------------------------------

def write_pgm(path: str | Path, img: Array) -> None:
    """Write a [0,1] image (1,H,W) or (H,W) as a binary maxval-255 graymap."""
    arr = img[0] if img.ndim == 3 else img
    data = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + data.tobytes())


# magic, then width, height and maxval, each after whitespace or comment
# lines, then the single whitespace byte that ends the header
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pgm(path: str | Path) -> Array:
    """Read a binary graymap as a (1, H, W) image in [0, 1]; a malformed
    or truncated file raises DatasetError, as does one that cannot be read."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read graymap: {exc.strerror}") from None
    if not blob.startswith(b"P5"):
        raise DatasetError(f"{path}: not a binary graymap")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise DatasetError(f"{path}: malformed graymap header")
    w, h, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise DatasetError(f"{path}: unsupported maxval {maxval}")
    off = header.end()
    if h < 1 or w < 1 or len(blob) - off < h * w:
        raise DatasetError(f"{path}: {len(blob) - off} pixel bytes for a "
                           f"{w}x{h} graymap")
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=off)
    return (data.reshape(h, w).astype(np.float64) / 255.0)[None, :, :]


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class SplitData:
    """One split in manifest order. ``x``, ``y`` and ``m`` stack the
    corrupted, clear and mask images as (N, 1, H, W), and ``eyes``,
    ``identity`` and ``sample`` hold one entry per row. ``dailies`` maps
    each identity to its daily photo's (image, eyes)."""

    x: Array
    y: Array
    m: Array
    eyes: list[Landmarks]
    identity: list[str]
    sample: list[str]
    dailies: dict[str, tuple[Array, Landmarks]]

    def __len__(self) -> int:
        return len(self.sample)


def _write_meta(path: Path, eyes: Landmarks, identity: str, seeds: dict[str, int]) -> None:
    lines = [f"eyes = {eyes.left[0]:.6f} {eyes.left[1]:.6f} "
             f"{eyes.right[0]:.6f} {eyes.right[1]:.6f}",
             f"identity = {identity}"]
    lines += [f"{k} = {v}" for k, v in seeds.items()]
    path.write_text("\n".join(lines) + "\n")


def _read_meta(path: Path) -> tuple[Landmarks, str, dict[str, int]]:
    eyes = None
    identity = ""
    seeds: dict[str, int] = {}
    try:
        for line in path.read_text().splitlines():
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "eyes":
                lx, ly, rx, ry = (float(v) for v in value.split())
                eyes = Landmarks((lx, ly), (rx, ry))
            elif key == "identity":
                identity = value
            elif key:
                seeds[key] = int(value)
    except ValueError as exc:  # bad numbers, field counts or UTF-8
        raise DatasetError(f"{path}: malformed meta file: {exc}") from None
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read meta file: {exc.strerror}") from None
    if eyes is None:
        raise DatasetError(f"{path}: missing eye coordinates")
    if not np.isfinite(eyes.as_array()).all():
        raise DatasetError(f"{path}: non-finite eye coordinates")
    return eyes, identity, seeds


def split_counts(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValueError(f"split ratios must be non-negative and sum to 1, got {ratios}")
    counts = [int(round(r * n)) for r in ratios]
    counts[0] += n - sum(counts)
    if counts[0] < 0:
        raise ValueError(f"split ratios {ratios} infeasible for {n} identities")
    return tuple(counts)


def make_dataset(out_dir: str | Path, n_identities: int,
                 samples_per_identity: int, seed: int,
                 ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                 height: int = 64, width: int = 48) -> Path:
    """Generate and persist a dataset; identities (not images) are split.

    Layout: <root>/<split>/<identity>/<sample>.{x,y,m}.pgm plus a .meta text
    file per sample, one daily render per identity, and a top-level
    manifest.tsv listing every sample with its split label.
    """
    out = Path(out_dir)
    counts = split_counts(n_identities, ratios)
    master = np.random.default_rng(seed)
    rows = ["split\tidentity\tsample\tkind"]
    idx = 0
    for split, count in zip(SPLITS, counts):
        for _ in range(count):
            ident = f"id{idx:04d}"
            idx += 1
            id_seed = int(master.integers(0, 2 ** 63))
            identity = sample_identity(ident, id_seed, height, width)
            id_dir = out / split / ident
            id_dir.mkdir(parents=True, exist_ok=True)
            for s in range(samples_per_identity):
                stem = f"s{s:03d}"
                jitter_seed = int(master.integers(0, 2 ** 63))
                mask_seed = int(master.integers(0, 2 ** 63))
                stroke_seed = int(master.integers(0, 2 ** 63))
                y, eyes = render_face(identity, jitter_seed)
                m = synth_mesh(mask_seed, height, width)
                x = apply_mesh(y, m, stroke_seed)
                write_pgm(id_dir / f"{stem}.x.pgm", x)
                write_pgm(id_dir / f"{stem}.y.pgm", y)
                write_pgm(id_dir / f"{stem}.m.pgm", m)
                _write_meta(id_dir / f"{stem}.meta", eyes, ident,
                            {"jitter_seed": jitter_seed, "mask_seed": mask_seed,
                             "stroke_seed": stroke_seed})
                rows.append(f"{split}\t{ident}\t{stem}\ttriplet")
            daily_seed = int(master.integers(0, 2 ** 63))
            daily_img, daily_eyes = render_face(identity, daily_seed, DAILY_PROFILE)
            write_pgm(id_dir / "daily.y.pgm", daily_img)
            _write_meta(id_dir / "daily.meta", daily_eyes, ident,
                        {"jitter_seed": daily_seed})
            rows.append(f"{split}\t{ident}\tdaily\tdaily")
    manifest = out / "manifest.tsv"
    atomic.write_file(manifest, "\n".join(rows) + "\n")
    return manifest


def read_manifest(root: str | Path) -> list[tuple[str, str, str, str]]:
    path = Path(root) / "manifest.tsv"
    if not path.exists():
        raise DatasetError(f"{root}: missing manifest.tsv")
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        row = tuple(line.split("\t"))
        if len(row) != 4 or row[0] not in SPLITS or \
                row[3] not in ("triplet", "daily"):
            raise DatasetError(f"{path}:{number}: expected split, identity, "
                               f"sample and kind, got {line!r}")
        rows.append(row)
    return rows


def load_split(root: str | Path, split: str) -> SplitData:
    """Read one split back into memory, in manifest order; an empty split
    stacks as (0, 1, 0, 0)."""
    split_dir = Path(root) / split
    rows: list[tuple[str, str]] = []
    dailies: dict[str, tuple[Array, Landmarks]] = {}
    for row_split, ident, sample, kind in read_manifest(root):
        if row_split != split:
            continue
        if kind == "daily":
            eyes, _, _ = _read_meta(split_dir / ident / "daily.meta")
            dailies[ident] = (read_pgm(split_dir / ident / "daily.y.pgm"), eyes)
        else:
            rows.append((ident, sample))
    stems = [split_dir / ident / sample for ident, sample in rows]

    def stack(kind: str) -> Array:
        # one image kind at a time, so one kind's per-image list is alive
        if not stems:
            return np.empty((0, 1, 0, 0))
        return np.stack([read_pgm(f"{stem}.{kind}.pgm") for stem in stems])

    return SplitData(stack("x"), stack("y"),
                     (stack("m") > 0.5).astype(np.float64),
                     [_read_meta(Path(f"{stem}.meta"))[0] for stem in stems],
                     [ident for ident, _ in rows],
                     [sample for _, sample in rows], dailies)


def validate_dataset(root: str | Path) -> int:
    """Full-scan check of every persisted triplet's invariants.

    Returns the number of triplets checked; raises DatasetError on the first
    violation.
    """
    root = Path(root)
    checked = 0
    for split, ident, sample, kind in read_manifest(root):
        if kind != "triplet":
            continue
        id_dir = root / split / ident
        x = read_pgm(id_dir / f"{sample}.x.pgm")
        y = read_pgm(id_dir / f"{sample}.y.pgm")
        m_raw = read_pgm(id_dir / f"{sample}.m.pgm")
        where = f"{split}/{ident}/{sample}"
        if not np.all(np.isin(m_raw, (0.0, 1.0))):
            raise DatasetError(f"{where}: mask is not binary")
        density = m_raw.mean()
        if not (MASK_DENSITY_MIN <= density <= MASK_DENSITY_MAX):
            raise DatasetError(f"{where}: mask density {density:.4f} out of bounds")
        off = m_raw == 0.0
        if not np.array_equal(x[off], y[off]):
            raise DatasetError(f"{where}: corrupted image differs off-mask")
        if x.min() < 0 or x.max() > 1 or y.min() < 0 or y.max() > 1:
            raise DatasetError(f"{where}: pixel values out of [0, 1]")
        eyes, _, _ = _read_meta(id_dir / f"{sample}.meta")
        if not _eyes_in_frame(eyes, x.shape[1], x.shape[2]):
            raise DatasetError(f"{where}: eyes out of frame")
        checked += 1
    return checked
