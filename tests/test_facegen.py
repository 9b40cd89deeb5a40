import hashlib
import math
import re
import shutil
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demesh.facegen import (DAILY_PROFILE, DatasetError, Jitter,
                            MASK_DENSITY_MAX, MASK_DENSITY_MIN, SPLITS,
                            apply_mesh,
                            load_split, make_dataset, read_graymap,
                            read_manifest, read_pgm, render_face,
                            render_with_jitter, sample_identity, split_counts,
                            synth_mesh, to_float, validate_dataset, write_pgm,
                            _label_components, _read_meta)


def identity_fixture(seed=101):
    return sample_identity("id0000", seed)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_zero_jitter_lands_landmarks_at_canonical_positions():
    ident = identity_fixture()
    _, eyes = render_with_jitter(ident, Jitter())
    assert eyes.shape == (2, 2) and eyes.dtype == np.float64
    np.testing.assert_allclose(eyes, ident.canonical_eyes(), rtol=0, atol=1e-12)

def test_same_seeds_render_bitwise_identical_images():
    ident = identity_fixture()
    img1, eyes1 = render_face(ident, jitter_seed=5)
    img2, eyes2 = render_face(ident, jitter_seed=5)
    np.testing.assert_array_equal(img1, img2)
    assert eyes1.tobytes() == eyes2.tobytes()

def test_rotation_only_jitter_rotates_landmarks_about_image_center():
    ident = identity_fixture()
    alpha = math.radians(7.0)
    _, eyes = render_with_jitter(ident, Jitter(angle=alpha))
    cx, cy = ident.width / 2.0, ident.height / 2.0
    for got, canon in zip(eyes, ident.canonical_eyes()):
        px, py = canon[0] - cx, canon[1] - cy
        expected = (cx + math.cos(alpha) * px - math.sin(alpha) * py,
                    cy + math.sin(alpha) * px + math.cos(alpha) * py)
        assert got == pytest.approx(expected, abs=1e-9)

def test_rendered_images_stay_in_unit_interval():
    ident = identity_fixture()
    for seed in range(5):
        img, _ = render_face(ident, seed, DAILY_PROFILE)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.shape == (1, 64, 48)

def test_renders_of_different_identities_differ():
    a, _ = render_with_jitter(sample_identity("a", 1), Jitter())
    b, _ = render_with_jitter(sample_identity("b", 2), Jitter())
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# mesh masks
# ---------------------------------------------------------------------------

def test_mask_is_binary_with_density_in_bounds():
    for seed in range(50):
        m = synth_mesh(seed)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert MASK_DENSITY_MIN <= m.mean() <= MASK_DENSITY_MAX

def test_mask_is_deterministic():
    np.testing.assert_array_equal(synth_mesh(77), synth_mesh(77))

def _touches_opposite_borders(component: set[tuple[int, int]], h: int, w: int) -> bool:
    rows = {i for i, _ in component}
    cols = {j for _, j in component}
    return (0 in rows and h - 1 in rows) or (0 in cols and w - 1 in cols)

def _components_bfs(mask2d):
    h, w = mask2d.shape
    seen = np.zeros_like(mask2d, dtype=bool)
    comps = []
    for si in range(h):
        for sj in range(w):
            if not mask2d[si, sj] or seen[si, sj]:
                continue
            comp = set()
            queue = deque([(si, sj)])
            seen[si, sj] = True
            while queue:
                i, j = queue.popleft()
                comp.add((i, j))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ni, nj = i + di, j + dj
                        if 0 <= ni < h and 0 <= nj < w and mask2d[ni, nj] \
                                and not seen[ni, nj]:
                            seen[ni, nj] = True
                            queue.append((ni, nj))
            comps.append(comp)
    return comps

def test_mask_density_histogram_over_many_seeds():
    densities = []
    for seed in range(10_000):
        densities.append(synth_mesh(seed).mean())
    densities = np.array(densities)
    assert densities.min() >= MASK_DENSITY_MIN
    assert densities.max() <= MASK_DENSITY_MAX

def test_some_stroke_connects_opposite_borders():
    for seed in range(0, 200, 10):
        m = synth_mesh(seed)[0] > 0.5
        comps = _components_bfs(m)
        assert any(_touches_opposite_borders(c, *m.shape) for c in comps), seed

def _flood_fill_labels(mask2d):
    """Reference labelling: a depth-first flood fill from each unlabelled
    mask pixel in scan order."""
    h, w = mask2d.shape
    labels = np.zeros((h, w), dtype=np.int64)
    current = 0
    for si in range(h):
        for sj in range(w):
            if not mask2d[si, sj] or labels[si, sj]:
                continue
            current += 1
            stack = [(si, sj)]
            labels[si, sj] = current
            while stack:
                i, j = stack.pop()
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ni, nj = i + di, j + dj
                        if 0 <= ni < h and 0 <= nj < w and \
                                mask2d[ni, nj] and not labels[ni, nj]:
                            labels[ni, nj] = current
                            stack.append((ni, nj))
    return labels, current

def _assert_labels_match_flood_fill(mask2d):
    labels, count = _label_components(mask2d)
    ref_labels, ref_count = _flood_fill_labels(mask2d)
    assert count == ref_count
    assert labels.dtype == ref_labels.dtype
    assert labels.tobytes() == ref_labels.tobytes()

@settings(max_examples=400, deadline=None, derandomize=True)
@given(h=st.integers(1, 24), w=st.integers(1, 24), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       pattern=st.sampled_from(["random", "checkerboard", "holed checkerboard"]))
@example(h=1, w=23, density=0.5, seed=0, pattern="random")
@example(h=23, w=1, density=0.5, seed=1, pattern="random")
@example(h=9, w=7, density=1.0, seed=2, pattern="checkerboard")
@example(h=9, w=7, density=1.0, seed=3, pattern="checkerboard")
def test_label_components_match_the_flood_fill(h, w, density, seed, pattern):
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < density
    if pattern != "random":
        # diagonal-only connections: no two mask pixels share an edge
        board = np.add.outer(np.arange(h), np.arange(w)) % 2 == seed % 2
        mask = board if pattern == "checkerboard" else board & mask
    _assert_labels_match_flood_fill(mask)

def test_label_components_match_the_flood_fill_on_mesh_masks():
    for seed in range(100):
        _assert_labels_match_flood_fill(synth_mesh(seed)[0] > 0.5)

def test_mask_rejects_tiny_extents():
    with pytest.raises(ValueError, match=">= 16"):
        synth_mesh(0, height=8, width=8)


# ---------------------------------------------------------------------------
# compositing
# ---------------------------------------------------------------------------

def test_empty_mask_copies_clear_image():
    rng = np.random.default_rng(0)
    y = rng.uniform(size=(1, 20, 20))
    x = apply_mesh(y, np.zeros_like(y), stroke_seed=3)
    np.testing.assert_array_equal(x, y)

def test_full_mask_replaces_image_with_one_gray():
    y = np.random.default_rng(1).uniform(size=(1, 6, 6))
    mask = np.ones_like(y)
    labels, count = _label_components(mask[0] > 0.5)
    assert count == 1
    out = apply_mesh(y, mask, stroke_seed=4)
    assert np.all(out == out[0, 0, 0])
    assert not np.any(out == y)

def test_corruption_support_is_exactly_the_mask():
    rng = np.random.default_rng(2)
    y = rng.uniform(0.35, 0.65, size=(1, 64, 48))  # keep clear of mesh grays
    m = synth_mesh(11)
    x = apply_mesh(y, m, stroke_seed=12)
    off = m == 0.0
    np.testing.assert_array_equal(x[off], y[off])
    assert not np.any(x[m == 1.0] == y[m == 1.0])

def test_mesh_grays_come_from_dark_or_light_bands():
    y = np.full((1, 64, 48), 0.5)
    m = synth_mesh(21)
    x = apply_mesh(y, m, stroke_seed=22)
    on = x[m == 1.0]
    assert np.all((on <= 0.3) | (on >= 0.7))

def test_apply_mesh_rejects_non_binary_mask():
    y = np.zeros((1, 4, 4))
    with pytest.raises(ValueError, match="binary"):
        apply_mesh(y, np.full_like(y, 0.5), stroke_seed=0)


# ---------------------------------------------------------------------------
# graymap i/o
# ---------------------------------------------------------------------------

def test_pgm_round_trip_preserves_quantized_values(tmp_path):
    img = np.random.default_rng(3).uniform(size=(1, 10, 8))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_allclose(back, np.round(img * 255) / 255, atol=1e-12)
    assert back.shape == img.shape


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def test_split_counts_partition_identities():
    assert split_counts(100, (0.8, 0.1, 0.1)) == (80, 10, 10)
    assert sum(split_counts(7, (0.6, 0.2, 0.2))) == 7
    with pytest.raises(ValueError, match="sum to 1"):
        split_counts(10, (0.5, 0.2, 0.2))

def test_dataset_splits_are_identity_disjoint(tmp_path):
    make_dataset(tmp_path / "data", 10, 2, seed=42, ratios=(0.6, 0.2, 0.2))
    rows = read_manifest(tmp_path / "data")
    by_split = {}
    for split, ident, _, _ in rows:
        by_split.setdefault(split, set()).add(ident)
    assert len(by_split["train"]) == 6
    assert len(by_split["val"]) == 2
    assert len(by_split["test"]) == 2
    assert not (by_split["train"] & by_split["val"])
    assert not (by_split["train"] & by_split["test"])
    assert not (by_split["val"] & by_split["test"])

def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()

def test_dataset_is_byte_identical_for_same_seed(tmp_path):
    make_dataset(tmp_path / "a", 4, 2, seed=7)
    make_dataset(tmp_path / "b", 4, 2, seed=7)
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")

def test_dataset_bytes_are_pinned(tmp_path):
    # any change to the component order, the grays or the renders shows here
    make_dataset(tmp_path, 3, 4, seed=0)
    assert _dir_digest(tmp_path) == \
        "f2458f50186143ccec186b8a7e6d7327347222093bc605eba3e1c4a4549860de"

def test_dataset_differs_for_different_seed(tmp_path):
    make_dataset(tmp_path / "a", 3, 1, seed=7)
    make_dataset(tmp_path / "b", 3, 1, seed=8)
    assert _dir_digest(tmp_path / "a") != _dir_digest(tmp_path / "b")

def test_generated_triplets_pass_full_scan_validation(tmp_path):
    make_dataset(tmp_path / "data", 6, 3, seed=11)
    assert validate_dataset(tmp_path / "data") == 18

def test_load_split_round_trips_triplets_and_dailies(tmp_path):
    make_dataset(tmp_path / "data", 5, 2, seed=13, ratios=(0.6, 0.2, 0.2))
    data = load_split(tmp_path / "data", "train")
    assert len(data) == 6  # 3 train identities x 2 samples
    assert set(data.dailies) == set(data.identity)
    x, y, m = data.x[0], data.y[0], data.m[0]
    assert x.shape == y.shape == m.shape == (1, 64, 48)
    off = m == 0.0
    np.testing.assert_array_equal(x[off], y[off])

def test_load_split_stacks_rows_in_manifest_order(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, 5, 3, seed=21, ratios=(0.6, 0.2, 0.2))
    manifest = read_manifest(root)
    for split in SPLITS:
        data = load_split(root, split)
        rows = [(ident, sample) for s, ident, sample, kind in manifest
                if s == split and kind == "triplet"]
        assert list(zip(data.identity, data.sample)) == rows
        assert data.x.shape == data.y.shape == data.m.shape == \
            (len(rows), 1, 64, 48)
        assert (data.x.dtype, data.y.dtype, data.m.dtype) == \
            (np.uint8, np.uint8, bool)
        assert len(data) == len(rows)
        assert data.eyes.shape == (len(rows), 2, 2)
        assert data.eyes.dtype == np.float64
        for i, (ident, sample) in enumerate(rows):
            stem = root / split / ident / sample
            for stack, kind in ((data.x, "x"), (data.y, "y")):
                np.testing.assert_array_equal(
                    to_float(stack[i]), read_pgm(f"{stem}.{kind}.pgm"))
            np.testing.assert_array_equal(
                data.m[i], read_pgm(f"{stem}.m.pgm") > 0.5)
            np.testing.assert_array_equal(
                data.eyes[i], _read_meta(stem.with_suffix(".meta"))[0])
        assert list(data.dailies) == list(dict.fromkeys(data.identity))
        for ident, (image, eyes) in data.dailies.items():
            assert image.dtype == np.uint8
            np.testing.assert_array_equal(
                to_float(image), read_pgm(root / split / ident / "daily.y.pgm"))
            np.testing.assert_array_equal(
                eyes, _read_meta(root / split / ident / "daily.meta")[0])

def test_an_empty_split_loads_as_zero_rows(tmp_path):
    make_dataset(tmp_path / "data", 3, 2, seed=23, ratios=(1.0, 0.0, 0.0))
    data = load_split(tmp_path / "data", "val")
    assert len(data) == 0
    assert data.x.shape == data.y.shape == data.m.shape == (0, 1, 0, 0)
    assert data.eyes.shape == (0, 2, 2)
    assert data.identity == data.sample == []
    assert data.dailies == {}

def test_load_split_of_a_200_by_2_split_holds_bytes_not_floats(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, 200, 2, seed=3, ratios=(0.0, 0.0, 1.0))
    load_split(root, "test")
    tracemalloc.start()
    try:
        data = load_split(root, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.x.shape == (400, 1, 64, 48)
    # float64 stacks of x, y, m and the dailies peaked at 42.6 MiB here;
    # the graymaps at 5.7 MiB
    assert peak < 8 * 2 ** 20

def test_to_float_is_bitwise_read_pgm_for_every_byte(tmp_path):
    every = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    path = tmp_path / "ramp.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + every.tobytes())
    np.testing.assert_array_equal(read_graymap(path), every)
    assert to_float(every).tobytes() == read_pgm(path).tobytes()
    # the split's mask threshold on bytes is the float one
    np.testing.assert_array_equal(every > 127, read_pgm(path) > 0.5)

@pytest.mark.parametrize("name, content, match", [
    pytest.param("daily.y.pgm", b"P5\n16 16\n255\n",
                 "id0001/daily.y.pgm: 0 pixel bytes", id="header-only-graymap"),
    pytest.param("daily.meta", b"identity = id0001\n",
                 "id0001/daily.meta: missing eye", id="meta-without-eyes"),
    pytest.param("daily.meta", b"eyes = 1 5 9 5\nidentity = id0001\n",
                 "train/id0001/daily.meta: eyes out of frame",
                 id="eyes-out-of-frame"),
])
def test_validation_checks_every_daily_photo(tmp_path, name, content, match):
    root = tmp_path / "data"
    make_dataset(root, 2, 2, seed=1, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    (root / "train" / "id0001" / name).write_bytes(content)
    with pytest.raises(DatasetError, match=match):
        validate_dataset(root)

def test_validation_reports_the_first_row_with_eyes_out_of_frame(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, 1, 3, seed=1, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    meta = root / "train" / "id0000" / "s002.meta"
    meta.write_text(re.sub(r"eyes = .*", "eyes = 1 5 9 5", meta.read_text()))
    with pytest.raises(DatasetError,
                       match="^train/id0000/s002: eyes out of frame$"):
        validate_dataset(root)

def test_validation_flags_tampered_dataset(tmp_path):
    make_dataset(tmp_path / "data", 3, 1, seed=17, ratios=(1.0, 0.0, 0.0))
    victim = next((tmp_path / "data" / "train").rglob("s000.x.pgm"))
    mask = read_pgm(victim.with_name("s000.m.pgm"))
    img = read_pgm(victim)
    i, j = np.argwhere(mask[0] == 0.0)[0]
    img[0, i, j] = 1.0 - img[0, i, j]  # tamper an off-mask pixel
    write_pgm(victim, img)
    with pytest.raises(DatasetError):
        validate_dataset(tmp_path / "data")


# ---------------------------------------------------------------------------
# malformed dataset files
# ---------------------------------------------------------------------------

_MANIFEST_HEAD = "split\tidentity\tsample\tkind\n"
_PGM_2X2 = b"P5\n2 2\n255\n\x00\x01\x02\x03"


@pytest.mark.parametrize("name, content, match", [
    pytest.param("s.meta", b"eyes = 1 2 3 4 5\nidentity = a\n",
                 "malformed meta", id="meta-extra-eye-value"),
    pytest.param("s.meta", b"eyes = 1 2 x 4\n", "malformed meta",
                 id="meta-non-numeric-eye"),
    pytest.param("s.meta", b"eyes = 1 2 3 4\njitter_seed = 1.5\n",
                 "malformed meta", id="meta-non-integer-seed"),
    pytest.param("s.meta", b"eyes = 1 2 3 4\nidentity = \xff\n",
                 "malformed meta", id="meta-not-utf8"),
    pytest.param("s.meta", b"eyes = 1 nan 3 4\n", "non-finite",
                 id="meta-nan-eye"),
    pytest.param("s.meta", b"identity = a\n", "missing eye",
                 id="meta-no-eyes"),
    pytest.param("s.meta", b"eyes = 1 2 3 4\neyes = 5 6 7 8\n",
                 "line 2: duplicate key 'eyes'", id="meta-duplicate-key"),
    pytest.param("s.meta", b"eyes = 1 2 3 4\nnote\n",
                 "line 2: expected 'key = value'", id="meta-line-without-equals"),
    pytest.param("s.pgm", _PGM_2X2[:-1], "pixel bytes", id="pgm-truncated"),
    pytest.param("s.pgm", b"P5\n2 x\n255\n\x00\x01\x02\x03", "header",
                 id="pgm-non-integer-height"),
    pytest.param("s.pgm", b"P5\n2 2.0\n255\n\x00\x01\x02\x03", "header",
                 id="pgm-fractional-height"),
    pytest.param("s.pgm", b"P5\n# comment without end", "header",
                 id="pgm-unterminated-comment"),
    pytest.param("s.pgm", b"P5\n0 2\n255\n", "pixel bytes",
                 id="pgm-zero-width"),
    pytest.param("s.pgm", b"P5\n2 2\n65535\n" + bytes(8), "maxval",
                 id="pgm-16-bit"),
    pytest.param("manifest.tsv",
                 (_MANIFEST_HEAD + "train\tid0000\ts000\n").encode(),
                 "expected split", id="manifest-three-fields"),
    pytest.param("manifest.tsv",
                 (_MANIFEST_HEAD + "tra\tid0000\ts000\ttriplet\n").encode(),
                 "expected split", id="manifest-unknown-split"),
    pytest.param("manifest.tsv",
                 _MANIFEST_HEAD.encode() + b"train\tid\xff\ts\tdaily\n",
                 "UTF-8", id="manifest-not-utf8"),
    pytest.param("manifest.tsv",
                 (_MANIFEST_HEAD + "train\tid\x00\ts000\ttriplet\n").encode(),
                 "expected split", id="manifest-nul-in-identity"),
    pytest.param("manifest.tsv", b"train\tid0000\ts000\ttriplet\n",
                 "manifest.tsv:1: expected the header", id="manifest-no-header"),
])
def test_malformed_dataset_files_raise_dataset_error(tmp_path, name, content,
                                                     match):
    path = tmp_path / name
    path.write_bytes(content)
    reader = {"s.meta": _read_meta, "s.pgm": read_pgm,
              "manifest.tsv": lambda p: read_manifest(p.parent)}[name]
    with pytest.raises(DatasetError, match=match):
        reader(path)


def test_a_manifest_that_is_a_directory_raises_dataset_error(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.mkdir()
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}: cannot read manifest: Is a directory")):
        read_manifest(tmp_path)


def test_a_meta_file_with_comments_loads(tmp_path):
    path = tmp_path / "s.meta"
    path.write_bytes(b"# eye centers in pixels\neyes = 10 10 20 10  # x y x y\n"
                     b"\nidentity = id0\njitter_seed = 3\n")
    eyes, identity, seeds = _read_meta(path)
    assert eyes.tolist() == [[10.0, 10.0], [20.0, 10.0]]
    assert (identity, seeds) == ("id0", {"jitter_seed": 3})


@pytest.mark.parametrize("missing", ["s000.x.pgm", "s000.meta"])
def test_manifest_row_naming_missing_files_raises_dataset_error(tmp_path,
                                                                missing):
    root = tmp_path / "data"
    make_dataset(root, 2, 1, seed=23, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    victim = root / "train" / "id0001" / missing
    victim.unlink()
    for scan in (validate_dataset, lambda r: load_split(r, "train")):
        with pytest.raises(DatasetError, match=re.escape(f"{victim}: cannot read")):
            scan(root)


@pytest.mark.parametrize("name", ["s001.x", "s001.y", "s001.m", "daily.y"])
def test_a_graymap_of_another_extent_raises_dataset_error(tmp_path, name):
    root = tmp_path / "data"
    make_dataset(root, 2, 2, seed=1, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    victim = root / "train" / "id0001" / f"{name}.pgm"
    write_pgm(victim, np.zeros((12, 8)))
    match = re.escape(f"{victim}: 8x12 graymap, the split's first image is 16x16")
    with pytest.raises(DatasetError, match=match):
        validate_dataset(root)
    with pytest.raises(DatasetError, match=match):
        load_split(root, "train")


def test_a_mask_byte_other_than_0_or_255_raises_dataset_error(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, 2, 2, seed=1, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    victim = root / "train" / "id0001" / "s001.m.pgm"
    blob = bytearray(victim.read_bytes())
    blob[-1] = 128
    victim.write_bytes(bytes(blob))
    for scan in (validate_dataset, lambda r: load_split(r, "train")):
        with pytest.raises(DatasetError, match=re.escape(
                f"{victim}: mask is not binary")):
            scan(root)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "data"
    make_dataset(root, 1, 1, seed=19, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    return root


_FUZZED_FILES = {
    "train/id0000/s000.x.pgm": read_pgm,
    "train/id0000/s000.meta": _read_meta,
    "manifest.tsv": lambda p: read_manifest(p.parent),
}


def _mutated(blob: bytes, data) -> bytes:
    """``blob`` truncated, or with one to three bytes flipped."""
    blob = bytearray(blob)
    if data.draw(st.booleans()):
        return bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    for _ in range(data.draw(st.integers(1, 3))):
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
    return bytes(blob)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FUZZED_FILES)), st.data())
def test_dataset_file_byte_flips_and_truncations_read_or_raise_dataset_error(
        small_dataset, tmp_path_factory, rel, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_mutated((small_dataset / rel).read_bytes(), data))
    try:
        _FUZZED_FILES[rel](path)
    except DatasetError:
        pass


@pytest.fixture(scope="module")
def pair_dataset(tmp_path_factory):
    """One identity with two triplets and a daily photo."""
    root = tmp_path_factory.mktemp("pair") / "data"
    make_dataset(root, 1, 2, seed=29, ratios=(1.0, 0.0, 0.0), height=16,
                 width=16)
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_dataset_with_one_mutated_file_validates_or_raises_dataset_error(
        pair_dataset, tmp_path_factory, data):
    files = sorted(str(p.relative_to(pair_dataset))
                   for p in pair_dataset.rglob("*") if p.is_file())
    rel = data.draw(st.sampled_from(files))
    root = tmp_path_factory.getbasetemp() / "fuzzed-pair"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(pair_dataset, root)
    (root / rel).write_bytes(_mutated((pair_dataset / rel).read_bytes(), data))
    try:
        validate_dataset(root)
    except DatasetError:
        pass


def test_make_dataset_removes_a_split_symlink_without_following_it(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("kept")
    root = tmp_path / "d"
    root.mkdir()
    (root / "train").symlink_to(outside, target_is_directory=True)
    make_dataset(root, 2, 1, seed=0, ratios=(1.0, 0.0, 0.0))
    assert (outside / "keep.txt").read_text() == "kept"
    assert not (root / "train").is_symlink()
    assert sorted(p.name for p in (root / "train").iterdir()) == \
        ["id0000", "id0001"]
