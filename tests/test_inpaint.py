import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demesh.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from demesh.featnet import FeatureSpec, build_phi, load_phi, save_phi
from demesh.inpaint import (InpaintNet, InpaintSpec, build_psi, load_psi,
                            save_psi)
from demesh.layers import NoRecordError, Param, ShapeError, grad_check
from demesh.losses import LossConfig, unified_loss

SMALL = InpaintSpec(height=8, width=8, widths=(4, 6), kernel=3)


def test_same_seed_builds_bitwise_identical_parameters():
    a = build_psi(SMALL, seed=5)
    b = build_psi(SMALL, seed=5)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.value, pb.value)

def test_different_seed_builds_different_parameters():
    a = build_psi(SMALL, seed=5)
    b = build_psi(SMALL, seed=6)
    assert any(not np.array_equal(pa.value, pb.value)
               for pa, pb in zip(a.params(), b.params()))

def test_output_shape_equals_input_shape_for_default_spec():
    net = build_psi(InpaintSpec(), seed=0)
    x = np.random.default_rng(0).uniform(size=(2, 1, 64, 48))
    assert net.forward(x).shape == x.shape

def test_parameter_count_matches_hand_computed_sum():
    # conv params = out*(in*k*k) + out, summed over enc 1->16->32 and
    # dec 32->16->1 with 3x3 kernels
    net = build_psi(InpaintSpec(), seed=0)
    expected = 0
    for cin, cout in [(1, 16), (16, 32), (32, 16), (16, 1)]:
        expected += cout * cin * 9 + cout
    assert sum(p.value.size for p in net.params()) == expected

def test_indivisible_extents_rejected():
    with pytest.raises(ShapeError, match="divisible"):
        build_psi(InpaintSpec(height=62, width=48, widths=(16, 32)), seed=0)

def test_forward_output_is_in_unit_interval():
    net = build_psi(SMALL, seed=1)
    x = np.random.default_rng(1).uniform(size=(3, 1, 8, 8))
    out = net.forward(x)
    assert out.min() >= 0.0 and out.max() <= 1.0

def test_untrained_net_on_zero_input_is_finite():
    net = build_psi(SMALL, seed=2)
    out = net.forward(np.zeros((1, 1, 8, 8)))
    assert np.all(np.isfinite(out))

def test_shape_mismatch_raises():
    net = build_psi(SMALL, seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 1, 8, 10)))

def test_end_to_end_gradient_matches_finite_differences():
    tiny = InpaintSpec(height=4, width=4, widths=(3,), kernel=3)
    net = build_psi(tiny, seed=3)
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(1, 1, 4, 4))

    def fn(x):
        out = net.forward(x)
        net.zero_grads()
        grad = net.backward(weights)
        return float(np.sum(out * weights)), grad

    assert grad_check(fn, rng.uniform(size=(1, 1, 4, 4))).passed

def test_backward_without_input_gradient_gives_bitwise_the_parameter_grads():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(3, 1, 8, 8))
    weights = rng.normal(size=(3, 1, 8, 8))
    full, partial = build_psi(SMALL, seed=5), build_psi(SMALL, seed=5)
    full.forward(x)
    assert full.backward(weights).shape == x.shape
    partial.forward(x)
    assert partial.backward(weights, input_grad=False) is None
    for a, b in zip(full.params(), partial.params()):
        assert a.grad.any() and a.grad.tobytes() == b.grad.tobytes()

def test_single_stage_spec_builds_and_runs():
    spec = InpaintSpec(height=6, width=4, widths=(4,), kernel=3)
    net = build_psi(spec, seed=0)
    out = net.forward(np.random.default_rng(2).uniform(size=(1, 1, 6, 4)))
    assert out.shape == (1, 1, 6, 4)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    net = build_psi(SMALL, seed=7)
    path = tmp_path / "psi.ckpt"
    save_psi(net, path)
    loaded = load_psi(path)
    assert loaded.spec == net.spec
    for pa, pb in zip(net.params(), loaded.params()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.value, pb.value)

def test_checkpoint_file_layout(tmp_path):
    path = tmp_path / "one.ckpt"
    save_checkpoint(path, "kind = test\n", [Param("w", np.arange(3.0))])
    blob = path.read_bytes()
    assert blob[:4] == b"DMSH"
    assert int.from_bytes(blob[4:8], "little") == 1
    arch_text, records = load_checkpoint(path)
    assert arch_text == "kind = test\n"
    name, frozen, value = records[0]
    assert name == "w" and frozen is False
    np.testing.assert_array_equal(value, [0.0, 1.0, 2.0])

def test_checkpoint_preserves_frozen_flag(tmp_path):
    p = Param("w", np.ones(2), frozen=True)
    path = tmp_path / "frozen.ckpt"
    save_checkpoint(path, "", [p])
    _, records = load_checkpoint(path)
    assert records[0][1] is True

def test_checkpoint_excludes_optimizer_state(tmp_path):
    net = build_psi(SMALL, seed=8)
    for p in net.params():
        p.m[...] = 123.0
        p.step = 9
    path = tmp_path / "no_adam.ckpt"
    save_psi(net, path)
    loaded = load_psi(path)
    assert all(p.step == 0 and not p.m.any() for p in loaded.params())

def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)

@pytest.fixture(scope="module")
def blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "two.ckpt"
    save_checkpoint(path, "kind = test\n", [
        Param("w", np.arange(6.0).reshape(2, 3)),
        Param("b", np.ones(2), frozen=True)])
    return path.read_bytes()

def test_checkpoint_truncated_anywhere_raises_checkpoint_error(blob, tmp_path):
    path = tmp_path / "cut.ckpt"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

@pytest.mark.parametrize("offset, value, match", [
    (8, struct.pack("<I", 2**32 - 1), "arch text"),       # arch length
    (12, b"\xff", "not utf-8"),                           # arch text
    (32, b"\xfe", "not utf-8"),                           # first name
    (34, struct.pack("<I", 2**31), "shape"),              # first ndim
    (38, struct.pack("<I", 2**30), "data"),               # first extent
])
def test_checkpoint_corrupt_fields_raise_checkpoint_error(blob, tmp_path,
                                                          offset, value, match):
    assert blob[12:23] == b"kind = test" and blob[32:33] == b"w"
    bad = bytearray(blob)
    bad[offset:offset + len(value)] = value
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_checkpoint_byte_flips_load_or_raise_checkpoint_error(blob, tmp_path_factory,
                                                              data):
    flipped = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
    path = tmp_path_factory.getbasetemp() / "flipped.ckpt"
    path.write_bytes(bytes(flipped))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass

def test_default_arch_texts_are_pinned(tmp_path):
    save_phi(build_phi("fixed_random", seed=0), tmp_path / "phi.ckpt")
    save_psi(build_psi(InpaintSpec(), seed=0), tmp_path / "psi.ckpt")
    assert load_checkpoint(tmp_path / "phi.ckpt")[0] == (
        "kind = feature\ncrop = 32\nwidths = 16,32\nfeature_width = 64\n")
    assert load_checkpoint(tmp_path / "psi.ckpt")[0] == (
        "kind = inpaint\nheight = 64\nwidth = 48\nwidths = 16,32\nkernel = 3\n")


PHI_SMALL = FeatureSpec(crop=8, widths=(4,), feature_width=8)


@pytest.fixture(scope="module")
def net_blobs(tmp_path_factory):
    """A real ψ and φ checkpoint's bytes, with the loader of each."""
    d = tmp_path_factory.mktemp("nets")
    save_psi(build_psi(SMALL, seed=3), d / "psi.ckpt")
    save_phi(build_phi("fixed_random", seed=4, spec=PHI_SMALL), d / "phi.ckpt")
    return {"psi": (load_psi, (d / "psi.ckpt").read_bytes()),
            "phi": (load_phi, (d / "phi.ckpt").read_bytes())}


def _arch(blob: bytes) -> bytes:
    return blob[12:12 + int.from_bytes(blob[8:12], "little")]


def _with_arch(blob: bytes, arch: bytes) -> bytes:
    return blob[:8] + struct.pack("<I", len(arch)) + arch + blob[12 + len(_arch(blob)):]


@pytest.mark.parametrize("net, old, new, match", [
    ("phi", b"crop = 8", b"crxp = 8", "unknown config key 'crxp'"),
    ("phi", b"crop = 8", b"crop = 3x", "crop = 3x"),
    ("phi", b"feature_width = 8\n", b"", "key is missing"),
    ("phi", b"kind = feature", b"kind = inpaint", "names a 'inpaint' net"),
    ("psi", b"kind = inpaint\n", b"", "names a None net"),
    ("psi", b"kernel = 3", b"kernel = 4", "kernel must be odd"),
    ("psi", b"widths = 4,6", b"widths = 4, 6", "canonical"),
], ids=["unknown-key", "bad-int", "missing-key", "wrong-kind", "no-kind",
        "invalid-spec", "non-canonical"])
def test_a_bad_arch_text_raises_checkpoint_error_naming_the_path(
        net_blobs, tmp_path, net, old, new, match):
    load, blob = net_blobs[net]
    assert old in _arch(blob)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_with_arch(blob, _arch(blob).replace(old, new)))
    with pytest.raises(CheckpointError, match=match) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: ")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["phi", "psi"]), st.data())
def test_arch_text_byte_flips_and_truncations_load_or_raise_checkpoint_error(
        net_blobs, tmp_path_factory, net, data):
    load, blob = net_blobs[net]
    arch = bytearray(_arch(blob))
    if data.draw(st.booleans()):
        arch = arch[:data.draw(st.integers(0, len(arch) - 1))]
    else:
        arch[data.draw(st.integers(0, len(arch) - 1))] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.getbasetemp() / f"arch_{net}.ckpt"
    path.write_bytes(_with_arch(blob, bytes(arch)))
    try:
        load(path)
    except CheckpointError:
        pass


@pytest.mark.parametrize("load", [load_psi, load_phi], ids=["psi", "phi"])
@pytest.mark.parametrize("make, reason", [
    pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
    pytest.param(lambda path: None, "No such file or directory",
                 id="missing")])
def test_a_checkpoint_that_cannot_be_read_raises_checkpoint_error(
        tmp_path, load, make, reason):
    path = tmp_path / "net.ckpt"
    make(path)
    with pytest.raises(CheckpointError) as err:
        load(path)
    assert str(err.value) == f"{path}: cannot read checkpoint: {reason}"


@pytest.mark.parametrize("net, name", [("psi", "enc1.weight"),
                                       ("phi", "conv1.bias")])
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_a_non_finite_parameter_raises_checkpoint_error_naming_it(
        net_blobs, tmp_path, net, name, bad):
    load, blob = net_blobs[net]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    loaded = load(path)
    param = next(p for p in loaded.params() if p.name == name)
    param.value.flat[-1] = bad
    (save_psi if net == "psi" else save_phi)(loaded, path)
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: parameter '{name}' holds non-finite values")):
        load(path)


@pytest.fixture(scope="module")
def default_phi_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("phi") / "phi.ckpt"
    save_phi(build_phi("fixed_random", 0), path)
    return path


def test_loading_the_default_phi_holds_one_copy_of_the_file(default_phi_path):
    load_phi(default_phi_path)  # one-time allocations do not count
    tracemalloc.start()
    try:
        load_phi(default_phi_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6.4 MB (6.0x the 1.07 MB file) when the load built φ with random
    # weights, gradients and Adam moments, then copied every record in;
    # 2.0x when each parameter adopted its record but the whole file's
    # bytes stayed alive while every record was copied out of them
    assert peak < 1.3 * default_phi_path.stat().st_size


def test_a_wider_arch_text_fails_before_allocating_its_shapes(
        default_phi_path, tmp_path):
    blob = default_phi_path.read_bytes()
    path = tmp_path / "wide.ckpt"
    path.write_bytes(_with_arch(blob, _arch(blob).replace(b"widths = 16,32",
                                                          b"widths = 400")))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=r"'conv1\.weight' has shape "
                           r"\(16, 1, 3, 3\), expected \(400, 1, 3, 3\)"):
            load_phi(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 263 MB (246x the file) when the net was built at the header's widths
    # before the first record was compared
    assert peak < 3 * path.stat().st_size

def test_save_is_deterministic(tmp_path):
    net = build_psi(SMALL, seed=9)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_psi(net, p1)
    save_psi(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# record-free (inference) forward
# ---------------------------------------------------------------------------

_RECORDS = ("_x", "_mask", "_y", "_xf", "indices")


def _records(net):
    return [getattr(layer, name) for layer in net.layers
            for name in _RECORDS if hasattr(layer, name)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.sampled_from([SMALL, InpaintSpec(8, 4, (3,), 3),
                             InpaintSpec(8, 8, (2, 2, 2), 1)]),
       n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       levels=st.sampled_from([0, 3]))
def test_record_free_forward_is_bitwise_the_recording_forward(spec, n, seed,
                                                              levels):
    net = build_psi(spec, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1, spec.height, spec.width))
    if levels:  # few gray levels, so pooling windows tie
        x = np.round(x * levels) / levels
    recorded = net.forward(x)
    free = net.forward(x, keep=False)
    assert free.tobytes() == recorded.tobytes()
    assert all(r is None for r in _records(net))
    assert net.forward(x).tobytes() == recorded.tobytes()


def test_backward_after_a_record_free_forward_raises():
    net = build_psi(SMALL, seed=2)
    x = np.random.default_rng(0).uniform(size=(2, 1, 8, 8))
    net.forward(x)
    out = net.forward(x, keep=False)
    with pytest.raises(NoRecordError):
        net.backward(np.ones_like(out))


def test_backward_drops_every_record_it_reads():
    net = build_psi(SMALL, seed=2)
    out = net.forward(np.random.default_rng(0).uniform(size=(2, 1, 8, 8)))
    net.backward(np.ones_like(out))
    assert all(r is None for r in _records(net))
    with pytest.raises(NoRecordError):
        net.backward(np.ones_like(out))


def test_a_default_training_step_peaks_below_8_mib():
    """One default ψ step (forward, unified loss, backward) at batch 8:
    each conv drops its input and patch buffer before its input gradient
    is allocated, and each decoder conv unpools one image at a time (10.2
    MiB while a separate unpool layer made the batch's unpooled map)."""
    rng = np.random.default_rng(0)
    net = build_psi(InpaintSpec(), seed=1)
    phi = build_phi("fixed_random", seed=2)
    x, y = rng.uniform(size=(2, 8, 1, 64, 48))
    mask = rng.uniform(size=x.shape) < 0.2
    eyes = np.array([[[16.0 + i % 3, 26.0], [32.0 - i % 2, 26.5]]
                     for i in range(8)])

    def step():
        pred = net.forward(x)
        ul = unified_loss(pred, y, mask, eyes, phi, LossConfig())
        net.zero_grads()
        net.backward(ul.grad, input_grad=False)

    step()  # one-time allocations do not count
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_record_free_forward_holds_nothing_beyond_its_output():
    net = build_psi(InpaintSpec(), seed=0)
    xs = np.random.default_rng(0).uniform(size=(64, 1, 64, 48))
    net.forward(xs[:2], keep=False)
    tracemalloc.start()
    try:
        out = net.forward(xs, keep=False)
        held = tracemalloc.get_traced_memory()[0] - out.nbytes
    finally:
        tracemalloc.stop()
    assert held < 2 * 2 ** 20
