import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demesh.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from demesh.inpaint import (InpaintNet, InpaintSpec, build_psi, load_psi,
                            save_psi)
from demesh.layers import NoRecordError, Param, ShapeError, grad_check

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
    assert net.param_count() == expected

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

def test_pooled_net_sees_farther_than_pool_free_conv_stack():
    net = build_psi(InpaintSpec(), seed=0)
    n_convs = 4
    pool_free_rf = 1 + n_convs * (3 - 1)
    assert net.receptive_field() > pool_free_rf

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
