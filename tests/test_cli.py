import errno
import hashlib
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demesh
from demesh import atomic, checkpoint, cli
from demesh.cli import main
from demesh.facegen import make_dataset, read_pgm, write_pgm
from demesh.featnet import FeatureSpec, build_phi, load_phi, save_phi
from demesh.inpaint import load_psi, save_psi
from demesh.trainer import TrainConfig, format_config


def run_cli(*argv):
    return main(list(argv))


def write_tiny_config(path: Path, dataset: Path, **overrides) -> TrainConfig:
    base = dict(
        variant="fcnw", dataset=str(dataset), batch_size=4, lr=1e-3,
        lr_decay_factor=0.1, lr_decay_interval=40, total_steps=12,
        init_seed=3, data_seed=4, val_interval=50, arch_widths=(8, 12),
        kernel=3, crop=16, phi_mode="fixed_random", phi_seed=9,
        phi_widths=(8, 16), phi_feature_width=32,
    )
    base.update(overrides)
    cfg = TrainConfig(**base)
    path.write_text(format_config(cfg))
    return cfg


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    make_dataset(root, 8, 4, seed=55, ratios=(0.5, 0.25, 0.25),
                 height=32, width=24)
    return root


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_writes_manifest_with_expected_row_count(tmp_path, capsys):
    assert run_cli("gen-data", "--out", str(tmp_path / "d"), "--identities",
                   "5", "--per-id", "3", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "triplets = 15" in out
    manifest = (tmp_path / "d" / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 1 + 15 + 5  # header + triplets + dailies

def test_gen_data_same_seed_gives_identical_manifest_digest(tmp_path):
    for name in ("a", "b"):
        assert run_cli("gen-data", "--out", str(tmp_path / name),
                       "--identities", "4", "--per-id", "2", "--seed", "9") == 0
    digest = lambda p: hashlib.sha256((p / "manifest.tsv").read_bytes()).hexdigest()
    assert digest(tmp_path / "a") == digest(tmp_path / "b")

def test_gen_data_refuses_nonempty_dir_without_force(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    (target / "junk.txt").write_text("x")
    assert run_cli("gen-data", "--out", str(target), "--identities", "2",
                   "--per-id", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileExistsError:")
    assert err.count("\n") == 1
    assert run_cli("gen-data", "--out", str(target), "--identities", "2",
                   "--per-id", "1", "--force") == 0

def layout_digest(root):
    """sha256 over the relative path and bytes of every file the dataset
    layout owns under ``root``."""
    h = hashlib.sha256()
    owned = [root / "manifest.tsv"]
    owned += sorted(p for split in ("train", "val", "test")
                    for p in (root / split).rglob("*") if p.is_file())
    for path in owned:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()

def test_gen_data_force_leaves_nothing_of_the_old_dataset(tmp_path):
    target, fresh = tmp_path / "d", tmp_path / "fresh"
    assert run_cli("gen-data", "--out", str(target), "--identities", "4",
                   "--per-id", "3", "--split", "0.5,0.25,0.25") == 0
    (target / "notes.txt").write_text("kept")
    for out, extra in ((target, ["--force"]), (fresh, [])):
        assert run_cli("gen-data", "--out", str(out), "--identities", "2",
                       "--per-id", "2", *extra) == 0
    assert layout_digest(target) == layout_digest(fresh)
    files = sorted(p.relative_to(target) for p in target.rglob("*")
                   if p.is_file())
    assert len(files) == 21 + 1  # the fresh layout, plus the unrelated file
    assert (target / "notes.txt").read_text() == "kept"

def test_gen_data_reports_a_truncated_daily_photo_on_one_line(
        tmp_path, capsys, monkeypatch):
    def make_then_truncate(out, *args):
        manifest = make_dataset(out, *args)
        daily = out / "train" / "id0001" / "daily.y.pgm"
        daily.write_bytes(daily.read_bytes()[:len(b"P5\n16 16\n255\n")])
        return manifest

    monkeypatch.setattr(cli, "make_dataset", make_then_truncate)
    assert run_cli("gen-data", "--out", str(tmp_path / "d"), "--identities",
                   "2", "--per-id", "1", "--split", "1,0,0", "--height", "16",
                   "--width", "16") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError: ")
    assert "id0001/daily.y.pgm: 0 pixel bytes" in err[0]


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_all_modules_pass(capsys):
    assert run_cli("gradcheck", "--module", "all", "--points", "2") == 0
    out = capsys.readouterr().out
    assert "unified_loss: PASS" in out
    assert "FAIL" not in out

def test_gradcheck_stn_covers_sampler_and_alignment(capsys):
    assert run_cli("gradcheck", "--module", "stn", "--points", "2") == 0
    out = capsys.readouterr().out
    assert "bilinear_backward" in out and "alignment_sample" in out

def test_gradcheck_sabotage_is_detected(capsys):
    assert run_cli("gradcheck", "--module", "layers", "--points", "1",
                   "--sabotage") == 1
    captured = capsys.readouterr()
    assert "conv_input: FAIL" in captured.out
    assert captured.err.startswith("error: AssertionError:")

@pytest.mark.parametrize("argv", [("--points", "0"),
                                  ("--points", "-3", "--sabotage")])
def test_gradcheck_fails_below_one_point(capsys, argv):
    assert run_cli("gradcheck", "--module", "layers", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ")


# ---------------------------------------------------------------------------
# train / eval round trip
# ---------------------------------------------------------------------------

def test_train_then_eval_matches_ablation_row(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset)
    train_out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out",
                   str(train_out), "--phi", str(tmp_path / "phi.ckpt")) == 0
    assert (train_out / "fcnw.ckpt").exists()

    eval_out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", str(train_out / "fcnw.ckpt"),
                   "--data", str(dataset), "--phi", str(tmp_path / "phi.ckpt"),
                   "--out", str(eval_out)) == 0
    file_row = (eval_out / "report_fcnw.tsv").read_text().splitlines()[1]

    abl_out = tmp_path / "abl"
    assert run_cli("ablation", "--config", str(cfg_path), "--out",
                   str(abl_out)) == 0
    # the file-mediated path and the in-process matrix agree row for row,
    # because phi construction and training are deterministic from the config
    table = {line.split("\t")[0]: line for line in
             (abl_out / "ablation.tsv").read_text().splitlines()[1:]}
    assert file_row == table["fcnw"]

def test_train_is_deterministic_across_invocations(dataset, tmp_path):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="fcne", total_steps=8)
    for name in ("r1", "r2"):
        assert run_cli("train", "--config", str(cfg_path), "--out",
                       str(tmp_path / name)) == 0
    a = (tmp_path / "r1" / "fcne.ckpt").read_bytes()
    b = (tmp_path / "r2" / "fcne.ckpt").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# inpaint
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_checkpoint(dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg_path = tmp / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="fcne", total_steps=40)
    assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp)) == 0
    return tmp / "fcne.ckpt"

def test_inpaint_writes_a_graymap_and_reports_psnr(dataset, trained_checkpoint,
                                                   tmp_path, capsys):
    sample_dir = next((Path(dataset) / "test").glob("id*"))
    out_img = tmp_path / "recovered.pgm"
    assert run_cli("inpaint", "--checkpoint", str(trained_checkpoint),
                   "--in", str(sample_dir / "s000.x.pgm"),
                   "--out", str(out_img),
                   "--truth", str(sample_dir / "s000.y.pgm")) == 0
    out = capsys.readouterr().out
    assert "psnr_db = " in out
    assert float(out.split("psnr_db = ")[1].split()[0]) > 0
    img = read_pgm(out_img)
    assert img.shape == (1, 32, 24)

def test_inpaint_accepts_its_own_output_again(trained_checkpoint, dataset,
                                              tmp_path):
    sample_dir = next((Path(dataset) / "test").glob("id*"))
    first = tmp_path / "first.pgm"
    second = tmp_path / "second.pgm"
    assert run_cli("inpaint", "--checkpoint", str(trained_checkpoint),
                   "--in", str(sample_dir / "s000.x.pgm"), "--out",
                   str(first)) == 0
    assert run_cli("inpaint", "--checkpoint", str(trained_checkpoint),
                   "--in", str(first), "--out", str(second)) == 0
    assert second.exists()

def test_inpaint_writes_write_pgms_bytes_whole_or_not_at_all(
        trained_checkpoint, dataset, tmp_path, monkeypatch, capsys):
    infile = next((Path(dataset) / "test").glob("id*")) / "s000.x.pgm"
    out, ref = tmp_path / "out.pgm", tmp_path / "ref.pgm"
    inpaint = ("inpaint", "--checkpoint", str(trained_checkpoint), "--in",
               str(infile), "--out", str(out))
    assert run_cli(*inpaint) == 0
    net = load_psi(trained_checkpoint)
    write_pgm(ref, net.forward(read_pgm(infile)[None], keep=False)[0])
    assert out.read_bytes() == ref.read_bytes()

    def replace(src, dst):
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(atomic.os, "replace", replace)
    out.write_bytes(b"the previous contents")
    assert run_cli(*inpaint) == 1
    assert capsys.readouterr().err.startswith("error: OSError: ")
    assert out.read_bytes() == b"the previous contents"
    assert sorted(tmp_path.iterdir()) == [out, ref]  # no temp file

def test_inpaint_rejects_wrong_extent(trained_checkpoint, tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    write_pgm(bad, np.zeros((1, 16, 16)))
    assert run_cli("inpaint", "--checkpoint", str(trained_checkpoint),
                   "--in", str(bad), "--out", str(tmp_path / "o.pgm")) == 1
    assert "does not match" in capsys.readouterr().err

@pytest.mark.parametrize("keep", [10, 0.5])
def test_inpaint_reports_a_truncated_checkpoint_on_one_line(
        trained_checkpoint, dataset, tmp_path, capsys, keep):
    blob = trained_checkpoint.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:keep if isinstance(keep, int) else len(blob) // 2])
    sample_dir = next((Path(dataset) / "test").glob("id*"))
    assert run_cli("inpaint", "--checkpoint", str(cut),
                   "--in", str(sample_dir / "s000.x.pgm"),
                   "--out", str(tmp_path / "o.pgm")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: CheckpointError: ")

@pytest.mark.parametrize("net, name", [("psi", "enc1.weight"),
                                       ("phi", "fc.weight")])
def test_eval_reports_a_non_finite_parameter_on_one_line(
        trained_checkpoint, dataset, tmp_path, capsys, net, name):
    psi, phi = tmp_path / "psi.ckpt", tmp_path / "phi.ckpt"
    shutil.copyfile(trained_checkpoint, psi)
    save_phi(build_phi("fixed_random", seed=9, spec=FeatureSpec(
        crop=16, widths=(8, 16), feature_width=32)), phi)
    path, load, save = (psi, load_psi, save_psi) if net == "psi" \
        else (phi, load_phi, save_phi)
    loaded = load(path)
    next(p for p in loaded.params() if p.name == name).value[0] = np.nan
    save(loaded, path)
    assert run_cli("eval", "--checkpoint", str(psi), "--data", str(dataset),
                   "--phi", str(phi), "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: CheckpointError: {path}: parameter '{name}' "
                   f"holds non-finite values"]

@pytest.mark.parametrize("command", ["eval", "train"])
def test_a_phi_with_the_older_arch_header_fails_on_one_line(
        trained_checkpoint, dataset, tmp_path, capsys, command):
    # the header φ was saved with while its spec held two crop extents and
    # a kernel; the parameter records are as today's
    phi = tmp_path / "phi.ckpt"
    save_phi(build_phi("fixed_random", seed=9, spec=FeatureSpec(
        crop=16, widths=(8, 16), feature_width=32)), phi)
    blob = phi.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    old = (b"kind = feature\nin_h = 16\nin_w = 16\nwidths = 8,16\n"
           b"kernel = 3\nfeature_width = 32\n")
    phi.write_bytes(blob[:8] + struct.pack("<I", len(old)) + old
                    + blob[12 + n:])
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(trained_checkpoint),
                "--data", str(dataset)]
    else:
        cfg_path = tmp_path / "config.txt"
        write_tiny_config(cfg_path, dataset, variant="demesh", total_steps=2)
        argv = ["train", "--config", str(cfg_path)]
    assert run_cli(*argv, "--phi", str(phi), "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: CheckpointError: {phi}: bad arch text: unknown config key "
        f"'in_h' in 'in_h = 16'"]
    assert not out.exists()

def test_inpaint_reports_a_truncated_graymap_on_one_line(
        trained_checkpoint, dataset, tmp_path, capsys):
    sample_dir = next((Path(dataset) / "test").glob("id*"))
    blob = (sample_dir / "s000.x.pgm").read_bytes()
    cut = tmp_path / "cut.pgm"
    cut.write_bytes(blob[:len(blob) // 2])
    assert run_cli("inpaint", "--checkpoint", str(trained_checkpoint),
                   "--in", str(cut), "--out", str(tmp_path / "o.pgm")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError: ")

def test_train_reports_a_graymap_of_another_extent_on_one_line(
        dataset, tmp_path, capsys):
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    victim = next((copy / "train").glob("id*")) / "s001.y.pgm"
    write_pgm(victim, np.zeros((12, 8)))
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, copy)
    assert run_cli("train", "--config", str(cfg_path), "--out",
                   str(tmp_path / "run")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError: ")
    assert "8x12 graymap" in err[0]

@pytest.mark.parametrize("override", [
    {"val_interval": 0}, {"lr": -1.0}, {"c_fraction": 0.0},
    {"weight_decay": -1.0}, {"weight_decay": float("nan")},
    {"lambda_mask": float("nan")}, {"lambda_feature": float("inf")},
    {"lambda_feature": float("nan")}])
def test_train_rejects_a_bad_config_on_one_line_before_building_phi(
        dataset, tmp_path, capsys, override):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="demesh", **override)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: ")
    assert next(iter(override)) in err[0]
    assert not (out / "phi.ckpt").exists()

@pytest.mark.parametrize("text, match", [
    (b"total_steps = 2\nvariant = fcn\xe9\n", "can't decode byte 0xe9"),
    (b"batch_size = 8x\n", "'batch_size' in 'batch_size = 8x'"),
], ids=["non-utf8", "bad-int"])
def test_train_reports_an_unreadable_config_on_one_line(tmp_path, capsys,
                                                        text, match):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_bytes(text)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {cfg_path}: ")
    assert match in err[0]
    assert not out.exists()

@pytest.mark.parametrize("command", ["train", "ablation"])
@pytest.mark.parametrize("make, reason", [
    pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
    pytest.param(lambda path: None, "No such file or directory",
                 id="missing")])
def test_a_config_that_cannot_be_read_fails_on_one_line(tmp_path, capsys,
                                                        command, make, reason):
    cfg_path = tmp_path / "config.txt"
    make(cfg_path)
    out = tmp_path / "run"
    assert run_cli(command, "--config", str(cfg_path), "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: ConfigError: {cfg_path}: cannot read config: {reason}"]
    assert not out.exists()

def test_eval_on_a_manifest_that_cannot_be_read_fails_on_one_line(
        trained_checkpoint, tmp_path, capsys):
    data = tmp_path / "data"
    (data / "manifest.tsv").mkdir(parents=True)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", str(trained_checkpoint), "--data",
                   str(data), "--phi", str(tmp_path / "phi.ckpt"),
                   "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: DatasetError: {data / 'manifest.tsv'}: cannot read manifest: "
        f"Is a directory"]
    assert not out.exists()

@pytest.fixture(scope="module")
def train_only_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-only") / "data"
    make_dataset(root, 4, 2, seed=56, ratios=(1.0, 0.0, 0.0), height=32,
                 width=24)
    return root

def test_eval_on_an_empty_test_split_fails_on_one_line_before_loading(
        train_only_dataset, trained_checkpoint, tmp_path, capsys):
    # the φ checkpoint does not exist: the split is checked first
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", str(trained_checkpoint), "--data",
                   str(train_only_dataset), "--phi", str(tmp_path / "phi.ckpt"),
                   "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: DatasetError: {train_only_dataset}: the 'test' "
                   f"split is empty, nothing to evaluate"]
    assert not out.exists()

@pytest.mark.parametrize("label, stem", [
    pytest.param("a\tb", None, id="model-tab"),
    pytest.param("a\nb", None, id="model-newline"),
    pytest.param("a\rb", None, id="model-carriage-return"),
    pytest.param("x/y", None, id="model-slash"),
    pytest.param(None, "a\tb", id="stem-tab"),
    pytest.param(None, "a\nb", id="stem-newline")])
def test_eval_rejects_a_label_that_is_no_field_or_file_name_before_loading(
        trained_checkpoint, tmp_path, capsys, label, stem):
    # neither the dataset nor the φ checkpoint exists: the label is checked
    # first, from --model or else the checkpoint stem
    ckpt = trained_checkpoint
    if stem is not None:
        ckpt = tmp_path / f"{stem}.ckpt"
        shutil.copyfile(trained_checkpoint, ckpt)
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(ckpt), "--data",
            str(tmp_path / "no-data"), "--phi", str(tmp_path / "phi.ckpt"),
            "--out", str(out)]
    if label is not None:
        argv += ["--model", label]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: model label")
    assert not out.exists()

def test_ablation_on_an_empty_test_split_fails_on_one_line_before_phi(
        train_only_dataset, tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, train_only_dataset)
    out = tmp_path / "abl"
    assert run_cli("ablation", "--config", str(cfg_path), "--out",
                   str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: DatasetError: {train_only_dataset}: the 'test' "
                   f"split is empty, nothing to evaluate"]
    assert not (out / "phi.ckpt").exists()

@pytest.mark.parametrize("command", ["train", "ablation"])
def test_a_train_split_smaller_than_a_batch_fails_on_one_line_before_phi(
        tmp_path, capsys, command):
    data = tmp_path / "data"
    make_dataset(data, 4, 2, seed=57, ratios=(0.5, 0.0, 0.5), height=32,
                 width=24)
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, data, variant="demesh", batch_size=8)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: ValueError: train split has 4 triplets, "
                   "batch size is 8"]
    assert not out.exists()

def test_train_takes_psi_and_phi_extents_from_the_train_split(dataset,
                                                               tmp_path):
    # the config names no extent; the split is 32x24, not the 64x48 default
    cfg_path = tmp_path / "config.txt"
    cfg = write_tiny_config(cfg_path, dataset, variant="demesh",
                            total_steps=2, phi_mode="pretrain",
                            phi_identities=2, phi_per_identity=2, phi_steps=1)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    arch, _ = checkpoint.load_checkpoint(out / "demesh.ckpt")
    assert "\nheight = 32\nwidth = 24\n" in arch
    # φ pretraining rendered its faces at the split's extent too
    phi = build_phi("pretrain", cfg.phi_seed, cfg.phi_spec(), n_identities=2,
                    per_identity=2, steps=1, render_hw=(32, 24))
    for p, q in zip(load_phi(out / "phi.ckpt").params(), phi.params()):
        np.testing.assert_array_equal(p.value, q.value, err_msg=p.name)

@pytest.mark.parametrize("command", ["train", "ablation"])
@pytest.mark.parametrize("override, kind", [
    ({"kernel": 2}, "ValueError"),
    ({"arch_widths": (0,)}, "ValueError"),
    # 24 is not divisible by 2^4
    ({"arch_widths": (8, 12, 16, 20)}, "ShapeError"),
    ({"phi_widths": (3,)}, "ConfigError"),
    ({"crop": 10}, "ConfigError"),
], ids=["kernel-2", "arch-widths-0", "four-pools", "phi-odd-width",
        "crop-10"])
def test_a_spec_fault_fails_on_one_line_before_any_work(
        dataset, tmp_path, capsys, command, override, kind):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="demesh", **override)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: ")
    assert not out.exists()

def test_a_config_naming_an_image_extent_fails_on_one_line(dataset, tmp_path,
                                                           capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"dataset = {dataset}\nheight = 32\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: ConfigError: {cfg_path}: unknown config key 'height' in "
        f"'height = 32'"]
    assert not out.exists()

def test_train_refuses_a_phi_checkpoint_the_config_does_not_describe(
        dataset, tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="demesh", total_steps=2)
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    write_tiny_config(cfg_path, dataset, variant="demesh", total_steps=2,
                      phi_widths=(4, 8), phi_feature_width=16)
    capsys.readouterr()
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ConfigError: {out / 'phi.ckpt'}: the feature net "
                   f"does not match the config: phi_widths = 4,8 in the "
                   f"config, 8,16 in the checkpoint; phi_feature_width = 16 "
                   f"in the config, 32 in the checkpoint"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

def test_train_reports_a_missing_sample_file_on_one_line(dataset, tmp_path,
                                                         capsys):
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    victim = next((copy / "train").glob("id*")) / "s000.meta"
    victim.unlink()
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, copy)
    assert run_cli("train", "--config", str(cfg_path), "--out",
                   str(tmp_path / "run")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError: ")
    assert str(victim) in err[0]



# ---------------------------------------------------------------------------
# roc-plot
# ---------------------------------------------------------------------------

@pytest.fixture()
def roc_dir(tmp_path):
    d = tmp_path / "reports"
    d.mkdir()
    (d / "roc_alpha.tsv").write_text(
        "fpr\ttpr\tthreshold\n0.000000000\t0.500000000\t0.900000000\n"
        "0.500000000\t1.000000000\t0.300000000\n")
    (d / "roc_beta.tsv").write_text(
        "fpr\ttpr\tthreshold\n0.000000000\t0.250000000\t0.800000000\n"
        "1.000000000\t1.000000000\t0.100000000\n")
    return d

def test_roc_plot_merges_models_and_is_deterministic(roc_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
    svg1, svg2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert run_cli("roc-plot", "--report", str(roc_dir), "--out", str(out1),
                   "--svg", str(svg1)) == 0
    assert run_cli("roc-plot", "--report", str(roc_dir), "--out", str(out2),
                   "--svg", str(svg2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()
    lines = out1.read_text().splitlines()
    models = {line.split("\t")[0] for line in lines[1:]}
    assert models == {"alpha", "beta"}
    assert "<svg" in svg1.read_text()

def test_roc_plot_series_stay_monotone(roc_dir, tmp_path):
    out = tmp_path / "m.tsv"
    assert run_cli("roc-plot", "--report", str(roc_dir), "--out", str(out)) == 0
    per_model = {}
    for line in out.read_text().splitlines()[1:]:
        model, fpr, tpr, _ = line.split("\t")
        per_model.setdefault(model, []).append((float(fpr), float(tpr)))
    for pts in per_model.values():
        ordered = sorted(pts)
        tprs = [t for _, t in ordered]
        assert tprs == sorted(tprs)

def test_roc_plot_lists_missing_models(roc_dir, tmp_path, capsys):
    assert run_cli("roc-plot", "--report", str(roc_dir), "--out",
                   str(tmp_path / "m.tsv"), "--models", "alpha,gamma,delta") == 1
    err = capsys.readouterr().err
    assert "delta,gamma" in err

GOOD_ROW = "0.000000000\t0.500000000\t0.900000000\n"

@pytest.mark.parametrize("text, line", [
    ("fpr\ttpr\tthreshold\n", 1),
    ("fpr\ttpr\n" + GOOD_ROW, 1),
    ("fpr\ttpr\tthreshold\n" + GOOD_ROW + "0.5\t1.0\n", 3),
    ("fpr\ttpr\tthreshold\n" + GOOD_ROW + "0.5\thigh\t0.3\n", 3),
    ("fpr\ttpr\tthreshold\n0.5\tnan\t0.3\n", 2),
    ("fpr\ttpr\tthreshold\n" + GOOD_ROW + "0.5\t1.0\t1e999\n", 3),
    ("fpr\ttpr\tthreshold\n" + GOOD_ROW * 2 + "1.5\t1.0\t0.3\n", 4),
    ("fpr\ttpr\tthreshold\n" + GOOD_ROW + "0.5\t1.0\t0.3\udcff\n", 3),
], ids=["header only", "wrong header", "two fields", "non-numeric",
        "nan cell", "non-finite cell", "rate above one", "non-UTF-8 byte"])
def test_roc_plot_refuses_a_bad_table_before_writing(roc_dir, tmp_path,
                                                     capsys, text, line):
    # a lone surrogate escape writes the raw byte 0xff
    (roc_dir / "roc_gamma.tsv").write_bytes(
        text.encode("utf-8", "surrogateescape"))
    out, svg = tmp_path / "m.tsv", tmp_path / "p.svg"
    assert run_cli("roc-plot", "--report", str(roc_dir), "--out", str(out),
                   "--svg", str(svg)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: RocTableError: ")
    assert f"roc_gamma.tsv:{line}: " in err[0]
    assert not out.exists() and not svg.exists()


# ---------------------------------------------------------------------------
# environment contract
# ---------------------------------------------------------------------------

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OMP_NUM_THREADS": "3"}, ["1", "3", "1"]),
    (dict.fromkeys(BLAS_VARS, "2"), ["2", "2", "2"]),
    ({"DEMESH_THREADS": "zero"}, ["1", "1", "1"]),
], ids=["nothing-set", "omp-set", "all-set", "stale-demesh-threads"])
def test_import_sets_unset_blas_thread_counts_to_one_and_keeps_set_ones(
        preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS + ("DEMESH_THREADS",)}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(demesh.__file__).parents[1])
    probe = "import os, demesh; print([os.environ.get(v) for v in %r])" \
        % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(expected)
