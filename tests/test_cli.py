import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demesh
from demesh import cli
from demesh.cli import main
from demesh.facegen import make_dataset, read_pgm, write_pgm
from demesh.trainer import TrainConfig, format_config


def run_cli(*argv):
    return main(list(argv))


def write_tiny_config(path: Path, dataset: Path, **overrides) -> TrainConfig:
    base = dict(
        variant="fcnw", dataset=str(dataset), batch_size=4, lr=1e-3,
        lr_decay_factor=0.1, lr_decay_interval=40, total_steps=12,
        init_seed=3, data_seed=4, val_interval=50, height=32, width=24,
        arch_widths=(8, 12), kernel=3, crop=16, phi_mode="fixed_random",
        phi_seed=9, phi_widths=(8, 16), phi_feature_width=32,
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

@pytest.mark.parametrize("override", [{"val_interval": 0}, {"lr": -1.0}])
def test_train_rejects_a_bad_config_on_one_line_before_building_phi(
        dataset, tmp_path, capsys, override):
    cfg_path = tmp_path / "config.txt"
    write_tiny_config(cfg_path, dataset, variant="demesh", **override)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ")
    assert next(iter(override)) in err[0]
    assert not (out / "phi.ckpt").exists()

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

def test_worker_cap_env_var_is_validated(monkeypatch, capsys):
    monkeypatch.setenv("DEMESH_THREADS", "zero")
    assert run_cli("gradcheck", "--module", "stn", "--points", "1") == 1
    assert "DEMESH_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("DEMESH_THREADS", "2")
    assert run_cli("gradcheck", "--module", "stn", "--points", "1") == 0


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("cap, copied", [("zero", None), ("0", None),
                                         ("3", "3"), (None, "1")])
def test_import_copies_only_a_valid_thread_cap(cap, copied):
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS + ("DEMESH_THREADS",)}
    if cap is not None:
        env["DEMESH_THREADS"] = cap
    env["PYTHONPATH"] = str(Path(demesh.__file__).parents[1])
    probe = "import os, demesh; print([os.environ.get(v) for v in %r])" \
        % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([copied] * len(BLAS_VARS))
