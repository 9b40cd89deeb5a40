import math

import numpy as np
import pytest

from demesh import losses, trainer
from demesh.facegen import load_split, make_dataset, to_float
from demesh.featnet import FeatureNet, FeatureSpec, build_phi
from demesh.inpaint import build_psi, load_psi, save_psi
from demesh.layers import INFERENCE_CHUNK
from demesh.losses import UnifiedLoss
from demesh.trainer import (TrainConfig, TrainingDiverged, format_config,
                            parse_config, run_ablation, train)

PHI_SPEC = FeatureSpec(in_h=16, in_w=16, widths=(8, 16), feature_width=32)


def tiny_config(dataset, **overrides) -> TrainConfig:
    base = dict(
        variant="fcnw", dataset=str(dataset), batch_size=4, lr=1e-3,
        lr_decay_factor=0.1, lr_decay_interval=40, total_steps=60,
        weight_decay=1e-5, init_seed=3, data_seed=4, val_interval=30,
        height=32, width=24, arch_widths=(8, 12), kernel=3, crop=16,
        phi_mode="fixed_random", phi_seed=9, phi_widths=(8, 16),
        phi_feature_width=32,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainer") / "data"
    make_dataset(root, 8, 6, seed=31, ratios=(0.5, 0.25, 0.25),
                 height=32, width=24)
    return root


@pytest.fixture(scope="module")
def phi():
    return build_phi("fixed_random", seed=9, spec=PHI_SPEC)


# ---------------------------------------------------------------------------
# config file round trip
# ---------------------------------------------------------------------------

def test_config_round_trips_through_text(dataset):
    cfg = tiny_config(dataset, variant="demesh", lambda_mask=0.5)
    assert parse_config(format_config(cfg)) == cfg

def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("bogus = 1\n")

def test_config_rejects_bad_values(dataset):
    with pytest.raises(ValueError, match="variant"):
        tiny_config(dataset, variant="mtnet").validate()
    with pytest.raises(ValueError, match="decay_factor"):
        tiny_config(dataset, lr_decay_factor=1.5).validate()
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(dataset, batch_size=0).validate()
    for interval in (0, -3):
        with pytest.raises(ValueError, match="val_interval"):
            tiny_config(dataset, val_interval=interval).validate()
    for lr in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lr must be positive"):
            tiny_config(dataset, lr=lr).validate()

def test_learning_rate_schedule_is_piecewise_constant(dataset):
    cfg = tiny_config(dataset, lr=1e-4, lr_decay_factor=0.1,
                      lr_decay_interval=2000, total_steps=3000)
    assert cfg.learning_rate(0) == 1e-4
    assert cfg.learning_rate(1999) == 1e-4
    assert cfg.learning_rate(2000) == pytest.approx(1e-5)
    assert cfg.learning_rate(2999) == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# training behavior
# ---------------------------------------------------------------------------

def test_identical_seeds_give_bitwise_identical_checkpoints(dataset, phi, tmp_path):
    cfg = tiny_config(dataset, total_steps=20)
    net1, _ = train(cfg, phi)
    net2, _ = train(cfg, phi)
    save_psi(net1, tmp_path / "a.ckpt")
    save_psi(net2, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

def test_logged_lr_follows_the_schedule_exactly(dataset, phi):
    cfg = tiny_config(dataset, total_steps=60, lr_decay_interval=25,
                      lr_decay_factor=0.5)
    _, log = train(cfg, phi)
    assert len(log.steps) == 60
    for step, _, _, _, lr in log.steps:
        assert lr == cfg.lr * 0.5 ** (step // 25)
    assert [s for s, *_ in log.steps] == list(range(60))

def test_single_step_replay_matches_hand_applied_adam_update(dataset, phi):
    cfg = tiny_config(dataset, variant="demesh", total_steps=1)
    trained, _ = train(cfg, phi)

    # independent replay: same net init, same first batch, hand Adam
    data = load_split(cfg.dataset, "train")
    xs, ys, ms, eyes = to_float(data.x), to_float(data.y), data.m, data.eyes
    idx = np.random.default_rng(cfg.data_seed).permutation(len(xs))[:cfg.batch_size]

    net = build_psi(cfg.arch_spec(), cfg.init_seed)
    pred = net.forward(xs[idx])
    ul = losses.unified_loss(pred, ys[idx], ms[idx], [eyes[i] for i in idx],
                             phi, cfg.loss_config())
    net.zero_grads()
    net.backward(ul.grad)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for p, q in zip(net.params(), trained.params()):
        g = p.grad + cfg.weight_decay * p.value \
            if p.name.endswith(".weight") else p.grad
        m = (1 - beta1) * g
        v = (1 - beta2) * (g * g)
        expected = p.value - cfg.lr * (m / (1 - beta1)) / \
            (np.sqrt(v / (1 - beta2)) + eps)
        np.testing.assert_array_equal(expected, q.value, err_msg=p.name)

def test_training_reduces_the_loss(dataset, phi):
    for variant in ("fcne", "demesh"):
        cfg = tiny_config(dataset, variant=variant, total_steps=150,
                          lr=2e-3, lr_decay_interval=1000)
        _, log = train(cfg, phi)
        totals = [t for _, t, _, _, _ in log.steps]
        tenth = max(1, len(totals) // 10)
        assert np.mean(totals[-tenth:]) < np.mean(totals[:tenth]), variant

def test_feature_net_stays_bitwise_frozen_through_training(dataset, phi):
    before = [p.value.copy() for p in phi.params()]
    cfg = tiny_config(dataset, variant="demesh", total_steps=15)
    train(cfg, phi)
    for prev, p in zip(before, phi.params()):
        np.testing.assert_array_equal(prev, p.value)

def test_feature_variants_require_a_feature_net(dataset):
    cfg = tiny_config(dataset, variant="demesh", total_steps=5)
    with pytest.raises(ValueError, match="feature net"):
        train(cfg, None)

def test_divergence_aborts_with_diagnostics(dataset, phi, monkeypatch):
    cfg = tiny_config(dataset, total_steps=5)

    def poisoned(pred, *args, **kwargs):
        return UnifiedLoss(float("nan"), np.zeros_like(pred), 0.0, 0.0)

    monkeypatch.setattr(losses, "unified_loss", poisoned)
    with pytest.raises(TrainingDiverged, match=r"step 0.*lr=0\.001.*s0"):
        train(cfg, phi)

def test_validation_metrics_are_recorded(dataset, phi):
    cfg = tiny_config(dataset, total_steps=30, val_interval=10)
    _, log = train(cfg, phi)
    assert len(log.validations) == 3
    for _, v_psnr, v_rmse in log.validations:
        assert math.isfinite(v_psnr)
        assert math.isfinite(v_rmse)

def test_training_without_a_val_split_writes_no_val_line(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, 2, 4, seed=37, ratios=(1.0, 0.0, 0.0),
                 height=32, width=24)
    _, log = train(tiny_config(root, total_steps=3, val_interval=1))
    assert log.validations == []
    log.write(tmp_path / "log.tsv")
    lines = (tmp_path / "log.tsv").read_text().splitlines()
    assert len(lines) == 4
    assert not any(line.startswith("# val") for line in lines)


# ---------------------------------------------------------------------------
# ablation matrix
# ---------------------------------------------------------------------------

def test_ablation_writes_the_full_table(dataset, tmp_path):
    cfg = tiny_config(dataset, total_steps=8)
    reports = run_ablation(cfg, tmp_path / "abl")
    table = (tmp_path / "abl" / "ablation.tsv").read_text().splitlines()
    assert table[0].split("\t") == ["model", "tpr_fpr_1e2", "tpr_fpr_1e3",
                                    "tpr_fpr_1e4", "psnr_db", "feature_rmse"]
    models = [line.split("\t")[0] for line in table[1:]]
    assert models == ["clear", "corrupted", "fcne", "fcnw", "fcnf",
                      "demesh_e", "demesh"]
    clear = table[1].split("\t")
    assert clear[4] == "inf" and float(clear[5]) == 0.0
    for model in models:
        assert (tmp_path / "abl" / f"roc_{model}.tsv").exists()
    assert len(reports) == 7
    for variant in ("fcne", "demesh"):
        assert load_psi(tmp_path / "abl" / f"{variant}.ckpt") is not None

def test_ablation_preserves_partial_results_on_failure(dataset, tmp_path,
                                                       monkeypatch):
    cfg = tiny_config(dataset, total_steps=4)
    real_train = trainer.train

    def failing(vcfg, phi=None):
        if vcfg.variant == "fcnf":
            raise RuntimeError("boom")
        return real_train(vcfg, phi)

    monkeypatch.setattr(trainer, "train", failing)
    with pytest.raises(RuntimeError, match="boom"):
        run_ablation(cfg, tmp_path / "abl")
    table = (tmp_path / "abl" / "ablation.tsv").read_text().splitlines()
    models = [line.split("\t")[0] for line in table[1:]]
    assert models == ["clear", "corrupted", "fcne", "fcnw"]

def test_ablation_runs_phi_once_over_the_clear_test_images(dataset, tmp_path,
                                                          monkeypatch):
    cfg = tiny_config(dataset, total_steps=4)
    calls = []
    real_taps = FeatureNet.forward_taps

    def counted(self, x, *args, **kwargs):
        calls.append(len(x))
        return real_taps(self, x, *args, **kwargs)

    monkeypatch.setattr(FeatureNet, "forward_taps", counted)
    run_ablation(cfg, tmp_path / "shared")
    shared = len(calls)
    # every row computes the clear features itself, as before they were shared
    monkeypatch.setattr(trainer, "clear_features", lambda data, phi: None)
    run_ablation(cfg, tmp_path / "per_row")
    test_chunks = -(-len(load_split(dataset, "test")) // INFERENCE_CHUNK)
    assert len(calls) - shared == shared + 6 * test_chunks
    names = sorted(p.name for p in (tmp_path / "shared").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "per_row").iterdir())
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "per_row" / name).read_bytes()

def test_ensure_phi_reuses_the_checkpoint(dataset, tmp_path):
    cfg = tiny_config(dataset)
    path = tmp_path / "phi.ckpt"
    a = trainer.ensure_phi(cfg, path)
    assert path.exists()
    b = trainer.ensure_phi(cfg, path)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.value, pb.value)
