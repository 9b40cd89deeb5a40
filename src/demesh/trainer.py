"""Training orchestration: one optimization recipe shared by every model
variant, plus evaluation dispatch and the full comparison matrix.

The schedule is piecewise-constant (initial rate divided by a fixed factor
every decay interval), Adam updates every parameter, and plain L2 weight
decay is added to the weight gradients (biases excluded). Everything is
deterministic given the config seeds: initialization, data order, and hence
checkpoints and reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import atomic, configio, losses
from .facegen import DatasetError, SplitData, load_split, to_float
from .featnet import FeatureNet, FeatureSpec, build_phi, load_phi, save_phi
from .inpaint import InpaintNet, InpaintSpec, build_psi, save_psi
from .losses import LossConfig, VARIANTS
from .layers import adam_step
from .verifier import (EvalReport, clear_features, recovery_metrics,
                       run_protocol, write_report_tsv, write_roc_tsv)

Array = np.ndarray


class TrainingDiverged(RuntimeError):
    """The loss went non-finite; carries step, learning rate and batch ids."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; serializable as ``key = value`` lines."""

    variant: str = "demesh"
    dataset: str = ""
    batch_size: int = 8
    lr: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_interval: int = 2000
    total_steps: int = 3000
    weight_decay: float = 1e-5
    init_seed: int = 1
    data_seed: int = 2
    val_interval: int = 500
    arch_widths: tuple[int, ...] = (16, 32)
    kernel: int = 3
    crop: int = 32
    phi_mode: str = "pretrain"
    phi_seed: int = 71
    phi_widths: tuple[int, ...] = (16, 32)
    phi_feature_width: int = 64
    phi_identities: int = 32
    phi_per_identity: int = 200
    phi_steps: int = 600
    lambda_mask: float = 1.0
    lambda_feature: float = 1.0
    c_fraction: float = 0.2

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} "
                             f"(expected one of {VARIANTS})")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.lr_decay_factor <= 1.0):
            raise ValueError("lr_decay_factor must be in (0, 1]")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.lr_decay_interval < 1:
            raise ValueError("lr_decay_interval must be >= 1")
        if self.val_interval < 1:
            raise ValueError("val_interval must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and non-negative, "
                             f"got {self.weight_decay}")
        # the weights every variant of an ablation shares, used or not
        LossConfig(self.lambda_mask, self.lambda_feature,
                   self.c_fraction).validate()
        self.phi_spec().validate()

    def arch_spec(self, extent: tuple[int, int]) -> InpaintSpec:
        """ψ's spec for images of ``extent`` (H, W), the train split's."""
        return InpaintSpec(*extent, self.arch_widths, self.kernel)

    def phi_spec(self) -> FeatureSpec:
        return FeatureSpec(self.crop, self.phi_widths, self.phi_feature_width)

    def loss_config(self) -> LossConfig:
        return losses.variant_config(self.variant, self.lambda_mask,
                                     self.lambda_feature, self.c_fraction)

    def learning_rate(self, step: int) -> float:
        return self.lr * self.lr_decay_factor ** (step // self.lr_decay_interval)


def format_config(cfg: TrainConfig) -> str:
    return configio.format_fields(cfg)


def parse_config(text: str) -> TrainConfig:
    """The config the text names; keys left out keep their defaults."""
    return configio.parse_fields(TrainConfig, configio.parse_kv(text))


def load_config(path: str | Path) -> TrainConfig:
    """Read and validate a config file; a file that cannot be read, and
    every fault of its text or values, raises ``configio.ConfigError``
    naming the path."""
    try:
        cfg = parse_config(Path(path).read_bytes().decode("utf-8"))
        cfg.validate()
    except ValueError as exc:  # UnicodeDecodeError, ConfigError or validate's
        raise configio.ConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise configio.ConfigError(f"{path}: cannot read config: "
                                   f"{exc.strerror}") from None
    return cfg


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainLog:
    steps: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    validations: list[tuple[int, float, float]] = field(default_factory=list)

    def write(self, path: str | Path) -> None:
        lines = ["step\ttotal\tpixel\tfeature\tlr"]
        lines += [f"{s}\t{t:.9e}\t{p:.9e}\t{f:.9e}\t{lr:.9e}"
                  for s, t, p, f, lr in self.steps]
        for step, v_psnr, v_rmse in self.validations:
            lines.append(f"# val\t{step}\t{v_psnr:.6f}\t{v_rmse:.6f}")
        atomic.write_file(path, "\n".join(lines) + "\n")


def _params_digest(net: FeatureNet) -> str:
    h = hashlib.sha256()
    for p in net.params():
        h.update(p.value.tobytes())
    return h.hexdigest()


def _validation_metrics(net: InpaintNet, data: SplitData,
                        phi: FeatureNet | None, clear: Array | None = None):
    """ψ's mean PSNR and feature RMSE on ``data``, streamed block by block;
    ``clear`` is the split's ``clear_features``, computed when not given."""
    mean_psnr, rmse, _ = recovery_metrics(
        lambda rows: net.forward(to_float(data.x[rows]), keep=False), data,
        phi, clear)
    return mean_psnr, rmse


def load_train_split(cfg: TrainConfig) -> SplitData:
    """The split ``cfg`` trains on; one that cannot fill a batch raises
    ValueError, and ψ's spec at the split's extent raises its own error
    (ValueError or ShapeError), so its caller fails before any work."""
    data = load_split(cfg.dataset, "train")
    if len(data) < cfg.batch_size:
        raise ValueError(f"train split has {len(data)} triplets, "
                         f"batch size is {cfg.batch_size}")
    cfg.arch_spec(data.x.shape[2:]).validate()
    return data


def train(cfg: TrainConfig, data: SplitData,
          phi: FeatureNet | None = None) -> tuple[InpaintNet, TrainLog]:
    """Train one variant on ``data``, the train split as ``load_train_split``
    gives it; deterministic given the config seeds.

    The data order walks seeded epoch permutations; a trailing partial batch
    triggers a reshuffle instead of a short step. Weight decay applies to
    conv weights only. Raises TrainingDiverged on a non-finite loss.
    """
    cfg.validate()
    loss_cfg = cfg.loss_config()
    if loss_cfg.lambda_feature > 0 and phi is None:
        raise ValueError(f"variant {cfg.variant!r} needs a frozen feature net")
    val_data = load_split(cfg.dataset, "val")
    # φ's features of the clear validation images, shared by every validation
    val_clear = clear_features(val_data, phi) \
        if phi is not None and len(val_data) else None

    phi_digest = _params_digest(phi) if phi is not None else None
    net = build_psi(cfg.arch_spec(data.x.shape[2:]), cfg.init_seed)
    log = TrainLog()
    rng = np.random.default_rng(cfg.data_seed)
    order = rng.permutation(len(data))
    cursor = 0
    for step in range(cfg.total_steps):
        if cursor + cfg.batch_size > len(order):
            order = rng.permutation(len(data))
            cursor = 0
        idx = order[cursor:cursor + cfg.batch_size]
        cursor += cfg.batch_size
        lr = cfg.learning_rate(step)

        pred = net.forward(to_float(data.x[idx]))
        ul = losses.unified_loss(pred, to_float(data.y[idx]), data.m[idx],
                                 data.eyes[idx], phi, loss_cfg)
        if not np.isfinite(ul.value):
            raise TrainingDiverged(
                f"non-finite loss at step {step} (lr={lr:g}, "
                f"batch={[data.sample[i] for i in idx]})")
        net.zero_grads()
        net.backward(ul.grad, input_grad=False)
        for p in net.params():
            if cfg.weight_decay and p.name.endswith(".weight"):
                p.grad += cfg.weight_decay * p.value
            adam_step(p, lr)
        log.steps.append((step, ul.value, ul.pixel, ul.feature, lr))

        last = step == cfg.total_steps - 1
        if len(val_data) and (step % cfg.val_interval == cfg.val_interval - 1
                              or last):
            v_psnr, v_rmse = _validation_metrics(net, val_data, phi,
                                                  val_clear)
            log.validations.append((step, v_psnr, v_rmse))

    if phi is not None and _params_digest(phi) != phi_digest:
        raise RuntimeError("frozen feature net changed during training")
    return net, log


# ---------------------------------------------------------------------------
# evaluation and the comparison matrix
# ---------------------------------------------------------------------------

def load_eval_split(dataset: str | Path, split: str) -> SplitData:
    """The split a model is evaluated on; an empty one raises DatasetError,
    so its caller fails before any work."""
    data = load_split(dataset, split)
    if not len(data):
        raise DatasetError(f"{dataset}: the {split!r} split is empty, "
                           f"nothing to evaluate")
    return data


def evaluate(name: str, net: InpaintNet, data: SplitData,
             phi: FeatureNet, clear: Array | None = None) -> EvalReport:
    return run_protocol(
        name, lambda rows: net.forward(to_float(data.x[rows]), keep=False),
        data, phi, clear)


def _phi_keys(spec: FeatureSpec) -> dict[str, str]:
    """The config keys that set ``spec``, each with its value as a config
    writes it."""
    return {"crop": str(spec.crop),
            "phi_widths": ",".join(map(str, spec.widths)),
            "phi_feature_width": str(spec.feature_width)}


def ensure_phi(cfg: TrainConfig, path: str | Path,
               render_hw: tuple[int, int]) -> FeatureNet:
    """Load the frozen feature net from ``path`` if present, else build it
    deterministically from the config, pretraining on renders of
    ``render_hw`` (the train split's extent), and save it there.

    A loaded net whose architecture differs from the config's raises
    ConfigError naming each differing key with both values.
    """
    if Path(path).exists():
        phi = load_phi(path)
        want, got = _phi_keys(cfg.phi_spec()), _phi_keys(phi.spec)
        diffs = [f"{key} = {want[key]} in the config, {got[key]} in the "
                 f"checkpoint" for key in want if want[key] != got[key]]
        if diffs:
            raise configio.ConfigError(
                f"{path}: the feature net does not match the config: "
                + "; ".join(diffs))
        return phi
    phi = build_phi(cfg.phi_mode, cfg.phi_seed, cfg.phi_spec(),
                    n_identities=cfg.phi_identities,
                    per_identity=cfg.phi_per_identity,
                    steps=cfg.phi_steps,
                    render_hw=render_hw)
    save_phi(phi, path)
    return phi


def run_ablation(cfg: TrainConfig, out_dir: str | Path) -> list[EvalReport]:
    """Train and evaluate every variant plus the two analytic baselines.

    All rows share the dataset (each split read once), the frozen feature
    net, the seeds and φ's features of the clear test images, computed
    once. The consolidated TSV is rewritten after each completed row, so
    results of finished variants survive a failure in a later one.
    """
    test_data = load_eval_split(cfg.dataset, "test")
    train_data = load_train_split(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    phi = ensure_phi(cfg, out / "phi.ckpt", train_data.x.shape[2:])
    clear = clear_features(test_data, phi)

    reports: list[EvalReport] = []

    def finish(report: EvalReport) -> None:
        reports.append(report)
        write_roc_tsv(report, out)
        write_report_tsv(reports, out / "ablation.tsv")

    finish(run_protocol("clear", lambda rows: to_float(test_data.y[rows]),
                        test_data, phi, clear))
    finish(run_protocol("corrupted", lambda rows: to_float(test_data.x[rows]),
                        test_data, phi, clear))
    for variant in VARIANTS:
        vcfg = replace(cfg, variant=variant)
        net, log = train(vcfg, train_data, phi)
        save_psi(net, out / f"{variant}.ckpt")
        log.write(out / f"{variant}_log.tsv")
        finish(evaluate(variant, net, test_data, phi, clear))
    return reports
