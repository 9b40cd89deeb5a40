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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import atomic, configio, losses
from .facegen import SplitData, load_split, to_float
from .featnet import FeatureNet, FeatureSpec, build_phi, load_phi, save_phi
from .inpaint import InpaintNet, InpaintSpec, build_psi, save_psi
from .losses import LossConfig, VARIANTS
from .layers import PSI_BLOCK, adam_step, map_chunks
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
    height: int = 64
    width: int = 48
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

    def arch_spec(self) -> InpaintSpec:
        return InpaintSpec(self.height, self.width, self.arch_widths, self.kernel)

    def phi_spec(self) -> FeatureSpec:
        return FeatureSpec(self.crop, self.crop, self.phi_widths,
                           feature_width=self.phi_feature_width)

    def loss_config(self) -> LossConfig:
        return losses.variant_config(self.variant, self.lambda_mask,
                                     self.lambda_feature, self.c_fraction)

    def learning_rate(self, step: int) -> float:
        return self.lr * self.lr_decay_factor ** (step // self.lr_decay_interval)


_TUPLE_FIELDS = {"arch_widths", "phi_widths"}


def format_config(cfg: TrainConfig) -> str:
    pairs = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        pairs[f.name] = configio.format_tuple(value) if f.name in _TUPLE_FIELDS \
            else value
    return configio.format_kv(pairs)


def parse_config(text: str) -> TrainConfig:
    kv = configio.parse_kv(text)
    kwargs = {}
    known = {f.name: f for f in fields(TrainConfig)}
    for key, raw in kv.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = configio.parse_int_tuple(raw) if key in _TUPLE_FIELDS \
            else _convert(known[key].default, raw)
    cfg = TrainConfig(**kwargs)
    cfg.validate()
    return cfg


def _convert(default, raw: str):
    # field types are inferred from the defaults; every field has one
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def load_config(path: str | Path) -> TrainConfig:
    return parse_config(Path(path).read_text())


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
                        phi: FeatureNet | None):
    mean_psnr, rmse, _ = recovery_metrics(batched_forward(net, data.x), data, phi)
    return mean_psnr, rmse


def batched_forward(net: InpaintNet, xs: Array) -> Array:
    """ψ's inference pass over the graymaps ``xs``, in cache-sized blocks,
    each converted to float as it is run."""
    return map_chunks(lambda rows: net.forward(to_float(xs[rows]), keep=False),
                      len(xs), PSI_BLOCK)


def train(cfg: TrainConfig, phi: FeatureNet | None = None
          ) -> tuple[InpaintNet, TrainLog]:
    """Train one variant; deterministic given the config seeds.

    The data order walks seeded epoch permutations; a trailing partial batch
    triggers a reshuffle instead of a short step. Weight decay applies to
    conv weights only. Raises TrainingDiverged on a non-finite loss.
    """
    cfg.validate()
    loss_cfg = cfg.loss_config()
    if loss_cfg.lambda_feature > 0 and phi is None:
        raise ValueError(f"variant {cfg.variant!r} needs a frozen feature net")
    data = load_split(cfg.dataset, "train")
    if len(data) < cfg.batch_size:
        raise ValueError(f"train split has {len(data)} triplets, "
                         f"batch size is {cfg.batch_size}")
    val_data = load_split(cfg.dataset, "val")

    phi_digest = _params_digest(phi) if phi is not None else None
    net = build_psi(cfg.arch_spec(), cfg.init_seed)
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
                                 [data.eyes[i] for i in idx], phi, loss_cfg)
        if not np.isfinite(ul.value):
            raise TrainingDiverged(
                f"non-finite loss at step {step} (lr={lr:g}, "
                f"batch={[data.sample[i] for i in idx]})")
        net.zero_grads()
        net.backward(ul.grad, input_grad=False)
        for p in net.params():
            if cfg.weight_decay and p.name.endswith(".weight"):
                p.grad += cfg.weight_decay * p.value
            adam_step(p, p.grad, lr)
        log.steps.append((step, ul.value, ul.pixel, ul.feature, lr))

        last = step == cfg.total_steps - 1
        if len(val_data) and (step % cfg.val_interval == cfg.val_interval - 1
                              or last):
            v_psnr, v_rmse = _validation_metrics(net, val_data, phi)
            log.validations.append((step, v_psnr, v_rmse))

    if phi is not None and _params_digest(phi) != phi_digest:
        raise RuntimeError("frozen feature net changed during training")
    return net, log


# ---------------------------------------------------------------------------
# evaluation and the comparison matrix
# ---------------------------------------------------------------------------

def evaluate(name: str, net: InpaintNet, data: SplitData,
             phi: FeatureNet, clear: Array | None = None) -> EvalReport:
    return run_protocol(name, lambda xs: batched_forward(net, xs), data, phi,
                        clear)


def ensure_phi(cfg: TrainConfig, path: str | Path | None) -> FeatureNet:
    """Load the frozen feature net from ``path`` if present, else build it
    deterministically from the config (and persist it when a path is given)."""
    if path is not None and Path(path).exists():
        return load_phi(path)
    phi = build_phi(cfg.phi_mode, cfg.phi_seed, cfg.phi_spec(),
                    n_identities=cfg.phi_identities,
                    per_identity=cfg.phi_per_identity,
                    steps=cfg.phi_steps,
                    render_hw=(cfg.height, cfg.width))
    if path is not None:
        save_phi(phi, path)
    return phi


def run_ablation(cfg: TrainConfig, out_dir: str | Path) -> list[EvalReport]:
    """Train and evaluate every variant plus the two analytic baselines.

    All rows share the dataset, the frozen feature net, the seeds and φ's
    features of the clear test images, computed once. The consolidated TSV
    is rewritten after each completed row, so results of finished variants
    survive a failure in a later one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    phi = ensure_phi(cfg, out / "phi.ckpt")
    test_data = load_split(cfg.dataset, "test")
    clear = clear_features(test_data, phi)

    reports: list[EvalReport] = []

    def finish(report: EvalReport) -> None:
        reports.append(report)
        write_roc_tsv(report, out)
        write_report_tsv(reports, out / "ablation.tsv")

    finish(run_protocol("clear", lambda xs: to_float(test_data.y), test_data,
                        phi, clear))
    finish(run_protocol("corrupted", to_float, test_data, phi, clear))
    for variant in VARIANTS:
        vcfg = replace(cfg, variant=variant)
        net, log = train(vcfg, phi)
        save_psi(net, out / f"{variant}.ckpt")
        log.write(out / f"{variant}_log.tsv")
        finish(evaluate(variant, net, test_data, phi, clear))
    return reports
