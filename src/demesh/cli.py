"""Command-line entry point: data generation, training, evaluation, the
full comparison matrix, gradient self-checks, single-image inpainting, and
ROC plot-data emission.

Every command is a pure function of its flags, input files and seeds;
reruns produce byte-identical outputs. Failures print a single
machine-parsable line ``error: <kind>: <message>`` on stderr and exit
nonzero. DEMESH_THREADS caps the BLAS thread pools, the only workers; a
value that is not a positive integer fails every command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import atomic, gradsuite, thread_cap, trainer, verifier
from .facegen import load_split, make_dataset, read_pgm, validate_dataset, \
    write_pgm
from .featnet import load_phi
from .inpaint import load_psi, save_psi
from .verifier import psnr


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise FileExistsError(
            f"{out} exists and is not empty (use --force to overwrite)")
    ratios = tuple(float(r) for r in args.split.split(","))
    if len(ratios) != 3:
        raise ValueError(f"--split needs three comma-separated ratios, got {args.split!r}")
    manifest = make_dataset(out, args.identities, args.per_id, args.seed,
                            ratios, args.height, args.width)
    count = validate_dataset(out)
    print(f"manifest = {manifest}")
    print(f"triplets = {count}")
    return 0


def _resolve_phi(cfg, phi_path: str | None, out: Path, needed: bool):
    if phi_path is not None:
        return trainer.ensure_phi(cfg, phi_path)
    if needed:
        return trainer.ensure_phi(cfg, out / "phi.ckpt")
    return None


def cmd_train(args) -> int:
    cfg = trainer.load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    needed = cfg.loss_config().lambda_feature > 0
    phi = _resolve_phi(cfg, args.phi, out, needed)
    net, log = trainer.train(cfg, phi)
    ckpt = out / f"{cfg.variant}.ckpt"
    save_psi(net, ckpt)
    log.write(out / f"{cfg.variant}_log.tsv")
    atomic.write_file(out / "config.txt", trainer.format_config(cfg))
    print(f"checkpoint = {ckpt}")
    print(f"log = {out / f'{cfg.variant}_log.tsv'}")
    return 0


def cmd_eval(args) -> int:
    net = load_psi(args.checkpoint)
    phi = load_phi(args.phi)
    data = load_split(args.data, args.split)
    name = args.model or Path(args.checkpoint).stem
    report = trainer.evaluate(name, net, data, phi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    verifier.write_report_tsv([report], out / f"report_{name}.tsv")
    verifier.write_roc_tsv(report, out)
    print(f"report = {out / f'report_{name}.tsv'}")
    print(report.row())
    return 0


def cmd_ablation(args) -> int:
    cfg = trainer.load_config(args.config)
    reports = trainer.run_ablation(cfg, args.out)
    print(f"table = {Path(args.out) / 'ablation.tsv'}")
    for report in reports:
        print(report.row())
    return 0


def cmd_gradcheck(args) -> int:
    results = gradsuite.run_suite(args.module, seed=args.seed,
                                  points=args.points, sabotage=args.sabotage)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: {status} max_rel_err={r.max_rel_err:.3e}")
    if failed:
        raise AssertionError(
            f"{len(failed)} gradient check(s) failed: "
            + ",".join(r.name for r in failed))
    return 0


def cmd_inpaint(args) -> int:
    net = load_psi(args.checkpoint)
    img = read_pgm(args.infile)
    if img.shape[1:] != (net.spec.height, net.spec.width):
        raise ValueError(
            f"image extent {img.shape[1]}x{img.shape[2]} does not match "
            f"checkpoint {net.spec.height}x{net.spec.width}")
    pred = net.forward(img[None], keep=False)[0]
    write_pgm(args.out, pred)
    print(f"out = {args.out}")
    if args.truth:
        truth = read_pgm(args.truth)
        print(f"psnr_db = {psnr(pred, truth):.6f}")
    return 0


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


def _roc_svg(series: list[tuple[str, list]], width=640, height=480) -> str:
    left, bottom, right, top = 60, 40, 20, 20
    pw, ph = width - left - right, height - bottom - top

    def sx(fpr):
        return left + fpr * pw

    def sy(tpr):
        return height - bottom - tpr * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
             f'fill="none" stroke="black"/>',
             f'<text x="{left + pw / 2:.0f}" y="{height - 8}" '
             f'text-anchor="middle" font-size="14">false positive rate</text>',
             f'<text x="16" y="{top + ph / 2:.0f}" text-anchor="middle" '
             f'font-size="14" transform="rotate(-90 16 {top + ph / 2:.0f})">'
             f'true positive rate</text>']
    for k, (model, points) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = sorted(((p.fpr, p.tpr) for p in points))
        d = [f"M {sx(0):.2f} {sy(pts[0][1]):.2f}"]
        prev_tpr = pts[0][1]
        for fpr, tpr in pts:
            d.append(f"H {sx(fpr):.2f}")
            if tpr != prev_tpr:
                d.append(f"V {sy(tpr):.2f}")
                prev_tpr = tpr
        d.append(f"H {sx(1.0):.2f}")
        parts.append(f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{left + 10}" y="{top + 18 + 16 * k}" '
                     f'font-size="13" fill="{color}">{model}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_roc_plot(args) -> int:
    report_dir = Path(args.report)
    if args.models:
        names = args.models.split(",")
        missing = [n for n in names
                   if not (report_dir / f"roc_{n}.tsv").exists()]
        if missing:
            raise FileNotFoundError(
                f"missing ROC files for models: {','.join(sorted(missing))}")
    else:
        names = sorted(p.stem[len("roc_"):]
                       for p in report_dir.glob("roc_*.tsv"))
        if not names:
            raise FileNotFoundError(f"no roc_*.tsv files in {report_dir}")
    series = [(n, verifier.read_roc_tsv(report_dir / f"roc_{n}.tsv"))
              for n in names]
    lines = ["model\tfpr\ttpr\tthreshold"]
    for name, points in series:
        lines += [f"{name}\t{p.fpr:.9f}\t{p.tpr:.9f}\t{p.threshold:.9f}"
                  for p in points]
    atomic.write_file(args.out, "\n".join(lines) + "\n")
    print(f"out = {args.out}")
    if args.svg:
        atomic.write_file(args.svg, _roc_svg(series))
        print(f"svg = {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demesh",
        description="Blind face inpainting: synthetic data, training, "
                    "verification metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic triplet dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, default=100)
    p.add_argument("--per-id", type=int, default=20, dest="per_id")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=48)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--phi", help="feature net checkpoint (built if missing)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--model", help="row label (default: checkpoint stem)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation",
                       help="train and evaluate every variant plus baselines")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("gradcheck", help="finite-difference self checks")
    p.add_argument("--module", default="all",
                   choices=("all",) + gradsuite.MODULES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inpaint", help="run the inpainter on one graymap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="clear image; prints PSNR against it")
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("roc-plot", help="merge per-model ROC tables")
    p.add_argument("--report", required=True, help="directory with roc_*.tsv")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.add_argument("--models", help="comma-separated subset to include")
    p.set_defaults(func=cmd_roc_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        thread_cap()
        return args.func(args)
    except Exception as exc:  # one machine-parsable line, nonzero exit
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
