"""The benchmark's workloads: inputs built from a case number, one timed
operation each, and the facts about an operation's outputs that are checked
against golden values.

Every workload drives demesh through ``demesh.cli.main`` and the public
functions of its modules; the package itself is never edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from demesh import checkpoint, cli, featnet, inpaint

# Sizes per mode. "full" is what the benchmark measures; "smoke" is a
# seconds-long version of the same code paths for the benchmark's own tests.
SIZES = {
    "full": {
        # train-demesh: documented defaults (batch 8, 64x48, widths 16/32,
        # two-tap berHu), 20 samples per identity, 10 identities split
        # 8/1/1, validation only at the final step
        "train_identities": 10, "train_per_id": 20, "train_steps": 20,
        # the frozen phi built in set-up (identities, per identity, steps)
        "setup_phi": (8, 8, 10),
        # prep: gen-data at 20 per identity, then phi pretraining with the
        # default architecture at a reduced, fixed size; gen-data is kept
        # the smaller part because its times spread the most between runs
        "prep_identities": 6, "prep_per_id": 20, "prep_phi": (16, 16, 30),
        # eval-gallery: N = 200 identities resolves FPR 1e-4, since
        # 1 / (N^2 - N) <= 1e-4 needs N >= 101
        "gallery_identities": 200, "gallery_per_id": 2,
    },
    "smoke": {
        "train_identities": 10, "train_per_id": 2, "train_steps": 2,
        "setup_phi": (2, 4, 2),
        "prep_identities": 3, "prep_per_id": 2, "prep_phi": (2, 4, 2),
        "gallery_identities": 12, "gallery_per_id": 1,
    },
}

# Tolerances for outputs that are not bitwise equal to the golden.
# ROADMAP allows 1e-12 relative drift per training step for reordered float
# sums: 20 steps give 2e-11, rounded up to 1e-10 for the checkpoint's
# parameter norms. The training log prints each step's values with 10
# significant digits (%.9e), so a last-digit rounding flip is up to 1e-9
# relative; the step trace is compared at that precision. The validation
# line of that log and the eval report print 6 decimals, so their fields
# may differ by one unit in the last place (1e-6 absolute, plus slack for
# the binary representation of the printed decimals). The ROC table prints
# 9 decimals, so its sampled rows may differ by 1.5e-9 absolute per value,
# and its column sums by that much per row.
TRACE_RTOL = 1e-9
PARAM_RTOL = 1e-10
SIX_DECIMALS_ATOL = 1.5e-6
ROC_ATOL = 1.5e-9
# rows of the ROC table kept in the golden when its sha256 differs
ROC_SAMPLES = 100


class CommandFailed(RuntimeError):
    """A demesh command returned a nonzero exit code."""


def run_cli(argv: list[str]) -> None:
    """Run one demesh command in-process, its output kept off stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"demesh {' '.join(argv)}: {sink.getvalue().strip()}")


def tree_sha256(root: Path) -> str:
    """Digest of every file under ``root``: relative paths and contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def params_digest(net) -> str:
    h = hashlib.sha256()
    for p in net.params():
        h.update(p.value.tobytes())
    return h.hexdigest()


def gen_data(out: Path, identities: int, per_id: int, seed: int,
             split: str = "0.8,0.1,0.1") -> None:
    run_cli(["gen-data", "--out", str(out), "--identities", str(identities),
             "--per-id", str(per_id), "--seed", str(seed), "--split", split])


def build_phi(seed: int, size: tuple[int, int, int]):
    identities, per_id, steps = size
    return featnet.build_phi("pretrain", seed, featnet.FeatureSpec(),
                             n_identities=identities, per_identity=per_id,
                             steps=steps)


class Workload:
    """One workload at one input case.

    ``setup`` builds the inputs under a directory and ``setup_facts``
    describes them for checking; ``op`` runs one timed operation into a
    fresh directory and ``facts`` reads back what it wrote. One operation
    counts as ``units`` operations in the result's attempted and failed
    totals.
    """

    name = ""
    units = 1

    def __init__(self, case: int, mode: str):
        self.case = case
        self.size = SIZES[mode]
        self.inputs: Path | None = None
        self.phi = None

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def setup_facts(self) -> dict:
        return {"dataset": tree_sha256(self.inputs / "data"),
                "phi": params_digest(self.phi)}

    def op(self, out: Path) -> None:
        raise NotImplementedError

    def facts(self, out: Path) -> dict:
        raise NotImplementedError


class TrainDemesh(Workload):
    """``demesh train`` of the demesh variant, then its checkpoint save; a
    unit is a training step."""

    name = "train-demesh"
    batch = 8

    def __init__(self, case: int, mode: str):
        super().__init__(case, mode)
        self.units = self.size["train_steps"]

    def setup(self, work: Path) -> None:
        s = self.size
        self.inputs = work
        gen_data(work / "data", s["train_identities"], s["train_per_id"],
                 self.case)
        self.phi = build_phi(71 + self.case, s["setup_phi"])
        featnet.save_phi(self.phi, work / "phi.ckpt")
        steps = s["train_steps"]
        (work / "config.txt").write_text(
            f"dataset = {work / 'data'}\nvariant = demesh\n"
            f"batch_size = {self.batch}\ntotal_steps = {steps}\n"
            f"val_interval = {steps}\ninit_seed = {1 + self.case}\n"
            f"data_seed = {2 + self.case}\n")

    def op(self, out: Path) -> None:
        run_cli(["train", "--config", str(self.inputs / "config.txt"),
                 "--out", str(out), "--phi", str(self.inputs / "phi.ckpt")])

    def facts(self, out: Path) -> dict:
        trace, validation = [], []
        for line in (out / "demesh_log.tsv").read_text().splitlines()[1:]:
            if line.startswith("# val\t"):
                validation.append([float(v) for v in line.split("\t")[1:]])
            else:
                trace.append([float(v) for v in line.split("\t")[1:]])
        ckpt = out / "demesh.ckpt"
        _, records = checkpoint.load_checkpoint(ckpt)
        norms = [float(np.linalg.norm(value)) for _, _, value in records]
        return {"loss_trace": trace, "validation": validation,
                "checkpoint": {"sha256": file_sha256(ckpt), "norms": norms}}


class Prep(Workload):
    """``demesh gen-data`` (with its validation pass), then phi
    pretraining; psi, the losses and the verifier never run. Units are the
    generated triplets plus the phi steps."""

    name = "prep"

    def __init__(self, case: int, mode: str):
        super().__init__(case, mode)
        s = self.size
        self.units = s["prep_identities"] * s["prep_per_id"] + s["prep_phi"][2]

    def setup(self, work: Path) -> None:
        # prep has no inputs to build: its set-up is a warm-up pass over the
        # same code, so first-call costs stay out of the timed operations
        gen_data(work / "warmup", 4, self.size["prep_per_id"], self.case)
        build_phi(self.case, (4, 8, 5))

    def setup_facts(self) -> dict:
        return {}

    def op(self, out: Path) -> None:
        s = self.size
        gen_data(out / "data", s["prep_identities"], s["prep_per_id"],
                 self.case)
        self.phi = build_phi(71 + self.case, s["prep_phi"])

    def facts(self, out: Path) -> dict:
        return {"dataset": tree_sha256(out / "data"),
                "phi": params_digest(self.phi)}


class EvalGallery(Workload):
    """``demesh eval`` of a saved psi on a test-only split; a unit is one
    protocol evaluation."""

    name = "eval-gallery"

    def setup(self, work: Path) -> None:
        s = self.size
        self.inputs = work
        gen_data(work / "data", s["gallery_identities"], s["gallery_per_id"],
                 self.case, split="0,0,1")
        self.phi = build_phi(71 + self.case, s["setup_phi"])
        featnet.save_phi(self.phi, work / "phi.ckpt")
        psi = inpaint.build_psi(inpaint.InpaintSpec(), 1 + self.case)
        inpaint.save_psi(psi, work / "psi.ckpt")

    def setup_facts(self) -> dict:
        return {**super().setup_facts(),
                "psi": file_sha256(self.inputs / "psi.ckpt")}

    def op(self, out: Path) -> None:
        run_cli(["eval", "--checkpoint", str(self.inputs / "psi.ckpt"),
                 "--data", str(self.inputs / "data"),
                 "--phi", str(self.inputs / "phi.ckpt"),
                 "--out", str(out), "--model", "psi"])

    def facts(self, out: Path) -> dict:
        roc = out / "roc_psi.tsv"
        rows = [[float(v) for v in line.split("\t")]
                for line in roc.read_text().splitlines()[1:]]
        stride = max(1, len(rows) // ROC_SAMPLES)
        return {"report_row": (out / "report_psi.tsv").read_text()
                .splitlines()[1],
                "roc": {"sha256": file_sha256(roc), "points": len(rows),
                        "sample": rows[::stride] + rows[-1:],
                        "sums": [math.fsum(col) for col in zip(*rows)]}}


WORKLOADS = {w.name: w for w in (TrainDemesh, Prep, EvalGallery)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(got, want, rtol: float = 0.0, atol: float = 0.0) -> bool:
    a = np.asarray(got, dtype=np.float64)
    b = np.asarray(want, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _row_close(got: str, want: str) -> bool:
    g, w = got.split("\t"), want.split("\t")
    if len(g) != len(w) or g[0] != w[0]:
        return False
    return _close([float(v) for v in g[1:]], [float(v) for v in w[1:]],
                  atol=SIX_DECIMALS_ATOL)


def _roc_close(got: dict, want: dict) -> bool:
    return got["points"] == want["points"] and _close(
        got["sample"], want["sample"], atol=ROC_ATOL) and _close(
        got["sums"], want["sums"], atol=ROC_ATOL * want["points"])


# facts that may differ from the golden within a stated tolerance; every
# other fact must match exactly
TOLERANT = {
    "loss_trace": lambda g, w: len(g) == len(w) and all(
        _close(a, b, rtol=TRACE_RTOL) for a, b in zip(g, w)),
    "validation": lambda g, w: _close(g, w, atol=SIX_DECIMALS_ATOL),
    "checkpoint": lambda g, w: _close(g["norms"], w["norms"], rtol=PARAM_RTOL),
    "report_row": _row_close,
    "roc": _roc_close,
}


def compare(facts: dict, golden: dict) -> dict[str, str]:
    """Per fact: "bitwise", "tolerance" or "mismatch"."""
    status = {}
    for key in sorted(set(facts) | set(golden)):
        got, want = facts.get(key), golden.get(key)
        if got == want:
            status[key] = "bitwise"
        elif got is not None and want is not None and key in TOLERANT \
                and TOLERANT[key](got, want):
            status[key] = "tolerance"
        else:
            status[key] = "mismatch"
    return status
