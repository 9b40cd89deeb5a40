"""Per-layer spans for demesh, installed from outside the package.

The tracer replaces demesh's public functions and layer methods with timing
wrappers while a traced operation runs, and restores the originals after it.
Module functions are replaced wherever another demesh module imported them
by name (``from .facegen import load_split``), so every call site is seen.

A span's self time is its duration minus the time covered by its child
spans. Layer spans are keyed by the layer's own name (``enc1``, ``conv1``,
``fc``) where it has one, and otherwise by its kind and position in its net
(``inpaint.pool1``, ``inpaint.act``, ``featnet.mfm``).
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, function, span key, counter): the key is a string or a function
# of the positional arguments; the counter maps (args, result) to
# {counter name: increment}
FUNCTIONS = (
    ("cli", "main", lambda a: f"cli.{a[0][0]}", None),
    ("facegen", "render_face", "facegen.render", None),
    ("facegen", "synth_mesh", "facegen.mesh", None),
    ("facegen", "apply_mesh", "facegen.composite", None),
    ("facegen", "write_pgm", "facegen.write_pgm", None),
    ("facegen", "read_pgm", "facegen.read_pgm", None),
    ("facegen", "load_split", "facegen.load_split", None),
    ("facegen", "validate_dataset", "facegen.validate", None),
    ("facegen", "make_dataset", "facegen.make_dataset", None),
    ("stn", "alignment_grid", "stn.grid", None),
    ("stn", "bilinear_sample", "stn.sample", None),
    ("stn", "bilinear_backward", "stn.adjoint", None),
    ("layers", "adam_step", "layers.adam", None),
    ("layers", "softmax_cross_entropy", "layers.softmax_xent", None),
    ("losses", "unified_loss", "losses.unified", None),
    ("losses", "pixel_loss", "losses.pixel", None),
    ("losses", "feature_loss", "losses.feature", None),
    ("losses", "reverse_huber", "losses.berhu", None),
    ("featnet", "build_phi", "featnet.build_phi", None),
    ("verifier", "run_protocol", "verifier.protocol", None),
    ("verifier", "verification_scores", "verifier.scores",
     lambda a, r: {"verifier.pairs": len(r.genuine) + len(r.impostor)}),
    ("verifier", "roc", "verifier.roc",
     lambda a, r: {"verifier.roc_points": len(r)}),
    ("verifier", "psnr", "verifier.psnr", None),
    ("verifier", "feature_rmse", "verifier.feature_rmse", None),
    ("verifier", "write_roc_tsv", "verifier.write_roc", None),
    ("verifier", "write_report_tsv", "verifier.write_report", None),
    ("trainer", "train", "trainer.train",
     lambda a, r: {"trainer.steps": len(r[1].steps)}),
    ("trainer", "_validation_metrics", "trainer.validation", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save",
     lambda a, r: {"checkpoint.bytes_written": os.path.getsize(a[0])}),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
)

# (module, class, method, span key); a key starting with "." follows the
# layer's label, as in "inpaint.enc1" + ".fwd"
METHODS = (
    ("inpaint", "InpaintNet", "forward", "inpaint.forward"),
    ("inpaint", "InpaintNet", "backward", "inpaint.backward"),
    ("featnet", "FeatureNet", "forward_taps", "featnet.forward_taps"),
    ("featnet", "FeatureNet", "backward_taps", "featnet.backward_taps"),
    ("featnet", "FeatureNet", "features", "featnet.features"),
) + tuple(
    ("layers", cls, method, f".{tag}")
    for cls in ("Conv2d", "Dense", "MaxPool2x2", "MaxUnpool2x2",
                "MaxFeatureMap", "ReLU", "Sigmoid")
    for method, tag in (("forward", "fwd"), ("backward", "bwd")))

# layer kinds that carry no name: numbered by position in the inpainter,
# grouped otherwise
_POSITIONAL = {("inpaint", "MaxPool2x2"): "pool",
               ("inpaint", "MaxUnpool2x2"): "unpool"}
_GROUPED = {"ReLU": "act", "Sigmoid": "act", "MaxFeatureMap": "mfm",
            "MaxPool2x2": "pool"}
_NET_PREFIX = {"InpaintNet": "inpaint", "FeatureNet": "featnet"}


class Tracer:
    """Collects (total, self) seconds per span key and named counters."""

    def __init__(self):
        self.calls: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._labels = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, key, fn, counter=None):
        """``fn`` timed as a span; ``key`` is a string or a function of the
        call's positional arguments."""
        stack, calls, counts = self._stack, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key if isinstance(key, str) else key(args)
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += total
                calls[name].append((total, total - child[0]))
            if counter is not None:
                for counted, inc in counter(args, result).items():
                    counts[counted] += inc
            return result
        return traced

    def _layer_key(self, suffix: str):
        return lambda args: self._labels.get(
            args[0], f"layers.{type(args[0]).__name__}") + suffix

    def _net_key(self, name: str):
        def key(args):
            net = args[0]
            if net.layers and net.layers[0] not in self._labels:
                self._label(net)
            return name
        return key

    def _label(self, net) -> None:
        prefix = _NET_PREFIX[type(net).__name__]
        seen: dict[str, int] = defaultdict(int)
        for layer in net.layers:
            kind = type(layer).__name__
            if hasattr(layer, "name"):
                label = layer.name
            elif (prefix, kind) in _POSITIONAL:
                seen[kind] += 1
                label = f"{_POSITIONAL[prefix, kind]}{seen[kind]}"
            else:
                label = _GROUPED[kind]
            self._labels[layer] = f"{prefix}.{label}"

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "demesh" or n.startswith("demesh.")]
        for mod, fn_name, key, counter in FUNCTIONS:
            original = getattr(sys.modules[f"demesh.{mod}"], fn_name)
            wrapped = self.wrap(key, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for mod, cls_name, method, key in METHODS:
            cls = getattr(sys.modules[f"demesh.{mod}"], cls_name)
            keyed = self._layer_key(key) if key.startswith(".") \
                else self._net_key(key)
            self._patch(cls, method, self.wrap(keyed, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def median_ms(self, key: str, inclusive: bool = False) -> float:
        """Median time per call in ms (self time unless ``inclusive``); 0.0
        for a span that never ran."""
        samples = self.calls.get(key)
        if not samples:
            return 0.0
        return 1000.0 * statistics.median(s[0] if inclusive else s[1]
                                          for s in samples)

    def total_s(self, key: str, inclusive: bool = False) -> float:
        return sum(s[0] if inclusive else s[1] for s in self.calls.get(key, ()))
