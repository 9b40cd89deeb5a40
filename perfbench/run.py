#!/usr/bin/env python3
"""Seeded, single-process benchmark of demesh.

Run from the repository root:

    python3 perfbench/run.py --workload prep --seed 0 --seconds 25 --trace 0

The workload seed picks one of CASES input cases (seed mod CASES); each case
has golden output values recorded from a reference commit in goldens.json,
and every operation's outputs are checked against them. One client runs
operations back to back (closed loop) on one BLAS thread.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced operations and prints the per-layer metrics,
including the tracing overhead. The last line of standard output is the
result object; a run record with the environment goes to
``.perfbench/results/``. ``--smoke`` runs tiny sizes for the benchmark's own
tests; ``--record`` rewrites the golden values from the current sources.
"""

import os

# one worker thread, fixed before numpy (and with it BLAS) first loads
os.environ["DEMESH_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
GOLDENS = BENCH / "goldens.json"
CASES = 16
SETUPS = {"full": 5, "smoke": 1}
# operations per run at least, untraced (and traced, with --trace 1)
MIN_OPS = {"full": 3, "smoke": 1}
MIN_TRACED_OPS = {"full": 2, "smoke": 1}
# spans whose *_ms metric is the time per call including child spans
INCLUSIVE = {"trainer.train", "trainer.validation", "featnet.build_phi"}
RANK = {"bitwise": 0, "tolerance": 1, "mismatch": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--record", action="store_true",
                   help="record golden values for every case of the "
                        "workload (default: all) instead of measuring")
    return p.parse_args(argv)


def import_demesh():
    """Import demesh from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "demesh"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no demesh sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import demesh
    if Path(demesh.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: demesh imported from {demesh.__file__}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int, case: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "DEMESH_THREADS": os.environ["DEMESH_THREADS"],
            "git_commit": _git_commit(),
            "source_sha256": sources.hexdigest(),
            "seed": seed, "case": case}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def merge(statuses: dict, prefix: str, new: dict) -> None:
    """Keep the worst status seen per checked fact."""
    for key, status in new.items():
        name = f"{prefix}.{key}"
        if RANK[status] >= RANK[statuses.get(name, "bitwise")]:
            statuses[name] = status


def measure(wl_cls, case: int, mode: str, seconds: float, trace: bool,
            golden: dict, work: Path) -> dict:
    import spans
    import workloads

    statuses: dict[str, str] = {}
    setup_walls = []
    for i in range(SETUPS[mode]):
        wl = wl_cls(case, mode)
        inputs = work / f"setup{i}"
        inputs.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        wl.setup(inputs)
        setup_walls.append(time.perf_counter() - start)
        merge(statuses, "setup",
              workloads.compare(wl.setup_facts(), golden["setup"]))
        if i:
            shutil.rmtree(work / f"setup{i - 1}")

    tracer = spans.Tracer() if trace else None
    ops = []
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        out = work / f"op{len(ops)}"
        gc.collect()
        if traced:
            tracer.install()
            op = tracer.wrap("op", wl.op)
        else:
            op = wl.op
        t0 = time.perf_counter()
        try:
            op(out)
            ran = True
        except workloads.CommandFailed as exc:
            print(exc, file=sys.stderr)
            ran = False
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        try:
            facts = wl.facts(out) if ran else {}
        except (OSError, ValueError) as exc:
            print(f"unreadable output: {exc}", file=sys.stderr)
            facts = {}
        merge(statuses, "op", workloads.compare(facts, golden["op"]))
        shutil.rmtree(out, ignore_errors=True)
        ops.append({"wall_s": wall, "units": wl.units, "traced": traced})

        plain = [o for o in ops if not o["traced"]]
        least = MIN_TRACED_OPS[mode] if trace else MIN_OPS[mode]
        enough = len(plain) >= least and len(ops) - len(plain) >= (
            least if trace else 0)
        typical = statistics.median(o["wall_s"] for o in ops)
        if enough and time.perf_counter() - start + typical > seconds:
            break
    return {"setup_walls": setup_walls, "ops": ops, "statuses": statuses,
            "tracer": tracer}


def end_to_end(run: dict) -> dict:
    plain = [o for o in run["ops"] if not o["traced"]]
    return {
        "setup_s": statistics.median(run["setup_walls"]),
        "op_s": min(o["wall_s"] for o in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(run: dict, names: list[str]) -> dict:
    tracer = run["tracer"]
    traced = [o["wall_s"] for o in run["ops"] if o["traced"]]
    plain = [o["wall_s"] for o in run["ops"] if not o["traced"]]
    n = len(traced)
    overhead = min(traced) - min(plain)
    outside = tracer.total_s("op") + sum(
        tracer.total_s(k) for k in tracer.calls if k.startswith("cli."))
    derived = {
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / min(plain),
        "trace.attributed_pct":
            100.0 * (1.0 - outside / tracer.total_s("op", inclusive=True)),
        "trainer.self_ms": tracer.median_ms("trainer.train"),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith("_calls"):
            values[name] = len(tracer.calls.get(name[:-6], ())) / n
        elif name.endswith("_ms"):
            key = name[:-3]
            values[name] = tracer.median_ms(
                key, inclusive=key in INCLUSIVE or key.startswith("cli."))
        else:
            values[name] = tracer.counts.get(name, 0) / n
    return values


def record(mode: str, only: str | None) -> int:
    import workloads

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    table = goldens.setdefault(mode, {})
    for name, wl_cls in workloads.WORKLOADS.items():
        if only not in (None, name):
            continue
        for case in range(CASES):
            work = STATE / f"record-{os.getpid()}"
            try:
                wl = wl_cls(case, mode)
                (work / "inputs").mkdir(parents=True)
                wl.setup(work / "inputs")
                wl.op(work / "out")
                table.setdefault(name, {})[str(case)] = {
                    "setup": wl.setup_facts(), "op": wl.facts(work / "out")}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {mode} {name} case {case}", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_demesh()
    import workloads

    mode = "smoke" if args.smoke else "full"
    if args.record:
        return record(mode, args.workload)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(have {', '.join(workloads.WORKLOADS)})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = json.loads(GOLDENS.read_text())
    case = args.seed % CASES
    golden = goldens[mode][args.workload][str(case)]

    work = STATE / f"work-{os.getpid()}"
    try:
        run = measure(workloads.WORKLOADS[args.workload], case, mode,
                      args.seconds, bool(args.trace), golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer(run, [m["name"] for m in declared]) if args.trace \
        else end_to_end(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    statuses = run["statuses"]
    correct = bool(statuses) and "mismatch" not in statuses.values()
    attempted = sum(o["units"] for o in run["ops"])
    result = {"correct": correct, "attempted": attempted,
              "failed": 0 if correct else attempted, "metrics": metrics}

    env = environment(args.seed, case)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-smoke" if args.smoke else "")
    (results / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "checks": statuses,
         "setup_walls_s": run["setup_walls"], "ops": run["ops"],
         "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"checks": statuses}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
