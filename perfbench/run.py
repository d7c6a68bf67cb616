"""Benchmark of the dupin engine.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 30 --trace 0

Runs one workload (``recursion``, ``sweeps`` or ``catalog``, see
``workloads.py``) in this one process against the program in ``src/`` of
the checkout, for ``--seconds`` of timed iterations, and checks every output
against the acceptance-suite bounds.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off;
* ``--trace 1``: the per-layer metrics.  Iterations alternate between
  untraced and traced (the difference of their ``wall_s`` is the tracing
  overhead);
  a further set-up and iteration under tracemalloc give the per-layer
  memory peaks.  The spans are written to
  ``.bench_out/spans-<workload>-<seed>.json``.

Exit codes: 0 when a result was printed, 2 when the program cannot be
imported or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIB = float(1 << 20)

# the program's modules are the layers; "bench" is the benchmark's own code
LAYERS = ("seeds", "integrable", "ribaucour", "net", "verify", "moebius", "chains", "serialize")

# per-layer time metric -> the span names whose self times it sums
TIMED_CALLS = {
    "integrable.solve_linear_s": ("integrable.solve_linear",),
    "integrable.solve_B_s": ("integrable.solve_B",),
    "integrable.integrate_triple_s": ("integrable.integrate_triple",),
    "verify.tensor_space_s": ("verify.dupin_tensor_space",),
    "verify.numeric_jet_s": ("verify.numeric_jet",),
    "verify.principal_normals_s": ("verify.extract_principal_normals",),
    "verify.sf_rest_s": ("verify.sf_report",),
    "verify.sphere_leaf_s": ("verify.sphere_leaf_check",),
    "serialize.dump_s": ("serialize.dump",),
    "serialize.load_s": ("serialize.load",),
    "ribaucour.canonical_s": ("ribaucour.canonical",),
    "ribaucour.regularity_s": ("ribaucour.regularity_predicates",),
    "ribaucour.n_ribaucour_s": ("ribaucour.n_ribaucour_transform",),
    "net.validate_triple_s": ("net.validate_triple",),
    "moebius.apply_ltransform_s": ("moebius.apply_ltransform",),
    "moebius.pushforward_w_s": ("moebius.pushforward_w",),
    "moebius.detect_ltrivial_s": ("moebius.detect_ltrivial",),
    "chains.normalize_s": ("chains.normalize_to_form",),
    "chains.match_s": ("chains.match",),
}
# exact work counts and health numbers, with their units
COUNTS = {"integrable.rhs_calls": "count", "integrable.line_evals": "count",
          "verify.calls": "count", "verify.nodes": "count", "ribaucour.nodes_out": "count",
          "serialize.bytes": "bytes"}
HEALTH = {"integrable.path_independence": "1", "integrable.gnorm_fd": "1",
          "verify.dupin_residual": "1", "verify.masked_fraction": "ratio", "verify.leaf_fit": "1",
          "verify.probe_span": "1", "ribaucour.min_gap": "1", "ribaucour.masked_fraction": "ratio",
          "net.validate_residual": "1", "chains.residual": "1"}
ACCURACY = ("dupin_residual_max", "validate_residual_max", "path_independence_max")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Time of the reference kernel on an uncontended core of the host the
# bounds were set on (x86-64, 2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS on
# one thread).  wall_s is reported at that speed; see reference_time().
REFERENCE_S = 0.027


def log(msg: str = "") -> None:
    print(msg, flush=True)


def pin_environment() -> dict:
    """One process, one thread: DUPIN_THREADS unset (the program's default
    of 1) and BLAS capped at one thread, which is within nproc."""
    os.environ.pop("DUPIN_THREADS", None)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"nproc": os.cpu_count(), "DUPIN_THREADS": "unset (1)",
            **{var: os.environ[var] for var in BLAS_VARS}}


def import_program():
    """Import the program from src/ of this checkout, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy
        import dupin
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import the program from {src}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(dupin.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: dupin was imported from {dupin.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return numpy, workloads


def blas_name(numpy) -> str:
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except Exception as e:  # the config layout differs between numpy versions
        return f"unknown ({type(e).__name__})"


def reference_time() -> float:
    """Best of three runs of a fixed kernel that mixes the two kinds of work
    the engine's hot paths do: small batched numpy calls and Python loops.

    A shared host runs the same code at speeds up to 1.6x apart for minutes
    at a time, so raw iteration times of two runs minutes apart differ more
    than any bound worth setting.  Timing this kernel next to each iteration
    and scaling by it cancels most of that drift.
    """
    import numpy as np

    a = np.arange(64 * 9, dtype=float).reshape(64, 3, 3) % 7.0
    a = a + np.swapaxes(a, 1, 2)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float(np.linalg.eigh(a + i)[0].sum())
            acc += sum(j * 0.5 for j in range(100))
        best = min(best, time.perf_counter() - t0)
    return best


class Runner:
    def __init__(self, workloads, name: str, seed: int, workdir: str):
        self.wl = workloads
        inputs, self.setup_fn, self.iterate_fn, self.probe_fn = workloads.WORKLOADS[name]
        self.inputs = inputs(seed)
        self.workdir = workdir
        self.rec = workloads.Record()
        self.iteration_counts: list[dict] = []

    def setup(self, tr, label: str):
        tr.begin_iteration(label)
        t0 = time.perf_counter()
        fixture = self.setup_fn(self.inputs, tr, self.workdir)
        return fixture, time.perf_counter() - t0

    def iteration(self, fixture, tr, label: str) -> float:
        """Run one iteration and return its wall time.  The work counts of
        iterations in which every gate passed are kept for the repeat check."""
        from dupin.errors import DupinError

        gc.collect()
        rec = self.rec
        rec.counts.clear()
        failed_before = sum(rec.failures.values())
        tr.begin_iteration(label)
        t0 = time.perf_counter()
        try:
            with tr.span("bench.iteration"):
                self.iterate_fn(fixture, tr, rec)
        except self.wl.GateAbort as e:
            log(f"gate failed: {e}")
        except (DupinError, ValueError) as e:
            rec.error(f"error.{type(e).__name__}")
            log(f"error: {type(e).__name__}: {e}")
        wall = time.perf_counter() - t0
        if sum(rec.failures.values()) == failed_before:
            self.iteration_counts.append(dict(rec.counts))
        return wall

    def timed_pass(self, fixture, tracers: dict, seconds: float) -> dict:
        """Iterations for `seconds`, taking the tracers (label -> tracer) in
        turn, each iteration between two timings of the reference kernel.
        Returns label -> (wall times, wall times scaled to the reference
        speed, reference-kernel times)."""
        out = {label: ([], [], []) for label in tracers}
        turns = list(tracers.items())
        ref = reference_time()
        start = time.perf_counter()
        n = 0
        while n < len(turns) or time.perf_counter() - start < seconds:
            label, tr = turns[n % len(turns)]
            walls, scaled, refs = out[label]
            wall = self.iteration(fixture, tr, f"{label}{len(walls)}")
            after = reference_time()
            walls.append(wall)
            scaled.append(wall * REFERENCE_S / (0.5 * (ref + after)))
            refs.append(after)
            ref = after
            n += 1
        return out

    def counts_repeat(self) -> bool:
        return all(c == self.iteration_counts[0] for c in self.iteration_counts)


def layer_metrics(spans, iterations, walls, setup_spans, memory_spans) -> dict:
    """Per-layer numbers from the traced pass (self times, medians over its
    iterations), the traced set-ups and the memory pass."""
    from spans import layer_of, per_iteration

    by_name = per_iteration(spans, key=lambda s: s["name"])
    out = {m: (statistics.median(sum(by_name[i].get(n, 0.0) for n in names) for i in iterations), "s")
           for m, names in TIMED_CALLS.items()}
    by_layer = per_iteration(spans, key=lambda s: layer_of(s["name"]))
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = (statistics.median(by_layer[i].get(layer, 0.0) for i in iterations), "s")
    covered = [sum(by_layer[i].get(l, 0.0) for l in LAYERS) / w for i, w in zip(iterations, walls)]
    out["trace.coverage"] = (statistics.median(covered), "ratio")
    setup_layers = per_iteration(setup_spans, key=lambda s: layer_of(s["name"]))
    out["seeds.build_s"] = (statistics.median(v.get("seeds", 0.0) for v in setup_layers.values()), "s")
    for layer in LAYERS:
        peak = max((s.get("peak_bytes", 0) for s in memory_spans if layer_of(s["name"]) == layer),
                   default=0)
        out[f"{layer}.peak_mb"] = (peak / MIB, "MB")
    return out


def stage_table(spans, iterations) -> list[tuple]:
    """The ROADMAP baseline stages, median over traced iterations."""
    def total(pick):
        return statistics.median(
            sum(s["end"] - s["start"] for s in spans if s["iteration"] == i and pick(s))
            for i in iterations)

    big = 21 ** 3
    return [
        ("dupin_step #1 (21^2)", total(lambda s: s["name"] == "ribaucour.dupin_step" and s.get("step") == 1)),
        ("dupin_step #2 (21^3)", total(lambda s: s["name"] == "ribaucour.dupin_step" and s.get("step") == 2)),
        ("numeric_jet on the 21^3 result", total(lambda s: s["name"] == "verify.numeric_jet" and s.get("nodes") == big)),
        ("extract_principal_normals", total(lambda s: s["name"] == "verify.extract_principal_normals" and s.get("nodes") == big)),
        ("rest of sf_report", total(lambda s: s["name"] == "verify.sf_report" and s.get("nodes") == big)),
        ("sphere_leaf_check", total(lambda s: s["name"] == "verify.sphere_leaf_check")),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("recursion", "sweeps", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = pin_environment()
    t0 = time.perf_counter()
    numpy, workloads = import_program()
    import_s = time.perf_counter() - t0
    from spans import NullTracer, Tracer

    log(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    log(f"python {platform.python_version()}  numpy {numpy.__version__}  blas {blas_name(numpy)}  "
        + "  ".join(f"{k} {v}" for k, v in env.items()))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        runner = Runner(workloads, args.workload, args.seed, workdir)
        tr = Tracer() if args.trace else NullTracer()
        ref_before = reference_time()
        setups = [runner.setup(tr, f"setup{k}") for k in range(SETUP_REPEATS)]
        fixture = setups[-1][0]
        speed = REFERENCE_S / (0.5 * (ref_before + reference_time()))
        setup_s = (import_s + min(t for _, t in setups)) * speed
        setup_spans = list(tr.spans) if args.trace else []

        if args.trace:
            tr = Tracer()
            passes = runner.timed_pass(fixture, {"untraced": NullTracer(), "it": tr}, args.seconds)
            untraced = passes["untraced"][1]
            walls, scaled, refs = passes["it"]
            spans = tr.spans
            iterations = [f"it{i}" for i in range(len(walls))]
            mem = Tracer(memory=True)
            tracemalloc.start()
            try:
                mem_fixture, _ = runner.setup(mem, "memsetup")
                runner.iteration(mem_fixture, mem, "mem")
            finally:
                tracemalloc.stop()
            runner.probe_fn(fixture, runner.rec)
            metrics = layer_metrics(spans, iterations, walls, setup_spans, mem.spans)
            wall_untraced, wall_traced = statistics.median(untraced), statistics.median(scaled)
            metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
            metrics["trace.wall_untraced_s"] = (wall_untraced, "s")
            metrics["trace.wall_traced_s"] = (wall_traced, "s")
            metrics["bench.reference_s"] = (statistics.median(refs), "s")
            metrics["trace.spans"] = (len(spans) / len(walls), "count")
            with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as f:
                json.dump({"setup": setup_spans, "timed": spans, "memory": mem.spans}, f)
        else:
            walls, scaled, refs = runner.timed_pass(fixture, {"it": tr}, args.seconds)["it"]
            runner.probe_fn(fixture, runner.rec)
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec = runner.rec
    counts = runner.iteration_counts[0] if runner.iteration_counts else {}
    counts_ok = bool(runner.iteration_counts) and runner.counts_repeat()
    failed = sum(rec.failures.values())
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]

    log(f"iterations {len(walls)}  raw wall median {statistics.median(walls):.4f} s  "
        f"min {min(walls):.4f} s  max {max(walls):.4f} s  reference kernel median "
        f"{statistics.median(refs):.4f} s (nominal {REFERENCE_S} s)")
    log(f"counts (computed from grid, order and substeps; {len(runner.iteration_counts)} "
        f"iterations agree: {counts_ok}; digest {digest}): "
        + ", ".join(f"{k} {counts.get(k, 0)}" for k in COUNTS))
    log(f"gates: {rec.attempted} attempted, {failed} failed"
        + (": " + ", ".join(f"{k} x{v}" for k, v in sorted(rec.failures.items())) if failed else ""))

    if args.trace:
        metrics.update({name: (float(counts.get(name, 0)), unit) for name, unit in COUNTS.items()})
        metrics.update({name: (rec.health.get(name, 0.0), unit) for name, unit in HEALTH.items()})
        if args.workload == "recursion":
            log("stage table (ROADMAP baseline; median span time over traced iterations):")
            for stage, t in stage_table(spans, iterations):
                log(f"  {stage:<32} {t:8.4f} s")
        if args.workload == "catalog":
            log("note: the sf_report that detect_ltrivial runs inside the program counts as "
                "moebius self time until the program records its own spans")
        log(f"tracing overhead: {metrics['trace.overhead_s'][0]:+.4f} s per iteration "
            f"(traced minus untraced, both at the reference speed)")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": ((rec.attempted - failed) / max(rec.attempted, 1), "ratio"),
            **{name: (rec.accuracy.get(name, 0.0), "1") for name in ACCURACY},
        }
    for name, (value, unit) in metrics.items():
        log(f"  {name:<32} {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and counts_ok,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
