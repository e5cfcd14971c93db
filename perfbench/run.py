"""Benchmark of the hodgecharts exact chart pipeline, CLI and float engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload charts-wide --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

With ``--trace 0`` one timed pass runs operations for ``--seconds`` and the
last line of stdout carries the end-to-end metrics; with ``--trace 1`` a
fixed list of operations runs under the span tracer, is replayed untraced,
and the last line carries the per-layer metrics.  Every operation's output is
checked; see perfbench/README.md for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("charts-wide", "charts-deep", "cli-fixtures", "numeric-orbits")
SETUP_PROBES = 5
# op_tail_ms per workload: a fixed percentile in the middle of one cost class
# of the mix, with at least ten samples beyond it in every run measured on a
# 2-CPU Xeon (70-105 atlases and 68-78 CLI calls per 38 s window, 2900-4100
# numeric calls per 25 s window).  It is fixed, not recomputed from each
# run's count, because a percentile that moved with the count would hop from
# one class to the next when a faster program fits more operations into the
# window.  It keeps clear of class boundaries because the estimate (``tail``)
# weights the samples within about ten percentage points of it.  charts-wide
# takes p70: its genus-3 atlases, a sixth of the mix and four times slower
# than the rest, start at p83.  charts-deep takes p80, the middle of its
# k = 3 sp(6) atlases, the slowest two fifths of the mix.
TAIL_PERCENTILE = {"charts-wide": 70, "charts-deep": 80, "cli-fixtures": 70, "numeric-orbits": 99}
# Operations in a traced run: a fixed list, so its counts repeat exactly.
TRACE_OPS = {"charts-wide": 10, "charts-deep": 8, "cli-fixtures": 16, "numeric-orbits": 48}

END_TO_END = {  # name -> unit, in the order printed
    "setup_s": "s",
    "ops_per_s": "1/s",
    "index_sets_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_ratio": "1",
    "peak_rss_mb": "MB",
}
# Printed by name but kept out of the result line: failed_ratio is 0 on a
# healthy run (failures are the line's own "failed" count), index_sets_per_s
# exists only on the charts workloads, op_p50_ms flips between the two speed
# modes of a shared 2-CPU host (its spread over ten seeds reached 26%, above
# the largest bound the result line may carry), and charts.strata is a
# property of the inputs that no optimisation should move.
NOT_IN_RESULT = ("failed_ratio", "index_sets_per_s", "op_p50_ms", "charts.strata")

CALLS_AND_SELF = (
    "linalg.rref",
    "linalg.kernel",
    "linalg.solve",
    "linalg.intersect",
    "linalg.contains_vector",
    "filtrations.weight_filtration",
    "filtrations.adjoint_filtration",
    "cones.relation_space",
    "cones.farkas_split",
    "cones.farkas_alternative",
    "cones.positive_basis",
    "metrics.log_det_lambda",
    "metrics.residue_integral",
    "siegel.boundedness_probe",
)
SELF_ONLY = (
    "linalg.lattice_basis",
    "linalg.hnf_rows",
    "charts.binomial_relations",
    "charts.separation_check",
    "cli.emit",
)
TOTAL_ONLY = (
    "cones.k_index_map",
    "charts.build_atlas",
    "metrics.curvature_limit_check",
    "metrics.expansion_fit",
)
REPEATS = ("linalg.rref", "linalg.intersect", "filtrations.weight_filtration")
GROUPS = {  # name -> prefix of the spans whose self time it sums
    "cli.runner": "cli.run_",
    "serialize.parse": "serialize.",
    "ncd": "ncd.",
    "positivity": "positivity.",
}


def make_workload(name: str):
    import workloads

    if name == "charts-wide":
        return workloads.charts_wide()
    if name == "charts-deep":
        return workloads.charts_deep()
    if name == "cli-fixtures":
        return workloads.CliWorkload(ROOT)
    return workloads.NumericWorkload()


class Tally:
    """Latencies and outcomes of a sequence of operations."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds; a failed operation is inf
        self.busy_s = 0.0
        self.failed = 0
        self.index_sets = 0
        self.strata = 0
        self.digests: list[str] = []
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, workload, item) -> None:
        start = perf_counter()
        try:
            out = workload.execute(item)
        except Exception as exc:  # the boundary that must keep running
            elapsed = perf_counter() - start
            outcome = None
            problems = [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)]
        else:
            elapsed = perf_counter() - start
            try:
                outcome = workload.check(item, out)
                problems = outcome.problems
            except Exception as exc:
                outcome = None
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.busy_s += elapsed
        self.digests.append(outcome.digest if outcome else "")
        if problems:
            self.failed += 1
            self.latencies.append(math.inf)
            self.problems.extend(problems)
        else:
            self.latencies.append(elapsed)
            self.index_sets += outcome.index_sets
            self.strata += outcome.strata


def setup(name: str, seed: int):
    """Input generation plus one warm-up operation on a throwaway input."""
    workload = make_workload(name)
    inputs = workload.setup(random.Random(seed))
    warm = Tally()
    for item in workload.warm_up_inputs(random.Random(f"warm-up {seed}")):
        warm.run(workload, item)
    return workload, inputs, warm


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process to the end of its
    set-up (interpreter start, imports, inputs and the warm-up operation)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def timed_pass(workload, inputs, seconds: float) -> Tally:
    tally = Tally()
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        tally.run(workload, inputs[i % len(inputs)])
        i += 1
    return tally


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The Harrell-Davis estimate of a percentile, and the number of samples
    beyond its nearest rank.

    The estimate weights every order statistic by the Beta((n + 1) p,
    (n + 1)(1 - p)) mass of its rank interval, so it averages the few samples
    around the percentile instead of picking one.  On a mix of input classes
    the single nearest-rank sample moves with whichever relabelled inputs
    landed next to it; the weighted one moves with the program.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = sorted(latencies)
    n = len(ordered)
    p = percentile / 100.0
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n))
    estimate = sum(float(w) * x for w, x in zip(weights, ordered) if w > 0)
    rank = max(1, math.ceil(p * n))
    return estimate, n - rank


def peak_rss_mb(workload) -> float:
    kb = getattr(workload, "max_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload, inputs, warm = setup(name, seed)
    tally = timed_pass(workload, inputs, seconds)
    rss = peak_rss_mb(workload)
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    ok = tally.attempted - tally.failed
    tail_pct = TAIL_PERCENTILE[name]
    tail_ms, beyond = tail(tally.latencies, tail_pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / tally.busy_s,
        "op_p50_ms": tail(tally.latencies, 50)[0] * 1000.0,
        "op_tail_ms": tail_ms * 1000.0,
        "failed_ratio": (tally.failed + warm.failed) / (tally.attempted + warm.attempted),
        "peak_rss_mb": rss,
    }
    if name.startswith("charts"):
        metrics["index_sets_per_s"] = tally.index_sets / tally.busy_s
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "ops_per_s": f"{ok} operations in {tally.busy_s:.3f} s of operation time",
        "op_p50_ms": f"{tally.attempted} samples",
        "op_tail_ms": f"p{tail_pct} (Harrell-Davis), {beyond} of {tally.attempted} samples "
                      "beyond its nearest rank",
        "peak_rss_mb": "largest CLI child" if name == "cli-fixtures" else "benchmark process",
    }
    details = {"setup_samples_s": setups, "tail_percentile": tail_pct, "tail_beyond": beyond,
               "samples": tally.attempted, "latencies_s": tally.latencies,
               "digests": tally.digests}
    return {"metrics": metrics, "notes": notes, "details": details,
            "tallies": [warm, tally]}


def derive_layers(stats: dict, n_ops: int, strata: int) -> dict:
    """Per-operation layer metrics from span statistics."""
    def stat(layer, key):
        return stats.get(layer, {}).get(key, 0)

    out = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = stat(layer, "calls") / n_ops
        out[f"{layer}.self_s"] = stat(layer, "self_s") / n_ops
    out["linalg.rref.cells"] = stat("linalg.rref", "size") / n_ops
    for layer in REPEATS:
        calls = stat(layer, "calls")
        out[f"{layer}.repeat_ratio"] = stat(layer, "repeats") / calls if calls else 0.0
    out["filtrations.weight_filtration.dim_max"] = math.isqrt(
        stat("filtrations.weight_filtration", "size_max")
    )
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = stat(layer, "self_s") / n_ops
    for layer in TOTAL_ONLY:
        out[f"{layer}.total_s"] = stat(layer, "total_s") / n_ops
    out["charts.strata"] = strata / n_ops
    for group, prefix in GROUPS.items():
        out[f"{group}.self_s"] = sum(
            s["self_s"] for layer, s in stats.items() if layer.startswith(prefix)
        ) / n_ops
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "1" if metric.endswith("ratio") else "count"


STARTUP = ("cli.interpreter_s", "cli.import_s")
PER_LAYER = {
    m: _unit(m)
    for m in sorted([*derive_layers({}, 1, 0), *STARTUP, "trace.overhead_ratio"])
}


def startup_costs(env, repeats: int = 5) -> tuple[float, float]:
    """Median wall of a bare interpreter, and of ``import hodgecharts.cli``
    minus that."""
    import workloads

    def median_wall(code):
        walls = []
        for _ in range(repeats):
            start = perf_counter()
            result = workloads.run_child([sys.executable, "-c", code], env, ROOT)
            walls.append(perf_counter() - start)
            if result.code != 0:
                raise RuntimeError(f"python -c {code!r} exited {result.code}")
        return statistics.median(walls)

    bare = median_wall("pass")
    return bare, median_wall("import hodgecharts.cli") - bare


def traced(name: str, seed: int) -> dict:
    import spans

    workload, inputs, warm = setup(name, seed)
    items = [inputs[i % len(inputs)] for i in range(TRACE_OPS[name])]
    tracer = spans.Tracer()
    cli = name == "cli-fixtures"
    OUT.mkdir(exist_ok=True)
    traced_tally = Tally()
    if cli:
        workload.traced_to = OUT
    else:
        tracer.install()
    try:
        for op_id, item in enumerate(items):
            tracer.begin_op(op_id)
            traced_tally.run(workload, item)
    finally:
        tracer.uninstall()
        workload.traced_to = None
    plain = Tally()
    for item in items:
        plain.run(workload, item)
    if cli:
        stats = {}
        for path in workload.span_files:
            dumped = json.loads(path.read_text())
            spans.merge_stats(stats, spans.layer_stats(
                dumped["names"], dumped["spans"], dumped["repeats"]))
    else:
        stats = spans.layer_stats(tracer.names, tracer.spans, tracer.repeats)
        tracer.dump(OUT / f"trace-{name}-{seed}.json")
    mismatched = sum(a != b for a, b in zip(traced_tally.digests, plain.digests))
    if mismatched:
        plain.failed += mismatched
        plain.problems.append(f"{mismatched} traced reports differ from untraced ones")
    metrics = derive_layers(stats, len(items), plain.strata)
    metrics.update(zip(STARTUP, startup_costs(workload.env) if cli else (0.0, 0.0)))
    metrics["trace.overhead_ratio"] = traced_tally.busy_s / plain.busy_s
    notes = {"trace.overhead_ratio": f"{len(items)} operations traced, then replayed untraced"}
    details = {"operations": len(items), "digests": plain.digests,
               "digests_equal": mismatched == 0}
    return {"metrics": metrics, "notes": notes, "details": details,
            "tallies": [warm, traced_tally, plain]}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def run_metadata(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
        "seed": seed,
    }


def print_report(name: str, seed: int, trace: bool, result: dict) -> dict:
    tallies = result["tallies"]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    units = PER_LAYER if trace else END_TO_END
    print(f"{name}  seed {seed}  {'traced' if trace else 'timed'}: "
          f"{attempted} operations, {failed} failed")
    for metric, unit in units.items():
        if metric in result["metrics"]:
            note = result["notes"].get(metric, "")
            print(f"  {metric:42s} {result['metrics'][metric]:>14.6g} {unit:6s} {note}")
    for problem in [p for t in tallies for p in t.problems][:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"workload": name, "metadata": run_metadata(seed), **result["details"]}))
    keys = [m for m in units if m not in NOT_IN_RESULT]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": result["metrics"][m], "unit": units[m]} for m in keys},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print 'ready' and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hodgecharts" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hodgecharts source under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, _, warm = setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0 if warm.failed == 0 else 1
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    line = print_report(args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
