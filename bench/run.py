"""hexloop benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Set-up (import of the package from ``src/``, fixture loading, domain and
chain construction) is done several times and its median reported as
``setup_s``.  Then the workload's job runs pass after pass for ``--seconds``,
in this one process and with no extra threads, each pass from cold table
caches.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics and
the tracing overhead, and writes the spans to ``.bench_traces/``.  The last
line of stdout is one JSON object; the lines before it list every figure
by name with its unit, raw seconds included.

Times of the end-to-end metrics are scaled to a reference machine speed.
Shared cloud machines can change speed by a quarter or more from one
second to the next, as other tenants' load comes and goes, which no
number of passes averages out.  A fixed pure-Python probe loop, timed
before, between and after the operations of each pass, slows down with
them, so each pass's seconds are multiplied by ``REFERENCE_S / mean(probe
time)`` of its own probes before the median over passes is taken.  The
probe belongs to the benchmark, so a change to hexloop cannot move it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread: numpy starts no pool

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import fmean, median, quantiles
from types import SimpleNamespace

from workloads import (EVENTS, WORKLOADS, ChainJob, Pass, TablesJob, VerifyJob,
                       digest_mismatches, scaled_wall, suites)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("lattice", "configs", "exact", "checks", "observables",
           "sampler", "fixtures", "cli")
SETUP_REPEATS = 7
PROBE_LOOPS = 150_000
PROBES_PER_PAUSE = 5
#: seconds of one probe loop at the reference speed: about its time on an
#: unloaded 2-core x86-64 VM with CPython 3.11
REFERENCE_S = 0.010


def import_hexloop() -> SimpleNamespace:
    """A fresh import of every hexloop module from ``src/``."""
    for name in [m for m in sys.modules
                 if m == "hexloop" or m.startswith("hexloop.")]:
        del sys.modules[name]
    hx = SimpleNamespace(**{m: importlib.import_module(f"hexloop.{m}")
                            for m in MODULES})
    if not Path(hx.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hexloop was imported from {hx.cli.__file__}, "
                          f"not from {SRC}")
    return hx


class Speed:
    """Timings of the probe loop, taken around one pass or one set-up."""

    def __init__(self):
        self.samples: list[float] = []

    def pause(self) -> None:
        for _ in range(PROBES_PER_PAUSE):
            t0 = time.perf_counter()
            s = 0
            for i in range(PROBE_LOOPS):
                s += i * i % 7
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from seconds on this machine now to reference seconds.

        The mean, not the median: a pass's seconds add up over the fast
        and the slow stretches alike.
        """
        return REFERENCE_S / fmean(self.samples)


class TableCaches:
    """The lru-cached table engines, held before any tracing wraps them."""

    def __init__(self, exact):
        self.engines = (exact._sweep_table, exact._brute_table)

    def clear(self) -> None:
        for engine in self.engines:
            engine.cache_clear()

    def info(self) -> tuple[int, int]:
        infos = [engine.cache_info() for engine in self.engines]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_pass(job, caches: TableCaches, tracer=None):
    """One pass from cold caches, with its own speed probes."""
    gc.collect()
    caches.clear()
    speed = Speed()
    speed.pause()
    if tracer is None:
        result = job.run(pause=speed.pause)
    else:
        result = job.run(tracer.span, speed.pause)
    speed.pause()
    result.values["cache"] = caches.info()
    result.values["scale"] = speed.scale()
    return result


def passes_for(seconds: float, run_once) -> list:
    """``run_once()`` results, started while the next one is expected to
    end within ``seconds``; at least one."""
    out = []
    start = time.perf_counter()
    took = 0.0
    while not out or time.perf_counter() - start + took <= seconds:
        t0 = time.perf_counter()
        out.append(run_once())
        took = time.perf_counter() - t0
    return out


def percentile(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return quantiles(xs, n=100, method="inclusive")[q - 1]


def set_up(workload, seed: int):
    """Import and build the job ``SETUP_REPEATS`` times; the last build,
    and the median set-up time in reference seconds."""
    speed, times = Speed(), []
    for _ in range(SETUP_REPEATS):
        speed.pause()
        t0 = time.perf_counter()
        hx = import_hexloop()
        job = workload(hx, seed)
        times.append(time.perf_counter() - t0)
    return hx, job, speed.scale() * median(times)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(job, caches, seconds: float):
    passes = passes_for(seconds, lambda: run_pass(job, caches))
    wall = scaled_wall(passes)
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (job.work / wall, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    shown = dict(job.named(passes),
                 raw_wall_s=(median(p.seconds for p in passes), "s"),
                 speed_scale=(median(p.values["scale"] for p in passes),
                              "ratio"))
    return passes, metrics, shown


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(job, hx, caches, seconds: float, out_path: Path):
    """Per-layer figures per traced pass, in raw seconds."""
    from tracing import CHECKS, EVENT_SPAN, RECOUNT_SPAN, SWEEP_SPAN, Tracer

    tracer = Tracer()
    plain, traced = [], []

    def traced_pass():
        tracer.install(hx)
        try:
            return run_pass(job, caches, tracer)
        finally:
            tracer.restore()

    def pair():
        # alternate which side goes first, so drift favours neither
        if len(traced) % 2:
            traced.append(traced_pass())
            plain.append(run_pass(job, caches))
        else:
            plain.append(run_pass(job, caches))
            traced.append(traced_pass())

    passes_for(seconds, pair)
    passes = plain + traced
    k = len(traced)
    m = {}

    def spanned(name: str, *extra: str) -> None:
        d = tracer.durations(name)
        m[f"{name}.calls"] = (len(d) / k, "count")
        m[f"{name}.s"] = (sum(d) / k, "s")
        for suffix in extra:
            m[f"{name}.{suffix}"] = (
                tracer.counts.get(f"{name}.{suffix}", 0) / k, "count")

    m["exact.table_cache.hits"] = (traced[-1].values["cache"][0], "count")
    m["exact.table_cache.misses"] = (traced[-1].values["cache"][1], "count")
    spanned("lattice.domain_from_hexagons")
    spanned("lattice.triangle_domain")
    spanned("exact.sweep_table", "terms")
    m["exact.sweep_width.max"] = (
        tracer.counts.get("exact.sweep_width.max", 0), "count")
    spanned("exact.evaluate_table")
    spanned("exact.path_sum", "walks")
    spanned("exact.relative_weight")
    spanned("exact.parafermion_field")
    spanned("exact.spin_partition", "assignments")
    for check in CHECKS:
        spanned(f"checks.{check}")

    suite_s = {}
    if isinstance(job, VerifyJob):
        suite_s, attempted, failed = job.suite_seconds(caches.clear)
        passes.append(Pass(0.0, attempted, failed))
    for suite in suites(hx.cli):
        m[f"cli.verify.{suite}.s"] = (suite_s.get(suite, 0.0), "s")

    sweeps_ms = [1e3 * d for d in tracer.durations(SWEEP_SPAN)]
    spanned(SWEEP_SPAN)
    m[f"{SWEEP_SPAN}.p50_ms"] = (percentile(sweeps_ms, 50), "ms")
    m[f"{SWEEP_SPAN}.p99_ms"] = (percentile(sweeps_ms, 99), "ms")
    updates = k * job.work if isinstance(job, ChainJob) else 0
    m["sampler.flip_rate"] = (
        tracer.counts.get("sampler.flips", 0) / updates if updates else 0.0,
        "ratio")
    m["sampler.recount_fallbacks"] = (
        tracer.child_count(RECOUNT_SPAN, SWEEP_SPAN) / k, "count")
    spanned(EVENT_SPAN)
    m.update(chain_diagnostics(job, passes))

    m["roadmap.sweep_table_ball3_s"] = (
        job.table_seconds(plain, "wide", 0, scaled=False)
        if isinstance(job, TablesJob) else 0.0, "s")
    # the first path_sum at side 6 runs from cold caches
    side6 = tracer.under("exact.path_sum", "cli.verify.triangle")
    m["roadmap.path_sum_triangle6_s"] = (side6[0] if side6 else 0.0, "s")

    m["trace.overhead"] = (scaled_wall(traced) / scaled_wall(plain) - 1.0,
                           "ratio")
    out_path.parent.mkdir(exist_ok=True)
    tracer.dump(out_path)
    return passes, m


def chain_diagnostics(job, passes) -> dict:
    """tau_int per event, ESS per second over the events that vary, the
    seeded output digest and the count of events that never vary."""
    names = [e["type"] for e in EVENTS]
    out = {f"sampler.tau_int.{n}": (0.0, "sweeps") for n in names}
    out.update({"sampler.ess_per_s": (0.0, "1/s"),
                "sampler.output_digest": (0, "id"),
                "sampler.zero_variance_events": (0, "count")})
    runs = [p for p in passes if "estimates" in p.values]
    if not isinstance(job, ChainJob) or not runs:
        return out
    estimates = runs[0].values["estimates"]
    varying = [e for e in estimates if 0.0 < e.mean < 1.0]
    for n, e in zip(names, estimates):
        out[f"sampler.tau_int.{n}"] = (e.tau_int, "sweeps")
    if varying:
        ess = min(e.n_samples / (2.0 * e.tau_int) for e in varying)
        out["sampler.ess_per_s"] = (ess / median(p.seconds for p in runs),
                                    "1/s")
    out["sampler.output_digest"] = (runs[0].values["digest"], "id")
    out["sampler.zero_variance_events"] = (
        len(estimates) - len(varying), "count")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hexloop" / "__init__.py").is_file():
        print(f"bench: no hexloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    hx, job, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    caches = TableCaches(hx.exact)
    if args.trace:
        out = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
        passes, metrics = per_layer(job, hx, caches, args.seconds, out)
        shown = {}
    else:
        passes, metrics, shown = end_to_end(job, caches, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + digest_mismatches(passes)
    shown = dict(metrics, **shown)
    shown["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    shown["passes"] = (len(passes), "count")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:12s} {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
