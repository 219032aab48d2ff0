"""Shared machinery: operations, the closed loop of whole rounds, set-up timing
and the end-to-end and per-layer summaries."""
from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# BLAS/LAPACK threads for this process and every child it starts
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# wrapped functions reported with calls, inclusive s and self_s
LAYER_FUNCTIONS = [
    "algebra.generate_algebra", "algebra.commutant", "algebra.wedderburn_decompose",
    "representation.cyclic_subspace", "representation.acl", "linalg.orthonormalize",
    "linalg.subspace_intersection", "independence.nonforking_extension",
    "independence.descriptor_distance", "representation.extend_with_summand",
    "functionals.gns", "functionals.vector_state", "functionals.is_dominated",
    "functionals.is_orthogonal", "functionals.orthogonality_witness",
    "functionals.radon_nikodym_operator", "functionals.embeds_as_subrepresentation",
]


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("numpy.linalg.svd.calls", "count"), ("numpy.linalg.svd.s", "s"),
           ("numpy.linalg.svd.flops", "flop"), ("numpy.linalg.eigh.calls", "count"),
           ("numpy.linalg.eigh.s", "s")]
    for fn in LAYER_FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.s", "s"), (f"{fn}.self_s", "s")]
    out += [("algebra.generate_algebra.peak_mb", "MB"), ("functionals.gns.peak_mb", "MB"),
            ("algebra.StarAlgebra.s", "s"), ("algebra.conditional_expectation.s", "s"),
            ("independence.spanning_word_length.calls", "count"),
            ("cli.import_s", "s"), ("cli.scenario_from_dict.s", "s"),
            ("serialize.dumps_canonical.s", "s"),
            ("harness.run_freeness_suite.s", "s"), ("harness.run_functional_suite.s", "s"),
            ("harness.random_structure.generate_calls", "count"),
            ("trace.overhead_pct", "%"), ("trace.spans", "count")]
    return out


def child_env(**extra) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


class Op:
    """One library call (or one CLI process) with its check against planted truth.

    `check(result)` returns True when the output matches.  `kept` marks an
    operation known to fail because of a named fault in the program; it is
    counted in `failed` without making the run incorrect.
    """

    __slots__ = ("name", "call", "check", "kept")

    def __init__(self, name, call, check, kept=False):
        self.name, self.call, self.check, self.kept = name, call, check, kept


class Loop:
    """Closed loop over whole rounds of the same operations, one call in flight.

    Only the operation call is timed; its check runs after the clock stops.
    The host-speed kernel (pace.py) is timed before every operation, so
    `scaled()` can bring each latency to the reference speed.
    """

    def __init__(self, ops, pace, tracer=None):
        self.ops = ops
        self.pace = pace
        self.tracer = tracer
        self.latencies: list = []
        self.spans: list = []  # (start, end) of each call
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def _call(self, op):
        try:
            return op.call(), None
        except Exception as err:  # an operation that raises has failed
            return None, err

    def round(self):
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        for op in self.ops:
            self.pace.sample()
            if tracer is not None:
                idx = tracer.open(f"op.{op.name}")
            start = time.perf_counter()
            result, error = self._call(op)
            dt = time.perf_counter() - start
            if tracer is not None:
                tracer.close(idx)
            self.latencies.append(dt)
            self.spans.append((start, start + dt))
            self.attempted += 1
            ok = False
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception as err:  # a check that cannot read the output
                    error = err
            if not ok:
                self.failed += 1
                if not op.kept:
                    self.unexpected.append(f"{op.name}: {error!r}" if error else op.name)

    def run(self, seconds: float) -> int:
        """Whole rounds until `seconds` of wall time have passed; returns the count."""
        start = time.perf_counter()
        rounds = 0
        while rounds < 1 or time.perf_counter() - start < seconds:
            self.round()
            rounds += 1
        return rounds

    def scaled(self) -> list:
        """Latencies in call order, each at the reference speed."""
        return [lat * float(f) for lat, f in zip(self.latencies, self.pace.scales(self.spans))]

    def run_traced(self, seconds: float, set_traced) -> tuple:
        """Whole rounds, traced and untraced in turn, until `seconds` have passed
        and at least one of each ran.  Returns (traced rounds, tracing overhead
        in percent: the traced rounds' summed per-operation median latency
        against the untraced rounds')."""
        start = time.perf_counter()
        first = len(self.latencies)
        rounds = 0
        while rounds < 2 or time.perf_counter() - start < seconds:
            traced = rounds % 2 == 0
            set_traced(traced)
            if traced and self.tracer is not None:
                with self.tracer.root("round"):
                    self.round()
            else:
                self.round()
            rounds += 1
        set_traced(False)
        n = len(self.ops)
        lat = self.scaled()[first:]
        sums = []
        for parity in (0, 1):
            rows = [lat[r * n:(r + 1) * n] for r in range(parity, rounds, 2)]
            sums.append(sum(statistics.median(col) for col in zip(*rows)))
        return (rounds + 1) // 2, 100.0 * (sums[0] / sums[1] - 1.0)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import starrep."""
    code = ("import time; t = time.perf_counter(); import starrep; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_setup(build, pace, tracer=None):
    """Run the set-up SETUP_REPEATS times; each repeat is a fresh interpreter
    importing starrep (its process wall time) plus `build(mark)`, which calls
    `mark()` between its parts.  Returns (median set-up s at the reference
    speed, median import s as measured, last build).

    Under tracing only the last repeat is traced, so per-layer figures count
    one set-up."""
    from pace import Stopwatch

    totals, imports, built = [], [], None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        watch = Stopwatch(pace)
        imports.append(import_probe())
        watch.mark()
        if tracer is not None:
            tracer.enabled = last
        built = None
        if tracer is not None and last:
            with tracer.root("setup"):
                built = build(watch.mark)
        else:
            built = build(watch.mark)
        watch.mark()
        totals.append(watch.total)
    # the benchmark's own inputs and checks stay alive for the whole run; keep
    # the cyclic collector from walking them after every few operations
    gc.collect()
    gc.freeze()
    return statistics.median(totals), statistics.median(imports), built


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    """Each operation's latency is its median over the run's rounds of the
    latency at the reference speed, which keeps a stall or a slow spell of the
    shared host from moving the figures; throughput is the round's operation
    count over the sum of those medians."""
    n = len(loop.ops)
    lat = loop.scaled()
    per_op = [statistics.median(lat[i::n]) for i in range(n)]
    p90 = statistics.quantiles(per_op, n=10, method="inclusive")[8] if n > 1 else per_op[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(per_op), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_pace(loop: Loop) -> None:
    """The host's speed during the run and the unscaled median latency, on
    standard error, for reading the scaled figures against."""
    n = len(loop.ops)
    raw = [statistics.median(loop.latencies[i::n]) for i in range(n)]
    print(f"host kernel: mean {1e6 * statistics.fmean(loop.pace.took):.1f} us, "
          f"min {1e6 * min(loop.pace.took):.1f} us; unscaled op_p50_ms "
          f"{1000 * statistics.median(raw):.4f}", file=sys.stderr)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def per_layer(agg, import_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics from an Aggregate over one set-up plus one mean round."""
    out = {}
    for name, unit in per_layer_names():
        if name.startswith("numpy.linalg.") and name.endswith(".flops"):
            value = agg.get(name[: -len(".flops")], "value")
        elif name.endswith(".peak_mb"):
            value = agg.get(name[: -len(".peak_mb")], "peak")
        elif name.endswith(".calls"):
            value = agg.get(name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            value = agg.get(name[: -len(".self_s")], "self_s")
        elif name == "cli.import_s":
            value = import_s
        elif name == "harness.random_structure.generate_calls":
            value = agg.calls_under("algebra.generate_algebra", "harness.random_structure")
        elif name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "trace.spans":
            value = agg.spans
        else:
            value = agg.get(name[: -len(".s")], "s")
        out[name] = (value, unit)
    return out

