"""starrep benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {cli,forking,functionals} --seed N \
        --seconds S --trace {0,1} [--smoke]

Prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around calls into starrep.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402  (sets nothing up; paths only)

os.environ.update(bench.THREAD_ENV)  # before numpy is imported anywhere
WORKLOADS = ("cli", "forking", "functionals")


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs of the workload, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(bench.SRC, "starrep", "__init__.py")):
        print(f"starrep sources not found under {bench.SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so the host-speed kernel runs
    # where the operations run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, bench.SRC)
    os.makedirs(bench.OUT, exist_ok=True)
    if args.workload == "cli":
        result = run_cli(args)
    else:
        result = run_in_process(args)
    print(json.dumps(result))
    return 0


def _result(loop, metrics) -> dict:
    if loop.unexpected:
        for line in sorted(set(loop.unexpected)):
            print(f"unexpected failure: {line}", file=sys.stderr)
    return {
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _trace_dir(args) -> str:
    path = os.path.join(bench.OUT, "traces", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def run_in_process(args) -> dict:
    import forking_workload
    import functionals_workload
    from spans import Aggregate, Tracer

    module = forking_workload if args.workload == "forking" else functionals_workload
    import starrep  # noqa: F401  (the set-up's own import is timed in fresh interpreters)
    from pace import Pace

    pace = Pace()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s, import_s, ops = bench.timed_setup(
        lambda mark: module.build(args.seed, args.smoke, mark), pace, tracer)
    loop = bench.Loop(ops, pace, tracer)
    if not args.trace:
        loop.run(args.seconds)
        bench.report_pace(loop)
        return _result(loop, bench.end_to_end(loop, setup_s, bench.self_peak_rss_mb()))

    rounds, overhead = loop.run_traced(args.seconds, lambda on: setattr(tracer, "enabled", on))
    tracer.dump(os.path.join(_trace_dir(args), "spans.json.gz"))
    agg = Aggregate()
    agg.add({"names": tracer.names, "spans": tracer.records},
            {"setup": 1.0, "round": 1.0 / rounds})
    return _result(loop, bench.per_layer(agg, import_s, overhead))


def run_cli(args) -> dict:
    import cli_workload
    from pace import Pace
    from spans import Aggregate, load

    pace = Pace(runs=10)  # operations are whole processes, about 0.5 s each
    setup_s, import_s, (ops, runner) = bench.timed_setup(
        lambda mark: cli_workload.build(args.seed, args.smoke), pace)
    loop = bench.Loop(ops, pace)
    if not args.trace:
        loop.run(args.seconds)
        bench.report_pace(loop)
        return _result(loop, bench.end_to_end(loop, setup_s, bench.children_peak_rss_mb()))

    out = _trace_dir(args)
    rounds, overhead = loop.run_traced(
        args.seconds, lambda on: setattr(runner, "trace_dir", out if on else None))
    agg = Aggregate()
    for name in sorted(os.listdir(out)):
        agg.add(load(os.path.join(out, name)), {"cli": 1.0 / rounds})
    return _result(loop, bench.per_layer(agg, import_s, overhead))


if __name__ == "__main__":
    sys.exit(main())
