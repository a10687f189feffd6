"""fraclap benchmark: closed-loop workloads with time-to-solution metrics.

Run from the root of a source checkout (it imports fraclap from ./src):

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

One client in one process runs a closed loop: the next op starts only after
the previous one returns.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs an untraced pass, a traced pass (per-layer metrics, spans
written as JSONL) and a single-BLAS-thread pass in a fresh process.  The
last line of standard output is the result as one JSON object; the full
record (machine facts, samples, every op) goes to .perfbench_out/.
See perfbench/README.md for the workloads, metrics and baselines.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# Set-up samples, half taken before and half after the timed pass so that
# their median spans the run rather than one moment of it.
SETUP_REPS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for testing the benchmark itself")
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, args, size, workdir, report):
    """Untraced run: set-up samples, warm-up, one timed pass."""
    import measure

    setup_samples = measure.setup_samples(workload, size, workdir, SETUP_REPS // 2)
    measure.warm_up(workload, os.path.join(workdir, "warm"), size)
    records = measure.timed_pass(workload, args.seed, args.seconds,
                                 os.path.join(workdir, "ops"), size)
    setup_samples += measure.setup_samples(workload, size, workdir, SETUP_REPS - SETUP_REPS // 2)
    summary = measure.summarize(records)
    summary["setup_s"] = statistics.median(setup_samples)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(summary=summary, setup_samples=setup_samples,
                  ops=measure.records_as_dicts(records))
    print(f"{'fail_ratio':32s} {summary['fail_ratio']:.6g} 1; op_p50_s over "
          f"{summary['op_samples']} ops; setup_s median of {SETUP_REPS}")
    metrics = {name: _metric(summary[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return records, metrics, 0, 0


def per_layer(workload, args, size, workdir, report):
    """Traced run: untraced, traced and single-BLAS-thread passes, a third each."""
    import measure
    import tracer as tracing

    seconds = args.seconds / 3.0
    measure.warm_up(workload, os.path.join(workdir, "warm"), size)
    plain = measure.timed_pass(workload, args.seed, seconds,
                               os.path.join(workdir, "plain"), size)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure.timed_pass(workload, args.seed, seconds,
                                    os.path.join(workdir, "traced"), size, tracer)
    finally:
        tracer.uninstall()
    trace_path = os.path.join(OUT, f"trace-{workload}-seed{args.seed}.jsonl")
    tracer.write_jsonl(trace_path)
    single = measure.single_thread_pass(workload, args.seed, seconds,
                                        os.path.join(workdir, "blas1"), size)

    plain_summary = measure.summarize(plain)
    traced_summary = measure.summarize(traced)
    layers = tracing.layer_metrics(tracer.spans, len(traced))
    # Op wall time traced / untraced: untraced / traced ops_per_s when no op
    # fails, and defined even when every traced op does.
    layers["trace.overhead_ratio"] = (
        sum(r.wall_s for r in traced) / len(traced) / (sum(r.wall_s for r in plain) / len(plain)),
        "1")
    layers["blas1.ops_per_s"] = (single["ops_per_s"], "1/s")
    layers["blas1.op_p50_s"] = (single["op_p50_s"], "s")
    layers["blas1.cpu_per_op_s"] = (single["cpu_per_op_s"], "s")
    report.update(summary={"untraced": plain_summary, "traced": traced_summary,
                           "single_blas_thread": single},
                  trace_file=os.path.relpath(trace_path, ROOT), trace_notes=tracer.notes,
                  ops=measure.records_as_dicts(plain + traced))
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    return plain + traced, metrics, single["attempted"], single["failed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fraclap", "__init__.py")):
        print(f"perfbench: no fraclap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size,
              "facts": measure.machine_facts(ROOT, args.seed)}
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={size}")
    print("facts: " + json.dumps(report["facts"]))
    started = time.perf_counter()
    try:
        run = per_layer if args.trace else end_to_end
        records, metrics, child_attempted, child_failed = run(
            args.workload, args, size, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(records) + child_attempted
    failed = sum(not r.ok for r in records) + child_failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report.update(result=result, wall_s=time.perf_counter() - started)

    for rec in records:
        if not rec.ok:
            print(f"FAILED op {rec.op_id} {rec.label}: {rec.error.strip()}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    result_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"full record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
