"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are built from --seed
(the set-up), then whole rounds of its operations run until the next round
would end past --seconds; at least one round always runs. Every round's
outputs are checked. The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. A digest of
the checked outputs goes to stderr, so the two modes can be compared.

Timings are medians over the run's rounds, put on the scale of a reference
core by `speed.SpeedProbe`: the core's speed is sampled all through the run,
and each round's wall and CPU time (less the sampling's own time) is scaled by
the speed sampled during that round. `setup_s` runs from the process's start
(the kernel's start time) to the end of the set-up, so it includes the
interpreter and the imports, and is scaled by the speed sampled over it. The
raw times go to stderr. BLAS and OpenMP pools are fixed at one thread.
Scratch outputs go under bench/out/ and are removed at exit; the traced run
leaves its spans in bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _process_age() -> float:
    """Seconds since this process started, by the kernel's clock-tick start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _round(workload, tracer, probe):
    """Run one round; returns (raw wall s, scaled wall s, scaled cpu s,
    failed ops, ops, outputs)."""
    if tracer is not None:
        tracer.new_round()
    ops = workload.operations()
    outputs = {}
    failed = 0
    mark = probe.mark()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for name, op in ops:
        if failed:
            failed += 1  # later operations depend on the failed one
            continue
        try:
            outputs[name] = op()
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            failed = 1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    speed, probe_wall, probe_cpu = probe.window(mark, probe.mark())
    return (wall, (wall - probe_wall) * speed, (cpu - probe_cpu) * speed,
            failed, len(ops), outputs)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in _THREAD_VARS:  # read once, when numpy and scipy load below
        os.environ[var] = "1"
    from speed import SpeedProbe
    probe = SpeedProbe()
    probe.start()
    try:
        return _run(args, probe)
    finally:
        probe.stop()


def _run(args, probe) -> int:
    start_mark = probe.mark()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = BENCH / "out"
    workdir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        raw_setup_s = _process_age()
        speed, probe_wall, _ = probe.window(start_mark, probe.mark())
        setup_s = (raw_setup_s - probe_wall) * speed
        setup_end = tracer.mark() if tracer is not None else None
        raw_walls, walls, cpus = [], [], []
        attempted, failed, errors, digests = 0, 0, [], set()
        start = time.perf_counter()
        while True:
            raw_wall, wall, cpu, n_failed, n_ops, outputs = _round(workload, tracer, probe)
            raw_walls.append(raw_wall)
            walls.append(wall)
            cpus.append(cpu)
            attempted += n_ops
            failed += n_failed
            if not n_failed:
                errors += workload.check(outputs)
                digests.add(workload.digest(outputs))
            if time.perf_counter() - start + max(raw_walls) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write_jsonl(out / f"trace-{args.workload}-{args.seed}.jsonl")

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    run_s = statistics.median(walls)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={len(walls)} "
          f"run_s={run_s:.4f} raw_run_s={statistics.median(raw_walls):.4f} "
          f"setup_s={setup_s:.4f} raw_setup_s={raw_setup_s:.4f} "
          f"probe_samples={len(probe.samples)} "
          f"outputs={','.join(sorted(digests))}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.per_layer(setup_end, len(walls))
    else:
        metrics = {"setup_s": setup_s, "run_s": run_s, "cpu_s": statistics.median(cpus),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "records_per_s": workload.records / run_s}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(metrics))} are not both "
                         "declared in BENCHMARK.json and measured")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
