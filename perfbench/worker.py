"""One fresh interpreter of a benchmark run.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the program seed, the mode ("setup", "measure"
or "trace"), how long to measure and where to write the result.  The worker
imports rank2go, sets the workload up, stamps the set-up end on the
system-wide monotonic clock, runs passes, checks every pass against the
references and writes one JSON result.  After set-up and after each pass
it times the reference computation of reference.py.  In trace mode it runs
exactly one pass with the tracer installed, so its census repeats exactly.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import reference
import tracer as tracing
import workloads


def _run_passes(wl, spec, expected, tracer, sampler):
    passes = []
    start = time.perf_counter()
    while True:
        taken = len(sampler.samples)
        try:
            p = wl.run_pass(tracer)
        except Exception as exc:  # the whole pass failed: every op counts
            p = {"pass_s": reference.clock() - start, "op_ms": [],
                 "work": 0, "outputs": {}, "error": f"{type(exc).__name__}: {exc}"}
        if sampler.running:
            p["reference_s"] = statistics.harmonic_mean(
                sampler.samples[taken:] or [reference.sample()])
        p["attempted"] = len(expected)
        p["failures"] = workloads.check(wl.name, p["outputs"], expected)
        p["digest"] = workloads.digest(p["outputs"])
        del p["outputs"]
        passes.append(p)
        if len(passes) >= spec["max_passes"]:
            break
        if (len(passes) >= spec["min_passes"]
                and time.perf_counter() - start >= spec["seconds"]):
            break
    return passes


def main() -> int:
    spec = json.loads(sys.argv[1])
    trace = spec["mode"] == "trace"
    # The traced run leaves the sampler off, so that no span holds a sample.
    sampler = reference.SAMPLER
    if not trace:
        sampler.start()
    try:
        result = _run(spec, trace, sampler)
    finally:
        sampler.stop()
    if result is None:
        return 3
    result["reference_s"] = sampler.samples
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run(spec, trace, sampler):
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return None
    wl = workloads.WORKLOADS[spec["workload"]](spec["program_seed"])
    tracer = tracing.Tracer() if trace else None
    installed = tracing.install(tracer) if trace else None
    try:
        wl.setup()
        result = {"setup_done": time.monotonic(), "setup_sampled_s": sampler.spent}
        if sampler.running:
            # A set-up shorter than INTERVAL_S is gauged by samples right after it.
            result["setup_reference_s"] = statistics.harmonic_mean(
                sampler.samples or [reference.sample() for _ in range(5)])
        if spec["mode"] != "setup":
            refs = workloads.load_refs(wl.name)
            expected = workloads.expected_outputs(wl.name, wl.prog_seed, refs)
            result["passes"] = _run_passes(wl, spec, expected, tracer, sampler)
    finally:
        if installed is not None:
            installed.uninstall()
    if trace:
        layers = tracing.layer_metrics(tracer)
        rational, irrational = tracing.field_operands(
            wl.operand_values(), spec["bench_seed"])
        layers.update(tracing.field_costs(rational, irrational))
        result["layers"] = layers
        result["field_operands"] = {"rational": len(rational),
                                    "irrational": len(irrational)}
        result["census"] = tracing.census(tracer)
        result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped_spans}
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "tag", "start", "end", "parent",
                                  "request"], "spans": tracer.spans}, handle)
    return result


if __name__ == "__main__":
    sys.exit(main())
