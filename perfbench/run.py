"""rank2go benchmark: classify, decompose and refute workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify_catalog --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in fresh interpreters, one at a time, in a closed loop
with one client.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics, their times scaled to the machine's
nominal speed as reference.py measures it; with --trace 1 it holds the per-layer
metrics of one traced pass, plus trace_overhead (traced over untraced time
of the same pass).  Every op is checked against reference outputs recorded
from the seed commit; a wrong or missing output counts as failed.  The run
record (machine, seeds, op counts, census) goes to perfbench/out/.

Exit codes: 0 when every op is correct, 1 when some op failed (the result is
still printed), 2 when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import reference  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0

# What each generic metric is called on each workload, printed beside it.
ALIASES = {
    "classify_catalog": {"pass_s": "classify_s", "work_per_s": "directions_per_s"},
    "decompose_catalog": {"pass_s": "decompose_s", "work_per_s": "spaces_per_s"},
    "refute_sweep": {"pass_s": "sweep_s", "work_per_s": "refutes_per_s"},
}


def load_benchmark() -> dict:
    """BENCHMARK.json: the metric names and units, and the default run length."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Spawns workers for one run and keeps the run's deadline."""

    def __init__(self, workload: str, bench_seed: int, prog_seed: int, seconds: float):
        self.workload = workload
        self.bench_seed = bench_seed
        self.prog_seed = prog_seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        os.makedirs(workloads.OUT_DIR, exist_ok=True)

    def spawn(self, mode: str, min_passes: int = 1, max_passes: int = 1,
              seconds: float = 0.0) -> dict:
        self.count += 1
        stem = f"{self.workload}-{os.getpid()}-{self.count}"
        result_path = os.path.join(workloads.OUT_DIR, f"{stem}.result.json")
        spec = {
            "workload": self.workload, "mode": mode,
            "program_seed": self.prog_seed, "bench_seed": self.bench_seed,
            "min_passes": min_passes, "max_passes": max_passes, "seconds": seconds,
            "result_path": result_path,
            "spans_path": os.path.join(
                workloads.OUT_DIR, f"spans-{self.workload}-seed{self.bench_seed}.json"),
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run deadline passed")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
                cwd=workloads.ROOT, stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker timed out")
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(result_path)
        result["setup_s"] = result["setup_done"] - started - result["setup_sampled_s"]
        return result


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, wl) -> tuple[dict, list, dict]:
    """Set-ups, then passes until --seconds have passed, within the
    workload's bounds on the number of passes."""
    workers = [runner.spawn("setup") for _ in range(wl.setup_runs)]
    if wl.cold:
        start = time.monotonic()
        while (len(workers) < wl.setup_runs + wl.min_passes
               or time.monotonic() - start < runner.seconds):
            workers.append(runner.spawn("measure"))
    else:
        workers.append(runner.spawn("measure", min_passes=wl.min_passes,
                                    max_passes=wl.max_passes, seconds=runner.seconds))
    passes = [p for w in workers for p in w.get("passes", [])]
    if any("error" in p for p in passes):
        return {}, passes, {}
    # Times are scaled to the machine's nominal speed (see reference.py),
    # each set-up and each pass by the samples taken during it.
    speeds = [reference.NOMINAL_S / p["reference_s"] for p in passes]
    setup_speeds = [reference.NOMINAL_S / w["setup_reference_s"] for w in workers]
    # Every pass runs the same ops in the same order.  Each op's time is its
    # median over the run's passes, and pass_s adds the median time spent
    # between ops.
    op_ms = [statistics.median(times) for times in zip(
        *([ms * speed for ms in p["op_ms"]] for p, speed in zip(passes, speeds)))]
    between_s = statistics.median((p["pass_s"] - sum(p["op_ms"]) / 1e3) * speed
                                  for p, speed in zip(passes, speeds))
    pass_s = sum(op_ms) / 1e3 + between_s
    raw_setup_s = statistics.median(w["setup_s"] for w in workers)
    metrics = {
        "setup_s": statistics.median(w["setup_s"] * speed
                                     for w, speed in zip(workers, setup_speeds)),
        "pass_s": pass_s,
        "work_per_s": passes[0]["work"] / pass_s,
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
    }
    counts = {
        "raw_setup_s": raw_setup_s,
        "speeds": speeds,
        "setup_speeds": setup_speeds,
        "reference_samples": sum(len(w["reference_s"]) for w in workers),
        "setup_samples": len(workers),
        "passes": len(passes),
        "timed_ops_per_pass": len(op_ms),
        "work_per_pass": passes[0]["work"],
        "pass_wall_s": [p["pass_s"] for p in passes],
        "op_ms": [p["op_ms"] for p in passes],
    }
    # The latency percentiles are printed and recorded but are no metrics:
    # every workload must report every metric, classify has one op per
    # pass, and the p95 rests on the 3 slowest of 60 ops.
    if wl.latency:
        counts["latency_ms"] = {}
        for q in (50, 95):
            value = percentile(op_ms, q)
            counts["latency_ms"][f"{wl.latency}_p{q}_ms"] = {
                "value": value, "ops_above": sum(ms > value for ms in op_ms)}
    return metrics, passes, counts


def traced(runner: Runner) -> tuple[dict, list, dict]:
    plain = runner.spawn("measure")
    trace = runner.spawn("trace")
    passes = plain["passes"] + trace["passes"]
    if any("error" in p for p in passes):
        return {}, passes, {}
    metrics = dict(trace["layers"])
    metrics["trace_overhead"] = trace["passes"][0]["pass_s"] / plain["passes"][0]["pass_s"]
    if trace["passes"][0]["digest"] != plain["passes"][0]["digest"]:
        trace["passes"][0]["failures"].append("traced outputs differ from untraced outputs")
    extra = {"census": trace["census"], "field_operands": trace["field_operands"],
             "spans": trace["spans"]}
    return metrics, passes, extra


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "counters": "wall-clock and RSS of the benchmark's own processes only; "
                    "no hardware counters read and no caches dropped",
    }


def run_workload(name: str, bench_seed: int, seconds: float, trace: bool,
                 holdout: bool, units: dict) -> tuple[dict, list[str]]:
    prog_seed = workloads.program_seed(bench_seed, holdout)
    runner = Runner(name, bench_seed, prog_seed, seconds)
    record = {"workload": name, "bench_seed": bench_seed, "program_seed": prog_seed,
              "seconds": seconds, "trace": int(trace), "machine": machine_record()}
    try:
        if trace:
            metrics, passes, extra = traced(runner)
            record.update(extra)
        else:
            metrics, passes, record["counts"] = measure(
                runner, workloads.WORKLOADS[name])
        attempted = sum(p["attempted"] for p in passes)
        failures = [f for p in passes for f in p["failures"]]
        if metrics and set(metrics) != set(units):
            failures.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ set(units))}")
            metrics = {}
        failed = min(len(failures), attempted)
        failures += [p["error"] for p in passes if "error" in p]
    except WorkerFailed as exc:
        metrics, passes, attempted, failed, failures = {}, [], 1, 1, [str(exc)]
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  failures=failures[:50], passes=len(passes),
                  ops_per_pass=[p["attempted"] for p in passes])
    path = os.path.join(workloads.OUT_DIR,
                        f"record-{name}-seed{bench_seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record, _report_lines(record, units, path)


def _report_lines(record: dict, units: dict, path: str) -> list[str]:
    name = record["workload"]
    m = record["machine"]
    lines = [f"== {name}  seed {record['bench_seed']} (program seed "
             f"{record['program_seed']})  trace {record['trace']}",
             f"machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']}, "
             f"click {m['click']}"]
    for key, value in record["metrics"].items():
        alias = None if record["trace"] else ALIASES[name].get(key)
        label = f"{key} ({alias})" if alias else key
        lines.append(f"  {label:44s} {value:.6g} {units[key]}")
    if record.get("counts"):
        c = record["counts"]
        for key, lat in c.get("latency_ms", {}).items():
            lines.append(f"  {key:44s} {lat['value']:.6g} ms (printed only; "
                         f"{c['timed_ops_per_pass']} ops, {lat['ops_above']} above it)")
        lines.append(f"  {c['timed_ops_per_pass']} timed ops per pass, each timed as its "
                     f"median over {c['passes']} passes; {c['setup_samples']} set-ups; "
                     f"work {c['work_per_pass']} per pass")
        lines.append(f"  unscaled: setup {c['raw_setup_s']:.6g} s, passes "
                     f"{statistics.median(c['pass_wall_s']):.6g} s (median); scaled to "
                     f"nominal speed by {min(c['speeds']):.4g} to {max(c['speeds']):.4g} "
                     f"per pass, {min(c['setup_speeds']):.4g} to "
                     f"{max(c['setup_speeds']):.4g} per set-up "
                     f"({c['reference_samples']} samples)")
    if "census" in record:
        lines.append(f"  census {json.dumps(record['census'], sort_keys=True)}")
    rate = record["failed"] / record["attempted"]
    lines.append(f"  error_rate {rate:.6g} ({record['failed']} of "
                 f"{record['attempted']} ops failed)")
    lines.extend(f"  FAILED {f}" for f in record["failures"][:10])
    lines.append(f"  record: {os.path.relpath(path, workloads.ROOT)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="use the held-out program seed instead of --seed")
    args = parser.parse_args()
    if not (workloads.SRC / "rank2go" / "__init__.py").is_file():
        print(f"perfbench: no rank2go sources under {workloads.SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record, lines = run_workload(name, args.seed, seconds,
                                     bool(args.trace), args.holdout, units)
        print("\n".join(lines), flush=True)
        records.append(record)
    prefix = len(records) > 1
    out_metrics = {
        (f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": units[k]}
        for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["metrics"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
