"""Tests of the benchmark itself (not of rank2go).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

workloads.import_program()

import rank2go.cli as cli  # noqa: E402
import rank2go.field as field  # noqa: E402
import rank2go.gocheck as gocheck  # noqa: E402
import rank2go.liealg as liealg  # noqa: E402


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    """One traced pass of every workload, each in its own interpreter."""
    return {name: run.Runner(name, 0, workloads.program_seed(0), 0).spawn("trace")
            for name in workloads.WORKLOADS}


def test_names_match_the_pattern_and_the_code(traced_runs):
    b = _bench()
    names = [w["name"] for w in b["workloads"]]
    names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert {w["name"] for w in b["workloads"]} == set(workloads.WORKLOADS)
    listed = {m["name"] for m in b["per_layer"]}
    for name, result in traced_runs.items():
        assert set(result["layers"]) | {"trace_overhead"} == listed, name
    # A layer that did not run on a workload reads 0 there.
    layers = traced_runs["decompose_catalog"]["layers"]
    assert layers["gocheck.solve_compensator.calls"] == 0
    assert layers["gocheck.solve_compensator.self_s"] == 0


def _bindings() -> dict:
    snap = {}
    for mod in tracer.rank2go_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (liealg.Subspace, liealg.LieAlgebra, gocheck.MetricEndomorphism,
                field.Scalar):
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = value
    for key, value in gocheck._FILTERS.items():
        snap[("_FILTERS", key)] = value
    snap[("classify", "callback")] = cli.classify.callback
    return snap


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    t = tracer.Tracer()
    installed = tracer.install(t)
    try:
        assert gocheck.solve_columns is liealg.solve_columns
        assert gocheck.solve_columns is not before[("rank2go.gocheck", "solve_columns")]
        assert gocheck._FILTERS["normalizer"] is not before[("_FILTERS", "normalizer")]
        liealg.rref([[field.ONE, field.scalar(2)]])
    finally:
        installed.uninstall()
    assert t.calls("liealg.rref") == 1
    assert t.counts["field.scalar_new"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_the_sampler_leaves_its_time_out_of_the_clock_and_restores_sigalrm():
    sampler = reference.SAMPLER
    spent, taken = sampler.spent, len(sampler.samples)
    sampler.start()
    try:
        wall, clock = time.perf_counter(), reference.clock()
        while time.perf_counter() - wall < 5 * reference.INTERVAL_S:
            pass
        wall, clock = time.perf_counter() - wall, reference.clock() - clock
    finally:
        sampler.stop()
    assert len(sampler.samples) - taken >= 3
    assert clock == pytest.approx(wall - (sampler.spent - spent), abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_census_repeats_exactly_for_a_fixed_seed(traced_runs):
    first = traced_runs["refute_sweep"]
    second = run.Runner("refute_sweep", 0, workloads.program_seed(0), 0).spawn("trace")
    assert first["census"] == second["census"]
    assert first["census"]["candidates"] == workloads.REFUTE_OPS
    assert first["passes"][0]["failures"] == []


def test_a_corrupted_reference_is_reported_as_a_failure():
    wl = workloads.RefuteSweep(1)
    wl.ops = wl.ops[:2]
    outputs = wl.run_pass()["outputs"]
    ref = workloads.load_refs("refute_sweep")["seeds"]["1"]
    expected = {k: ref[k] for k in outputs}
    assert workloads.check("refute_sweep", outputs, expected) == []
    corrupted = json.loads(json.dumps(expected))
    corrupted["op1"]["samples_run"] += 1
    assert workloads.check("refute_sweep", outputs, corrupted) == [
        "op1: output differs from reference"]
    del corrupted["op0"]
    assert len(workloads.check("refute_sweep", outputs, corrupted)) == 2


def test_known_facts_fail_even_when_the_reference_agrees():
    summary = workloads.load_refs("decompose_catalog")["outputs"]["space:c2.2"]
    bent = json.loads(json.dumps(summary))
    for comp in bent["components"]:
        comp["multiplicity"] = 1
    failures = workloads.check("decompose_catalog", {"space:c2.2": bent},
                               {"space:c2.2": bent})
    assert failures == ["space:c2.2: 6-dim component lost multiplicity 2"]
    report = {"exit_code": 0, "flagged": ["a2.1", "c2.1", "berger"]}
    assert workloads.check("classify_catalog", {"report": report},
                           {"report": report}) != []


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_a_short_run_prints_every_end_to_end_metric():
    proc = _run(["--workload", "refute_sweep", "--seed", "5", "--seconds", "1",
                 "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.REFUTE_OPS
    units = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "refute_sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
