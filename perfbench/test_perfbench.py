"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They check that work counts repeat exactly for a seed, that every reference
rejects a corrupted output, that the tracer puts the package back as it
found it, and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work", f"test-{os.getpid()}")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import PER_LAYER, TARGETS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(CONFIG["command"] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def records(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def workdir():
    os.makedirs(WORKDIR, exist_ok=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counts_repeat_for_a_seed(workload):
    runs = [bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    (rec_a, res_a), (rec_b, res_b) = (records(p) for p in runs)
    assert rec_a["work"] == rec_b["work"]
    assert rec_a["work"]["engine.rounds"] > 0
    assert set(res_a["metrics"]) == {name for name, _ in PER_LAYER}
    assert res_a["correct"] and res_a["attempted"] == rec_a["samples"]
    for name in ("engine.rounds", "engine.instances_fired", "engine.atoms",
                 "justify.steps", "oracle.rules", "depgraph.strata"):
        assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"]


def test_end_to_end_run_reports_every_metric_and_repeats_its_outputs():
    runs = [bench("--workload", "strata", "--seed", "5", "--seconds", "1", "--trace", "0")
            for _ in range(2)]
    (rec_a, res_a), (rec_b, _) = (records(p) for p in runs)
    assert {m["name"] for m in CONFIG["end_to_end"]} == set(res_a["metrics"])
    assert all(m["value"] > 0 for m in res_a["metrics"].values())
    assert res_a["failed"] == 0 and res_a["correct"]
    assert rec_a["work"] == rec_b["work"]


def _run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue(), err.getvalue()


def _corruptions(code, out, err):
    if code != 0:
        yield 0, "1. anything  [param]\n", ""        # a claimed proof
        yield code, out, err + "extra\n"
        return
    lines = out.splitlines(keepends=True)
    yield 1, out, err                                # wrong exit code
    yield code, out + "X = bogus\n", err             # an extra line
    if lines:
        yield code, "".join(lines[:-1]), err         # a line missing
        yield code, out + lines[0], err              # a line repeated
    if len(lines) > 1:
        yield code, "".join(reversed(lines)), err    # out of order


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_references_accept_indsem_and_reject_corrupted_output(workload, workdir):
    from indsem import cli

    ops = workloads.warmup(workload, 0, workdir)
    for op in ops:
        for path, text in op.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        code, out, err = _run_op(cli, op)
        assert op.check(code, out, err) is None, (op.argv, out, err)
        for bad in _corruptions(code, out, err):
            assert op.check(*bad) is not None, (op.argv, bad)


def test_justification_check_requires_body_atoms_earlier():
    out = ("1. edge(a,b)  [param]\n"
           "2. tc(a,c)  :- edge(a,b), tc(b,c)  (p.ind:3)\n"
           "3. tc(b,c)  :- edge(b,c)  (p.ind:2)\n")
    truth = lambda atom: None  # noqa: E731
    problem = workloads.check_justification(out, "tc(b,c)", {"edge(a,b)"}, truth)
    assert problem is not None and "tc(b,c)" in problem


def test_cycles_are_determined_by_seed_and_twins_only_rename(workdir):
    for workload in workloads.WORKLOADS:
        a = workloads.cycle(workload, 3, 0, workdir)
        b = workloads.cycle(workload, 3, 0, workdir)
        twin = workloads.cycle(workload, 3, 0, workdir, twin=True)
        other = workloads.cycle(workload, 4, 0, workdir)
        assert [op.files for op in a] == [op.files for op in b]
        assert [op.cls for op in a] == [op.cls for op in twin]
        assert not set(a[0].files) & set(twin[0].files)
        assert [op.files for op in a] != [op.files for op in other]


def test_tracer_restores_the_package_and_skips_missing_functions(monkeypatch):
    from indsem import cli, engine

    originals = {(m, f): getattr(sys.modules[f"indsem.{m}"], f, None)
                 for m, f, _, _ in TARGETS}
    before = engine.least_fixpoint
    monkeypatch.setattr("tracer.TARGETS", TARGETS + (("engine", "no_such_function", "x", None),))
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.least_fixpoint is not before
        assert cli.engine.least_fixpoint is engine.least_fixpoint
    finally:
        tracer.uninstall()
    assert engine.least_fixpoint is before
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"indsem.{m}"], f, None) is fn
    layer = tracer.summary()["layer"]
    assert layer["trace.ops"] == 0 and layer["engine.fixpoint_s"] == 0.0


def test_refuses_to_run_without_the_package_source(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
