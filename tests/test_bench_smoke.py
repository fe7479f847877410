"""Smoke test of the benchmark harness: the warm-up ops of every workload run
through the CLI and pass the harness's own reference checks, so the harness
cannot drift out of step with the CLI unnoticed."""

import sys
from pathlib import Path

import pytest

from indsem.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_ops_pass_their_checks(workload, tmp_path, capsys):
    ops = workloads.warmup(workload, 0, str(tmp_path))
    assert ops
    for op in ops:
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")
        code = main(op.argv)
        out, err = capsys.readouterr()
        assert op.check(code, out, err) is None, (op.argv, out, err)
