"""The benchmark tracer's reading of the engine: it counts a round per
`engine.apply_T` call and the new atoms from each call's result, so a change
to the round loop must keep both counts exact."""

import sys
from pathlib import Path

from indsem import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_tracer_counts_rounds_and_new_atoms(tmp_path, capsys):
    # Right TC over an n-edge chain takes n rounds that add atoms and one that
    # adds none; each of the k propositional strata takes one of each.
    n, k = 6, 3
    (tmp_path / "e.facts").write_text("".join(f"edge({i},{i + 1}).\n" for i in range(n)))
    (tmp_path / "p.ind").write_text(
        "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\np0 :- not(q).\n"
        + "".join(f"p{i} :- p{i - 1}.\n" for i in range(1, k))
    )
    t = tracer.Tracer()
    t.install()
    try:
        t.begin()
        code = cli.main(["model", str(tmp_path / "p.ind"), "--facts", str(tmp_path / "e.facts")])
        t.end(True)
    finally:
        t.uninstall()
    derived = len(capsys.readouterr().out.splitlines()) - n
    work = t.summary()["work"]
    assert code == 0
    assert derived == n * (n + 1) // 2 + k
    assert work["engine.rounds"] == (n + 1) + 2 * k
    assert work["engine.new_atoms"] == derived
    assert work["engine.atoms"] == n + derived
