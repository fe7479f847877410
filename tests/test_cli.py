"""End-to-end CLI behavior, including exit codes and output formats."""

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, META, PAIRS
import indsem
from indsem import engine
from indsem.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _p(name):
    return str(CORPUS / name)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def test_model_dump(capsys):
    code, out, _ = run(capsys, "model", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"))
    assert code == 0
    assert out == (
        "edge(1,2).\nedge(2,3).\ntc(1,2).\ntc(1,3).\ntc(2,3).\n"
    )


def test_model_with_oracle_check(capsys):
    code, out, err = run(capsys, "model", _p("neg_reach.ind"),
                         "--facts", _p("neg_reach.facts"), "--oracle")
    assert code == 0
    assert err == ""
    assert "unreach(4).\n" in out


def test_model_oracle_binds_variables_to_compound_arguments(capsys, tmp_path):
    (tmp_path / "q.ind").write_text("q(X) :- p(X).\n")
    (tmp_path / "p.facts").write_text("p(f(a)).\n")
    code, out, err = run(capsys, "model", str(tmp_path / "q.ind"),
                         "--facts", str(tmp_path / "p.facts"), "--oracle")
    assert (code, out, err) == (0, "p(f(a)).\nq(f(a)).\n", "")


def test_model_multiple_program_files(capsys):
    code, out, _ = run(capsys, "model", _p("chain.ind"), _p("facts_only.ind"))
    assert code == 0
    assert "a.\n" in out and "planet(venus).\n" in out


def test_model_rejects_unallowable_params(capsys, tmp_path):
    facts = tmp_path / "bad.facts"
    facts.write_text("tc(7,7).\n")
    code, _, err = run(capsys, "model", _p("tc_small.ind"), "--facts", str(facts))
    assert code == 1
    assert "not allowable" in err


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ind"
    bad.write_text("p :- .\n")
    code, _, err = run(capsys, "model", str(bad))
    assert code == 2
    assert "error:" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "model", "/nonexistent/prog.ind")
    assert code == 2


def test_resource_limit_is_exit_3(capsys, tmp_path):
    growing = tmp_path / "grow.ind"
    growing.write_text("f(0).\nf(s(X)) :- f(X).\n")
    code, _, err = run(capsys, "model", str(growing), "--max-atoms", "10")
    assert code == 3
    assert "not converged" in err


def test_finite_model_of_more_than_10000_rounds_is_exit_0(capsys, tmp_path):
    chain = tmp_path / "chain.ind"
    chain.write_text("p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 10_500)))
    code, out, _ = run(capsys, "model", str(chain))
    assert code == 0 and out.count("\n") == 10_500
    assert run(capsys, "query", str(chain), "-q", "p5") == (0, "true.\n", "")
    code, out, _ = run(capsys, "explain", str(chain), "-q", "p5")
    assert code == 0 and out.endswith(f"6. p5  :- p4  ({chain}:6)\n")
    # No justification's height is limited, whatever --max-depth says.
    code, out, _ = run(capsys, "explain", str(chain), "-q", "p10499")
    assert code == 0 and out.count("\n") == 10_500
    shorter = run(capsys, "explain", str(chain), "-q", "p10000", "--max-depth", "5")
    assert shorter == (0, "".join(out.splitlines(keepends=True)[:10_001]), "")


def test_limit_flags_take_positive_integers_only(capsys):
    argv = ["explain", str(META / "meta_tc.ind"), "--meta", "-q", "tc(1,3)"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    # A recursion limit this high would not fit a C int.
    assert run(capsys, *argv, "--max-depth", "200000000") == (code, out, err)
    for argv in (["model", _p("chain.ind"), "--max-atoms", "0"],
                 ["explain", _p("chain.ind"), "-q", "a", "--max-depth", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# query / explain
# ---------------------------------------------------------------------------


def test_query_enumerates_bindings(capsys):
    code, out, _ = run(capsys, "query", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(1,Y)")
    assert code == 0
    assert out == "Y = 2\nY = 3\n"


def test_query_ground(capsys):
    code, out, _ = run(capsys, "query", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(1,3)")
    assert (code, out) == (0, "true.\n")
    code, out, _ = run(capsys, "query", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(3,1)")
    assert (code, out) == (0, "false.\n")


def test_explain_prints_justification(capsys):
    code, out, _ = run(capsys, "explain", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(1,3)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split(". ", 1)[1].startswith("tc(1,3)")
    assert any("[param]" in line for line in lines)


def test_explain_underivable_goal(capsys):
    code, _, err = run(capsys, "explain", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(3,1)")
    assert code == 1
    assert "no justification" in err


def test_explain_meta_program(capsys):
    code, out, _ = run(capsys, "explain", "--meta", str(META / "meta_tc.ind"),
                       "-q", "tc(1,3)")
    assert code == 0
    assert "tc(1,3)" in out


LEFT_TC = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).\n"


@pytest.mark.parametrize("rules", [LEFT_TC, "".join(reversed(LEFT_TC.splitlines(True)))],
                         ids=["base_rule_first", "recursive_rule_first"])
def test_explain_meta_left_recursion_under_default_limits(capsys, tmp_path, rules):
    prog = tmp_path / "left.ind"
    prog.write_text("H :- clause(H,Body), Body.\n#object\nedge(0,1).\nedge(1,2).\nedge(2,3).\n" + rules)
    code, out, err = run(capsys, "explain", "--meta", str(prog), "-q", "tc(3,0)")
    assert (code, out, err) == (1, "", "no justification for tc(3,0)\n")
    code, out, _ = run(capsys, "explain", "--meta", str(prog), "-q", "tc(0,3)")
    assert code == 0 and out.splitlines()[-1].startswith("15. tc(0,3)  :- ")


def _chain_files(tmp_path, n):
    prog, facts = tmp_path / "left.ind", tmp_path / "chain.facts"
    prog.write_text(LEFT_TC)
    facts.write_text("".join(f"edge({i},{i + 1}).\n" for i in range(n)))
    return str(prog), str(facts)


def test_explain_wrapped_left_recursion_bottom_up(capsys, tmp_path):
    prog, facts = _chain_files(tmp_path, 8)
    code, out, err = run(capsys, "explain", prog, "--facts", facts,
                         "--wrap", "holds", "-q", "holds(tc(5,0))")
    assert (code, out, err) == (1, "", "no justification for holds(tc(5,0))\n")
    code, out, _ = run(capsys, "explain", prog, "--facts", facts,
                       "--wrap", "holds", "-q", "holds(tc(0,8))")
    assert code == 0
    assert out.splitlines()[-1].startswith("16. holds(tc(0,8))  :- holds(edge(7,8)), holds(tc(0,7))")


def test_explain_wrapped_left_recursion_43_edges(capsys, tmp_path):
    # Every holds(edge(Z,Y)) lookup is keyed on Z under the wrapper.
    prog, facts = _chain_files(tmp_path, 43)
    code, out, _ = run(capsys, "explain", prog, "--facts", facts,
                       "--wrap", "holds", "-q", "holds(tc(43,0))")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "explain", prog, "--facts", facts,
                       "--wrap", "holds", "-q", "holds(tc(0,43))")
    assert code == 0
    assert out.splitlines()[-1].startswith("86. holds(tc(0,43))  :- holds(edge(42,43)), holds(tc(0,42))")


def test_model_left_recursion_200_edges(capsys, tmp_path):
    prog, facts = _chain_files(tmp_path, 200)
    code, out, _ = run(capsys, "model", prog, "--facts", facts)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 200 + 200 * 201 // 2 and "tc(0,200)." in lines


def test_model_long_propositional_chain(capsys, tmp_path):
    prog = tmp_path / "chain.ind"
    prog.write_text("p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 2000)))
    code, out, _ = run(capsys, "model", str(prog))
    assert code == 0
    assert sorted(out.splitlines()) == sorted(f"p{k}." for k in range(2000))


def test_explain_output_independent_of_fact_order(tmp_path):
    # Two paths of one length reach d; which one is printed must not
    # depend on the order of the facts or on string hashing.
    edges = ["edge(a,b).", "edge(a,c).", "edge(b,d).", "edge(c,d).", "edge(d,e)."]
    src = str(Path(indsem.__file__).parent.parent)
    outputs = set()
    for k, seed in enumerate(["1", "2", "3", "4"]):
        facts = tmp_path / f"edges{k}.facts"
        facts.write_text("\n".join(edges[k:] + edges[:k][::-1]) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "indsem.cli", "explain", _p("tc_small.ind"),
             "--facts", str(facts), "-q", "tc(a,e)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# strata / check / compose
# ---------------------------------------------------------------------------


def test_strata_output(capsys):
    code, out, _ = run(capsys, "strata", _p("neg_chain.ind"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("stratum 0:")


def test_check_single_program_ok(capsys):
    code, out, _ = run(capsys, "check", _p("neg_reach.ind"),
                       "--facts", _p("neg_reach.facts"))
    assert code == 0
    assert "allowability: ok" in out
    assert "stratification: ok" in out


def test_check_unstratifiable(capsys, tmp_path):
    bad = tmp_path / "cyc.ind"
    bad.write_text("p :- not(p).\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "unstratifiable" in out


def test_check_composition_pair(capsys):
    code, out, _ = run(capsys, "check", str(PAIRS / "pair1_upper.ind"),
                       str(PAIRS / "pair1_lower.ind"))
    assert code == 0
    assert "composition precondition: ok" in out
    code, out, err = run(capsys, "check", str(PAIRS / "bad_upper.ind"),
                         str(PAIRS / "bad_lower.ind"))
    assert code == 1
    assert "composition precondition: 1 violation(s)" in out


def test_compose_matches_union_model(capsys):
    code, out, _ = run(capsys, "compose", str(PAIRS / "pair1_upper.ind"),
                       str(PAIRS / "pair1_lower.ind"),
                       "--facts", str(PAIRS / "pair1.facts"), "--verify-union")
    assert code == 0
    code2, out2, _ = run(capsys, "model", str(PAIRS / "pair1_upper.ind"),
                         str(PAIRS / "pair1_lower.ind"),
                         "--facts", str(PAIRS / "pair1.facts"))
    assert code2 == 0
    assert out == out2


def test_compose_wrapped_matches_wrapped_union_model(capsys):
    code, out, _ = run(capsys, "compose", str(PAIRS / "pair1_upper.ind"),
                       str(PAIRS / "pair1_lower.ind"),
                       "--facts", str(PAIRS / "pair1.facts"), "--wrap", "holds")
    assert code == 0
    code2, out2, _ = run(capsys, "model", str(PAIRS / "pair1_upper.ind"),
                         str(PAIRS / "pair1_lower.ind"),
                         "--facts", str(PAIRS / "pair1.facts"), "--wrap", "holds")
    assert code2 == 0
    assert "holds(tc(1,3)).\n" in out
    assert out == out2


def test_meta_rejected_for_two_programs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compose", str(PAIRS / "pair1_upper.ind"),
              str(PAIRS / "pair1_lower.ind"), "--meta"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "check", str(PAIRS / "pair1_upper.ind"),
                       str(PAIRS / "pair1_lower.ind"), "--meta")
    assert code == 2
    assert "without --meta" in err


def test_compose_bad_pair(capsys):
    code, _, err = run(capsys, "compose", str(PAIRS / "bad_upper.ind"),
                       str(PAIRS / "bad_lower.ind"))
    assert code == 1
    assert "composition precondition" in err


def test_compose_reports_unallowable_params_like_model(capsys, tmp_path):
    facts = tmp_path / "edge.facts"
    facts.write_text("edge(1,2).\n")
    code, _, err = run(capsys, "compose", str(PAIRS / "pair1_upper.ind"),
                       str(PAIRS / "pair1_lower.ind"), "--facts", str(facts))
    assert code == 1
    assert "not allowable" in err


# Options a subcommand would accept and then ignore.
_UNREAD_OPTIONS = [
    ("strata", "--facts"), ("strata", "--max-atoms"), ("strata", "--max-iters"),
    ("strata", "--max-depth"), ("check", "--max-atoms"), ("check", "--max-iters"),
    ("check", "--max-depth"), ("model", "--max-depth"), ("query", "--max-depth"),
    ("compose", "--max-depth"), ("explain", "--max-atoms"),
]


@pytest.mark.parametrize("command, option", _UNREAD_OPTIONS)
def test_unread_option_is_exit_2(command, option):
    if command == "compose":
        argv = [command, str(PAIRS / "pair1_upper.ind"), str(PAIRS / "pair1_lower.ind")]
    else:
        argv = [command, _p("tc_small.ind")]
    if command in ("query", "explain"):
        argv += ["-q", "tc(1,3)"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "1"])
    assert exc.value.code == 2


def _readme_option_table():
    """README's subcommand/flag table, each cell as the set of names in it."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    rows = [[{n.strip(" `") for n in cell.split(",")} - {""} for cell in line.split("|")[1:-1]]
            for line in lines if line.startswith("| ") and "`" in line]
    assert rows and rows[0][0] == {"subcommand"}
    return rows[0], rows[1:]


def test_readme_option_table_matches_the_parser():
    header, rows = _readme_option_table()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [name for (name,), *_ in rows] == list(sub.choices)
    everywhere = {"-h", "--wrap", "--exclude-wrap"}
    for (command,), *cells, other in rows:
        taken = {a.option_strings[0] for a in sub.choices[command]._actions if a.option_strings}
        assert everywhere <= taken, command
        assert all(cell <= {"yes"} for cell in cells), command
        columns = {flag for (flag,), cell in zip(header[1:-1], cells) if cell}
        assert columns | other == taken - everywhere, command


def test_deep_terms_are_exit_3(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "deep.ind"
    prog.write_text("f(0).\nf(s(s(s(s(s(s(s(s(X))))))))) :- f(X).\n")
    code, _, err = run(capsys, "model", str(prog))
    assert code == 3
    assert "recursion limit" in err and "Traceback" not in err
    deep = "f(" * 3000 + "0" + ")" * 3000
    facts = tmp_path / "deep.facts"
    facts.write_text(f"p({deep}).\n")
    code, _, err = run(capsys, "model", _p("tc_small.ind"), "--facts", str(facts))
    assert code == 3
    assert "recursion limit" in err and "Traceback" not in err
    monkeypatch.setattr("sys.stdin", io.StringIO(f"?- p({deep}).\n?- tc(1,X).\n"))
    assert main(["repl", _p("tc_small.ind"), "--facts", _p("tc_small.facts")]) == 0
    out, err = capsys.readouterr()
    assert "recursion limit" in err
    assert "X = 2" in out


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def test_model_wrapped(capsys):
    code, out, _ = run(capsys, "model", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "--wrap", "holds")
    assert code == 0
    assert out.splitlines() == [
        "holds(edge(1,2)).", "holds(edge(2,3)).",
        "holds(tc(1,2)).", "holds(tc(1,3)).", "holds(tc(2,3)).",
    ]


def test_exclude_wrap_applies_to_the_facts(capsys):
    code, out, _ = run(capsys, "model", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "--wrap", "holds",
                       "--exclude-wrap", "edge/2")
    assert code == 0
    assert out.splitlines() == [
        "edge(1,2).", "edge(2,3).",
        "holds(tc(1,2)).", "holds(tc(1,3)).", "holds(tc(2,3)).",
    ]


def test_exclude_wrap_needs_name_and_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model", _p("tc_small.ind"), "--wrap", "holds", "--exclude-wrap", "edge"])
    assert exc.value.code == 2
    assert "NAME/ARITY" in capsys.readouterr().err


def test_check_long_negation_chain(capsys, tmp_path):
    prog = tmp_path / "neg.ind"
    prog.write_text(
        "p0.\n" + "".join(f"p{k} :- p{k - 1}, not(q{k}).\n" for k in range(1, 2000))
    )
    code, out, _ = run(capsys, "check", str(prog))
    assert code == 0
    assert "stratification: ok (2000 strata)" in out.splitlines()


def test_explain_long_chain_top_down(capsys, tmp_path):
    # The term-building rule sends the program to the top-down prover.
    prog = tmp_path / "mixed.ind"
    prog.write_text(
        "p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 2000))
        + "f(0).\nf(s(X)) :- f(X).\n"
    )
    code, out, _ = run(capsys, "explain", str(prog), "-q", "p1999")
    assert code == 0
    assert len(out.splitlines()) == 2000


def test_check_and_model_agree_on_wrapped_allowability(capsys, tmp_path):
    facts = tmp_path / "bad.facts"
    facts.write_text("tc(a,b).\n")
    argv = (_p("tc_small.ind"), "--facts", str(facts), "--wrap", "w")
    code, out, err = run(capsys, "check", *argv)
    assert code == 1
    assert "allowability: 2 violation(s)" in out
    assert "w(tc(a,b))" in err
    code, _, err = run(capsys, "model", *argv)
    assert code == 1
    assert "not allowable" in err


def test_query_oracle_computes_the_model_once(capsys, monkeypatch):
    calls = []
    fixpoint = engine.least_fixpoint

    def counted(*args, **kwargs):
        calls.append(args)
        return fixpoint(*args, **kwargs)

    monkeypatch.setattr(engine, "least_fixpoint", counted)
    code, out, _ = run(capsys, "query", _p("tc_small.ind"),
                       "--facts", _p("tc_small.facts"), "-q", "tc(1,Y)", "--oracle")
    assert (code, out) == (0, "Y = 2\nY = 3\n")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# repl
# ---------------------------------------------------------------------------


def test_repl_session(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "?- tc(1,Y).\nexplain tc(1,2).\nhelp\nquit.\n"
    ))
    code = main(["repl", _p("tc_small.ind"), "--facts", _p("tc_small.facts")])
    out = capsys.readouterr().out
    assert code == 0
    assert "Y = 2" in out and "Y = 3" in out
    assert "[param]" in out
    assert "commands:" in out


def test_repl_eof_exits(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["repl", _p("chain.ind")]) == 0


def test_repl_answers_in_query_order(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "q.ind"
    prog.write_text("q('a b').\nq(a).\n")
    code, expected, _ = run(capsys, "query", str(prog), "-q", "q(X)")
    assert code == 0
    assert expected == "X = a\nX = 'a b'\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("?- q(X).\n"))
    assert main(["repl", str(prog)]) == 0
    assert capsys.readouterr().out == "indsem> " + expected + "indsem> "


def test_repl_rejects_negative_query(capsys, monkeypatch, tmp_path):
    prog = tmp_path / "q.ind"
    prog.write_text("q(a).\n")
    code, _, err = run(capsys, "query", str(prog), "-q", "not(q(a))")
    assert code == 1
    assert "cannot query a negation" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("?- not(q(a)).\n"))
    assert main(["repl", str(prog)]) == 0
    out, err = capsys.readouterr()
    assert "false." not in out
    assert "cannot query a negation" in err
