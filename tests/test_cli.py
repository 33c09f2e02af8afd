import contextlib
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egraphqe import EGraph, Literal, formula_to_sexpr, mbp, parse_problem
from egraphqe.cli import main
from egraphqe.extraction import ExtractionBudgetError, InadmissibleReprError
from egraphqe.qel import reduce
from egraphqe.terms import mk_formula

import random

from conftest import (DEMOS, DISTINCT_TERM_PROBLEMS, TOWER_DECLS, chain_problem,
                      deep_model_problems, load, reparse, tower_problem)


def _path(name):
    return str(DEMOS / name)


def test_qel_read_chain_golden(capsys):
    assert main(["qel", _path("read_chain.smt2")]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "(and (= (+ k 1) (read a x)) (> 3 (+ k 1)))"
    assert "eliminated: z, y" in out.err
    assert "remaining: x" in out.err


def test_qel_congruent_funs_prints_true(capsys):
    assert main(["qel", _path("congruent_funs.smt2")]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_mbp_golden_with_check(capsys):
    code = main(["mbp", _path("nested_pair_array.smt2"),
                 "--model", _path("nested_pair_array.model"), "--check"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("(and (= i (read (fst (read p2 j)) i))")
    assert "eliminated: a, p" in out.err
    # nested arrays of pairs outgrow full enumeration; the oracle refuses
    # rather than silently undersampling
    assert "check passed" in out.err or "check skipped" in out.err


def test_qel_check_passes(capsys):
    assert main(["qel", _path("circular_defs.smt2"), "--check"]) == 0
    assert "check passed" in capsys.readouterr().err


def test_output_reparses(capsys):
    main(["qel", _path("read_chain.smt2")])
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("(and ")
    decls = """
    (declare-const a (Array Int Int))
    (declare-const k Int)
    (declare-var x Int)
    """
    assert len(reparse(decls, printed).literals) == 2


def test_deterministic_output(capsys):
    main(["qel", _path("no_ground_defs.smt2")])
    first = capsys.readouterr().out
    main(["qel", _path("no_ground_defs.smt2")])
    assert capsys.readouterr().out == first
    main(["mbp", _path("nested_pair_array.smt2"), "--model", _path("nested_pair_array.model")])
    m1 = capsys.readouterr().out
    main(["mbp", _path("nested_pair_array.smt2"), "--model", _path("nested_pair_array.model")])
    assert capsys.readouterr().out == m1


def test_qel_on_depth_3000_chain_file(tmp_path, capsys):
    text, chain = chain_problem(3000)
    path = tmp_path / "chain.smt2"
    path.write_text(text)
    assert main(["qel", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == f"(and (distinct {chain} d))"
    assert "eliminated: x" in out.err


def test_deep_malformed_term_is_an_input_error(tmp_path, capsys):
    # a list in head position, around a depth-3000 chain
    chain = "(f " * 3000 + "c" + ")" * 3000
    path = tmp_path / "bad.smt2"
    path.write_text("(declare-sort S 0) (declare-fun f (S) S) (declare-const c S)\n"
                    f"(assert (= c ({chain})))\n")
    assert main(["qel", str(path)]) == 2
    assert "error: bad term (('f' ('f' " in capsys.readouterr().err


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(assert (= x x)")
    assert main(["qel", str(bad)]) == 2
    missing = tmp_path / "nosuch.smt2"
    assert main(["qel", str(missing)]) == 2
    inconsistent = tmp_path / "inc.smt2"
    inconsistent.write_text("""
    (declare-const a Int)
    (declare-const b Int)
    (assert (distinct a b))
    (assert (= a b))
    (qel)
    """)
    assert main(["qel", str(inconsistent)]) == 2


def test_budget_exit_code(capsys):
    code = main(["mbp", _path("nested_pair_array.smt2"),
                 "--model", _path("nested_pair_array.model"), "--budget", "1"])
    assert code == 4


def test_negative_budget_is_bad_input(capsys):
    code = main(["mbp", _path("nested_pair_array.smt2"),
                 "--model", _path("nested_pair_array.model"), "--budget", "-1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: budget must not be negative, got -1\n"


def test_budget_and_seed_order_rejected_where_meaningless():
    for argv in (["qel", _path("read_chain.smt2"), "--budget", "1"],
                 ["qel", _path("read_chain.smt2"), "--seed-order", "id"],
                 ["mbp", _path("nested_pair_array.smt2"),
                  "--model", _path("nested_pair_array.model"),
                  "--seed-order", "id"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


def test_failed_check_exit_code(tmp_path, capsys):
    # a model that satisfies the input but masks a disequality the check
    # cannot reproduce is hard to fabricate; instead force a check failure
    # by checking an unsatisfiable-input projection: not applicable, so we
    # settle for the error path of a wrong model file
    wrong = tmp_path / "wrong.model"
    wrong.write_text("(define-value i 7)")
    code = main(["mbp", _path("nested_pair_array.smt2"), "--model", str(wrong)])
    assert code == 2  # model mismatch is an input error


def test_dot_output(tmp_path, capsys):
    prefix = tmp_path / "viz"
    assert main(["qel", _path("read_chain.smt2"), "--dot", str(prefix)]) == 0
    capsys.readouterr()
    initial = Path(f"{prefix}.initial.dot").read_text()
    final = Path(f"{prefix}.final.dot").read_text()
    assert "digraph" in initial
    assert "color=blue" in final
    # the final dump is the graph and representatives reduce works with;
    # the CLI ends each DOT file with a newline
    prob = load("read_chain.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r, _ = reduce(g, prob.formula.free_vars)
    assert final == g.dump_dot(r) + "\n"
    assert main(["mbp", _path("nested_pair_array.smt2"), "--model",
                 _path("nested_pair_array.model"), "--dot", str(prefix)]) == 0
    assert Path(f"{prefix}.saturated.dot").exists()


UEQ_PROBLEM = """\
(declare-sort U 0) (declare-fun f (U) U)
(declare-const c U) (declare-const d U) (declare-var x U) (declare-var y U)
(assert (ueq y (f x)))
(assert (= (f x) c))
(assert (distinct x d))
"""

UEQ_DOT_NODES = """\
digraph egraph {
  n0 [label="0: y"];
  n1 [label="1: x"];
  n2 [label="2: f"];
  n3 [label="3: ueq"];
  n4 [label="4: c"];
  n5 [label="5: d"];
  n2 -> n1;
  n3 -> n0;
  n3 -> n2;
  n2 -> n0 [style=dashed, color=red];
  n4 -> n0 [style=dashed, color=red];
"""


def test_dot_golden_of_a_ueq_problem(tmp_path, capsys):
    """The ueq marker is the node right after its literal's two sides, and
    the literals after it number their new nodes from there."""
    path = tmp_path / "ueq.smt2"
    path.write_text(UEQ_PROBLEM)
    prefix = tmp_path / "viz"
    assert main(["qel", str(path), "--dot", str(prefix)]) == 0
    assert capsys.readouterr().out == "(and (= c (f x)) (distinct x d))\n"
    assert Path(f"{prefix}.initial.dot").read_bytes() == \
        (UEQ_DOT_NODES + "}\n").encode()
    assert Path(f"{prefix}.final.dot").read_bytes() == \
        (UEQ_DOT_NODES + "  n2 -> n1 [style=dotted, color=blue];\n"
         "  n3 -> n4 [style=dotted, color=blue];\n"
         "  n3 -> n4 [style=dotted, color=blue];\n}\n").encode()


@pytest.mark.parametrize("model", ["(universe S x)",
                                   "(define-value c (elem S zero))",
                                   "(define-value c \u00b2)"])
def test_non_integer_in_model_is_an_input_error(tmp_path, capsys, model):
    problem = tmp_path / "p.smt2"
    problem.write_text("""
    (declare-sort S 0)
    (declare-const c S)
    (declare-var a (Array Int S))
    (assert (= (read a 0) c))
    (mbp)
    """)
    model_file = tmp_path / "m.model"
    model_file.write_text(model)
    assert main(["mbp", str(problem), "--model", str(model_file)]) == 2
    assert "error: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text", DISTINCT_TERM_PROBLEMS)
def test_distinct_term_passes_check(tmp_path, capsys, text):
    path = tmp_path / "p.smt2"
    path.write_text(text)
    assert main(["qel", str(path), "--check"]) == 0
    assert "check passed" in capsys.readouterr().err


USER_PEQ = """(declare-sort S 0)
{}(declare-const a (Array S S))
(declare-var x (Array S S))
(assert (peq x))
(assert (= a x))
"""
USER_PEQ_DECL = "(declare-fun peq ((Array S S)) Bool)\n"
USER_PEQ_MODEL = """(universe S 2)
(define-fun-values peq (default true))
(define-value a (array (default (elem S 0))))
(define-value x (array (default (elem S 0))))
"""


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_peq_is_an_ordinary_symbol(tmp_path, capsys, check):
    """Undeclared, peq is an unknown symbol.  Declared, it is a function
    like any other, and mbp's own partial equality of a and x leaves it
    alone."""
    path = tmp_path / "p.smt2"
    path.write_text(USER_PEQ.format(""))
    assert main(["qel", str(path), *check]) == 2
    assert "error: unknown symbol 'peq'" in capsys.readouterr().err
    path.write_text(USER_PEQ.format(USER_PEQ_DECL))
    model = tmp_path / "m.model"
    model.write_text(USER_PEQ_MODEL)
    for command in (["qel", str(path)], ["mbp", str(path), "--model", str(model)]):
        assert main([*command, *check]) == 0
        out, err = capsys.readouterr()
        assert out == "(and (peq a))\n", command
        assert ("check passed" in err) == bool(check)


WRITTEN_BOTH_SIDES = """(declare-sort I 0) (declare-sort V 0)
(declare-const i0 I) (declare-const i1 I) (declare-const v0 V) (declare-const w0 V)
(declare-var a (Array I V)) (declare-var b (Array I V))
(assert (= (write a i0 v0) (write b i1 w0)))
"""
WRITTEN_BOTH_SIDES_MODEL = """(universe I 2) (universe V 1)
(define-value i0 (elem I 0)) (define-value i1 (elem I 1))
(define-value v0 (elem V 0)) (define-value w0 (elem V 0))
(define-value a (array (default (elem V 0))))
(define-value b (array (default (elem V 0))))
"""


def test_projecting_both_sides_of_a_written_equality_ends(tmp_path, capsys):
    """Solving a puts writes into its class, which partial_eq pairs with
    the class root; solving a again for each such record would mint fresh
    values until the budget runs out."""
    problem, model = tmp_path / "p.smt2", tmp_path / "m.model"
    problem.write_text(WRITTEN_BOTH_SIDES)
    model.write_text(WRITTEN_BOTH_SIDES_MODEL)
    assert main(["mbp", str(problem), "--model", str(model), "--budget", "200",
                 "--check"]) == 0
    out, err = capsys.readouterr()
    assert out == "(and (distinct i0 i1))\n"
    assert "check passed" in err


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_non_ascii_digit_is_an_input_error(tmp_path, capsys, check):
    path = tmp_path / "p.smt2"
    path.write_text("(declare-var x Int) (assert (= x \u00b2)) (qel)")
    assert main(["qel", str(path), *check]) == 2
    assert "error: unknown symbol '\u00b2'" in capsys.readouterr().err


ARRAY_PROBLEM = """
(declare-sort V 0)
(declare-const c V)
(declare-var a (Array Int V))
(assert (= (read a 0) c))
(mbp)
"""
DEEP_VALUE = "(array (default " * 3000 + "(elem V 0)" + "))" * 3000


@pytest.mark.parametrize("problem, model, message", [
    ("(declare-sort S 0) (declare-const a S) (declare-var x S)\n"
     "(assert (not (distinct a))) (assert (= x a))",
     None, "'distinct' takes two arguments, got 1"),
    ("(declare-sort S 0) (declare-const a S) (declare-const b S)\n"
     "(declare-const c S) (declare-var x S)\n"
     "(assert (not (distinct a b c))) (assert (= x a))",
     None, "'distinct' takes two arguments, got 3"),
    (ARRAY_PROBLEM, "(universe V 2) (define-value c (elem V 0))\n"
     "(define-value a (elem V 1))", "expected a value of sort (Array Int V) at 2:16"),
    (ARRAY_PROBLEM, f"(define-value a {DEEP_VALUE})", "expected a value of sort V at 1:32"),
    (ARRAY_PROBLEM, f"(define-value zz {DEEP_VALUE})", "'zz' is not declared"),
    ("(declare-sort S 0) (declare-const c S) (declare-var x S)\n"
     "(assert (= c 5)) (assert (= x c))",
     None, "'=' needs two arguments of one sort, got S and Int"),
    (ARRAY_PROBLEM, "(universe V 2) (define-value c (elem V 0))\n"
     "(define-value true false)", "'true' is not declared"),
    (ARRAY_PROBLEM, "(universe Zork 2) (define-value c (elem V 0))\n"
     "(define-value a (array (default (elem V 0))))",
     "'Zork' is not a declared uninterpreted sort at 1:10"),
    (ARRAY_PROBLEM, "(universe V 1) (define-value c (elem V 5))\n"
     "(define-value a (array (default (elem V 5))))",
     "element 5 is outside the universe of 'V' (size 1) at 1:39"),
], ids=["not-distinct-1", "not-distinct-3", "ill-sorted", "deep-declared",
        "deep-undeclared", "ill-sorted-literal", "defines-builtin",
        "universe-of-undeclared-sort", "element-outside-universe"])
def test_malformed_input_exits_2(tmp_path, capsys, problem, model, message):
    path = tmp_path / "p.smt2"
    path.write_text(problem)
    args = ["qel", str(path)]
    if model is not None:
        (tmp_path / "m.model").write_text(model)
        args = ["mbp", str(path), "--model", str(tmp_path / "m.model")]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("command, reason, at", [
    ("qel", "invalid continuation byte", 37),
    ("mbp", "invalid start byte", 0),
], ids=["problem", "model"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command, reason, at):
    """A problem byte 0xe9 in a symbol, or a model starting with a UTF-16
    byte order mark, is bad input named by its file, not a traceback."""
    path = tmp_path / "p.smt2"
    args = [command, str(path)]
    if command == "qel":
        path.write_bytes(b"(declare-sort S 0) (declare-const caf\xe9 S)\n")
        bad = path
    else:
        path.write_text(ARRAY_PROBLEM)
        bad = tmp_path / "m.model"
        bad.write_bytes(b"\xff\xfe(define-value c 0)\n")
        args += ["--model", str(bad)]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {bad} is not UTF-8: {reason} at byte {at}\n"


@pytest.mark.parametrize("marked", ["read_chain.smt2", "nested_pair_array.smt2",
                                    "nested_pair_array.model"])
def test_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, marked):
    """A UTF-8 file that starts with a byte order mark, as some editors
    write it, gives the stdout and exit code of the file without it."""
    copy = tmp_path / marked
    copy.write_bytes(b"\xef\xbb\xbf" + (DEMOS / marked).read_bytes())
    if marked == "read_chain.smt2":
        runs = [["qel", _path(marked)], ["qel", str(copy)]]
    else:
        args = ["mbp", _path("nested_pair_array.smt2"), "--model",
                _path("nested_pair_array.model")]
        runs = [args, [str(copy) if a.endswith(marked) else a for a in args]]
    outs = []
    for args in runs:
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


def test_dot_labels_are_quoted_strings(tmp_path, capsys):
    """Symbols with a quote or a backslash are escaped in DOT labels, so
    every label is one well-formed quoted string that reads back as the
    node id and its symbol."""
    path = tmp_path / "p.smt2"
    path.write_text('(declare-sort S 0) (declare-fun f (S) S) (declare-const a"b S)'
                    ' (declare-const c\\d S) (declare-var x S)'
                    ' (assert (= x (f a"b))) (assert (distinct x c\\d))')
    prefix = tmp_path / "viz"
    assert main(["qel", str(path), "--dot", str(prefix)]) == 0
    capsys.readouterr()
    prob = parse_problem(path.read_text())
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    expected = [f"{node.id}: {node.label}" for node in g.nodes]
    assert {'a"b', "c\\d"} <= {node.label for node in g.nodes}
    for stage in ("initial", "final"):
        text = Path(f"{prefix}.{stage}.dot").read_text()
        labels = [line for line in text.splitlines() if "label=" in line]
        quoted = [re.fullmatch(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];', line)
                  for line in labels]
        assert None not in quoted, labels
        assert [re.sub(r"\\(.)", r"\1", m[2]) for m in quoted] == expected


@pytest.mark.parametrize("nest", [
    lambda s: f"(Array Int {s})",     # the value sort nests
    lambda s: f"(Array {s} Int)",     # the index sort nests
], ids=["value", "index"])
def test_sort_nested_2000_deep_parses_and_reduces(tmp_path, capsys, nest):
    sort = "Int"
    for _ in range(2000):
        sort = nest(sort)
    text = f"(declare-var a {sort}) (declare-var b {sort}) (assert (= a b))"
    sig = parse_problem(text).sig
    assert sig.variables["a"].name == sort
    assert sig.variables["b"] is sig.variables["a"]
    path = tmp_path / "p.smt2"
    path.write_text(text)
    assert main(["qel", str(path)]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("depth", [8, 16, 2000])
def test_check_on_deeply_nested_sort_is_skipped(tmp_path, capsys, depth):
    # the domain of S is a power tower of height depth: the oracle sizes it
    # with saturating products and an explicit stack, and refuses the check
    sort = "(Array I " * depth + "I" + ")" * depth
    path = tmp_path / "p.smt2"
    path.write_text(f"(declare-sort I 0) (declare-var a {sort}) "
                    f"(declare-var b {sort}) (assert (= a b))")
    assert main(["qel", str(path), "--check"]) == 0
    out = capsys.readouterr()
    assert out.out == "true\n"
    assert "check skipped: search space too large" in out.err


@pytest.mark.parametrize("depth, literal, values", [
    (600, "=", (0, 0)), (600, "distinct", (0, 1)),
    (2000, "=", (0, 0)), (2000, "distinct", (0, 1)),
])
def test_mbp_compares_values_of_any_depth(tmp_path, capsys, depth, literal, values):
    # a and c are arrays nested depth deep, their values default-only that
    # deep; mbp's check that the model satisfies the input compares them
    sort = "(Array Int " * depth + "Int" + ")" * depth
    problem = tmp_path / "p.smt2"
    problem.write_text(f"(declare-var a {sort}) (declare-const c {sort}) "
                       f"(assert ({literal} a c)) (mbp)")
    model = tmp_path / "p.model"
    model.write_text("".join(f"(define-value {name} " + "(array (default " * depth
                             + str(v) + "))" * depth + ")\n"
                             for name, v in zip("ac", values)))
    assert main(["mbp", str(problem), "--model", str(model)]) == 0
    assert capsys.readouterr().out == "true\n"


def test_mbp_with_an_array_entry_1999_deep(tmp_path, capsys):
    """The model's arrays map 1 to a default-only value that differs from
    the default only at the bottom, 1,999 levels down."""
    depth = 2000
    sort = "(Array Int " * depth + "Int" + ")" * depth
    problem = tmp_path / "p.smt2"
    problem.write_text(f"(declare-var a {sort}) (declare-const c {sort}) "
                       "(assert (= a c)) (mbp)")

    def value(v):
        return "(array (default " * (depth - 1) + str(v) + "))" * (depth - 1)

    model = tmp_path / "p.model"
    model.write_text("".join(f"(define-value {name} (array (default {value(0)}) "
                             f"(1 {value(1)})))\n" for name in "ac"))
    assert main(["mbp", str(problem), "--model", str(model)]) == 0
    assert capsys.readouterr().out == "true\n"


def _deep_selector_problem(tmp_path, command, depth=2000):
    """fld selects a field whose sort is an (Array Int ...) nested depth
    deep, and y equals it; with a model where x is nil and y the default
    of that sort.  Returns the problem and model paths."""
    sort = "(Array Int " * depth + "Int" + ")" * depth
    problem = tmp_path / "p.smt2"
    problem.write_text(f"(declare-datatype P ((mk (fld {sort})) (nil))) "
                       f"(declare-var x P) (declare-const y {sort}) "
                       f"(assert (= y (fld x))) ({command})")
    model = tmp_path / "p.model"
    model.write_text("(define-value x (nil)) (define-value y "
                     + "(array (default " * depth + "0" + "))" * depth + ")")
    return str(problem), str(model)


def test_check_of_a_selector_into_a_2000_deep_sort_is_skipped(tmp_path, capsys):
    problem, _ = _deep_selector_problem(tmp_path, "qel")
    assert main(["qel", problem, "--check"]) == 0
    out = capsys.readouterr()
    assert out.out == "(and (= y (fld x)))\n"
    assert "check skipped: search space too large" in out.err


@pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
def test_mbp_takes_a_selector_default_2000_deep(tmp_path, capsys, check):
    # x is nil, so the model evaluator values (fld x) as the default of
    # the field's sort, built inner sorts first
    problem, model = _deep_selector_problem(tmp_path, "mbp")
    assert main(["mbp", problem, "--model", model, *check]) == 0
    out = capsys.readouterr()
    assert out.out == "true\n"
    assert ("check skipped: search space too large" in out.err) == bool(check)


@pytest.mark.parametrize("name", ["index_key", "datatype"])
def test_mbp_on_values_2000_deep_as_key_and_under_a_constructor(tmp_path, capsys, name):
    """The model's array is keyed by a value 2,000 deep, or x and y are
    (mk D0) and (mk D1) with D0, D1 2,000 deep and differing at the bottom:
    the model reader, mbp's rules and the check compare and hash those
    values by identity."""
    problem, model = deep_model_problems()[name]
    (tmp_path / "p.smt2").write_text(problem + " (mbp)")
    (tmp_path / "p.model").write_text(model)
    assert main(["mbp", str(tmp_path / "p.smt2"), "--model", str(tmp_path / "p.model")]) == 0
    assert capsys.readouterr().out == "true\n"


def _false(store):
    """The formula (distinct true true), whose closure is false."""
    true = store.mk_const("true")
    return mk_formula(store, [Literal("diseq", true, true)])


def test_qel_check_failure_exits_3(monkeypatch, capsys):
    def wrong_reduce(g, var_names):
        return reduce(g, var_names)[0], _false(g.store)

    monkeypatch.setattr("egraphqe.cli.reduce", wrong_reduce)
    assert main(["qel", _path("circular_defs.smt2"), "--check"]) == 3
    err = capsys.readouterr().err
    assert "check failed: existential closures equivalent does not hold; " \
        "witness {" in err


def test_mbp_check_failure_exits_3(monkeypatch, capsys):
    def wrong_mbp(*args, **kwargs):
        result = mbp(*args, **kwargs)
        return dataclasses.replace(result, formula=_false(result.graph.store))

    monkeypatch.setattr("egraphqe.cli.mbp", wrong_mbp)
    assert main(["mbp", _path("nested_pair_array.smt2"),
                 "--model", _path("nested_pair_array.model"), "--check"]) == 3
    err = capsys.readouterr().err
    assert "check failed: model does not satisfy the output\n" in err


@pytest.mark.parametrize("error, message", [
    (InadmissibleReprError("representative undefined for node 3"),
     "representative undefined for node 3"),
    (ExtractionBudgetError("node 4 is on its own extraction path; repr graph has a cycle"),
     "node 4 is on its own extraction path; repr graph has a cycle"),
    (MemoryError(), "out of memory"),
])
@pytest.mark.parametrize("command", ["qel", "mbp"])
def test_internal_errors_exit_5_with_one_line(monkeypatch, capsys, command, error, message):
    """An error of the pipeline itself exits 5 with one line on stderr, not
    a traceback."""
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"egraphqe.cli.{'reduce' if command == 'qel' else 'mbp'}",
                        failing)
    argv = [command, _path("nested_pair_array.smt2")]
    if command == "mbp":
        argv += ["--model", _path("nested_pair_array.model")]
    assert main(argv) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("depth", [60, 3000])
def test_qel_prints_a_tower_under_lets(tmp_path, capsys, depth):
    """A tower t(i+1) = s(t(i), t(i)) prints within ten times its input and
    reads back to a formula that prints the same."""
    text = tower_problem(depth, random.Random(depth))
    path = tmp_path / "p.smt2"
    path.write_text(text)
    assert main(["qel", str(path)]) == 0
    printed = capsys.readouterr().out
    assert len(printed) < 10 * len(text)
    assert formula_to_sexpr(reparse(TOWER_DECLS, printed.strip())) == printed.strip()


# -- exit codes on random token sequences ------------------------------------------

_DECLS = ("(declare-sort S 0)", "(declare-fun f (S) S)", "(declare-const c S)",
          "(declare-var x S)", "(declare-fun P (S) Bool)",
          "(declare-const a (Array Int S))", "(declare-var z (Array Int S))",
          "(declare-datatype R ((mk (fst S)) (nil)))", "(declare-var w R)")
_TOKENS = ("(", "(", "(", ")", ")", ")", "assert", "declare-const", "declare-var",
           "declare-fun", "declare-sort", "declare-datatype", "qel", "mbp", "let",
           "let", "=", "distinct", "not", "ueq", "read", "write", "S", "Int", "Bool",
           "Array", "0", "1", "12", "c", "x", "f", "P", "a", "z", "w", "mk", "fst",
           "nil", "is-mk", "y", "?l!0", "peq", "true", "false", "+", ";", "²",
           "#", "((", "))", "\n", "(let ((y c))", "(= x", "(f")
# whole asserts, so that more of the texts get past the reader
_ASSERTS = ("(assert (= x c))", "(assert (= x (f c)))", "(assert (distinct x c))",
           "(assert (let ((y (f c))) (= x (f y))))", "(assert (P x))",
           "(assert (= (read z 0) c))", "(assert (= w (mk x)))", "(assert (not (P c)))",
           "(assert (= x (let ((x c)) (f x))))", "(qel)", "(mbp)")
_MODELS = (None, "(universe S 2) (define-value x (elem S 0)) (define-value c (elem S 1))",
           "(universe S 1) (define-value z (array (default (elem S 0))))",
           "(define-value x 5)", "(define-value", "")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(list(_DECLS)), st.lists(st.sampled_from(_DECLS), max_size=5)),
       st.lists(st.one_of(st.sampled_from(_TOKENS), st.sampled_from(_ASSERTS)),
                max_size=16),
       st.booleans(), st.sampled_from(_MODELS))
def test_random_token_sequences_end_in_a_documented_exit_code(decls, toks, close, model):
    """Declarations, then random tokens and asserts (balanced or not); through the CLI
    they end in 0, or in 2 for malformed text (4 for an exhausted budget),
    and never raise."""
    text = " ".join(decls + toks)
    if close:
        text += ")" * max(0, text.count("(") - text.count(")"))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "p.smt2"
        problem.write_text(text)
        args = ["qel", str(problem)]
        if model is not None:
            (Path(tmp) / "m.model").write_text(model)
            args = ["mbp", str(problem), "--model", str(Path(tmp) / "m.model")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(args)
    assert code in (0, 2, 4)
    assert (code == 2) == err.getvalue().startswith("error: ")
