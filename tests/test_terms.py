import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egraphqe import (InputError, Literal, Signature, SortKind, TermStore,
                      formula_to_sexpr, literal_to_sexpr, parse_model, qel,
                      parse_problem, term_to_sexpr)
from egraphqe.parser import ParseError
from egraphqe import terms as terms_module
from egraphqe.sexpr import Form, LocatedError, read_all, where
from egraphqe.terms import (DuplicateDeclarationError, SortMismatchError,
                            UnknownSymbolError, _binders, mk_formula, post_order)

from conftest import (DEMOS, TOWER_DECLS, conjuncts, expand_lets, load, reparse,
                      ref_var_order, same_literals, tower_problem)


def _store():
    sig = Signature()
    sig.declare_sort("U")
    arr = sig.ensure_array_sort(sig.sorts["Int"], sig.sorts["Int"])
    sig.declare_const("a", arr)
    sig.declare_const("k", sig.sorts["Int"])
    sig.declare_var("x", sig.sorts["Int"])
    return sig, TermStore(sig)


def test_hash_consing_identity():
    sig, store = _store()
    a, x = store.mk_const("a"), store.mk_const("x")
    t1 = store.mk_app("read", (a, x))
    t2 = store.mk_app("read", (store.mk_const("a"), store.mk_const("x")))
    assert t1 is t2
    assert t1.id == t2.id


@dataclass(frozen=True)
class _RefLiteral:
    """Literal as the frozen dataclass it was: equality and hash by fields."""
    kind: str
    lhs: object
    rhs: object


def test_literal_equality_and_hash_are_by_fields():
    """Literals compare and hash as the frozen dataclass of their three
    fields does, kind included, and are equal to nothing else."""
    sig, store = _store()
    k, x = store.mk_const("k"), store.mk_const("x")
    sides = [k, x, store.mk_app("+", (k, x))]
    fields = [(kind, lhs, rhs) for kind in ("eq", "diseq", "ueq")
              for lhs in sides for rhs in sides]
    for f in fields:
        assert hash(Literal(*f)) == hash(_RefLiteral(*f))
        assert Literal(*f) != f and Literal(*f) != _RefLiteral(*f)
        for g in fields:
            assert (Literal(*f) == Literal(*g)) is (_RefLiteral(*f) == _RefLiteral(*g))
            assert (Literal(*f) != Literal(*g)) is (_RefLiteral(*f) != _RefLiteral(*g))
    assert len({Literal(*f) for f in fields + fields}) == len(fields)


def test_read_term_sort_and_ground_flag():
    sig, store = _store()
    t = store.mk_app("read", (store.mk_const("a"), store.mk_const("x")))
    assert t.sort.kind is SortKind.INT
    assert not t.ground
    assert frozenset(t.vars) == {"x"}


def test_constant_leaf_is_ground():
    sig, store = _store()
    k = store.mk_const("k")
    assert k.ground and not k.vars


def test_k_plus_one_is_ground():
    sig, store = _store()
    t = store.mk_app("+", (store.mk_const("k"), store.mk_const("1")))
    assert t.ground
    assert not t.vars
    assert term_to_sexpr(t) == "(+ k 1)"


def test_ground_iff_no_free_vars():
    sig, store = _store()
    terms = [store.mk_const("k"), store.mk_const("x"),
             store.mk_app("read", (store.mk_const("a"), store.mk_const("x"))),
             store.mk_app("+", (store.mk_const("k"), store.mk_const("2")))]
    for t in terms:
        assert t.ground == (not t.vars)


def test_datatype_declares_selectors_and_tester():
    sig = Signature()
    val = sig.declare_sort("V")
    rec = sig.declare_datatype("Rec", [("mk", [("fld", val)])])
    assert sig.functions["mk"] == ((val,), rec)
    assert sig.functions["fld"] == ((rec,), val)
    assert sig.functions["is-mk"] == ((rec,), sig.sorts["Bool"])


def test_pair_constructor_var_occurrence():
    prob = load("nested_pair_array.smt2")
    store = prob.store
    a = store.mk_const("a")
    l = store.mk_const("l")
    t = store.mk_app("pair", (a, l))
    assert frozenset(t.vars) == {"a"}


def test_sort_mismatch_and_unknown_symbol():
    sig, store = _store()
    with pytest.raises(SortMismatchError):
        store.mk_app("read", (store.mk_const("k"), store.mk_const("x")))
    with pytest.raises(UnknownSymbolError):
        store.mk_const("nosuch")
    with pytest.raises(DuplicateDeclarationError):
        sig.declare_const("a", sig.sorts["Int"])
    with pytest.raises(DuplicateDeclarationError, match="sort 'U' is already declared"):
        sig.declare_datatype("U", [("mk", [])])
    # a numeral always denotes its Int value
    with pytest.raises(DuplicateDeclarationError):
        sig.declare_var("3", sig.sorts["Int"])


def test_parse_read_chain():
    prob = load("read_chain.smt2")
    assert len(prob.formula.literals) == 4
    assert prob.formula.free_vars == ("z", "x", "y")
    assert prob.command == "qel"


def test_parse_trivial_equality():
    formula = parse_problem("(declare-var x Int) (assert (= x x))").formula
    assert len(formula.literals) == 1
    assert formula.literals[0].kind == "eq"


def test_parse_malformed_parenthesis():
    with pytest.raises((ParseError, InputError)) as exc:
        parse_problem("(assert (= x x)")
    assert "1:0" in str(exc.value)


def test_predicate_literals_are_bool_equalities():
    text = """
    (declare-fun P (Int) Bool)
    (declare-const c Int)
    (assert (P c))
    (assert (not (P 3)))
    """
    formula = parse_problem(text).formula
    pos, neg = formula.literals
    assert pos.rhs.label == "true"
    assert neg.rhs.label == "false"


def test_print_parse_round_trip():
    prob = load("read_chain.smt2")
    body = "\n".join(f"(assert {lit!r})" for lit in prob.formula.literals)
    decls = """
    (declare-const a (Array Int Int))
    (declare-const k Int)
    (declare-var x Int)
    (declare-var y Int)
    (declare-var z Int)
    """
    formula2 = parse_problem(decls + body).formula
    assert same_literals(prob.formula, formula2)


def test_formula_print_forms():
    formula = parse_problem("(declare-const c Int) (assert (= c c))").formula
    assert formula_to_sexpr(formula) == "(and (= c c))"


# -- reference twins: the tree-recursive walks the iterative ones replace -----

def _ref_term(term):
    if not term.children:
        return term.label
    return "(" + " ".join([term.label] + [_ref_term(c) for c in term.children]) + ")"


def _ref_literal(lit):
    lhs, rhs = lit.lhs, lit.rhs
    if lit.kind == "diseq":
        return f"(distinct {_ref_term(lhs)} {_ref_term(rhs)})"
    if lit.kind == "ueq":
        return f"(ueq {_ref_term(lhs)} {_ref_term(rhs)})"
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if a.label == "true" and not a.children and b is not a:
            return _ref_term(b)
        if a.label == "false" and not a.children and b is not a:
            return f"(not {_ref_term(b)})"
    return f"(= {_ref_term(lhs)} {_ref_term(rhs)})"


def _ref_formula(formula):
    if not formula.literals:
        return "true"
    return "(and " + " ".join(_ref_literal(l) for l in formula.literals) + ")"


def _ref_occurrences(store, term):
    if not term.children:
        return [term.label] if term.label in store.sig.variables else []
    out = []
    for c in term.children:
        out.extend(_ref_occurrences(store, c))
    return out


def _ref_free_vars(store, literals):
    ordered = []
    for lit in literals:
        for side in (lit.lhs, lit.rhs):
            ordered.extend(v for v in _ref_occurrences(store, side) if v not in ordered)
    return tuple(ordered)


DAG_DECLS = """
(declare-sort U 0)
(declare-fun f (U) U)
(declare-fun h (U U) U)
(declare-fun k (U U U) U)
(declare-fun P (U) Bool)
(declare-fun Q (U U) Bool)
(declare-const c U)
(declare-const d U)
(declare-var x0 U)
(declare-var x1 U)
(declare-var x2 U)
(declare-var x3 U)
"""


def _random_dag_formula(rng):
    """A conjunction over a random shared DAG: h(t, t) towers, applications
    of arity 1-3 over earlier terms, and variables entering at several
    depths; every literal kind, predicates in both polarities."""
    prob = parse_problem(DAG_DECLS)
    store = prob.store
    pool = [store.mk_const(rng.choice(("c", "d", "x0")))]
    for _ in range(rng.randint(3, 9)):
        step = rng.randrange(4)
        if step == 0:                      # a tower of shared h(t, t)
            t = rng.choice(pool)
            for _ in range(rng.randint(1, 6)):
                t = store.mk_app("h", (t, t))
        elif step == 1:                    # a variable or constant, deep down
            leaf = store.mk_const(rng.choice(("c", "d", "x0", "x1", "x2", "x3")))
            t = store.mk_app("h", (rng.choice(pool), leaf))
        else:
            label = rng.choice(("f", "h", "k"))
            arity = {"f": 1, "h": 2, "k": 3}[label]
            t = store.mk_app(label, [rng.choice(pool) for _ in range(arity)])
        pool.append(t)
    pool += [store.mk_const(v) for v in ("c", "x1", "x3")]
    literals = []
    for _ in range(rng.randint(1, 5)):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(5)
        if kind < 3:
            literals.append(Literal(("eq", "diseq", "ueq")[kind], a, b))
        else:
            pred = store.mk_app("P", (a,)) if kind == 3 else store.mk_app("Q", (a, b))
            value = rng.choice((store.top, store.bot))
            literals.append(Literal("eq", *rng.sample((pred, value), 2)))
    rng.shuffle(literals)
    return store, mk_formula(store, literals)


def test_iterative_walks_match_tree_references():
    """The printers against the tree-recursive references, once the let
    binders of the literals whose trees blow up are expanded."""
    rng = random.Random(20261017)
    for _ in range(150):
        store, formula = _random_dag_formula(rng)
        assert formula.free_vars == _ref_free_vars(store, formula.literals)
        printed = formula_to_sexpr(formula)
        assert expand_lets(printed) == _ref_formula(formula)
        for lit in formula.literals:
            for side in (lit.lhs, lit.rhs):
                assert expand_lets(term_to_sexpr(side)) == _ref_term(side)
                assert frozenset(side.vars) == frozenset(_ref_occurrences(store, side))
        # printing, parsing and printing again is a fixed point
        text = DAG_DECLS + "".join(f"(assert {lit!r})\n" for lit in formula.literals)
        again = parse_problem(text).formula
        assert formula_to_sexpr(again) == printed
        assert again.free_vars == formula.free_vars


def test_deep_chain_prints_and_orders_variables():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u], u)
    sig.declare_var("x", u)
    sig.declare_var("y", u)
    store = TermStore(sig)
    t = store.mk_const("y")
    for _ in range(10_000):
        t = store.mk_app("f", (t,))
    top = store.mk_app("f", (t,))
    formula = mk_formula(store, [Literal("eq", store.mk_const("x"), top)])
    assert formula.free_vars == ("x", "y")
    assert term_to_sexpr(top) == "(f " * 10_001 + "y" + ")" * 10_001


# -- let binders ------------------------------------------------------------------

def _dag_order(lit):
    """The distinct subterms of the literal's two sides, in post-order."""
    seen, order = set(), []
    for side in (lit.lhs, lit.rhs):
        if side.id not in seen:
            for t in post_order(side, seen):
                seen.add(t.id)
                order.append(t)
    return order


def _dag_shape(lit):
    """The literal up to the ids of its terms: its kind, and per distinct
    subterm in post-order its label and its children's post-order numbers.
    Literals in two stores have one shape exactly when they are the same
    terms."""
    order = _dag_order(lit)
    number = {t.id: i for i, t in enumerate(order)}
    return (lit.kind, number[lit.lhs.id], number[lit.rhs.id],
            [(t.label, tuple(number[c.id] for c in t.children)) for t in order])


def _sharing(lit):
    """(tree size with both sides expanded, number of distinct subterms)."""
    order = _dag_order(lit)
    paths = dict.fromkeys((t.id for t in order), 0)
    for side in (lit.lhs, lit.rhs):
        paths[side.id] += 1
    for t in reversed(order):
        for c in t.children:
            paths[c.id] += paths[t.id]
    return sum(paths.values()), len(order)


_TOWER_LEVELS = st.lists(st.tuples(st.sampled_from(("h", "k3", "k", "f")),
                                   st.integers(0, 63)), min_size=1, max_size=60)
_LIT_STEP = st.tuples(st.integers(0, 4), st.integers(0, 63), st.integers(0, 63))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_TOWER_LEVELS, min_size=1, max_size=4),
       st.lists(_LIT_STEP, min_size=1, max_size=5))
def test_print_parse_print_is_a_fixed_point_on_shared_dags(towers, literals):
    """Towers up to 60 levels of random symbols, each level sharing the one
    below twice or three times (h, k3) or not at all (f), or sharing it
    once beside an earlier term (k); literals over any two of the terms.
    The printed formula reads back to the same terms and prints again the
    same; a literal under lets has more than 16 tree nodes per distinct
    subterm, and no literal prints at the size of its tree: the text stays
    within a square of the number of pieces printed."""
    prob = parse_problem(DAG_DECLS)
    store = prob.store
    pool = [store.mk_const(v) for v in ("c", "d", "x0", "x1")]
    for levels in towers:
        t = pool[levels[0][1] % len(pool)]
        for label, i in levels:
            if label == "h":
                t = store.mk_app("h", (t, t))
            elif label == "k3":
                t = store.mk_app("k", (t, t, t))
            elif label == "k":
                t = store.mk_app("k", (t, pool[i % len(pool)], t))
            else:
                t = store.mk_app("f", (t,))
            pool.append(t)
    lits = []
    for kind, i, j in literals:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if kind < 3:
            lits.append(Literal(("eq", "diseq", "ueq")[kind], a, b))
        else:
            lits.append(Literal("eq", store.mk_app("Q", (a, b)),
                                (store.top, store.bot)[kind - 3]))
    formula = mk_formula(store, lits)
    printed = formula_to_sexpr(formula)
    again = reparse(DAG_DECLS, printed)
    assert [_dag_shape(l) for l in again.literals] == \
        [_dag_shape(l) for l in formula.literals]
    assert formula_to_sexpr(again) == printed
    pieces = 0
    for lit, text in zip(formula.literals, conjuncts(printed)):
        size, distinct = _sharing(lit)
        if text.startswith("(let "):
            assert size > 16 * distinct
            assert len(text) < 40 * distinct
        pieces += 7 * distinct + 5
    # a flat subterm is printed again only while its text has at most 64
    # characters per piece (each node is at most 7 pieces, a literal 5 more)
    assert len(printed) <= 64 * pieces ** 2


@pytest.mark.parametrize("depth", [12, 15, 60, 3000])
def test_tower_prints_linear_and_reads_back(depth):
    """qel keeps the tower's disequality; it prints under one let per
    shared level, within ten times the input, and reads back to the same
    terms, which print again the same."""
    text = tower_problem(depth, random.Random(depth))
    prob = parse_problem(text)
    out = qel(prob.sig, prob.store, prob.formula)
    printed = formula_to_sexpr(out)
    assert printed.startswith("(and (let ((?l!0 (")
    assert printed.count("(let ") == depth - 1
    assert len(printed) < 10 * len(text)
    again = reparse(TOWER_DECLS, printed)
    assert [_dag_shape(l) for l in again.literals] == \
        [_dag_shape(l) for l in out.literals]
    assert formula_to_sexpr(again) == printed


def test_binder_names_skip_the_labels_of_the_literal():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("h", [u, u], u)
    for name in ("?l!0", "?l!2", "d"):
        sig.declare_const(name, u)
    store = TermStore(sig)
    t = store.mk_const("?l!0")
    for _ in range(12):
        t = store.mk_app("h", (t, t))
    text = literal_to_sexpr(Literal("diseq", t, store.mk_const("?l!2")))
    assert text.startswith("(let ((?l!1 (h ?l!0 ?l!0))) (let ((?l!3 (h ?l!1 ?l!1))) ")
    decls = "(declare-sort U 0) (declare-fun h (U U) U) (declare-const ?l!0 U)" \
        " (declare-const ?l!2 U)"
    (lit,) = reparse(decls, text).literals
    assert literal_to_sexpr(lit) == text


def test_dense_join_of_a_small_tree_prints_flat(monkeypatch):
    """A 300-character name makes the second (f C) a join of more than
    _DENSE characters per piece, so the flat attempt aborts; the tree is
    small, so the literal gets no binders, prints flat and reads back."""
    binders = []

    def spy(sides):
        binders.append(_binders(sides))
        return binders[-1]
    monkeypatch.setattr(terms_module, "_binders", spy)
    name = "c" * 300
    decls = ("(declare-sort U 0) (declare-fun f (U) U) (declare-fun h (U U) U)"
             f" (declare-const {name} U) (declare-const d U)")
    text = f"(distinct (h (f {name}) (f {name})) d)"
    (lit,) = reparse(decls, text).literals
    assert literal_to_sexpr(lit) == text
    assert binders == [[]]


_LEAVES = ("c", "d", "x0", "x1", "x2", "x3")
_DAG_STEP = st.tuples(st.sampled_from(("leaf", "f", "h", "tower")),
                      st.integers(0, 63), st.integers(0, 63), st.integers(1, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_DAG_STEP, min_size=1, max_size=25))
def test_each_term_carries_its_variable_order(steps):
    """On random shared DAGs (variables and constants, f and h applications
    over earlier terms, towers of h(t, t)), every term made carries the
    reference walk's variable order and is ground exactly when that order
    is empty; mk_app returns the same object for equal label and children,
    given as a list or as a tuple."""
    prob = parse_problem(DAG_DECLS)
    sig, store = prob.sig, prob.store

    def app(label, args):
        term = store.mk_app(label, list(args))
        assert store.mk_app(label, tuple(args)) is term
        return term

    pool = []
    for kind, i, j, height in steps:
        if kind == "leaf" or not pool:
            t = store.mk_const(_LEAVES[i % len(_LEAVES)])
        elif kind == "f":
            t = app("f", (pool[i % len(pool)],))
        elif kind == "h":
            t = app("h", (pool[i % len(pool)], pool[j % len(pool)]))
        else:
            t = pool[i % len(pool)]
            for _ in range(height):
                t = app("h", (t, t))
        pool.append(t)
    memo = {}
    for t in store.terms:
        assert t.vars == ref_var_order(sig, t, memo)
        assert t.ground == (not t.vars)
        assert app(t.label, t.children) is t
        # children that all bring one order lend it: it is not copied
        lent = {id(c.vars): c.vars for c in t.children if c.vars}
        if len(lent) == 1:
            assert t.vars is next(iter(lent.values()))


@pytest.mark.parametrize("body, error, message", [
    ("(= c (f nosuch))", UnknownSymbolError, "unknown symbol 'nosuch'"),
    ("(= c (f (= c c)))", ParseError, "nested '=' at 3:17"),
    ("(= c (f ()))", ParseError, "bad term ()"),
    ("(= c ((f c) c))", ParseError, "bad term (('f' 'c') 'c')"),
    # arguments are read left to right, so the first bad one is reported
    ("(= c (h (= c c) nosuch))", ParseError, "nested '=' at 3:17"),
    ("(= c (h nosuch (= c c)))", UnknownSymbolError, "unknown symbol 'nosuch'"),
    ("(= c (h (f c c) nosuch))", SortMismatchError, "'f' expects 1 arguments, got 2"),
    # peq is a name like any other; numerals are ASCII digits only
    ("(= c (f (peq c c)))", UnknownSymbolError, "unknown symbol 'peq'"),
    ("(= c (f \u00b2))", UnknownSymbolError, "unknown symbol '\u00b2'"),
    # the two sides of every literal have one sort
    ("(= c 5)", ParseError, "'=' needs two arguments of one sort, got S and Int"),
    ("(= 5 c)", ParseError, "'=' needs two arguments of one sort, got Int and S"),
    ("(= c (distinct c c))", ParseError,
     "'=' needs two arguments of one sort, got S and Bool"),
    ("(distinct c 5)", ParseError,
     "'distinct' needs two arguments of one sort, got S and Int"),
    ("(not (distinct c 5))", ParseError,
     "'distinct' needs two arguments of one sort, got S and Int"),
    ("(ueq c 5)", ParseError, "'ueq' needs two arguments of one sort, got S and Int"),
])
def test_term_errors_and_positions(body, error, message):
    decls = "(declare-sort S 0) (declare-fun f (S) S) (declare-fun h (S S) S)\n"
    with pytest.raises(error) as exc:
        parse_problem(decls + "(declare-const c S)\n(assert " + body + ")")
    assert str(exc.value) == message


DECLS = "(declare-sort S 0) (declare-fun f (S) S) (declare-fun g (S) S)\n"


@pytest.mark.parametrize("text, message", [
    ("(declare-sort S 0))", "unbalanced ')' at 1:18"),
    ("(declare-sort S 0)\n(assert (= a\n  (f b)", "unclosed '(' at 2:8"),
    ("   (foo a b)", "unknown command 'foo' at 1:4"),
    ("\n  (declare-sort S 0)\n    (frob)", "unknown command 'frob' at 3:5"),
    (DECLS + "(declare-fun h (S T) S)", "unknown sort 'T' at 2:18"),
    (DECLS + "(declare-fun h (S S)\nU)", "unknown sort 'U' at 3:0"),
    (DECLS + "(declare-const c T)", "unknown sort 'T' at 2:17"),
    (DECLS + "(declare-var x T)", "unknown sort 'T' at 2:15"),
    (DECLS + "(declare-const a (Array S (Array Int V)))", "unknown sort 'V' at 2:37"),
    (DECLS + "(declare-datatype P ((mk (fst S) (snd W))))",
     "unknown sort 'W' at 2:38"),
    # a tab and a CRLF line ending count as one column each
    (DECLS + "(declare-const c S)\n\t(assert (= c (f\t(= c c))))", "nested '=' at 3:18"),
    (DECLS + "(declare-const c S)\r\n(assert (= c (g (= c c))))", "nested '=' at 3:17"),
    # parentheses inside a comment are not tokens
    (DECLS + "; comment (with (parens\n(declare-const c S) ; more ((\n"
     "(assert (= c (g (= c c))))", "nested '=' at 4:17"),
    ("(declare-sort S 0) ; ) ( ;\n  (declare-const c Q)", "unknown sort 'Q' at 2:19"),
    # a byte order mark is dropped, and columns count from after it
    ("\ufeff   (foo a b)", "unknown command 'foo' at 1:4"),
    ("\ufeff(declare-sort S 0))", "unbalanced ')' at 1:18"),
    # errors of a whole command carry no position
    ("(declare-sort S 0) (qel x)", "(qel) takes no arguments"),
    ("(declare-datatype P ())", "declare-datatype needs a non-empty constructor list"),
])
def test_positional_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == message


def test_peq_is_an_ordinary_symbol():
    """Undeclared, peq is an unknown symbol; declared, it is a function."""
    text = "(declare-const c S)\r\n(assert (= c (g (peq c c))))"
    with pytest.raises(UnknownSymbolError) as exc:
        parse_problem(DECLS + text)
    assert str(exc.value) == "unknown symbol 'peq'"
    prob = parse_problem(DECLS + "(declare-fun peq (S S) S) " + text)
    (lit,) = prob.formula.literals
    assert term_to_sexpr(lit.rhs) == "(g (peq c c))"


@pytest.mark.parametrize("literal, message", [
    ("(not (distinct a))", "'distinct' takes two arguments, got 1"),
    ("(not (distinct a b c))", "'distinct' takes two arguments, got 3"),
])
def test_negated_distinct_takes_two_arguments(literal, message):
    with pytest.raises(ParseError) as exc:
        parse_problem("(declare-sort S 0) (declare-const a S) (declare-const b S)\n"
                      f"(declare-const c S) (assert {literal})")
    assert str(exc.value) == message


DEMO_INPUTS = sorted(DEMOS.glob("*.smt2")) + sorted(DEMOS.glob("*.model"))
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DEMO_INPUTS), st.booleans(), st.data())
def test_truncated_or_token_deleted_demo_is_read_or_rejected(path, truncate, data):
    """A demo input cut short, or with one token deleted, is read or
    rejected with an InputError, never another exception."""
    text = path.read_text()
    if truncate:
        text = text[:data.draw(st.integers(0, len(text)), label="cut")]
    else:
        spans = [m.span() for m in _TOKEN.finditer(text)]
        i, j = spans[data.draw(st.integers(0, len(spans) - 1), label="token")]
        text = text[:i] + text[j:]
    try:
        if path.suffix == ".model":
            # every demo model is a model of nested_pair_array.smt2
            parse_model(text, load("nested_pair_array.smt2").sig)
        else:
            parse_problem(text)
    except InputError:
        pass


def _reference_tokens(text):
    """(token, "line:col") pairs of text, read one character at a time: a
    reference for the regular-expression reader."""
    out, line, col, i = [], 1, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 0, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, f"{line}:{col}"))
            col, i = col + 1, i + 1
        else:
            start = i
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
            out.append((text[start:i], f"{line}:{col}"))
            col += i - start
    return out


def _located_tokens(text, form):
    """The tokens of form's children with their positions, each found by
    where() from the token ordinals the Forms carry."""
    out = []
    for i, child in enumerate(form):
        if isinstance(child, list):
            out.append(("(", where(text, child.at)))
            out += _located_tokens(text, child)
            out.append((")", where(text, child.end)))
        else:
            out.append((child, where(text, form.at_child(i))))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=" \t\r\n;()ab\u00b2", max_size=40))
def test_reader_matches_character_reference(text):
    """read_all and where() give the tokens, nesting and positions of a
    character-by-character reading, and the same unbalanced/unclosed
    error positions."""
    tokens, opens, error = _reference_tokens(text), [], None
    for tok, pos in tokens:
        if tok == "(":
            opens.append(pos)
        elif tok == ")":
            if not opens:
                error = f"unbalanced ')' at {pos}"
                break
            opens.pop()
    if error is None and opens:
        error = f"unclosed '(' at {opens[-1]}"
    try:
        root = Form(read_all(text))
    except LocatedError as e:
        assert e.located(text) == error
    else:
        assert error is None
        root.at = -1
        assert _located_tokens(text, root) == tokens
