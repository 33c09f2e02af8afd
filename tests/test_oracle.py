import pytest

from egraphqe import (Bounds, Literal, SearchSpaceError, Signature, TermStore,
                      equiv_exists, find_model, implies_exists, qel, satisfies)
from egraphqe.parser import parse_formula, parse_problem
from egraphqe.terms import mk_formula

from conftest import chain_problem, load


def _euf():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_const("a", u)
    sig.declare_const("b", u)
    sig.declare_var("x", u)
    return sig, TermStore(sig)


def test_micro_suite_pinned_cases():
    """Five hand-checked verdicts over a two-element universe."""
    sig, store = _euf()
    a, b, x = (store.mk_const(s) for s in "abx")
    bounds = Bounds(universe=2)

    def f(*lits):
        return mk_formula(store, list(lits))

    # 1. x = a  vs  x = b: both closures are satisfiable everywhere
    assert equiv_exists(sig, store, f(Literal("eq", x, a)),
                        f(Literal("eq", x, b)), bounds).ok
    # 2. a = b is not implied by the empty conjunction
    assert not implies_exists(sig, store, f(), f(Literal("eq", a, b)), bounds).ok
    # 3. a = b implies itself
    assert implies_exists(sig, store, f(Literal("eq", a, b)),
                          f(Literal("eq", a, b)), bounds).ok
    # 4. x = a and x != a as closures differ exactly on one-element universes
    assert not equiv_exists(sig, store, f(Literal("eq", x, a)),
                            f(Literal("diseq", x, a)), bounds).ok
    # 5. a != b implies x != b is wrong (x ranges over everything)...
    assert not implies_exists(
        sig, store, f(Literal("diseq", a, b)),
        mk_formula(store, [Literal("diseq", x, b), Literal("eq", x, b)]),
        bounds).ok


def test_equiv_reflexive_and_symmetric():
    sig, store = _euf()
    a, b, x = (store.mk_const(s) for s in "abx")
    f1 = mk_formula(store, [Literal("eq", x, a)])
    f2 = mk_formula(store, [Literal("eq", a, b)])
    bounds = Bounds(universe=2)
    assert equiv_exists(sig, store, f1, f1, bounds).ok
    assert equiv_exists(sig, store, f1, f2, bounds).ok == \
        equiv_exists(sig, store, f2, f1, bounds).ok


def test_qel_read_chain_equivalence_with_arithmetic():
    # the window keeps the array enumeration feasible (4^4 interpretations)
    # while still exercising 3 > z and k + 1 in both truth directions
    prob = load("read_chain.smt2")
    out = qel(prob.sig, prob.store, prob.formula)
    verdict = equiv_exists(prob.sig, prob.store, prob.formula, out,
                           Bounds(int_window=(0, 3)))
    assert verdict.ok


def test_witness_reported_on_failure():
    sig, store = _euf()
    a, b = store.mk_const("a"), store.mk_const("b")
    f1 = mk_formula(store, [Literal("eq", a, b)])
    f2 = mk_formula(store, [Literal("diseq", a, b)])
    verdict = equiv_exists(sig, store, f1, f2, Bounds(universe=2))
    assert not verdict.ok
    assert verdict.witness is not None


def test_search_space_guard():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u, u], u)
    sig.declare_fun("g", [u, u], u)
    store = TermStore(sig)
    sig.declare_const("c", u)
    c = store.mk_const("c")
    t = store.mk_app("f", (c, store.mk_app("g", (c, c))))
    f1 = mk_formula(store, [Literal("eq", t, c)])
    with pytest.raises(SearchSpaceError):
        equiv_exists(sig, store, f1, f1, Bounds(universe=3, max_cost=1000))


def test_out_of_window_interpretations_skipped():
    sig, formula = parse_formula("""
    (declare-const k Int)
    (declare-var z Int)
    (assert (= z (+ k 1)))
    """)
    prob_store = TermStore(sig)
    verdict = equiv_exists(sig, prob_store, formula, formula,
                           Bounds(int_window=(0, 1)))
    assert verdict.ok
    assert verdict.skipped > 0  # k = 1 pushes k+1 outside the window


def test_find_model_produces_satisfying_model():
    prob = parse_problem("""
    (declare-sort U 0)
    (declare-const a U)
    (declare-fun f (U) U)
    (declare-var x U)
    (assert (= (f x) a))
    (assert (distinct x a))
    """)
    model = find_model(prob.sig, prob.store, prob.formula, Bounds(universe=2))
    assert model is not None
    assert satisfies(model, prob.sig, prob.formula)


def test_find_model_none_when_unsat():
    prob = parse_problem("""
    (declare-const a Int)
    (assert (distinct a a))
    """)
    assert find_model(prob.sig, prob.store, prob.formula, Bounds()) is None


def test_implication_reflexive_and_transitive_on_samples(rng):
    from conftest import random_euf_instance
    for _ in range(10):
        sig, store, formula, _ = random_euf_instance(rng)
        once = qel(sig, store, formula)
        twice = qel(sig, store, once, var_names=formula.free_vars)
        bounds = Bounds(universe=2)
        assert implies_exists(sig, store, formula, formula, bounds).ok
        # chain: input -> reduction -> reduction of the reduction
        assert implies_exists(sig, store, formula, once, bounds).ok
        assert implies_exists(sig, store, once, twice, bounds).ok
        assert implies_exists(sig, store, formula, twice, bounds).ok


def test_depth_3000_chain_is_checked():
    text, _ = chain_problem(3000)
    prob = parse_problem(text)
    sig, store = prob.sig, prob.store
    out = qel(sig, store, prob.formula)
    for universe in (1, 2):
        bounds = Bounds(universe=universe)
        assert equiv_exists(sig, store, prob.formula, out, bounds).ok
        for formula in (prob.formula, out):
            model = find_model(sig, store, formula, bounds)
            # x = CHAIN and x != d need a second element
            assert (model is None) == (universe == 1)
            assert model is None or satisfies(model, sig, formula)
