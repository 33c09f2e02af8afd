import pytest

from egraphqe import (AdtVal, BoolVal, Elem, IntVal, Literal, Model,
                      Signature, TermStore, eval_term, holds,
                      mk_array, parse_model, satisfies)
from egraphqe.model import ModelError, array_read, array_write, default_value
from egraphqe.terms import mk_formula

from conftest import load, load_mbp


def _setup():
    sig = Signature()
    arr = sig.ensure_array_sort(sig.sorts["Int"], sig.sorts["Int"])
    sig.declare_const("a", arr)
    sig.declare_var("x", sig.sorts["Int"])
    store = TermStore(sig)
    model = Model({"a": mk_array(IntVal(0), {IntVal(3): IntVal(3)}),
                   "x": IntVal(3)}, {}, {})
    return sig, store, model


def test_eval_read_matches_assignment():
    sig, store, model = _setup()
    lit = Literal("eq",
                  store.mk_app("read", (store.mk_const("a"), store.mk_const("x"))),
                  store.mk_const("x"))
    assert holds(model, sig, lit)


def test_eval_true_constant():
    sig, store, model = _setup()
    assert eval_term(model, sig, store.top) == BoolVal(True)


def test_eval_selector_on_value():
    prob = load("nested_pair_array.smt2")
    store = prob.store
    model = Model({"p": AdtVal("pair", (mk_array(IntVal(0), {}), IntVal(5)))},
                  {}, {})
    t = store.mk_app("snd", (store.mk_const("p"),))
    assert eval_term(model, prob.sig, t) == IntVal(5)
    t2 = store.mk_app("fst", (store.mk_const("p"),))
    assert eval_term(model, prob.sig, t2) == mk_array(IntVal(0), {})


def test_holds_equality_and_disequality():
    sig, store, model = _setup()
    sig.declare_const("i", sig.sorts["Int"])
    sig.declare_const("j", sig.sorts["Int"])
    m = Model(dict(model.constants, i=IntVal(2), j=IntVal(2)), {}, {})
    assert holds(m, sig, Literal("eq", store.mk_const("i"), store.mk_const("j")))
    assert holds(m, sig, Literal("eq", store.mk_const("i"), store.mk_const("i")))
    m2 = Model(dict(model.constants, i=IntVal(1), j=IntVal(2)), {}, {})
    assert holds(m2, sig, Literal("diseq", store.mk_const("i"), store.mk_const("j")))


def test_read_over_write_semantics():
    base = mk_array(IntVal(0), {IntVal(1): IntVal(7)})
    written = array_write(base, IntVal(2), IntVal(9))
    assert array_read(written, IntVal(2)) == IntVal(9)
    assert array_read(written, IntVal(1)) == IntVal(7)
    assert array_read(written, IntVal(5)) == IntVal(0)
    # writing the default normalizes away
    assert array_write(base, IntVal(1), IntVal(0)) == mk_array(IntVal(0), {})


def test_extend_fresh_name_only():
    sig, store, model = _setup()
    m2 = model.with_constant("d!0", IntVal(4))
    assert m2.constants["d!0"] == IntVal(4)
    assert eval_term(m2, sig, store.mk_const("x")) == IntVal(3)
    with pytest.raises(ModelError):
        m2.with_constant("d!0", IntVal(5))
    # extensions with distinct names commute
    m3 = model.with_constant("u", IntVal(1)).with_constant("v", IntVal(2))
    m4 = model.with_constant("v", IntVal(2)).with_constant("u", IntVal(1))
    assert m3 == m4


def test_parse_model_of_projection_example():
    prob, model = load_mbp()
    assert satisfies(model, prob.sig, prob.formula)


def test_parse_model_empty_ok():
    sig = Signature()
    assert parse_model("", sig) == Model({}, {}, {})


def test_parse_model_duplicate_array_key_rejected():
    sig = Signature()
    with pytest.raises(ModelError):
        parse_model("(define-value a (array (default 0) (1 2) (1 3)))", sig)


def test_parse_fun_values_and_universe():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u], u)
    m = parse_model("""
    (universe U 3)
    (define-fun-values f (default (elem U 0)) (((elem U 1)) (elem U 2)))
    """, sig)
    assert m.universes == {"U": 3}
    store = TermStore(sig)
    sig.declare_const("c", u)
    m2 = m.with_constant("c", Elem("U", 1))
    t = store.mk_app("f", (store.mk_const("c"),))
    assert eval_term(m2, sig, t) == Elem("U", 2)


def test_selector_on_wrong_constructor_gives_default():
    sig = Signature()
    val = sig.sorts["Int"]
    sig.declare_datatype("Rec", [("mk", [("fld", val)]), ("unit", [])])
    sig.declare_const("r", sig.sorts["Rec"])
    store = TermStore(sig)
    m = Model({"r": AdtVal("unit", ())}, {}, {})
    t = store.mk_app("fld", (store.mk_const("r"),))
    assert eval_term(m, sig, t) == default_value(val)
    tester = store.mk_app("is-unit", (store.mk_const("r"),))
    assert eval_term(m, sig, tester) == BoolVal(True)


def test_missing_interpretation_detected_at_eval():
    sig, store, model = _setup()
    sig.declare_const("w", sig.sorts["Int"])
    with pytest.raises(ModelError):
        eval_term(model, sig, store.mk_const("w"))


def test_satisfies_deep_chain_under_planted_model():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u], u)
    sig.declare_const("c", u)
    sig.declare_var("x", u)
    store = TermStore(sig)
    chain = store.mk_const("c")
    for _ in range(10_000):
        chain = store.mk_app("f", (chain,))
    formula = mk_formula(store, [Literal("eq", store.mk_const("x"), chain)])
    # f swaps the two elements, so an even chain over c lands back on c
    f = (Elem("U", 0), {(Elem("U", 0),): Elem("U", 1), (Elem("U", 1),): Elem("U", 0)})
    planted = Model({"c": Elem("U", 0), "x": Elem("U", 0)}, {"f": f}, {"U": 2})
    assert satisfies(planted, sig, formula)
    wrong = Model({"c": Elem("U", 0), "x": Elem("U", 1)}, {"f": f}, {"U": 2})
    assert not satisfies(wrong, sig, formula)
