import importlib
import random
from collections import Counter

import pytest

from egraphqe import (Bounds, EGraph, InputError, Model,
                      ModelMismatchError, SaturationBudgetError, SearchSpaceError,
                      Signature, SortKind,
                      TermStore, Verdict, find_model,
                      formula_to_sexpr, implies_exists, mbp, parse_model, qel,
                      satisfies)
from egraphqe.parser import parse_problem

from conftest import (DEMOS, check_ground_analysis, load_mbp,
                      random_projection_instance, random_write_instance, reparse,
                      same_literals)

# the package exports the function mbp under the module's name
mbp_module = importlib.import_module("egraphqe.mbp")

MBP_EXPECTED = ("(and (= i (read (fst (read p2 j)) i))"
                " (= l (snd (read p2 j)))"
                " (= p2 (write p1 j (read p2 j)))"
                " (= (read p2 j) (pair (fst (read p2 j)) l))"
                " (distinct (read p2 j) q))")

# The same literals in the order they had while a disequality was also
# kept as a `distinct(t, u) = true` node in the egraph; that node put the
# disequality among the true-class literals instead of after them.
MBP_EXPECTED_MARKER_ORDER = ("(and (= i (read (fst (read p2 j)) i))"
                             " (= l (snd (read p2 j)))"
                             " (= p2 (write p1 j (read p2 j)))"
                             " (distinct (read p2 j) q)"
                             " (= (read p2 j) (pair (fst (read p2 j)) l)))")


def _run(prob, model, **kw):
    return mbp(prob.sig, prob.store, prob.formula, prob.formula.free_vars,
               model, **kw)


def test_projection_example_output():
    prob, model = load_mbp()
    res = _run(prob, model)
    assert repr(res.formula) == MBP_EXPECTED
    assert res.formula.free_vars == ()
    decls = "".join(line for line in
                    (DEMOS / "nested_pair_array.smt2").read_text().splitlines(True)
                    if line.startswith("(declare"))
    assert same_literals(res.formula, reparse(decls, MBP_EXPECTED_MARKER_ORDER))


def test_saturated_projection_graph_has_no_distinct_node():
    prob, model = load_mbp()
    g = _run(prob, model).graph
    assert g.diseqs
    assert all(node.label != "distinct" for node in g.nodes)


def test_projection_example_model_independent():
    out1 = repr(_run(*load_mbp()).formula)
    out2 = repr(_run(*load_mbp(model="nested_pair_array_alt.model")).formula)
    assert out1 == out2 == MBP_EXPECTED


def test_projection_example_model_holds_on_output():
    prob, model = load_mbp()
    res = _run(prob, model)
    assert satisfies(res.model, prob.sig, res.formula)


def test_cground_skip_blocks_disequality_split():
    prob, model = load_mbp()
    res = _run(prob, model)
    assert res.rule_fires.get("adt_split_diseq", 0) == 0


def test_no_rules_fire_reduces_to_qel():
    prob = parse_problem("""
    (declare-sort U 0)
    (declare-const c U)
    (declare-const d U)
    (declare-var a (Array U U))
    (assert (= (read a c) d))
    (assert (= c d))
    """)
    model = find_model(prob.sig, prob.store, prob.formula, Bounds(universe=2))
    res = _run(prob, model)
    # read(a, c) with no write anywhere: Ackermann needs two reads, nothing
    # else matches, so the output is the qel of the input minus the
    # variable-tainted literal
    assert res.rule_fires == {}
    assert "a" not in res.formula.free_vars


def test_elim_wr_rd_skipped_when_class_is_ground():
    """With v = b alongside, the read-over-write becomes constructively
    ground, so the rule is skipped and the output stays model-independent."""
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const b (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const e Int)
    (declare-const out Int)
    (assert (= (read (write v i e) j) out))
    (assert (= v b))
    """)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value b (array (default 0)))
    (define-value i 1)
    (define-value j 1)
    (define-value e 4)
    (define-value out 4)
    """, prob.sig)
    res = _run(prob, model)
    assert "elim_wr_rd" not in res.rule_fires
    assert repr(res.formula) == "(and (= out (read (write b i e) j)))"


def test_elim_wr_rd_equal_branch():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const e Int)
    (declare-const out Int)
    (assert (= (read (write v i e) j) out))
    """)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value i 1)
    (define-value j 1)
    (define-value e 4)
    (define-value out 4)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["elim_wr_rd"] == 1
    got = repr(res.formula)
    assert "(= i j)" in got or "(= j i)" in got
    assert "(= e out)" in got or "(= out e)" in got
    assert "v" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    verdict = implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                             Bounds(int_window=(0, 2)))
    assert verdict.ok


def test_elim_wr_rd_diseq_branch():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const e Int)
    (declare-const out Int)
    (assert (= (read (write v i e) j) out))
    """)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value i 1)
    (define-value j 2)
    (define-value e 4)
    (define-value out 0)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["elim_wr_rd"] == 1
    assert "(distinct i j)" in repr(res.formula) or \
        "(distinct j i)" in repr(res.formula)
    assert "v" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    verdict = implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                             Bounds(int_window=(0, 2)))
    assert verdict.ok


def test_elim_wr_rd_requires_variable_under_write():
    prob = parse_problem("""
    (declare-const b (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const e Int)
    (declare-var v (Array Int Int))
    (assert (= (read (write b i e) j) e))
    (assert (= v b))
    """)
    model = parse_model("""
    (define-value v (array (default 4) (1 4)))
    (define-value b (array (default 4)))
    (define-value i 1)
    (define-value j 1)
    (define-value e 4)
    """, prob.sig)
    res = _run(prob, model)
    assert "elim_wr_rd" not in res.rule_fires  # write is over constants only


def test_partial_eq_and_elim_eq_solve_variable():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const b (Array Int Int))
    (declare-const i Int)
    (declare-const e Int)
    (assert (= v (write b i e)))
    """)
    model = parse_model("""
    (define-value v (array (default 0) (1 4)))
    (define-value b (array (default 0)))
    (define-value i 1)
    (define-value e 4)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["partial_eq"] == 1
    assert "v" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    verdict = implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                             Bounds(int_window=(0, 2)))
    assert verdict.ok


def test_elim_eq_declares_an_array_valued_fresh_variable():
    """Solving a for its write leaves a fresh d!k in place of (read a i),
    itself an array, so it is declared a variable and projected too."""
    prob = parse_problem("""
    (declare-sort I 0) (declare-sort V 0)
    (declare-var a (Array I (Array I V)))
    (declare-const b (Array I (Array I V)))
    (declare-const i I) (declare-const j I) (declare-const v V)
    (assert (= (read (read a j) i) v))
    (assert (= (write a i (read b i)) b))
    """)
    model = find_model(prob.sig, prob.store, prob.formula, Bounds(universe=2))
    res = _run(prob, model)
    fresh = [name for name in prob.sig.variables if name.startswith("d!")]
    assert res.rule_fires["elim_eq"] >= 1 and fresh
    assert all(prob.sig.variables[name].kind is SortKind.ARRAY for name in fresh)
    assert res.formula.free_vars == ()
    assert satisfies(res.model, prob.sig, res.formula)
    assert implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                          Bounds(universe=2)).ok


def test_elim_eq_zero_index_merges_sides():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const b (Array Int Int))
    (assert (= v b))
    """)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value b (array (default 0)))
    """, prob.sig)
    res = _run(prob, model)
    assert res.formula.literals == ()  # v = b collapses to true


def test_elim_eq_reads_the_fresh_value_off_the_model():
    """Solving v = write(s, i, d!0) values d!0 as v's model array at i,
    without making the term read(v, i): a store term would become a node of
    the next graph grown on the store."""
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const i Int)
    (declare-const e Int)
    (declare-const s (Array Int Int))
    (assert (= s (write v i e)))
    """)
    model = parse_model("""
    (define-value v (array (default 0) (2 7)))
    (define-value s (array (default 0) (1 4) (2 7)))
    (define-value i 1)
    (define-value e 4)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["elim_eq"] == 1
    v, i = prob.store.mk_const("v"), prob.store.mk_const("i")
    assert ("read", (v, i)) not in prob.store._table
    assert res.model.constants["d!0"] == 0
    assert res.graph.nodes == prob.store.terms[:len(res.graph.nodes)]


def test_elim_wr_unwinds_write_and_keeps_read_fact():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const b (Array Int Int))
    (declare-const i Int)
    (declare-const e Int)
    (declare-const s (Array Int Int))
    (assert (= s (write v i e)))
    """)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value b (array (default 0)))
    (define-value s (array (default 0) (1 4)))
    (define-value i 1)
    (define-value e 4)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["elim_wr"] == 1
    assert res.rule_fires["elim_eq"] == 1
    got = repr(res.formula)
    assert "(= (read s i) e)" in got or "(= e (read s i))" in got
    assert "v" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    verdict = implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                             Bounds(int_window=(0, 2)))
    assert verdict.ok


def test_ackermann_equal_and_diseq_branches():
    text = """
    (declare-var v (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const x Int)
    (declare-const y Int)
    (assert (= (read v i) x))
    (assert (= (read v j) y))
    """
    prob = parse_problem(text)
    model = parse_model("""
    (define-value v (array (default 0) (1 5)))
    (define-value i 1) (define-value j 1)
    (define-value x 5) (define-value y 5)
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["ackermann"] == 1
    assert "(= i j)" in repr(res.formula) or "(= j i)" in repr(res.formula)
    assert "(= x y)" in repr(res.formula) or "(= y x)" in repr(res.formula)

    prob2 = parse_problem(text)
    model2 = parse_model("""
    (define-value v (array (default 0) (1 5)))
    (define-value i 1) (define-value j 2)
    (define-value x 5) (define-value y 0)
    """, prob2.sig)
    res2 = _run(prob2, model2)
    assert res2.rule_fires["ackermann"] == 1
    assert "(distinct i j)" in repr(res2.formula) or \
        "(distinct j i)" in repr(res2.formula)
    for res_, prob_ in ((res, prob), (res2, prob2)):
        assert "v" not in res_.formula.free_vars
        assert satisfies(res_.model, prob_.sig, res_.formula)


def test_ackermann_skips_same_index_term():
    prob = parse_problem("""
    (declare-var v (Array Int Int))
    (declare-const i Int)
    (declare-const x Int)
    (assert (= (read v i) x))
    (assert (= (read v i) x))
    """)
    model = parse_model("""
    (define-value v (array (default 0) (1 5)))
    (define-value i 1) (define-value x 5)
    """, prob.sig)
    res = _run(prob, model)
    assert "ackermann" not in res.rule_fires


def test_adt_deconstruct_selector_equalities():
    prob, model = load_mbp()
    res = _run(prob, model)
    assert res.rule_fires["adt_deconstruct_eq"] == 1
    got = repr(res.formula)
    assert "(snd (read p2 j))" in got and "(fst (read p2 j))" in got


def test_adt_split_same_constructor_selects_differing_field():
    prob = parse_problem("""
    (declare-datatype Rec ((mk (fld Int) (pos Int)) (unit)))
    (declare-const r Rec)
    (declare-var p Rec)
    (assert (distinct p r))
    """)
    model = parse_model("""
    (define-value p (mk 1 2))
    (define-value r (mk 1 3))
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["adt_split_diseq"] == 1
    # the split recorded a selector disequality at the differing field
    g = res.graph
    labels = {frozenset((g.nodes[a].label, g.nodes[b].label))
              for a, b in g.diseqs}
    assert frozenset(("pos",)) in labels
    # p never acquires a ground definition, so the selector fact stays
    # variable-tainted and is dropped from the projected output
    assert "p" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    assert implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                          Bounds(int_window=(0, 3))).ok


def test_adt_split_different_constructors_gives_testers():
    prob = parse_problem("""
    (declare-datatype Rec ((mk (fld Int) (pos Int)) (unit)))
    (declare-const r Rec)
    (declare-var p Rec)
    (assert (distinct p r))
    """)
    model = parse_model("""
    (define-value p (mk 1 2))
    (define-value r (unit))
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["adt_split_diseq"] == 1
    assert "(not (is-mk r))" in repr(res.formula)
    assert "p" not in res.formula.free_vars


def test_adt_split_model_mismatch_detected():
    prob = parse_problem("""
    (declare-datatype Rec ((mk (fld Int))))
    (declare-const r Rec)
    (declare-var p Rec)
    (declare-var p2 Rec)
    (assert (distinct p p2))
    (assert (= p (mk 1)))
    """)
    from egraphqe.model import AdtVal
    bad = Model({"p": AdtVal("mk", (1,)),
                 "p2": AdtVal("mk", (1,)),
                 "r": AdtVal("mk", (2,))}, {}, {})
    with pytest.raises((ModelMismatchError, InputError)):
        _run(prob, bad)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: mbp treats every declared variable"
                          " as projected, so it drops the kept c")
def test_a_declared_variable_outside_the_projection_is_kept():
    prob = parse_problem("""
    (declare-sort I 0) (declare-sort V 0)
    (declare-const i I) (declare-const e V)
    (declare-var a (Array I V)) (declare-var c (Array I V))
    (assert (= (read a i) e)) (assert (= a c))
    """)
    model = parse_model("(universe I 1) (universe V 2)"
                        " (define-value i (elem I 0)) (define-value e (elem V 1))"
                        " (define-value a (array (default (elem V 1))))"
                        " (define-value c (array (default (elem V 1))))", prob.sig)
    res = mbp(prob.sig, prob.store, prob.formula, ["a"], model)
    verdict = implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                             Bounds(universe=2), free={"c"})
    assert verdict.ok, (formula_to_sexpr(res.formula), verdict.witness)


def test_rejects_non_array_adt_variable():
    prob = parse_problem("""
    (declare-var x Int)
    (assert (= x 3))
    """)
    with pytest.raises(InputError):
        _run(prob, Model({"x": 3}, {}, {}))


def test_rejects_undeclared_variable():
    prob, model = load_mbp()
    with pytest.raises(InputError, match="'nosuch' is not a declared variable"):
        mbp(prob.sig, prob.store, prob.formula, ["nosuch"], model)


def test_rejects_model_not_satisfying_input():
    prob, model = load_mbp()
    wrong = Model(dict(model.constants, i=9), model.functions,
                  model.universes)
    with pytest.raises(ModelMismatchError):
        _run(prob, wrong)


def test_budget_exhaustion_is_an_error():
    prob, model = load_mbp()
    with pytest.raises(SaturationBudgetError):
        _run(prob, model, budget=1)


def test_negative_budget_is_bad_input():
    prob, model = load_mbp()
    with pytest.raises(InputError, match="budget must not be negative"):
        _run(prob, model, budget=-1)
    with pytest.raises(SaturationBudgetError):  # zero allows no application
        _run(prob, model, budget=0)


def test_monotone_growth_and_second_pass_no_progress():
    prob, model = load_mbp()
    from egraphqe.egraph import EGraph
    from egraphqe.mbp import _ADT_RULES, _ARRAY_RULES, _State, apply_rules
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    state = _State(g, model, 10_000)

    def counts():
        return len(g.nodes), len(state.peqs), len(g.diseqs)

    before = len(g.nodes)
    watermark = apply_rules(state, _ARRAY_RULES, (0, 0, 0))
    assert state.total > 0
    # the next pass starts at this one's nodes, at every partial equality
    # (its node rules make the first, and it offers each record in the pass
    # that made it, so the records its partial-equality rules make too),
    # and at the disequalities there were when its disequality rules started
    # (after its node and partial-equality rules)
    assert watermark[:2] == (before, len(state.peqs)) and state.peqs
    assert watermark[2] == len(g.diseqs) > 0
    assert len(g.nodes) >= before
    grown = len(g.nodes)
    while watermark != counts():
        seen = len(g.diseqs)
        watermark = apply_rules(state, _ARRAY_RULES, watermark)
        assert len(g.nodes) >= grown
        assert watermark[1] == len(state.peqs)
        assert seen <= watermark[2] == len(g.diseqs)
        grown = len(g.nodes)
    # saturated: the watermark is the counts, and one more pass returns it
    # unchanged and leaves nodes, records, disequalities and fires as they are
    facts = (list(g.nodes), list(state.peqs), list(g.diseqs), dict(state.fires))
    assert apply_rules(state, _ARRAY_RULES, watermark) == watermark == counts()
    assert (list(g.nodes), list(state.peqs), list(g.diseqs), state.fires) == facts
    # the datatype family's first pass offers every node there is when it
    # starts and every disequality there is when its disequality rule
    # starts; a pass from that watermark offers neither again
    before, diseqs, total = len(g.nodes), len(g.diseqs), state.total
    watermark = apply_rules(state, _ADT_RULES, (0, 0, 0))
    assert state.total > total and diseqs > 0
    assert watermark == (before, len(state.peqs), len(g.diseqs))
    offered = []
    family = (_ADT_RULES[0], (), (),
              (lambda state, a, b: offered.append((a, b)),))
    assert apply_rules(state, family, watermark)[2] == len(g.diseqs)
    assert offered == []


def test_random_projection_contract(rng):
    """A slice of the acceptance contract suite (the full run lives in the
    acceptance module)."""
    checked = 0
    for _ in range(25):
        sig, store, formula = random_projection_instance(rng)
        bounds = Bounds(universe=2)
        model = find_model(sig, store, formula, bounds)
        if model is None:
            continue
        res = mbp(sig, store, formula, formula.free_vars, model)
        projected = {v for v in sig.variables
                     if sig.variables[v].kind.value in ("array", "adt")}
        assert not (set(res.formula.free_vars) & projected)
        assert satisfies(res.model, sig, res.formula)
        assert implies_exists(sig, store, res.formula, formula, bounds).ok
        checked += 1
    assert checked >= 10


def test_saturated_graph_keeps_congruent_terms_apart():
    prob, model = load_mbp()
    res = _run(prob, model)
    g, store = res.graph, prob.store
    p1 = store.mk_const("p1")
    j = store.mk_const("j")
    fresh = g.add_term(store.mk_app("fst", (store.mk_app("read", (p1, j)),)))
    fst_p = g.add_term(store.mk_app("fst", (store.mk_const("p"),)))
    # read(p1, j) is not in p's class, so the two fst applications stay apart
    assert g.find(fresh) != g.find(fst_p)


def test_mbp_without_projected_vars_matches_qel():
    text = """
    (declare-const c Int)
    (declare-var z Int)
    (assert (= z (+ c 1)))
    """
    prob = parse_problem(text)
    model = parse_model("(define-value c 1) (define-value z 2)", prob.sig)
    res = mbp(prob.sig, prob.store, prob.formula, [], model)
    prob2 = parse_problem(text)
    expected = qel(prob2.sig, prob2.store, prob2.formula)
    assert res.rule_fires == {}
    assert same_literals(res.formula, expected)


def test_nested_write_unwinds_twice():
    text = """
    (declare-var v (Array Int Int))
    (declare-const s (Array Int Int))
    (declare-const i Int)
    (declare-const j Int)
    (declare-const e Int)
    (declare-const f Int)
    (assert (= s (write (write v i e) j f)))
    """
    prob = parse_problem(text)
    model = parse_model("""
    (define-value v (array (default 0)))
    (define-value i 1) (define-value j 2)
    (define-value e 4) (define-value f 5)
    (define-value s (array (default 0) (1 4) (2 5)))
    """, prob.sig)
    res = _run(prob, model)
    assert res.rule_fires["elim_wr"] == 2
    got = repr(res.formula)
    assert "(= e (read s i))" in got and "(= f (read s j))" in got
    assert "v" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)
    assert implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                          Bounds(int_window=(0, 2))).ok

    # indices that collide under the model record the equality instead
    prob2 = parse_problem(text)
    model2 = parse_model("""
    (define-value v (array (default 0)))
    (define-value i 1) (define-value j 1)
    (define-value e 4) (define-value f 5)
    (define-value s (array (default 0) (1 5)))
    """, prob2.sig)
    res2 = _run(prob2, model2)
    got2 = repr(res2.formula)
    assert "(= i j)" in got2 or "(= j i)" in got2
    assert satisfies(res2.model, prob2.sig, res2.formula)
    assert implies_exists(prob2.sig, prob2.store, res2.formula, prob2.formula,
                          Bounds(int_window=(0, 2))).ok


def test_a_clash_keeps_the_first_index():
    """Unwinding c = write(write(a, i0, e0), i1, e1), where the model gives
    i0 and i1 one value: i1 is excepted first and i0 clashes with it, so
    the partial equality of c and a keeps i1 alone, and i0 = i1 is
    recorded instead of a second read fact."""
    prob = parse_problem("""
    (declare-var a (Array Int Int)) (declare-const c (Array Int Int))
    (declare-const i0 Int) (declare-const i1 Int)
    (declare-const e0 Int) (declare-const e1 Int)
    (assert (= c (write (write a i0 e0) i1 e1)))
    """)
    model = parse_model("""
    (define-value a (array (default 0))) (define-value c (array (default 0) (1 5)))
    (define-value i0 1) (define-value i1 1) (define-value e0 4) (define-value e1 5)
    """, prob.sig)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    state = mbp_module._State(g, model, 10_000)
    mbp_module._saturate(state)
    c, a, i0, i1 = (prob.store.mk_const(name) for name in ("c", "a", "i0", "i1"))
    assert ("read", (c, i0)) not in prob.store._table
    inner = prob.store.mk_app("write", (a, i0, prob.store.mk_const("e0")))
    outer = prob.store.mk_app("write", (inner, i1, prob.store.mk_const("e1")))
    assert [(s, t, list(exceptions.items())) for s, t, exceptions in state.peqs] \
        == [(c, outer, []), (c, inner, [(1, i1)]), (c, a, [(1, i1)])]
    assert state.fires == {"partial_eq": 1, "elim_wr": 2, "elim_eq": 1}
    assert g.find(i0.id) == g.find(i1.id)


def test_a_variable_solved_over_a_projected_one_is_solved_again_over_a_kept_one():
    """a = b first solves a as b, which adds nothing.  Unwinding
    c = write(a, i, v) then gives a partial equality of c and a, solved by
    the ground write(c, i, d!0).  Without that second solution the class
    {a, b} has no ground member, so the output keeps only read(c, i) = v
    and loses read(b, j) = w: it no longer implies the input's closure."""
    prob = parse_problem("""
    (declare-sort I 0) (declare-sort V 0)
    (declare-const i I) (declare-const j I) (declare-const v V) (declare-const w V)
    (declare-const c (Array I V))
    (declare-var a (Array I V)) (declare-var b (Array I V))
    (assert (= a b))
    (assert (= c (write a i v)))
    (assert (= (read b j) w))
    """)
    model = parse_model("""
    (universe I 2) (universe V 2)
    (define-value i (elem I 0)) (define-value j (elem I 1))
    (define-value v (elem V 0)) (define-value w (elem V 1))
    (define-value a (array (default (elem V 1))))
    (define-value b (array (default (elem V 1))))
    (define-value c (array (default (elem V 1)) ((elem I 0) (elem V 0))))
    """, prob.sig)
    res = mbp(prob.sig, prob.store, prob.formula, ["a", "b"], model)
    assert formula_to_sexpr(res.formula) == (
        "(and (= c (write (write c i d!0) i v)) (= v (read c i))"
        " (= w (read (write c i d!0) j)))")
    assert res.rule_fires["elim_eq"] == 2
    assert implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                          Bounds(universe=2)).ok


def test_a_variable_in_a_ground_class_is_not_solved_again():
    """a0 = write(b, i, e), and a1 = write(b, i, e) or a0 = write(a1, i, e).
    The class of a0 gets two partial equalities: a0, the oldest member,
    pairs with the next oldest, write(b, i, e), and the other write or a1
    pairs with a0.  write(b, i, e) is ground, so it is never offered.
    elim_eq solves a0 as it.  It skips a0 in the later records (a0 = a1,
    or a0 = write(a1, i, e) and the a0 =_{i} a1 that elim_wr unwinds from
    it), since a0 is solved and its class is ground, and solves a1."""
    problem = """
    (declare-sort I 0) (declare-sort V 0)
    (declare-const b (Array I V)) (declare-const i I) (declare-const e V)
    (declare-var a0 (Array I V)) (declare-var a1 (Array I V))
    (assert (= a0 (write b i e)))
    (assert (= a1 (write b i e)))
    """
    model = """
    (universe I 1) (universe V 1)
    (define-value i (elem I 0)) (define-value e (elem V 0))
    (define-value b (array (default (elem V 0))))
    (define-value a0 (array (default (elem V 0))))
    (define-value a1 (array (default (elem V 0))))
    """
    cases = ((problem, "true", {"partial_eq": 2, "elim_eq": 2}),
             (problem.replace("(= a1 (write b i e))", "(= a0 (write a1 i e))"),
              "(and (= e (read (write b i e) i))"
              " (= (write b i e) (write (write (write b i e) i d!0) i e)))",
              {"partial_eq": 2, "elim_wr": 1, "elim_eq": 2}))
    for text, out, fires in cases:
        prob = parse_problem(text)
        res = mbp(prob.sig, prob.store, prob.formula, ["a0", "a1"],
                  parse_model(model, prob.sig))
        assert formula_to_sexpr(res.formula) == out, text
        assert res.rule_fires == fires, text


def test_partial_equalities_are_offered_in_the_pass_that_made_them():
    """A pass offers its nodes, then each partial equality its rules make,
    until they make no more: the record of c1 and the write chain over a0
    is made, unwound twice and solved for a0 before the next pass offers a
    node.  elim_wr_rd then rewrites one read over a write, and the oracle
    accepts the output."""
    prob = parse_problem("""
    (declare-sort I 0) (declare-sort V 0)
    (declare-const i0 I) (declare-const i1 I) (declare-const i2 I)
    (declare-const e0 V) (declare-const e1 V)
    (declare-var a0 (Array I V)) (declare-const c1 (Array I V))
    (assert (= c1 (write (write a0 i0 e1) i2 e0)))
    (assert (= (read (write (write (write (write a0 i1 e1) i2 e0) i2 e1) i2 e0) i0) e1))
    """)
    model = parse_model("""
    (universe I 2) (universe V 2)
    (define-value i0 (elem I 1)) (define-value i1 (elem I 1))
    (define-value i2 (elem I 0)) (define-value e0 (elem V 0))
    (define-value e1 (elem V 1))
    (define-value a0 (array (default (elem V 0)) ((elem I 0) (elem V 1))))
    (define-value c1 (array (default (elem V 0)) ((elem I 1) (elem V 1))))
    """, prob.sig)
    res = mbp(prob.sig, prob.store, prob.formula, ["a0"], model)
    chain = "(write (write c1 i2 d!0) i0 d!1)"
    assert formula_to_sexpr(res.formula) == (
        f"(and (= c1 (write (write {chain} i0 e1) i2 e0))"
        f" (= e1 (read (write (write (write (write {chain} i1 e1) i2 e0) i2 e1)"
        " i2 e0) i0))"
        f" (= e1 (read (write (write (write {chain} i1 e1) i2 e0) i2 e1) i0))"
        " (= e1 (read c1 i0)) (= e0 (read c1 i2)) (distinct i2 i0))")
    assert res.rule_fires == {"partial_eq": 1, "elim_wr_rd": 1, "elim_wr": 2,
                              "elim_eq": 1}
    assert implies_exists(prob.sig, prob.store, res.formula, prob.formula,
                          Bounds(universe=2)) == Verdict(True, None, 0)


WRITE_INSTANCES = 120


def test_write_projections_keep_the_contract():
    """The contract of criterion 5 on write chains, equalities written on
    both sides and reads over chains, whose exception sets clash: nothing
    projected is left, the extended model satisfies the output, and the
    oracle at universe 2 accepts it or refuses, counted.  Each of the
    partial-equality rules fires in at least a tenth of the instances."""
    rng = random.Random(2028)
    fired = Counter()
    refused = 0
    for k in range(WRITE_INSTANCES):
        prob, model = random_write_instance(rng)
        project = prob.formula.free_vars
        res = mbp(prob.sig, prob.store, prob.formula, project, model)
        assert not set(res.formula.free_vars) & set(project), k
        assert satisfies(res.model, prob.sig, res.formula), k
        fired.update(res.rule_fires.keys())
        try:
            verdict = implies_exists(prob.sig, prob.store, res.formula,
                                     prob.formula, Bounds(universe=2))
        except SearchSpaceError:
            refused += 1
            continue
        assert verdict.ok, (k, formula_to_sexpr(res.formula))
    print(f"fires in {WRITE_INSTANCES} instances: {dict(fired)};"
          f" refused {refused}")
    assert refused <= WRITE_INSTANCES // 10
    for rule in ("partial_eq", "elim_wr", "elim_eq"):
        assert fired[rule] >= WRITE_INSTANCES // 10, rule


def _many_reads_instance(rng, n):
    """n reads read(a, i_k) = e_k of the projected array a, and as many of a
    kept array c at the same indices, under a planted model whose indices
    take few values, so Ackermann yields both equalities and disequalities."""
    decls = ["(declare-var a (Array Int Int))",
             "(declare-const c (Array Int Int))"]
    lits, values = [], []
    arr_a = {v: rng.randrange(100) for v in range(8)}
    arr_c = {v: rng.randrange(100) for v in range(8)}
    for k in range(n):
        iv = rng.randrange(8)
        decls += [f"(declare-const i{k} Int)", f"(declare-const e{k} Int)",
                  f"(declare-const f{k} Int)"]
        lits += [f"(assert (= (read a i{k}) e{k}))",
                 f"(assert (= (read c i{k}) f{k}))"]
        values += [f"(define-value i{k} {iv})",
                   f"(define-value e{k} {arr_a[iv]})",
                   f"(define-value f{k} {arr_c[iv]})"]
    for name, arr in (("a", arr_a), ("c", arr_c)):
        rows = " ".join(f"({v} {x})" for v, x in sorted(arr.items()))
        values.append(f"(define-value {name} (array (default 0) {rows}))")
    prob = parse_problem("\n".join(decls + lits))
    return prob, parse_model("\n".join(values), prob.sig)


def test_many_reads_saturate_completely(rng):
    for _ in range(3):
        prob, model = _many_reads_instance(rng, 40)
        res = mbp(prob.sig, prob.store, prob.formula, ["a"], model)
        assert satisfies(res.model, prob.sig, res.formula)
        assert "a" not in res.formula.free_vars
        g = res.graph
        disequal = {frozenset((g.find(x), g.find(y))) for x, y in g.diseqs}
        reads = [n.children[1].id for n in g.nodes
                 if n.label == "read" and n.children[0].label == "a"]
        assert len(reads) == 40
        for k, i in enumerate(reads):
            for j in reads[k + 1:]:
                assert g.find(i) == g.find(j) or \
                    frozenset((g.find(i), g.find(j))) in disequal


# -- the model-partitioned Ackermann rule against all pairs ---------------------

def _all_pairs_rule_ackermann(state, a, b):
    """Reference: the all-pairs Ackermann rule.  Two reads a, b over one base
    node that is a projected array variable, at syntactically distinct
    indices: record the index (dis)equality the model chooses."""
    g = state.g
    (base, e1), e2 = g.nodes[a].children, g.nodes[b].children[1]
    if not (state.projected(base.label) and not base.children):
        return
    if e1 is e2:
        return
    if state.meval(e1) == state.meval(e2):
        g.assert_eq(e1, e2)
    else:
        g.assert_diseq(e1, e2)
    state.fired("ackermann")


def _read_pairs(g, new_reads):
    """Pairs (a, b), a < b, of reads over one base node with b among the
    pass's new reads (so b below the pass's node count), in lexicographic
    order."""
    new = set(new_reads)
    by_base = {}
    for n in range(max(new_reads, default=-1) + 1):
        node = g.nodes[n]
        if node.label == "read":
            by_base.setdefault(node.children[0].id, []).append(n)
    return sorted((a, b) for group in by_base.values()
                  for i, a in enumerate(group) for b in group[i + 1:]
                  if b in new)


def _all_pairs_ackermann(state, reads):
    for a, b in _read_pairs(state.g, reads):
        _all_pairs_rule_ackermann(state, a, b)


def _twin_instances():
    """(name, build) pairs; build() makes a fresh (sig, store, formula,
    var_names, model), since mbp declares its fresh constants in the
    signature.  200 criterion-5 projections, the many-reads instance at 10,
    40 and 120 reads, and the projection demo under both models."""
    out = []
    rng = random.Random(5)
    while len(out) < 200:
        state = rng.getstate()
        sig, store, formula = random_projection_instance(rng)
        nvars = len(sig.variables)
        bounds = Bounds(universe=3 if nvars <= 2 else 2)
        model = find_model(sig, store, formula, bounds)
        if model is None:
            continue

        def build(state=state, bounds=bounds):
            again = random.Random()
            again.setstate(state)
            sig, store, formula = random_projection_instance(again)
            model = find_model(sig, store, formula, bounds)
            return sig, store, formula, formula.free_vars, model
        out.append((f"criterion-5 #{len(out)}", build))
    for n in (10, 40, 120):
        def build(n=n):
            prob, model = _many_reads_instance(random.Random(n), n)
            return prob.sig, prob.store, prob.formula, ["a"], model
        out.append((f"{n} reads", build))
    for name in ("nested_pair_array.model", "nested_pair_array_alt.model"):
        def build(name=name):
            prob, model = load_mbp(model=name)
            return (prob.sig, prob.store, prob.formula, prob.formula.free_vars,
                    model)
        out.append((name, build))
    return out


def _projection_facts(build):
    sig, store, formula, var_names, model = build()
    res = mbp(sig, store, formula, var_names, model)
    g = res.graph
    partition = [g.find(n) for n in g.node_ids()]
    diseqs = {frozenset((g.find(a), g.find(b))) for a, b in g.diseqs}
    return (formula_to_sexpr(res.formula), partition, diseqs, res.rule_fires,
            len(g.nodes))


def test_partitioned_ackermann_matches_all_pairs(monkeypatch):
    instances = _twin_instances()
    partitioned = [_projection_facts(build) for _, build in instances]
    node_rules, peq_rules, _, diseq_rules = mbp_module._ARRAY_RULES
    monkeypatch.setattr(mbp_module, "_FAMILIES", (
        (node_rules, peq_rules, (_all_pairs_ackermann,), diseq_rules),
        mbp_module._ADT_RULES))
    for (name, build), got in zip(instances, partitioned):
        text, partition, diseqs, _, _ = _projection_facts(build)
        assert got[0] == text, name
        assert got[1] == partition, name
        assert got[2] == diseqs, name


# -- the watermarks against the loop with per-key marks -------------------------
# The saturation loop as it was before each disequality was offered once: one
# node watermark per family, every partial equality there is (after the
# pass's nodes, until none is made) and every disequality offered on every
# pass, and every rule remembering the keys it has done.  Each copied rule
# differs from the library's only in its mark.

def _marked(state, rule, key):
    done = state.__dict__.setdefault("ref_marks", {}).setdefault(rule, set())
    if key in done:
        return False
    done.add(key)
    return True


def _marked_elim_wr_rd(state, n):
    g = state.g
    node = g.nodes[n]
    if node.label != "read":
        return
    arr, j = node.children
    for w in g.class_of(arr.id):
        wnode = g.nodes[w]
        if wnode.label != "write":
            continue
        s, i, v = wnode.children
        if not state.term_has_projected(s):
            continue
        if not _marked(state, "elim_wr_rd", (n, w)):
            continue
        if state.meval(i) == state.meval(j):
            g.assert_eq(i, j)
            g.assert_eq(node, v)
        else:
            g.assert_diseq(i, j)
            g.assert_eq(node, state.store.mk_app("read", (s, j)))
        state.fired("elim_wr_rd")


def _marked_partial_eq(state, n):
    g = state.g
    node = g.nodes[n]
    if node.sort.kind.value != "array":
        return
    for m in [m for m in g.class_of(n) if m != n][:1]:
        a, b = min(n, m), max(n, m)
        if not (state.term_has_projected(g.nodes[a])
                or state.term_has_projected(g.nodes[b])):
            continue
        if not _marked(state, "partial_eq", (a, b)):
            continue
        state.partial_eq(g.nodes[a], g.nodes[b], {})
        state.fired("partial_eq")


def _peq_key(peq):
    s, t, exceptions = peq
    return (s.id, t.id, *[ix.id for ix in exceptions.values()])


def _marked_elim_wr(state, peq):
    g = state.g
    store = state.store
    lhs, rhs, exceptions = peq
    for s, w in ((lhs, rhs), (rhs, lhs)):
        if w.label != "write":
            continue
        if not state.term_has_projected(w):
            continue
        if not _marked(state, "elim_wr", (_peq_key(peq), w.id)):
            continue
        u, i, v = w.children
        ival = state.meval(i)
        clash = exceptions.get(ival)
        if clash is None:
            g.assert_eq(store.mk_app("read", (s, i)), v)
            state.partial_eq(s, u, {**exceptions, ival: i})
        else:
            g.assert_eq(i, clash)
            state.partial_eq(s, u, exceptions)
        state.fired("elim_wr")


def _marked_elim_eq(state, peq):
    """elim_eq fires at most once per record.  A record it skips is offered
    again, so a skip that a later pass would turn into a solve shows."""
    if _peq_key(peq) in state.__dict__.get("ref_marks", {}).get("elim_eq", ()):
        return
    total = state.total
    mbp_module._rule_elim_eq(state, peq)
    if state.total > total:
        _marked(state, "elim_eq", _peq_key(peq))


def _marked_adt_deconstruct_eq(state, n):
    g = state.g
    node = g.nodes[n]
    if not (state.projected(node.label) and not node.children):
        return
    if node.sort.kind.value != "adt":
        return
    for m in g.class_of(n):
        mnode = g.nodes[m]
        role = state.sig.datatype.get(mnode.label)
        if role is None or role[0] != "constructor" or role[1].arity == 0:
            continue
        if not _marked(state, "adt_deconstruct_eq", (n, m)):
            continue
        for (sel, _), arg in zip(role[1].selectors, mnode.children):
            g.assert_eq(state.store.mk_app(sel, (node,)), arg)
        state.fired("adt_deconstruct_eq")


def _marked_adt_split_diseq(state, a, b):
    g = state.g
    for v in (g.nodes[a], g.nodes[b]):
        if not (state.projected(v.label) and not v.children):
            continue
        if v.sort.kind.value != "adt":
            continue
        if _marked(state, "adt_split_diseq", (min(a, b), max(a, b))):
            mbp_module._rule_adt_split_diseq(state, a, b)
        return


_MARKED_FAMILIES = (
    ((_marked_elim_wr_rd, _marked_partial_eq), (_marked_elim_wr, _marked_elim_eq),
     (mbp_module._rule_ackermann,), ()),
    ((_marked_adt_deconstruct_eq,), (), (), (_marked_adt_split_diseq,)))


def _marked_apply_rules(state, family, watermark):
    """Whether a rule fired in the pass, read off the fire count, and the
    node count at its start."""
    node_rules, peq_rules, read_rules, diseq_rules = family
    g = state.g
    total = state.total
    size = len(g.nodes)
    for n in range(watermark, size):
        if not g.cground(n):
            for rule in node_rules:
                rule(state, n)
    k = 0
    while k < len(state.peqs):
        for rule in peq_rules:
            rule(state, state.peqs[k])
        k += 1
    if read_rules:
        reads = [n for n in range(watermark, size) if g.nodes[n].label == "read"]
        for rule in read_rules:
            rule(state, reads)
    for rule in diseq_rules:
        for a, b in list(g.diseqs):
            if g.ground_class(a) and g.ground_class(b):
                continue
            rule(state, a, b)
    return state.total > total, size


def _marked_saturate(state, families=_MARKED_FAMILIES):
    marks = dict.fromkeys(families, 0)
    progress = True
    while progress:
        progress = False
        for family in families:
            fired = True
            while fired:
                fired, marks[family] = _marked_apply_rules(state, family,
                                                           marks[family])
                progress = progress or fired


def _self_partial_equality_instance():
    """w = write(w, i, v) with w = write(a, j, e): unwinding gives a partial
    equality of w with itself, which has one side to unwind, not two."""
    prob = parse_problem("""
    (declare-var a (Array Int Int)) (declare-const i Int) (declare-const j Int)
    (declare-const e Int) (declare-const v Int)
    (assert (= (write a j e) (write (write a j e) i v)))
    """)
    model = parse_model("(define-value a (array (default 0)))"
                        " (define-value i 0) (define-value j 0)"
                        " (define-value e 0) (define-value v 0)", prob.sig)
    return prob.sig, prob.store, prob.formula, ["a"], model


def _write_instances(n):
    """(name, build) pairs of the first n write projections at seed 2028."""
    out = []
    rng = random.Random(2028)
    for k in range(n):
        def build(state=rng.getstate()):
            again = random.Random()
            again.setstate(state)
            prob, model = random_write_instance(again)
            return (prob.sig, prob.store, prob.formula, prob.formula.free_vars,
                    model)
        random_write_instance(rng)
        out.append((f"write #{k}", build))
    return out


def test_watermarks_match_the_loop_with_per_key_marks(monkeypatch):
    """Offering each node, partial equality and disequality once does what
    offering every partial equality and disequality on every pass, behind
    per-key marks on every rule, did: the same output, partition,
    disequalities, fires and node count."""
    instances = _twin_instances() + _write_instances(40) + [
        ("w = write(w, i, v)", _self_partial_equality_instance)]
    watermarked = [_projection_facts(build) for _, build in instances]
    monkeypatch.setattr(mbp_module, "_saturate", _marked_saturate)
    for (name, build), got in zip(instances, watermarked):
        assert got == _projection_facts(build), name
    assert watermarked[-1][3] == {"partial_eq": 1, "elim_wr": 6, "elim_wr_rd": 4}


def test_each_disequality_reaches_the_split_rule_at_most_once(monkeypatch):
    """Counted over the twin instances; the loop with per-key marks offers
    some disequalities again on later passes."""
    def counting(rule):
        def counted(state, a, b):
            offered[a, b] = offered.get((a, b), 0) + 1
            return rule(state, a, b)
        return counted

    def most_offers():
        nonlocal offered
        most = fires = 0
        for name, build in _twin_instances():
            offered = {}
            sig, store, formula, var_names, model = build()
            res = mbp(sig, store, formula, var_names, model)
            most = max(most, *offered.values(), 0)
            fires += res.rule_fires.get("adt_split_diseq", 0)
        return most, fires

    offered = {}
    monkeypatch.setattr(mbp_module, "_FAMILIES", (
        mbp_module._ARRAY_RULES,
        (*mbp_module._ADT_RULES[:3],
         (counting(mbp_module._rule_adt_split_diseq),))))
    most, fires = most_offers()
    assert most == 1 and fires > 0
    families = (_MARKED_FAMILIES[0], (*_MARKED_FAMILIES[1][:3],
                                      (counting(_marked_adt_split_diseq),)))
    monkeypatch.setattr(mbp_module, "_saturate",
                        lambda state: _marked_saturate(state, families))
    again, same_fires = most_offers()
    assert again > 1 and same_fires == fires


MAX_PASSES = 20  # the most any twin instance takes is 5


def test_every_pass_starts_behind_the_counts(monkeypatch):
    """Saturation runs a family's pass only while its watermark is behind
    the counts (nodes, partial equalities, disequalities): a pass from the
    counts would offer nothing.  A watermark that is never advanced stays
    behind without end, so the passes are capped."""
    def checked(state, family, watermark):
        g = state.g
        counts = (len(g.nodes), len(state.peqs), len(g.diseqs))
        assert all(w <= c for w, c in zip(watermark, counts)), name
        assert watermark != counts, name
        passes.append(watermark)
        assert len(passes) <= MAX_PASSES, name
        return apply_rules(state, family, watermark)

    apply_rules = mbp_module.apply_rules
    monkeypatch.setattr(mbp_module, "apply_rules", checked)
    for name, build in _twin_instances():
        passes = []
        mbp(*build())
        assert passes, name


def test_a_family_behind_only_in_disequalities_gets_a_pass(monkeypatch):
    """The second family's node rule adds f(y) in the first round, so that
    family runs again before the first one does.  The first family's pass
    over f(y) asserts y != d, which adds no node, so the second family is
    behind in disequalities alone; saturation runs it again, and its
    disequality rule meets the pair."""
    prob = parse_problem("(declare-sort S 0) (declare-fun f (S) S)"
                         " (declare-const d S) (declare-var x S) (declare-var y S)"
                         " (assert (= x (f d))) (assert (= y y))")
    store = prob.store
    model = find_model(prob.sig, store, prob.formula, Bounds(universe=2))
    y, d = store.mk_const("y"), store.mk_const("d")
    made, offered = [], []

    def add_fy(state, n):
        if not made:
            made.append(state.g.add_term(store.mk_app("f", (y,))))

    def split_new(state, n):
        if made and n == made[0]:
            size = len(state.g.nodes)
            state.g.assert_diseq(y, d)
            assert len(state.g.nodes) == size

    def logged(state, family, watermark):
        passes.append(families.index(family))
        return apply_rules(state, family, watermark)

    families = (((split_new,), (), (), ()),
                ((add_fy,), (), (), (lambda state, a, b: offered.append((a, b)),)))
    apply_rules, passes = mbp_module.apply_rules, []
    monkeypatch.setattr(mbp_module, "_FAMILIES", families)
    monkeypatch.setattr(mbp_module, "apply_rules", logged)
    mbp(prob.sig, store, prob.formula, [], model)
    assert passes == [0, 1, 1, 0, 1]
    assert offered == [(y.id, d.id)]


def test_320_reads_fit_the_default_budget():
    prob, model = _many_reads_instance(random.Random(320), 320)
    res = mbp(prob.sig, prob.store, prob.formula, ["a"], model)
    assert 0 < res.rule_fires["ackermann"] <= 400
    assert "a" not in res.formula.free_vars
    assert satisfies(res.model, prob.sig, res.formula)


# -- growth by count: each probe at n and 2n -----------------------------------

def _equal_arrays_instance(n):
    """a0 = a1 = ... = a(n-1) = c, projecting the a's and keeping c."""
    text = ["(declare-sort I 0) (declare-sort V 0) (declare-const c (Array I V))"]
    text += [f"(declare-var a{k} (Array I V))" for k in range(n)]
    text += [f"(assert (= a{k} a{k + 1}))" for k in range(n - 1)]
    text.append(f"(assert (= a{n - 1} c))")
    prob = parse_problem("\n".join(text))
    model = parse_model("(universe I 2) (universe V 2)" + "".join(
        f" (define-value {x} (array (default (elem V 0))))"
        for x in ["c", *(f"a{k}" for k in range(n))]), prob.sig)
    return prob, model


def _writes_in_one_class_instance(n):
    """c = write(a_k, i_k, v_k) for k < n, projecting the a's, plus the n
    reads read(c, i_k) = v_k."""
    text = ["(declare-const c (Array Int Int))"]
    for k in range(n):
        text.append(f"(declare-var a{k} (Array Int Int)) (declare-const i{k} Int)"
                    f" (declare-const v{k} Int) (assert (= c (write a{k} i{k} v{k})))")
    text += [f"(assert (= (read c i{k}) v{k}))" for k in range(n)]
    prob = parse_problem("\n".join(text))
    model = parse_model("(define-value c (array (default 0)))" + "".join(
        f" (define-value a{k} (array (default 0))) (define-value i{k} {k})"
        f" (define-value v{k} 0)" for k in range(n)), prob.sig)
    return prob, model


def _write_chain_instance(n):
    """c = write(...write(a, i_1, v_1)..., i_n, v_n), projecting a, under a
    model whose written values differ from the default."""
    chain = "a"
    for k in range(n):
        chain = f"(write {chain} i{k} v{k})"
    text = ["(declare-var a (Array Int Int)) (declare-const c (Array Int Int))"]
    text += [f"(declare-const i{k} Int) (declare-const v{k} Int)" for k in range(n)]
    text.append(f"(assert (= c {chain}))")
    prob = parse_problem("\n".join(text))
    rows = " ".join(f"({k} {k + 1})" for k in range(n))
    model = parse_model(
        f"(define-value a (array (default 0))) (define-value c (array (default 0) {rows}))"
        + "".join(f" (define-value i{k} {k}) (define-value v{k} {k + 1})"
                  for k in range(n)), prob.sig)
    return prob, model


def _projected(prob, model):
    res = mbp(prob.sig, prob.store, prob.formula, prob.formula.free_vars, model)
    assert not set(res.formula.free_vars) & set(prob.formula.free_vars)
    assert satisfies(res.model, prob.sig, res.formula)
    return res


def test_equal_arrays_take_one_partial_equality_per_array_but_one():
    """n equal projected arrays and a kept one: a0 and a1 pick each other,
    every later a_k picks a0, and c, ground, is never offered.  Pairing
    every member took n(n+1)/2 fires and ran out of the default budget at
    n = 150."""
    for n in (150, 300):
        res = _projected(*_equal_arrays_instance(n))
        assert res.rule_fires == {"partial_eq": n - 1, "elim_eq": n - 1}, n
        assert formula_to_sexpr(res.formula) == "true"


def test_writes_in_one_class_take_linear_fires_and_nodes():
    """Each write pairs with c, the class root, so partial_eq, elim_wr and
    elim_eq fire n times each and the graph has 7n + 1 nodes, where pairing
    every member took n(2n-1) elim_wr fires and ran out of the default
    budget at n = 80."""
    for n in (80, 160):
        res = _projected(*_writes_in_one_class_instance(n))
        assert res.rule_fires == {"partial_eq": n, "elim_wr": n, "elim_eq": n}, n
        assert len(res.graph.nodes) == 7 * n + 1, n


def test_a_write_chain_unwinds_in_a_fixed_number_of_passes(monkeypatch):
    """elim_wr makes the next record of the chain, and the pass offers it
    at once: two array passes and one datatype pass, at n writes as at 2n,
    where offering each record in the next pass took n + 4."""
    def counted(*args):
        calls.append(args[1])
        return apply_rules(*args)

    apply_rules = mbp_module.apply_rules
    monkeypatch.setattr(mbp_module, "apply_rules", counted)
    for n in (50, 100):
        calls = []
        res = _projected(*_write_chain_instance(n))
        assert res.rule_fires == {"partial_eq": 1, "elim_wr": n, "elim_eq": 1}, n
        assert calls == [mbp_module._ARRAY_RULES] * 2 + [mbp_module._ADT_RULES], n


# -- constructive groundness, kept by the egraph across saturation passes ------

def test_ground_analysis_matches_the_reference_at_every_pass(monkeypatch):
    """At the start of every pass, after every equality and disequality
    that the build or a rule asserts, and on the saturated graph, the
    egraph's groundness of every node and class equals one computed from
    scratch.  Groundness is also asked as each node is added, so that an
    assertion's merges join classes whose nodes are all settled: then only
    the merge's own re-check can make a parent ground."""
    def checked(state, family, watermark):
        check_ground_analysis(state.g, name)
        passes.append(watermark)
        return apply_rules(state, family, watermark)

    def checking(assert_lit):
        def call(g, t1, t2):
            assert_lit(g, t1, t2)
            check_ground_analysis(g, (name, assert_lit.__name__))
        return call

    def asked(g, term):
        n = add_node(g, term)
        g.cground(n)
        return n

    apply_rules, add_node = mbp_module.apply_rules, EGraph._add_node
    monkeypatch.setattr(mbp_module, "apply_rules", checked)
    monkeypatch.setattr(EGraph, "_add_node", asked)
    for method in ("assert_eq", "assert_diseq"):
        monkeypatch.setattr(EGraph, method, checking(getattr(EGraph, method)))
    for name, build in _twin_instances():
        passes = []
        sig, store, formula, var_names, model = build()
        g = mbp(sig, store, formula, var_names, model).graph
        assert passes, name
        check_ground_analysis(g, name)


def test_ground_analysis_takes_in_merges_either_way():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_const("c", u)
    sig.declare_var("x", u)
    sig.declare_fun("f", [u], u)
    sig.declare_fun("h", [u], u)
    store = TermStore(sig)
    c, x = store.mk_const("c"), store.mk_const("x")
    fx, hx = store.mk_app("f", (x,)), store.mk_app("h", (x,))

    # the ground class has the older root and absorbs x, whose member has
    # the parent f(x): re-checking the parents of the absorbed side's
    # members is what finds it
    g = EGraph(sig, store)
    g.add_term(c)
    g.add_term(fx)
    assert [g.ground_class(n) for n in g.node_ids()] == [True, False, False]
    g.assert_eq(c, x)
    assert g.cground(g.add_term(fx))
    check_ground_analysis(g)
    # a node added later over a child that is ground already
    g.add_term(hx)
    assert g.cground(g.add_term(hx))
    check_ground_analysis(g)

    # the other way round: x's class has the older root and absorbs c, so
    # the side that just became ground is the one that survives; node ids
    # are term ids, so x is made first, in a store of its own
    store = TermStore(sig)
    x, c = store.mk_const("x"), store.mk_const("c")
    fx = store.mk_app("f", (x,))
    g = EGraph(sig, store)
    g.add_term(fx)
    assert (g.add_term(x), g.add_term(c)) == (0, 1)
    assert not g.ground_class(g.add_term(x))
    g.assert_eq(x, c)
    assert g.ground_class(g.add_term(x)) and g.ground_class(g.add_term(fx))
    assert g.cground(g.add_term(fx))
    check_ground_analysis(g)


def test_a_disequality_made_ground_earlier_in_the_pass_is_not_split():
    """The node rules of a pass deconstruct q and p2 into selector
    equalities, which make both sides of p2 != r ground before the
    disequality rules run.  The pass reads groundness live, so the
    disequality is left whole, where a snapshot from the start of the pass
    split it into (distinct (fa t) (fb r))."""
    prob = parse_problem("""
    (declare-datatype V ((v0) (v1)))
    (declare-datatype P ((mk (fa V) (fb V)) (nl)))
    (declare-var q P) (declare-var p2 P) (declare-var x V)
    (declare-const t P) (declare-const r P) (declare-const d V)
    (assert (= q t)) (assert (= q (mk x d))) (assert (= p2 (mk d x)))
    (assert (distinct p2 r))
    """)
    model = find_model(prob.sig, prob.store, prob.formula, Bounds(universe=2))
    res = mbp(prob.sig, prob.store, prob.formula, ["q", "p2", "x"], model)
    assert res.rule_fires == {"adt_deconstruct_eq": 2}
    assert formula_to_sexpr(res.formula) == (
        "(and (= t (mk (fa t) d)) (= d (fb t)) (= d (fa (mk d (fa t))))"
        " (= (fa t) (fb (mk d (fa t)))) (distinct (mk d (fa t)) r))")
    assert satisfies(res.model, prob.sig, res.formula)
