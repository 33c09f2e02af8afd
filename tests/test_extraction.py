import pytest

from egraphqe import (Bounds, EGraph, ExtractionBudgetError,
                      InadmissibleReprError, build_repr_graph, equiv_exists,
                      find_defs, is_admissible, parse_problem, term_to_sexpr,
                      to_expr, to_formula)

from conftest import (is_admissible_partial, load, random_euf_instance,
                      random_total_repr)

DEEP_CHAIN = """
(declare-sort S 0)
(declare-fun f (S) S)
(declare-fun g (S) S)
(declare-const c S)
(declare-var a S)
(assert (= a {chain}))
(assert (= c (g a)))
"""


def _deep_chain_graph(depth):
    """``a = f(...(c))`` of the given depth and ``c = g(a)``, with its top
    chain node and the node of ``g(a)``."""
    chain = "(f " * depth + "c" + ")" * depth
    prob = parse_problem(DEEP_CHAIN.format(chain=chain))
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    top = g.add_term(prob.formula.literals[0].rhs)
    ga = g.add_term(prob.formula.literals[1].rhs)
    return prob, g, top, ga


def _graph(name):
    prob = load(name)
    return prob, EGraph.from_formula(prob.sig, prob.store, prob.formula)


def _node(g, label):
    return next(n.id for n in g.nodes if n.label == label)


def _repr_from_reps(g, reps):
    r = {}
    for rep in reps:
        r.update(dict.fromkeys(g.class_of(rep), rep))
    for root in g.roots():
        if root not in r:
            r.update(dict.fromkeys(g.class_of(root), root))
    return r


def _circular_reprs(g):
    """The three representative choices discussed for the circular example:
    (x, 6), (g, 6), and the cyclic (f, g)."""
    x, y = _node(g, "x"), _node(g, "y")
    f, gg, six = _node(g, "f"), _node(g, "g"), _node(g, "6")
    return {
        "a": _repr_from_reps(g, [x, six]),
        "b": _repr_from_reps(g, [gg, six]),
        "c": _repr_from_reps(g, [f, gg]),
    }


def test_repr_graph_edges_circular():
    prob, g = _graph("circular_defs.smt2")
    reprs = _circular_reprs(g)
    f, gg, x, six = (_node(g, l) for l in ("f", "g", "x", "6"))
    edges_a = build_repr_graph(g, reprs["a"])
    assert (gg, six) in edges_a   # g's child y is represented by 6
    assert (f, x) in edges_a
    edges_c = build_repr_graph(g, reprs["c"])
    assert (gg, f) in edges_c and (f, gg) in edges_c  # a 2-cycle


def test_repr_graph_of_leaf_only_graph():
    prob = load("read_chain.smt2")
    from egraphqe import Literal, TermStore
    from egraphqe.terms import Signature, mk_formula
    sig = Signature()
    sig.declare_const("c", sig.sorts["Int"])
    sig.declare_const("d", sig.sorts["Int"])
    store = TermStore(sig)
    formula = mk_formula(store, [Literal("eq", store.mk_const("c"),
                                         store.mk_const("d"))])
    g = EGraph.from_formula(sig, store, formula)
    r = find_defs(g)
    assert build_repr_graph(g, r) == set()


def test_admissibility_of_circular_choices():
    prob, g = _graph("circular_defs.smt2")
    reprs = _circular_reprs(g)
    assert is_admissible(g, reprs["a"])
    assert is_admissible(g, reprs["b"])
    assert not is_admissible(g, reprs["c"])


def test_identity_repr_admissible_without_merges():
    prob = load("read_chain.smt2")
    from egraphqe import Literal, TermStore
    from egraphqe.terms import Signature, mk_formula
    sig = Signature()
    sig.declare_const("c", sig.sorts["Int"])
    store = TermStore(sig)
    t = store.mk_app("+", (store.mk_const("c"), store.mk_const("1")))
    formula = mk_formula(store, [Literal("eq", t, t)])
    g = EGraph.from_formula(sig, store, formula)
    r = {n: n for n in g.node_ids()}
    assert is_admissible(g, r)


def test_to_expr_read_chain():
    prob, g = _graph("read_chain.smt2")
    z, x = _node(g, "z"), _node(g, "x")
    r = _repr_from_reps(g, [z, x])
    reads = [n.id for n in g.nodes if n.label == "read"]
    for n in reads:  # both read(a,x) and read(a,y) extract to read(a,x)
        assert term_to_sexpr(to_expr(g, n, r)) == "(read a x)"
    leaf = _node(g, "a")
    assert term_to_sexpr(to_expr(g, leaf, r)) == "a"


def test_to_expr_on_a_partial_repr_is_inadmissible():
    prob, g = _graph("read_chain.smt2")
    r = _repr_from_reps(g, [_node(g, "z"), _node(g, "x")])
    leaf = _node(g, "a")
    del r[leaf]
    read = next(n.id for n in g.nodes if n.label == "read")
    with pytest.raises(InadmissibleReprError) as exc:
        to_expr(g, read, r)
    assert str(exc.value) == f"representative undefined for node {leaf}"


def test_to_expr_circular_b():
    prob, g = _graph("circular_defs.smt2")
    reprs = _circular_reprs(g)
    f = _node(g, "f")
    assert term_to_sexpr(to_expr(g, f, reprs["b"])) == "(f (g 6))"


def test_to_expr_budget_on_cycle():
    prob, g = _graph("circular_defs.smt2")
    reprs = _circular_reprs(g)
    f = _node(g, "f")
    with pytest.raises(ExtractionBudgetError):
        to_expr(g, f, reprs["c"])


def test_to_expr_deep_acyclic_chain():
    prob, g, top, _ = _deep_chain_graph(5000)
    r = find_defs(g)   # c's class is represented by c, so the chain is acyclic
    assert to_expr(g, top, r) is prob.formula.literals[0].rhs


def test_to_expr_cycle_deep_down_the_path():
    # representing c's class by g(a) closes a cycle 5000 steps below the top
    prob, g, top, ga = _deep_chain_graph(5000)
    r = find_defs(g)
    r.update(dict.fromkeys(g.class_of(ga), ga))
    with pytest.raises(ExtractionBudgetError):
        to_expr(g, top, r)


def test_to_formula_read_chain_no_exclusions():
    prob, g = _graph("read_chain.smt2")
    z, x = _node(g, "z"), _node(g, "x")
    r = _repr_from_reps(g, [z, x])
    out = to_formula(g, r)
    got = {repr(l) for l in out.literals}
    assert got == {"(= x y)", "(= z (read a x))", "(= z (+ k 1))", "(> 3 z)"}


def test_to_formula_core_only_reps_gives_true():
    prob, g = _graph("congruent_funs.smt2")
    r = find_defs(g)
    keep = {n for n in g.node_ids() if r.get(n) == n}
    out = to_formula(g, r, set(g.node_ids()) - keep)
    assert out.literals == ()


def test_to_formula_singleton_classes_give_true():
    from egraphqe import Literal, TermStore
    from egraphqe.terms import Signature, mk_formula
    sig = Signature()
    sig.declare_const("c", sig.sorts["Int"])
    sig.declare_const("d", sig.sorts["Int"])
    store = TermStore(sig)
    formula = mk_formula(store, [Literal("eq", store.mk_const("c"),
                                         store.mk_const("c"))])
    g = EGraph.from_formula(sig, store, formula)
    g.add_term(store.mk_const("d"))
    r = find_defs(g)
    assert to_formula(g, r).literals == ()


def test_to_formula_detects_nonunique_assignment():
    prob, g = _graph("congruent_funs.smt2")
    x, y = _node(g, "x"), _node(g, "y")
    r = find_defs(g)
    r[y] = y  # two representatives in one class
    with pytest.raises(InadmissibleReprError):
        to_formula(g, r)


def test_admissible_iff_extraction_works(rng):
    """Forward/backward sanity at small scale (the acceptance suite runs the
    full statistical version)."""
    for _ in range(60):
        sig, store, formula, g = random_euf_instance(rng)
        r = random_total_repr(rng, g)
        adm = is_admissible(g, r)
        try:
            out = to_formula(g, r)
        except InadmissibleReprError:
            assert not adm
            continue
        if adm:
            verdict = equiv_exists(sig, store, formula, out, Bounds(universe=2))
            assert verdict.ok


def test_path_bound_on_admissible_reprs(rng):
    for _ in range(80):
        sig, store, formula, g = random_euf_instance(rng)
        r = find_defs(g)
        succ = {}
        for a, b in build_repr_graph(g, r):
            succ.setdefault(a, []).append(b)

        def longest(n, depth=0):
            assert depth <= g.num_classes()
            return 1 + max((longest(m, depth + 1) for m in succ.get(n, [])),
                           default=0)

        assert max(longest(n) for n in g.node_ids()) - 1 <= g.num_classes()


def test_partial_admissibility_conditions():
    prob, g = _graph("circular_defs.smt2")
    six = _node(g, "6")
    r = dict.fromkeys(g.class_of(six), six)
    assert is_admissible_partial(g, r)
    # a representative whose children are unassigned violates condition (c)
    f = _node(g, "f")
    bad = dict.fromkeys(g.class_of(f), f)
    assert not is_admissible_partial(g, bad)


def test_dump_dot_shows_cycle_for_bad_repr():
    prob, g = _graph("circular_defs.smt2")
    reprs = _circular_reprs(g)
    f, gg = _node(g, "f"), _node(g, "g")
    dot = g.dump_dot(reprs["c"])
    assert f"n{f} -> n{gg} [style=dotted, color=blue];" in dot
    assert f"n{gg} -> n{f} [style=dotted, color=blue];" in dot
