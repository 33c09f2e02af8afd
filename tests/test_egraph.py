import importlib.util
import random
import sys
from pathlib import Path

import pytest

from egraphqe import (EGraph, InconsistentFormulaError, Literal, mbp,
                      parse_problem)
from egraphqe.terms import mk_formula

from conftest import (DEMOS, RefUnionFindEGraph, check_congruence,
                      check_ground_analysis, load, load_mbp, random_euf_instance,
                      random_grounded_var_instance)


def _classes(g):
    return {frozenset(g.nodes[m].label for m in g.class_of(root))
            for root in g.roots()}


def test_read_chain_classes():
    prob = load("read_chain.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    classes = _classes(g)
    assert frozenset(("z", "read", "+")) in classes  # z, read(a,x), read(a,y), k+1
    assert frozenset(("x", "y")) in classes
    assert frozenset(("true", ">")) in classes
    for single in ("3", "k", "1", "a"):
        assert frozenset((single,)) in classes
    # read(a,x) and read(a,y) are distinct nodes in one class
    reads = [n for n in g.nodes if n.label == "read"]
    assert len(reads) == 2
    assert g.find(reads[0].id) == g.find(reads[1].id)


def test_explicit_equality_keeps_nodes_and_merges():
    text = """
    (declare-const c Int)
    (declare-const d Int)
    (declare-fun f (Int) Int)
    (declare-var x Int)
    (declare-var y Int)
    (assert (ueq c (f x)))
    (assert (ueq d (f y)))
    (assert (ueq x y))
    """
    prob = parse_problem(text)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    ueqs = [n for n in g.nodes if n.label == "ueq"]
    assert len(ueqs) == 3
    c = next(n for n in g.nodes if n.label == "c")
    d = next(n for n in g.nodes if n.label == "d")
    x = next(n for n in g.nodes if n.label == "x")
    y = next(n for n in g.nodes if n.label == "y")
    assert g.find(c.id) == g.find(d.id)  # c ~ f(x) ~ f(y) ~ d by congruence
    assert g.find(x.id) == g.find(y.id)

    # same root partition as the implicit reading, restricted to shared nodes
    implicit = parse_problem(text.replace("ueq", "="))
    gi = EGraph.from_formula(implicit.sig, implicit.store, implicit.formula)
    assert _label_partition(gi) <= _label_partition(g)


def _label_partition(g):
    out = set()
    for root in g.roots():
        labels = frozenset(g.nodes[m].label for m in g.class_of(root))
        if "ueq" not in labels:
            out.add(labels)
    return out


def test_reflexive_literal_has_no_effect():
    prob = parse_problem("(declare-const a Int) (assert (= a a))")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    a = next(n for n in g.nodes if n.label == "a")
    assert g.class_of(a.id) == [a.id]


def test_add_term_idempotent_and_congruent():
    prob = load("read_chain.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    store = prob.store
    t = store.mk_app("read", (store.mk_const("a"), store.mk_const("x")))
    n1 = g.add_term(t)
    assert g.add_term(t) == n1
    # after x = k, a fresh read over k is congruent to read(a, x)
    g.assert_eq(store.mk_const("x"), store.mk_const("k"))
    t2 = store.mk_app("read", (store.mk_const("a"), store.mk_const("k")))
    n2 = g.add_term(t2)
    assert n2 != n1
    assert g.find(n2) == g.find(n1)


def test_assert_eq_congruence_propagates():
    text = """
    (declare-fun f (Int) Int)
    (declare-const a Int)
    (declare-const b Int)
    (declare-const c Int)
    (assert (= (f a) (f a)))
    (assert (= (f b) (f b)))
    """
    prob = parse_problem(text)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    store = prob.store
    g.assert_eq(store.mk_const("a"), store.mk_const("b"))
    fa = g.add_term(store.mk_app("f", (store.mk_const("a"),)))
    fb = g.add_term(store.mk_app("f", (store.mk_const("b"),)))
    assert g.find(fa) == g.find(fb)
    g.assert_eq(store.mk_const("b"), store.mk_const("c"))
    a = g.add_term(store.mk_const("a"))
    c = g.add_term(store.mk_const("c"))
    assert g.find(a) == g.find(c)


def test_assert_diseq_records_and_is_idempotent():
    prob = parse_problem("(declare-const a Int) (declare-const b Int)")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    store = prob.store
    g.assert_diseq(store.mk_const("a"), store.mk_const("b"))
    g.assert_diseq(store.mk_const("a"), store.mk_const("b"))
    assert len(g.diseqs) == 1
    with pytest.raises(InconsistentFormulaError):
        g.assert_eq(store.mk_const("a"), store.mk_const("b"))


def test_inconsistent_input_rejected():
    text = """
    (declare-const a Int)
    (declare-const b Int)
    (assert (distinct a b))
    (assert (= a b))
    """
    prob = parse_problem(text)
    with pytest.raises(InconsistentFormulaError):
        EGraph.from_formula(prob.sig, prob.store, prob.formula)


def test_top_bottom_never_share_a_class():
    text = """
    (declare-fun P (Int) Bool)
    (declare-const c Int)
    (assert (P c))
    (assert (not (P c)))
    """
    prob = parse_problem(text)
    with pytest.raises(InconsistentFormulaError):
        EGraph.from_formula(prob.sig, prob.store, prob.formula)


@pytest.mark.parametrize("text", [
    "(declare-sort S 0) (declare-fun P (S) Bool) (declare-const c S) (declare-var x S)\n"
    "(assert (= x c)) (assert (P c)) (assert (not (P x)))",
    "(declare-sort S 0) (declare-fun P (S) Bool) (declare-const c S) (declare-var x S)\n"
    "(assert (= x c)) (assert (not (P c))) (assert (P x))",
], ids=["true-first", "false-first"])
def test_true_and_false_merged_after_literals_that_made_neither(text):
    """true and false get nodes only at the second and third literals, and
    the third merges them through congruence: the graph rejects it."""
    prob = parse_problem(text)
    with pytest.raises(InconsistentFormulaError, match="true and false were merged"):
        EGraph.from_formula(prob.sig, prob.store, prob.formula)


def test_parents_view():
    prob = load("read_chain.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    x = next(n for n in g.nodes if n.label == "x")
    parent_labels = {g.nodes[p].label for p in g.parents(x.id)}
    assert parent_labels == {"read"}
    fresh = g.add_term(prob.store.mk_const("k"))
    k = g.nodes[fresh]
    assert {g.nodes[p].label for p in g.parents(k.id)} == {"+"}


def test_root_idempotent_and_congruence_invariant(rng):
    for _ in range(100):
        sig, store, formula, g = random_euf_instance(rng)
        for n in g.node_ids():
            assert g.find(g.find(n)) == g.find(n)
        assert check_congruence(g)


def test_dump_dot_styles():
    prob = load("read_chain.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    dot = g.dump_dot()
    assert "digraph" in dot
    assert "[style=dashed, color=red]" in dot
    assert '"0:' in dot
    from egraphqe import find_defs
    dot2 = g.dump_dot(find_defs(g))
    assert "[style=dotted, color=blue]" in dot2


def test_merge_soundness_on_small_instances(rng):
    """Every merged pair is entailed by the input literals: the conjunction
    plus the corresponding disequality has no finite model at bound 2."""
    from egraphqe import Bounds, find_model
    for _ in range(15):
        sig, store, formula, g = random_euf_instance(rng, max_nodes=6)
        for root in g.roots():
            members = g.class_of(root)
            for m in members[1:]:
                augmented = mk_formula(store, list(formula.literals) + [
                    Literal("diseq", g.nodes[members[0]], g.nodes[m])])
                assert find_model(sig, store, augmented,
                                  Bounds(universe=2)) is None


def _random_assertions(rng, store, n_ops):
    """Random assert_eq / assert_diseq steps over five constants, a unary
    f, a binary h and a predicate P, so that congruence (and P's truth
    values) can merge the sides of a disequality indirectly."""
    pool = [store.mk_const(c) for c in "abcde"]
    for _ in range(6):
        if rng.random() < 0.5:
            pool.append(store.mk_app("f", (rng.choice(pool),)))
        else:
            pool.append(store.mk_app("h", (rng.choice(pool), rng.choice(pool))))
    steps = []
    for _ in range(n_ops):
        kind = rng.choice(("eq", "eq", "diseq", "diseq", "pred"))
        if kind == "pred":
            steps.append(("eq", store.mk_app("P", (rng.choice(pool),)),
                          rng.choice((store.top, store.bot))))
        else:
            steps.append((kind, rng.choice(pool), rng.choice(pool)))
    return steps


def _rescan_finds_violation(g):
    # true and false have nodes only once the graph adopted them
    top, bot = g.store.top.id, g.store.bot.id
    if max(top, bot) < len(g.nodes) and g.find(top) == g.find(bot):
        return True
    return any(g.find(a) == g.find(b) for a, b in g.diseqs)


def _replay(sig, store, steps):
    """Apply steps to a fresh graph; return it, the number of steps that
    went through, and the error message of the step that raised, if any."""
    g = EGraph(sig, store)
    for done, (kind, t1, t2) in enumerate(steps):
        try:
            (g.assert_eq if kind == "eq" else g.assert_diseq)(t1, t2)
        except InconsistentFormulaError as e:
            return g, done, str(e)
        assert not _rescan_finds_violation(g)
    return g, len(steps), None


def test_inconsistency_raised_exactly_when_rescan_finds_violation(rng):
    from egraphqe import Signature, TermStore
    from egraphqe.terms import BOOL
    sig = Signature()
    u = sig.declare_sort("U")
    for c in "abcde":
        sig.declare_const(c, u)
    sig.declare_fun("f", [u], u)
    sig.declare_fun("h", [u, u], u)
    sig.declare_fun("P", [u], BOOL)
    store = TermStore(sig)
    raised = 0
    for _ in range(400):
        steps = _random_assertions(rng, store, rng.randint(1, 20))
        g, done, msg = _replay(sig, store, steps)
        if msg is None:
            continue
        raised += 1
        assert _rescan_finds_violation(g)
        # the same steps report the same violation on every run
        assert _replay(sig, store, steps)[1:] == (done, msg)
    assert 50 < raised < 350  # both outcomes are well exercised


def test_disequality_adds_no_node_beyond_its_sides():
    prob = parse_problem("(declare-sort S 0) (declare-fun f (S) S)"
                         " (declare-const a S) (declare-const b S)")
    store = prob.store
    g = EGraph(prob.sig, store)
    g.assert_diseq(store.mk_const("a"),
                   store.mk_app("f", (store.mk_const("b"),)))
    assert [n.label for n in g.nodes] == ["a", "b", "f"]
    assert g.diseqs == [(0, 2)]
    assert g.num_classes() == 3


class _RefClasses:
    """Test-only union-find over node ids that closes under congruence by
    rescanning every pair of nodes after each merge."""

    def __init__(self):
        self.parent = []

    def find(self, n):
        while self.parent[n] != n:
            n = self.parent[n]
        return n

    def merge(self, g, a, b):
        self.parent += range(len(self.parent), len(g.nodes))
        pending = [(a, b)]
        while pending:
            x, y = map(self.find, pending.pop())
            if x != y:
                self.parent[max(x, y)] = min(x, y)
            if not pending:
                pending = [(p.id, q.id) for p in g.nodes for q in g.nodes
                           if self._congruent(p, q) and self.find(p.id) != self.find(q.id)]

    def _congruent(self, p, q):
        return p.label == q.label and p.children and \
            len(p.children) == len(q.children) and \
            all(self.find(c.id) == self.find(d.id)
                for c, d in zip(p.children, q.children))

    def class_of(self, n):
        return [m for m in range(len(self.parent)) if self.find(m) == self.find(n)]


def test_class_lists_and_parents_match_a_reference(rng):
    """On seeded random sequences of new terms and merges: class_of is the
    reference's sorted class, and a list returned before a merge is
    unchanged after it; parents holds exactly the structural parents; the
    class view agrees with both, and is built again only after a change."""
    prob = parse_problem("(declare-sort U 0) (declare-fun f (U) U)"
                         " (declare-fun h (U U) U)"
                         + "".join(f" (declare-const {c} U)" for c in "abcde"))
    store = prob.store
    for _ in range(60):
        g, ref = EGraph(prob.sig, store), _RefClasses()
        pool = [store.mk_const(c) for c in "abcde"]
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.4:
                pool.append(store.mk_app("f", (rng.choice(pool),)) if rng.random() < 0.5
                            else store.mk_app("h", (rng.choice(pool), rng.choice(pool))))
                g.add_term(pool[-1])
            given = {n: g.class_of(n) for n in g.node_ids()}
            copies = {n: list(view) for n, view in given.items()}
            a, b = rng.choice(pool), rng.choice(pool)
            g.assert_eq(a, b)
            ref.merge(g, g.add_term(a), g.add_term(b))
            assert given == copies
            view = g.view()
            assert g.view() is view
            for n in g.node_ids():
                members = g.class_of(n)
                assert members == ref.class_of(n)
                assert g.parents(n) == {p.id for p in g.nodes
                                        if n in [c.id for c in p.children]}
                assert view.members[n] == members and view.root[n] == g.find(n)
                assert all(view.members[m] is view.members[n] for m in members)


def _qel_euf_generate():
    """The qel-euf benchmark workload's problem generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.QelEuf.generate


@pytest.mark.parametrize("seed", range(8))
def test_ground_analysis_matches_the_reference_on_qel_euf_sequences(seed):
    """The qel-euf literals, one at a time: both sides added, then asserted
    equal or disequal.  Groundness is first asked before any literal,
    midway, or after the last, and from then on checked against the
    reference after every literal."""
    rng = random.Random(seed)
    nodes = rng.choice((50, 100, 200, 400))
    prob = parse_problem(_qel_euf_generate()(rng, nodes)[0])
    literals = prob.formula.literals
    for first in (0, len(literals) // 2, len(literals)):
        g = EGraph(prob.sig, prob.store)
        for k, lit in enumerate(literals):
            if k == first:
                check_ground_analysis(g, (seed, first, k))
            g.add_term(lit.lhs)
            g.add_term(lit.rhs)
            if lit.kind == "eq":
                g.assert_eq(lit.lhs, lit.rhs)
            else:
                g.assert_diseq(lit.lhs, lit.rhs)
            if k >= first:
                check_ground_analysis(g, (seed, first, k))
        check_ground_analysis(g, (seed, first))


def _same_classes(g, ref, where):
    """find, class_of, roots and the class view agree on every node."""
    assert [g.find(n) for n in g.node_ids()] == \
        [ref.find(n) for n in ref.node_ids()], where
    assert [g.class_of(n) for n in g.node_ids()] == \
        [ref.class_of(n) for n in ref.node_ids()], where
    assert g.roots() == ref.roots(), where
    view, ref_view = g.view(), ref.view()
    assert view.root == ref_view.root, where
    assert view.members == ref_view.members, where


def _replay_on_both(sig, store, steps, where):
    """Apply (kind, t1, t2) steps to an EGraph and to the union-find twin,
    comparing the classes after every step and the inconsistency verdict
    with its message; return the number of steps that went through."""
    g, ref = EGraph(sig, store), RefUnionFindEGraph(sig, store)
    for done, (kind, t1, t2) in enumerate(steps):
        verdicts = []
        for graph in (g, ref):
            try:
                (graph.assert_eq if kind == "eq" else graph.assert_diseq)(t1, t2)
                verdicts.append(None)
            except InconsistentFormulaError as e:
                verdicts.append(str(e))
        assert verdicts[0] == verdicts[1], (where, done)
        _same_classes(g, ref, (where, done))
        if verdicts[0] is not None:
            return done
    return len(steps)


@pytest.mark.parametrize("seed", range(4))
def test_root_array_matches_a_union_find_on_qel_euf_literals(seed):
    rng = random.Random(seed)
    prob = parse_problem(_qel_euf_generate()(rng, rng.choice((50, 100, 200)))[0])
    steps = [(lit.kind, lit.lhs, lit.rhs) for lit in prob.formula.literals]
    assert _replay_on_both(prob.sig, prob.store, steps, seed) == len(steps)


def test_root_array_matches_a_union_find_on_random_merges(rng):
    from egraphqe import Signature, TermStore
    from egraphqe.terms import BOOL
    sig = Signature()
    u = sig.declare_sort("U")
    for c in "abcde":
        sig.declare_const(c, u)
    sig.declare_fun("f", [u], u)
    sig.declare_fun("h", [u, u], u)
    sig.declare_fun("P", [u], BOOL)
    store = TermStore(sig)
    raised = 0
    for k in range(300):
        steps = _random_assertions(rng, store, rng.randint(1, 20))
        raised += _replay_on_both(sig, store, steps, k) < len(steps)
    assert 30 < raised < 270  # both verdicts are well exercised


def test_root_array_matches_a_union_find_when_the_growing_class_is_absorbed():
    """x0 .. x{n-1} and f(x0) .. f(x{n-1}) exist first; then x{k} = x{k+1}
    from the newest k down, so each merge absorbs the growing class into
    an older singleton and congruence does the same to the f-nodes."""
    n = 60
    prob = parse_problem("(declare-sort U 0) (declare-fun f (U) U)"
                         + "".join(f" (declare-const x{k} U)" for k in range(n)))
    store = prob.store
    xs = [store.mk_const(f"x{k}") for k in range(n)]
    steps = [("eq", x, x) for x in xs]
    steps += [("eq", store.mk_app("f", (x,)), store.mk_app("f", (x,))) for x in xs]
    steps += [("eq", xs[k], xs[k + 1]) for k in reversed(range(n - 1))]
    steps.append(("diseq", store.mk_app("f", (xs[0],)),
                  store.mk_app("f", (xs[-1],))))
    assert _replay_on_both(prob.sig, store, steps, "newest first") == len(steps) - 1


def test_var_names_in_node_order_at_twenty_thousand_variables():
    from egraphqe import Signature, TermStore
    import random
    n = 20_000
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_const("c", u)
    names = [f"v{i}" for i in range(n)]
    for v in names:
        sig.declare_var(v, u)
    random.Random(19).shuffle(names)
    store = TermStore(sig)
    c = store.mk_const("c")
    # every variable twice, and c between them, which is not a variable
    lits = [Literal("eq", store.mk_const(v), c) for v in names]
    lits += [Literal("eq", c, store.mk_const(v)) for v in reversed(names)]
    g = EGraph.from_formula(sig, store, mk_formula(store, lits))
    assert g.var_names() == names


def test_building_a_graph_makes_no_boolean_constants():
    prob = parse_problem("(declare-sort S 0) (declare-var x S) (declare-const c S)"
                         " (declare-const d S) (assert (= x c)) (assert (distinct x d))")
    EGraph.from_formula(prob.sig, prob.store, prob.formula)
    assert [t.label for t in prob.store.terms] == ["x", "c", "d"]


# -- a node is its store term -----------------------------------------------------

def _nodes_are_store_terms(g):
    """Node n is the store's term n itself."""
    return all(t is g.store.terms[i] for i, t in enumerate(g.nodes))


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.smt2")))
def test_node_ids_are_term_ids_on_the_demos(name):
    prob = load(name)
    assert _nodes_are_store_terms(EGraph.from_formula(prob.sig, prob.store, prob.formula))


@pytest.mark.parametrize("model", ["nested_pair_array.model",
                                   "nested_pair_array_alt.model"])
def test_node_ids_are_term_ids_in_a_saturated_graph(model):
    prob, model = load_mbp(model=model)
    res = mbp(prob.sig, prob.store, prob.formula, prob.formula.free_vars, model)
    assert _nodes_are_store_terms(res.graph)


def test_node_ids_are_term_ids_on_the_acceptance_generators():
    rng = random.Random(17)
    for _ in range(300):
        assert _nodes_are_store_terms(random_euf_instance(rng)[3])
        sig, store, formula = random_grounded_var_instance(rng)
        assert _nodes_are_store_terms(EGraph.from_formula(sig, store, formula))


def test_a_graph_holds_a_prefix_of_its_store():
    """A term beyond the graph makes every store term before it a node, in
    store order, also one that no literal or caller asked for; congruence
    holds among them as among any nodes."""
    prob = parse_problem("(declare-sort S 0) (declare-fun f (S) S)"
                         " (declare-const c S) (declare-var x S) (assert (= x c))")
    store = prob.store
    fc = store.mk_app("f", (store.mk_const("c"),))
    fx = store.mk_app("f", (store.mk_const("x"),))
    g = EGraph.from_formula(prob.sig, store, prob.formula)
    assert [node.label for node in g.nodes] == ["x", "c"]
    assert g.add_term(fx) == fx.id == 3
    assert g.nodes == store.terms
    assert g.find(fc.id) == g.find(fx.id)
    # a second graph on the store adopts the same prefix
    g2 = EGraph.from_formula(prob.sig, store, prob.formula)
    assert g2.add_term(fc) == 2 and len(g2.nodes) == 3


def test_add_term_of_another_stores_term_is_a_value_error():
    prob, other = load("circular_defs.smt2"), load("circular_defs.smt2")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    nodes = len(g.nodes)
    beyond = other.store.mk_const("7777")  # the id one past prob's store
    assert beyond.id == len(prob.store.terms)
    for term in (other.store.terms[0], other.store.terms[nodes - 1], beyond):
        with pytest.raises(ValueError, match="not a term of the graph's store"):
            g.add_term(term)
    assert len(g.nodes) == nodes
