import pytest

from egraphqe import (Bounds, EGraph, InadmissibleReprError, InconsistentFormulaError,
                      Literal, SortKind, equiv_exists, find_core, find_defs,
                      find_model, formula_to_sexpr, is_admissible, mbp, process,
                      qel, refine_defs, to_expr, to_formula)
from egraphqe.parser import parse_problem
from egraphqe.qel import _makes_cycle, reduce
from egraphqe.terms import mk_formula

from conftest import (DEMOS, DISTINCT_TERM_PROBLEMS, chain_problem,
                      core_reachable_nodes, is_maximally_ground, load, load_mbp,
                      random_euf_instance, random_grounded_var_instance,
                      random_projection_instance, random_total_repr, ref_find_defs,
                      ref_process, ref_reduce, ref_to_formula, tower_problem)


def _graph(name):
    prob = load(name)
    return prob, EGraph.from_formula(prob.sig, prob.store, prob.formula)


def _node(g, label):
    return next(n.id for n in g.nodes if n.label == label)


def _nodes(g, label):
    return [n.id for n in g.nodes if n.label == label]


NO_GROUND = """
(declare-fun f (Int) Int)
(declare-fun g (Int) Int)
(declare-fun h (Int) Int)
(declare-var x Int)
(declare-var y Int)
(assert (= x (g (f x))))
(assert (= y (h (f y))))
(assert (= (f x) (f y)))
"""


def test_cground_read_chain():
    prob, g = _graph("read_chain.smt2")
    gt = _node(g, ">")
    assert g.cground(gt)  # 3 > z rewrites ground although z is a variable
    for n in _nodes(g, "read"):
        assert not g.cground(n)
    z = _node(g, "z")
    assert g.ground_class(z)
    x = _node(g, "x")
    assert not g.ground_class(x)


def test_cground_all_ground_formula():
    prob = parse_problem(
        "(declare-const c Int) (declare-const d Int) (assert (= (+ c 1) d))")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    assert all(g.cground(n) for n in g.node_ids())


def test_cground_empty_without_ground_leaves():
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    assert not any(g.cground(n) for n in g.node_ids())


def test_find_defs_read_chain_picks():
    prob, g = _graph("read_chain.smt2")
    r = find_defs(g)
    z, x, y = _node(g, "z"), _node(g, "x"), _node(g, "y")
    assert g.nodes[r.get(z)].label == "+"   # the ground definition k+1
    assert r.get(x) == x and r.get(y) == x


def test_find_defs_circular_picks():
    prob, g = _graph("circular_defs.smt2")
    r = find_defs(g)
    y, x = _node(g, "y"), _node(g, "x")
    assert g.nodes[r.get(y)].label == "6"
    assert g.nodes[r.get(x)].label == "g"


def test_find_defs_no_ground_picks():
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r = find_defs(g)
    x, y = _node(g, "x"), _node(g, "y")
    assert r.get(x) == x and r.get(y) == y
    f_nodes = _nodes(g, "f")
    # the second f application ends up representing the merged f class
    assert r.get(f_nodes[0]) == f_nodes[1]


def test_find_defs_counts_a_repeated_child_once():
    """h(c, c) waits for c's class once: it is ready as soon as c is
    assigned, so it, not x, represents their class."""
    prob = parse_problem("(declare-sort S 0) (declare-fun h (S S) S)"
                         " (declare-const c S) (declare-var x S)"
                         " (assert (= x (h c c)))")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r = find_defs(g)
    assert r[_node(g, "x")] == r[_node(g, "h")] == _node(g, "h")


def test_process_from_ground_leaf_circular():
    prob, g = _graph("circular_defs.smt2")
    r = {}
    process(g, r, [_node(g, "6")])
    six, gg = _node(g, "6"), _node(g, "g")
    y, x = _node(g, "y"), _node(g, "x")
    assert r.get(y) == six
    assert r.get(x) == gg  # parent propagation reached g through y's class


def test_process_empty_todo_is_identity():
    prob, g = _graph("circular_defs.smt2")
    r = {}
    process(g, r, [])
    assert r == {}


def test_process_no_ground_leaves():
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r = {}
    process(g, r, [_node(g, "x"), _node(g, "y")])
    assert all(n in r for n in g.node_ids())
    assert r.get(_node(g, "x")) == _node(g, "x")


def test_refine_defs_no_ground():
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r = refine_defs(g, find_defs(g), prob.formula.free_vars)
    x, y = _node(g, "x"), _node(g, "y")
    assert g.nodes[r.get(x)].label == "g"  # x rewrites as a function of y
    assert r.get(y) == y                   # the h candidate would close a cycle
    assert is_admissible(g, r)


def test_refine_defs_no_variable_reps_unchanged():
    prob, g = _graph("circular_defs.smt2")
    r = find_defs(g)
    before = dict(r)
    refine_defs(g, r, prob.formula.free_vars)
    assert r == before


def test_refine_defs_order_insensitive():
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r1 = refine_defs(g, find_defs(g), prob.formula.free_vars)
    # visiting y's class first must give the same result: the h candidate
    # cycles against the f-class representative either way
    r2 = find_defs(g)
    y, x = _node(g, "y"), _node(g, "x")
    for n in (y, x):
        node = g.nodes[n]
        if r2.get(n) == n and node.label in prob.formula.free_vars:
            for m in g.class_of(n):
                if m == n or g.nodes[m].label in prob.formula.free_vars:
                    continue
                if not _makes_cycle(g, r2, m):
                    r2.update(dict.fromkeys(g.class_of(m), m))
                    break
    assert r1 == r2


def _makes_cycle_reference(g, r, candidate):
    """The cycle check as first written: retarget a copy of r, build the
    successor map of the whole representative graph and search it for a
    path from the candidate back to itself."""
    trial = dict(r)
    trial.update(dict.fromkeys(g.class_of(candidate), candidate))
    succ = {}
    for node in g.nodes:
        for c in node.children:
            rep = trial.get(c.id)
            if rep is not None:
                succ.setdefault(node.id, set()).add(rep)
    stack = list(succ.get(candidate, ()))
    visited = set()
    while stack:
        n = stack.pop()
        if n == candidate:
            return True
        if n in visited:
            continue
        visited.add(n)
        stack.extend(succ.get(n, ()))
    return False


def _refine_with_reference(g, var_names, verdicts):
    """refine_defs' loop with the reference check; at every candidate it
    tries, asserts that the library's walk gives the same verdict, and
    counts the verdicts."""
    r = find_defs(g)
    var_names = set(var_names)
    for node in g.nodes:
        if r.get(node.id) != node.id or node.label not in var_names:
            continue
        for m in g.class_of(node.id):
            if m == node.id or g.nodes[m].label in var_names:
                continue
            cycles = _makes_cycle_reference(g, r, m)
            assert _makes_cycle(g, r, m) == cycles
            verdicts[cycles] += 1
            if not cycles:
                r.update(dict.fromkeys(g.class_of(m), m))
                break
    return r


def _refine_cases(rng):
    for _ in range(300):
        _, _, formula, g = random_euf_instance(rng, max_nodes=12)
        yield g, formula.free_vars
    for path in sorted(DEMOS.glob("*.smt2")):
        prob, g = _graph(path.name)
        yield g, prob.formula.free_vars
    for model in ("nested_pair_array.model", "nested_pair_array_alt.model"):
        prob, m = load_mbp(model=model)
        res = mbp(prob.sig, prob.store, prob.formula, prob.formula.free_vars, m)
        yield res.graph, res.graph.var_names()


def test_makes_cycle_agrees_with_reference(rng):
    verdicts = {True: 0, False: 0}
    for g, var_names in _refine_cases(rng):
        expected = _refine_with_reference(g, var_names, verdicts)
        refined = refine_defs(g, find_defs(g), var_names)
        assert refined == expected
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_find_core_read_chain():
    prob, g = _graph("read_chain.smt2")
    r = find_defs(g)
    core = find_core(g, r, prob.formula.free_vars)
    z, y = _node(g, "z"), _node(g, "y")
    r1, r2 = _nodes(g, "read")
    excluded = set(g.node_ids()) - core
    assert excluded == {z, y, r2}  # variables with definitions + congruent read


def test_find_core_one_rep_per_class_when_congruent():
    prob, g = _graph("congruent_funs.smt2")
    r = find_defs(g)
    core = find_core(g, r, prob.formula.free_vars)
    for root in g.roots():
        assert len([m for m in g.class_of(root) if m in core]) == 1


def test_find_core_all_nodes_when_nothing_to_drop():
    prob = parse_problem(
        "(declare-const c Int) (declare-const d Int) (assert (= (+ c 1) d))")
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    r = find_defs(g)
    core = find_core(g, r, ())
    assert core == set(g.node_ids())


def test_qel_golden_outputs():
    for name, expected in [
        ("read_chain.smt2", "(and (= (+ k 1) (read a x)) (> 3 (+ k 1)))"),
        ("circular_defs.smt2", "(and (= 6 (f (g 6))))"),
        ("no_ground_defs.smt2", "(and (= y (h (f y))) (= (f y) (f (g (f y)))))"),
        ("congruent_funs.smt2", "true"),
    ]:
        prob = load(name)
        out = qel(prob.sig, prob.store, prob.formula)
        assert repr(out) == expected, name


def test_qel_eliminates_expected_vars():
    prob = load("read_chain.smt2")
    out = qel(prob.sig, prob.store, prob.formula)
    assert set(out.free_vars) == {"x"}  # z and y are gone


def test_qel_equivalence_small(rng):
    for _ in range(40):
        sig, store, formula, _ = random_euf_instance(rng)
        out = qel(sig, store, formula)
        assert set(out.free_vars) <= set(formula.free_vars)
        assert equiv_exists(sig, store, formula, out, Bounds(universe=2)).ok


def test_qel_idempotent(rng):
    """qel of qel's output on one store: its graph also adopts the first
    input's terms that precede the output's, which no literal mentions, and
    the result still keeps the input's existential closure."""
    for _ in range(60):
        sig, store, formula, _ = random_euf_instance(rng)
        once = qel(sig, store, formula)
        twice = qel(sig, store, once, var_names=formula.free_vars)
        assert set(twice.free_vars) <= set(once.free_vars)
        assert equiv_exists(sig, store, formula, twice, Bounds(universe=2)).ok


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.smt2")))
def test_qel_twice_on_one_store_prints_the_same(name):
    """The first call's extractions add terms to the store; the second graph
    stops below them, since it holds only the prefix up to its literals."""
    prob = load(name)
    first = formula_to_sexpr(qel(prob.sig, prob.store, prob.formula))
    made = len(prob.store.terms)
    assert formula_to_sexpr(qel(prob.sig, prob.store, prob.formula)) == first
    assert len(prob.store.terms) == made


def test_qel_twice_on_one_generated_store_prints_the_same(rng):
    for _ in range(100):
        sig, store, formula, _ = random_euf_instance(rng)
        first = formula_to_sexpr(qel(sig, store, formula))
        assert formula_to_sexpr(qel(sig, store, formula)) == first


def test_find_defs_admissible_and_maximally_ground(rng):
    for _ in range(150):
        sig, store, formula, g = random_euf_instance(rng, max_nodes=12)
        r = find_defs(g)
        assert is_admissible(g, r)
        assert is_maximally_ground(g, r)
        r2 = refine_defs(g, r, formula.free_vars)
        assert is_admissible(g, r2)
        assert is_maximally_ground(g, r2)


def test_ground_definition_always_eliminates(rng):
    info_checked = 0
    for _ in range(100):
        sig, store, formula = random_grounded_var_instance(rng)
        g = EGraph.from_formula(sig, store, formula)
        r = find_defs(g)
        v0 = next(n.id for n in g.nodes if n.label == "v0")
        assert g.ground_class(v0)
        rep = r.get(v0)
        assert g.cground(rep)
        assert to_expr(g, rep, r).ground
        out = qel(sig, store, formula)
        assert "v0" not in out.free_vars
        info_checked += 1
    assert info_checked == 100


def test_unreachable_variables_never_survive(rng):
    """Diagnostic for the second elimination condition: a variable node the
    representative graph cannot reach from any class with two or more core
    nodes is absent from the output."""
    for _ in range(80):
        sig, store, formula, g = random_euf_instance(rng)
        r = refine_defs(g, find_defs(g), formula.free_vars)
        core = find_core(g, r, formula.free_vars)
        out = to_formula(g, r, set(g.node_ids()) - core)
        reached = core_reachable_nodes(g, r, core)
        for node in g.nodes:
            if node.label in formula.free_vars and node.id not in reached:
                assert node.label not in out.free_vars


def test_qel_on_depth_ten_thousand_chain():
    text, chain = chain_problem(10_000)
    prob = parse_problem(text)
    out = qel(prob.sig, prob.store, prob.formula)
    assert out.free_vars == ()
    assert formula_to_sexpr(out) == f"(and (distinct {chain} d))"


@pytest.mark.parametrize("text", DISTINCT_TERM_PROBLEMS)
def test_distinct_term_keeps_its_equality(text):
    prob = parse_problem(text)
    out = qel(prob.sig, prob.store, prob.formula)
    assert "(= q (distinct a x))" in formula_to_sexpr(out)
    assert equiv_exists(prob.sig, prob.store, prob.formula, out, Bounds()).ok


# a repeated child, and a class that is its own parent
SELF_PARENT_PROBLEMS = [
    "(declare-sort S 0) (declare-fun h (S S) S) (declare-var x S) (declare-const d S)\n"
    "(assert (distinct (h x x) d))\n",
    "(declare-sort S 0) (declare-fun h (S S) S) (declare-var x S) (declare-const d S)\n"
    "(assert (= x (h x x)))\n(assert (distinct x d))\n",
    "(declare-sort S 0) (declare-fun h (S S) S) (declare-var x S) (declare-const c S)\n"
    "(assert (= x (h x x)))\n(assert (= x c))\n",
]


def _mbp_graph(sig, store, formula, model):
    """The saturated graph of a projection, its variables and its taint, as
    mbp hands them to reduce."""
    g = mbp(sig, store, formula, formula.free_vars, model).graph
    all_vars = g.var_names()
    taint = frozenset(v for v in all_vars
                      if sig.variables[v].kind in (SortKind.ARRAY, SortKind.ADT))
    return g, all_vars, taint


def _random_binary_graph(rng):
    """Graph of a random conjunction over a unary f and a binary h, whose
    terms share arguments, so that parents wait on two child classes."""
    while True:
        prob = parse_problem("(declare-sort S 0) (declare-fun f (S) S)"
                             " (declare-fun h (S S) S) (declare-const c S)"
                             " (declare-const d S) (declare-var x S) (declare-var y S)"
                             " (declare-var z S)")
        store = prob.store
        pool = [store.mk_const(s) for s in "cdxyz"]
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.3:
                pool.append(store.mk_app("f", (rng.choice(pool),)))
            else:
                pool.append(store.mk_app("h", (rng.choice(pool), rng.choice(pool))))
        lits = [Literal(rng.choice(("eq", "eq", "eq", "diseq")), rng.choice(pool),
                        rng.choice(pool)) for _ in range(rng.randint(1, 5))]
        formula = mk_formula(store, lits)
        try:
            return EGraph.from_formula(prob.sig, store, formula), formula.free_vars
        except InconsistentFormulaError:
            continue


def _tail_cases(rng):
    """(graph, variables, taint) of every input the twin test runs."""
    for _ in range(300):
        _, _, formula, g = random_euf_instance(rng, max_nodes=12)
        yield g, formula.free_vars, frozenset()
    for _ in range(300):
        yield (*_random_binary_graph(rng), frozenset())
    for depth in (3, 12):
        prob = parse_problem(tower_problem(depth, rng))
        g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
        yield g, prob.formula.free_vars, frozenset()
    for _ in range(300):
        sig, store, formula = random_grounded_var_instance(rng)
        yield EGraph.from_formula(sig, store, formula), formula.free_vars, frozenset()
    texts = SELF_PARENT_PROBLEMS + DISTINCT_TERM_PROBLEMS + [chain_problem(10_000)[0]]
    texts += [path.read_text() for path in sorted(DEMOS.glob("*.smt2"))]
    for text in texts:
        prob = parse_problem(text)
        g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
        yield g, prob.formula.free_vars, frozenset()
    for model in ("nested_pair_array.model", "nested_pair_array_alt.model"):
        prob, m = load_mbp(model=model)
        yield _mbp_graph(prob.sig, prob.store, prob.formula, m)
    found = 0
    while found < 100:
        sig, store, formula = random_projection_instance(rng)
        model = find_model(sig, store, formula,
                           Bounds(universe=3 if len(sig.variables) <= 2 else 2))
        if model is not None:
            found += 1
            yield _mbp_graph(sig, store, formula, model)


def test_tail_matches_reference(rng):
    """Every stage of the tail, and reduce with its taint, gives what the
    reference tail gives: the same assignment in the same insertion order,
    the same core and the same literals."""
    tainted = 0
    for g, var_names, taint in _tail_cases(rng):
        r = find_defs(g)
        assert list(r.items()) == list(ref_find_defs(g).items())
        expected_r, expected_core, expected = ref_reduce(g, var_names, taint)
        r = refine_defs(g, r, var_names)
        assert list(r.items()) == list(expected_r.items())
        core = find_core(g, r, var_names)
        assert core == expected_core
        assert to_formula(g, r, set(g.node_ids()) - core).literals == \
            ref_to_formula(g, r, set(g.node_ids()) - core).literals
        r, out = reduce(g, var_names, taint)
        assert list(r.items()) == list(expected_r.items())
        assert out.literals == expected.literals
        tainted += bool(taint)
    assert tainted > 50


def test_process_matches_reference_from_partial_reprs(rng):
    """process from the seeds and empty functions the tests above use, and
    from the partial function its ground-leaf pass leaves on every graph of
    the twin test."""
    cases = []
    prob, g = _graph("circular_defs.smt2")
    cases += [(g, {}, [_node(g, "6")]), (g, {}, [])]
    prob = parse_problem(NO_GROUND)
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    cases.append((g, {}, [_node(g, "x"), _node(g, "y")]))
    for g, _, _ in _tail_cases(rng):
        leaves = [t.id for t in g.nodes if not t.children]
        seeded = ref_process(g, {}, [n for n in leaves if g.nodes[n].ground])
        cases.append((g, seeded, leaves))
    for g, r, todo in cases:
        expected = ref_process(g, dict(r), todo)
        got = process(g, dict(r), todo)
        assert list(got.items()) == list(expected.items())


def test_to_formula_matches_reference_on_random_reprs(rng):
    """On the criterion-2 pairs of random graphs and random total functions,
    admissible or not, to_formula and the reference raise alike or return
    the same literals."""
    raised = 0
    for _ in range(500):
        _, _, _, g = random_euf_instance(rng)
        r = random_total_repr(rng, g)
        outcomes = []
        for extract in (to_formula, ref_to_formula):
            try:
                outcomes.append(extract(g, r).literals)
            except InadmissibleReprError as e:
                outcomes.append(type(e))
        assert outcomes[0] == outcomes[1]
        raised += isinstance(outcomes[0], type)
    assert 50 < raised < 450
