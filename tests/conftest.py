import random
from collections import Counter
from pathlib import Path

import pytest

from egraphqe import (EGraph, Literal, Signature, TermStore, build_repr_graph,
                      compute_cground, parse_model, parse_problem,
                      term_to_sexpr)
from egraphqe.extraction import has_cycle
from egraphqe.sexpr import read_all
from egraphqe.terms import mk_formula, post_order

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name):
    return parse_problem((DEMOS / name).read_text())


def load_mbp(problem="nested_pair_array.smt2", model="nested_pair_array.model"):
    prob = load(problem)
    m = parse_model((DEMOS / model).read_text(), prob.sig)
    return prob, m


def check_congruence(g):
    """Exhaustive Def-style congruence scan: congruent nodes share a class."""
    by_key = {}
    for node in g.nodes:
        if not node.children:
            continue
        key = g.congruence_key(node.id)
        other = by_key.setdefault(key, node.id)
        if g.find(other) != g.find(node.id):
            return False
    return True


def is_ground_class(info, g, n):
    """Whether n's class holds a constructively ground node (info is
    compute_cground(g))."""
    return g.find(n) in info.ground_class


def is_maximally_ground(g, r):
    """Every node of a ground class has a constructively ground
    representative."""
    info = compute_cground(g)
    for node in g.nodes:
        if g.find(node.id) in info.ground_class:
            rep = r.get(node.id)
            if rep is None or rep not in info.cground:
                return False
    return True


def is_admissible_partial(g, r):
    """Admissibility for partial functions: defined classes are fully and
    consistently assigned, the defined repr graph is acyclic, and every
    representative has all children defined."""
    for root in g.roots():
        members = g.class_of(root)
        assigned = [m for m in members if r.defined(m)]
        if not assigned:
            continue
        reps = {r.get(m) for m in assigned}
        if len(reps) != 1:
            return False
        rep = reps.pop()
        if rep not in members:
            return False
        if len(assigned) != len(members):
            return False  # partially assigned class
    for rep in set(r.assignment.values()):
        if any(not r.defined(c) for c in g.nodes[rep].children):
            return False
    return not has_cycle(g, r)


def core_reachable_nodes(g, r, core):
    """Nodes reachable in the representative graph from classes that keep
    two or more core nodes.  Only such classes contribute output literals,
    so a variable node outside this set never appears in the result -- a
    diagnostic for the second elimination condition."""
    succ = {}
    for a, b in build_repr_graph(g, r):
        succ.setdefault(a, set()).add(b)
    seeds = set()
    for root in g.roots():
        kept = [m for m in g.class_of(root) if m in core]
        if len(kept) >= 2:
            seeds.update(kept)
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        n = stack.pop()
        for m in succ.get(n, ()):
            if m not in reached:
                reached.add(m)
                stack.append(m)
    return reached


def ref_var_order(sig, term, memo):
    """Reference for term.vars: the memoized post-order walk that computed
    the variable order before terms carried it.  A variable is its own
    order, another leaf has none, and an application merges its children's
    orders left to right without repeats.  memo maps term id to order."""
    if term.id not in memo:
        for t in post_order(term, memo):
            if not t.children:
                memo[t.id] = (t.label,) if t.label in sig.variables else ()
            else:
                memo[t.id] = tuple(dict.fromkeys(
                    v for c in t.children for v in memo[c.id]))
    return memo[term.id]


def literal_key(lit):
    return (lit.kind, frozenset((term_to_sexpr(lit.lhs), term_to_sexpr(lit.rhs))))


def same_literals(f1, f2):
    """Equal as literal multisets, ignoring order and equality orientation."""
    return Counter(map(literal_key, f1.literals)) == \
        Counter(map(literal_key, f2.literals))


def reparse(decls, printed):
    """The formula of a printed ``(and ...)`` result, each conjunct read
    back in as an assert under the declarations decls."""
    def text(form):
        if isinstance(form, list):
            return "(" + " ".join(text(f) for f in form) + ")"
        return form
    (conj,) = read_all(printed)
    return parse_problem(decls + "".join(f"(assert {text(lit)})"
                                         for lit in conj[1:])).formula


def formula_of(store, pairs):
    """Build an equality conjunction from (lhs, rhs) term pairs."""
    return mk_formula(store, [Literal("eq", a, b) for a, b in pairs])


@pytest.fixture
def rng():
    return random.Random(20240811)


# -- random instance generators (shared by the property suites) ---------------

def random_euf_instance(rng, max_nodes=8):
    """Random EUF conjunction over one uninterpreted sort, with its egraph.

    Keeps the interpretation space small (a couple of constants, at most two
    unary functions) so the finite-model oracle stays fast.
    """
    while True:
        sig = Signature()
        u = sig.declare_sort("U")
        consts = [f"c{i}" for i in range(rng.randint(1, 2))]
        for c in consts:
            sig.declare_const(c, u)
        funs = ["f", "g"][: 1 if rng.random() < 0.8 else 2]
        for f in funs:
            sig.declare_fun(f, [u], u)
        variables = [f"v{i}" for i in range(rng.randint(1, 3))]
        for v in variables:
            sig.declare_var(v, u)
        store = TermStore(sig)
        pool = [store.mk_const(s) for s in consts + variables]
        for _ in range(rng.randint(1, 4)):
            pool.append(store.mk_app(rng.choice(funs), [rng.choice(pool)]))
        lits = []
        for _ in range(rng.randint(1, 4)):
            lits.append(Literal("eq", rng.choice(pool), rng.choice(pool)))
        formula = mk_formula(store, lits)
        g = EGraph.from_formula(sig, store, formula)
        if len(g.nodes) <= max_nodes:
            return sig, store, formula, g


def random_total_repr(rng, g):
    """Random total node map; half the time class-respecting, half arbitrary."""
    from egraphqe import ReprFn
    r = ReprFn()
    if rng.random() < 0.5:
        for root in g.roots():
            members = g.class_of(root)
            rep = rng.choice(members)
            for m in members:
                r.assignment[m] = rep
    else:
        ids = list(g.node_ids())
        for n in ids:
            r.assignment[n] = rng.choice(ids)
    return r


def random_grounded_var_instance(rng):
    """Random conjunction in which variable v0 is equated, possibly through
    other variables and congruence, to a ground term."""
    sig = Signature()
    u = sig.declare_sort("U")
    for c in ("c0", "c1"):
        sig.declare_const(c, u)
    sig.declare_fun("f", [u], u)
    variables = [f"v{i}" for i in range(rng.randint(1, 3))]
    for v in variables:
        sig.declare_var(v, u)
    store = TermStore(sig)
    v0 = store.mk_const("v0")
    ground_leaf = store.mk_const(rng.choice(("c0", "c1")))
    ground = ground_leaf
    for _ in range(rng.randint(0, 2)):
        ground = store.mk_app("f", [ground])
    lits = []
    style = rng.randrange(3)
    if style == 0:
        lits.append(Literal("eq", v0, ground))
    elif style == 1 and len(variables) > 1:
        mid = store.mk_const(variables[1])
        lits.append(Literal("eq", v0, mid))
        lits.append(Literal("eq", mid, ground))
    else:
        # congruence route: v0 = f(w), w = ground  =>  f(w) rewrites ground
        if len(variables) > 1:
            w = store.mk_const(variables[1])
            lits.append(Literal("eq", v0, store.mk_app("f", [w])))
            lits.append(Literal("eq", w, ground))
        else:
            lits.append(Literal("eq", v0, store.mk_app("f", [ground])))
    for _ in range(rng.randint(0, 2)):  # noise
        side = [store.mk_const(rng.choice(variables)),
                store.mk_const(rng.choice(("c0", "c1")))]
        rng.shuffle(side)
        lits.append(Literal("eq", side[0], side[1]))
    return sig, store, mk_formula(store, lits)


def random_projection_instance(rng):
    """Random array/datatype projection instance within the rule set's reach:
    projected variables occur only under read/write, constructor equalities,
    selector positions, and disequalities."""
    sig = Signature()
    idx = sig.declare_sort("I")
    val = sig.declare_sort("V")
    arr = sig.ensure_array_sort(idx, val)
    rec = sig.declare_datatype(
        "Rec", [("mk", [("fld", val), ("pos", idx)]), ("unit", [])])
    sig.declare_const("b", arr)
    sig.declare_const("i0", idx)
    sig.declare_const("i1", idx)
    sig.declare_const("e0", val)
    sig.declare_const("r0", rec)
    n_arr = rng.randint(0, 2)
    n_adt = rng.randint(0 if n_arr else 1, 2)
    arr_vars = [f"av{i}" for i in range(n_arr)]
    adt_vars = [f"pv{i}" for i in range(n_adt)]
    for v in arr_vars:
        sig.declare_var(v, arr)
    for v in adt_vars:
        sig.declare_var(v, rec)
    store = TermStore(sig)
    lits = []
    idx_terms = [store.mk_const("i0"), store.mk_const("i1")]
    val_terms = [store.mk_const("e0")]
    b = store.mk_const("b")
    for v in arr_vars:
        vt = store.mk_const(v)
        shape = rng.randrange(4)
        if shape == 0:
            lits.append(Literal(
                "eq", vt, store.mk_app(
                    "write", (b, rng.choice(idx_terms), rng.choice(val_terms)))))
        elif shape == 1:
            lits.append(Literal(
                "eq", store.mk_app("read", (vt, idx_terms[0])), val_terms[0]))
            lits.append(Literal(
                "eq", store.mk_app("read", (vt, idx_terms[1])),
                store.mk_app("read", (b, idx_terms[1]))))
        elif shape == 2:
            lits.append(Literal("eq", vt, b))
        else:
            lits.append(Literal(
                "eq",
                store.mk_app("read", (store.mk_app(
                    "write", (vt, idx_terms[0], val_terms[0])),
                    rng.choice(idx_terms))),
                val_terms[0]))
    for v in adt_vars:
        vt = store.mk_const(v)
        shape = rng.randrange(3)
        if shape == 0:
            lits.append(Literal(
                "eq", vt, store.mk_app(
                    "mk", (rng.choice(val_terms), rng.choice(idx_terms)))))
        elif shape == 1:
            lits.append(Literal("diseq", vt, store.mk_const("r0")))
        else:
            lits.append(Literal(
                "eq", vt, store.mk_app("mk", (val_terms[0], idx_terms[0]))))
            lits.append(Literal("diseq", vt, store.mk_const("r0")))
    return sig, store, mk_formula(store, lits)


def chain_problem(depth):
    """Problem text asserting ``x = f(g(f(...(c))))``, a chain of the given
    depth, and ``x != d``; with the chain's text, which qel keeps as
    ``(and (distinct CHAIN d))`` once it has eliminated x."""
    chain = "".join(f"({'fg'[i % 2]} " for i in range(depth)) + "c" + ")" * depth
    text = ("(declare-sort S 0) (declare-fun f (S) S) (declare-fun g (S) S)\n"
            "(declare-const c S) (declare-const d S) (declare-var x S)\n"
            f"(assert (= x {chain}))\n(assert (distinct x d))\n")
    return text, chain


# A `distinct` subterm is an ordinary Bool term: equated to a Bool constant,
# and in addition under a predicate.  qel must keep the equality.
DISTINCT_TERM_PROBLEMS = [
    "(declare-sort S 0) (declare-const a S) (declare-const q Bool)\n"
    "(declare-var x S)\n"
    "(assert (= q (distinct a x)))\n",
    "(declare-sort S 0) (declare-const a S) (declare-const q Bool)\n"
    "(declare-fun P (Bool) Bool) (declare-var x S)\n"
    "(assert (P (distinct a x)))\n(assert (= q (distinct a x)))\n",
]
