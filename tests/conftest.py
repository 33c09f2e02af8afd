import itertools
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from types import GeneratorType

import pytest

from egraphqe import (EGraph, Literal, Signature, TermStore, build_repr_graph,
                      parse_model, parse_problem, term_to_sexpr)
from egraphqe.egraph import ClassView
from egraphqe.extraction import has_cycle
from egraphqe.model import (AdtVal, ArrayVal, Elem, Model, ModelError, mk_array,
                            show)
from egraphqe.parser import ParseError, Problem
from egraphqe.sexpr import LocatedError, read_all
from egraphqe.terms import (ARITH_FUNS, BOOL, InputError, SortKind, is_numeral,
                            mk_formula, post_order, sorts_within)

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


def ref_compute_cground(g):
    """Reference for EGraph.cground and EGraph.ground_class: the least
    fixpoint that ``qel.compute_cground`` computed from scratch before the
    egraph kept the analysis.  A node is constructively ground if its own
    term is ground, or it has children and every child's class contains
    one.  Returns the ground node ids and the roots of the ground classes."""
    cground, ground_class = set(), set()
    pending = deque()

    def mark(n):
        cground.add(n)
        root = g.find(n)
        if root not in ground_class:
            ground_class.add(root)
            for m in g.class_of(root):
                pending.extend(g.parents(m))

    for n in range(len(g.nodes)):
        if g.nodes[n].ground:
            mark(n)
        else:
            pending.append(n)
    while pending:
        p = pending.popleft()
        node = g.nodes[p]
        if p in cground or not node.children:
            continue
        if all(g.find(c.id) in ground_class for c in node.children):
            mark(p)
    return cground, ground_class


def check_ground_analysis(g, where=""):
    """The graph's groundness of every node and class equals the
    reference's."""
    cground, ground_class = ref_compute_cground(g)
    for n in g.node_ids():
        assert g.cground(n) == (n in cground), (where, n)
        assert g.ground_class(n) == (g.find(n) in ground_class), (where, n)


def is_maximally_ground(g, r):
    """Every node of a ground class has a constructively ground
    representative (by the reference analysis)."""
    cground, ground_class = ref_compute_cground(g)
    for node in g.nodes:
        if g.find(node.id) in ground_class:
            rep = r.get(node.id)
            if rep is None or rep not in cground:
                return False
    return True


class RefUnionFindEGraph(EGraph):
    """An egraph whose classes live in the path-compressing union-find
    forest that ``EGraph`` kept before it stored one root per node: a merge
    links the newer root under the older one, and ``find`` walks to the
    root and points every node on the path at it.  It leaves the library's
    root array alone, so it must not be asked about groundness."""

    def __init__(self, sig, store):
        super().__init__(sig, store)
        self._uf = []

    def _add_node(self, term):
        self._uf.append(len(self.nodes))
        return super()._add_node(term)

    def find(self, n):
        root = n
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[n] != root:
            self._uf[n], n = root, self._uf[n]
        return root

    def _canon_key(self, t):
        return (t.label, tuple([self.find(c.id) for c in t.children]))

    def _merge(self, a, b):
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if rx > ry:
                rx, ry = ry, rx
            absorbed = self._members.pop(ry)
            self._uf[ry] = rx
            self._merges += 1
            self._members[rx].extend(absorbed)
            moved = self._class_diseqs.pop(ry, None)
            if moved is not None:
                self._move_diseqs(rx, moved)
            for m in absorbed:
                for p in self._parents[m]:
                    key = self._canon_key(self.nodes[p])
                    q = self._cong.setdefault(key, p)
                    if self.find(q) != self.find(p):
                        queue.append((q, p))

    def _move_diseqs(self, rx, moved):
        kept = self._class_diseqs.setdefault(rx, [])
        if len(kept) < len(moved):
            kept, moved = moved, kept
            self._class_diseqs[rx] = kept
        if self._violation is None:
            for a, b in moved:
                if self.find(a) == self.find(b):
                    self._violation = (a, b)
                    break
        kept.extend(moved)

    def view(self):
        root = [0] * len(self.nodes)
        members = [None] * len(self.nodes)
        for r, cls in self._members.items():
            cls = sorted(cls)
            for m in cls:
                root[m], members[m] = r, cls
        return ClassView(root, members)


def is_admissible_partial(g, r):
    """Admissibility for partial functions: defined classes are fully and
    consistently assigned, the defined repr graph is acyclic, and every
    representative has all children defined."""
    for root in g.roots():
        members = g.class_of(root)
        assigned = [m for m in members if m in r]
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
    for rep in set(r.values()):
        if any(c.id not in r for c in g.nodes[rep].children):
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


def conjuncts(printed):
    """The texts of the conjuncts of a printed ``(and ...)`` result, cut at
    the spaces outside parentheses; a result without ``and`` is its one
    conjunct.  A scan of characters, so a result of any depth is cut."""
    if not printed.startswith("(and "):
        return [printed]
    body = printed[len("(and "):-1]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def reparse(decls, printed):
    """The formula of a printed ``(and ...)`` result, each conjunct read
    back in as an assert under the declarations decls."""
    return parse_problem(decls + "".join(f"(assert {lit})"
                                         for lit in conjuncts(printed))).formula


def expand_lets(printed):
    """printed with every let replaced by its body, the bound names
    substituted (a reference for the printer's binders, tree-recursive)."""
    def expand(form, env):
        if isinstance(form, str):
            return env.get(form, form)
        if form and form[0] == "let":
            inner = dict(env)
            inner.update((name, expand(t, env)) for name, t in form[1])
            return expand(form[2], inner)
        return "(" + " ".join([form[0]] + [expand(f, env) for f in form[1:]]) + ")"
    return " ".join(expand(form, {}) for form in read_all(printed))


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
    r = {}
    if rng.random() < 0.5:
        for root in g.roots():
            members = g.class_of(root)
            rep = rng.choice(members)
            for m in members:
                r[m] = rep
    else:
        ids = list(g.node_ids())
        for n in ids:
            r[n] = rng.choice(ids)
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


def random_write_instance(rng):
    """Random array projection instance with a planted model, built to reach
    the partial-equality rules: chains of 1-4 writes over one or two
    projected arrays equated to a kept array, array equalities written on
    both sides with one or both sides projected, two projected arrays
    equated, one under a chain equated to a kept array and the other read,
    and reads over a chain.  Both universes have two elements, e0 and e1
    name the two of V, and there are three index constants, so two of them
    always share a model value: an exception set may clash.  A literal over a new kept array or
    over the second projected array plants that array so that the literal
    holds.  Returns (problem, model); every declared variable is
    projected."""
    decls = ["(declare-sort I 0)", "(declare-sort V 0)"]
    values = {}
    lits = []

    def const(name, sort, value):
        decls.append(f"(declare-const {name} {sort})")
        values[name] = value
        return name

    idx = [const(f"i{k}", "I", rng.randrange(2)) for k in range(3)]
    vals = [const(f"e{k}", "V", k) for k in range(2)]
    arrays = {"a0": (rng.randrange(2), rng.randrange(2))}

    def over(base, writes):
        for i, v in writes:
            base = f"(write {base} {i} {v})"
        return base

    def chain(base, n):
        """(text, value) of n random writes over base."""
        writes = [(rng.choice(idx), rng.choice(vals)) for _ in range(n)]
        value = list(arrays[base])
        for i, v in writes:
            value[values[i]] = values[v]
        return over(base, writes), tuple(value)

    def solve(base, n, target):
        """n writes over base, each of target's value at its index, with
        base planted so that the chain equals target."""
        writes = [rng.choice(idx) for _ in range(n)]
        value = list(target)
        for i in writes:
            value[values[i]] = rng.randrange(2)
        arrays[base] = tuple(value)
        return over(base, [(i, vals[target[values[i]]]) for i in writes])

    for _ in range(rng.randint(1, 2)):
        shape = rng.randrange(5)
        lhs, lval = chain("a0", rng.randint(1, 4))
        if shape == 0:  # a chain equated to a kept array
            c = f"c{len(arrays)}"
            arrays[c] = lval
            lits.append(f"(= {c} {lhs})" if rng.randrange(2) else f"(= {lhs} {c})")
        elif shape == 1 and "a1" not in arrays:  # two chains, one kept array
            c = f"c{len(arrays)}"
            arrays[c] = lval
            lits.append(f"(= {c} {lhs})")
            lits.append(f"(= {c} {solve('a1', rng.randint(1, 4), lval)})")
        elif shape == 2:  # written on both sides; the other side kept or not
            other = "a1" if "a1" not in arrays and rng.randrange(2) \
                else f"c{len(arrays)}"
            lits.append(f"(= {lhs} {solve(other, rng.randint(1, 2), lval)})")
        elif shape == 4 and "a1" not in arrays:  # two projected arrays equated
            c, j = f"c{len(arrays)}", rng.choice(idx)
            arrays[c], arrays["a1"] = lval, arrays["a0"]
            lits.append("(= a0 a1)" if rng.randrange(2) else "(= a1 a0)")
            lits.append(f"(= {c} {lhs})")
            lits.append(f"(= (read a1 {j}) {vals[arrays['a1'][values[j]]]})")
        else:  # a read over a chain
            j = rng.choice(idx)
            lits.append(f"(= (read {lhs} {j}) {vals[lval[values[j]]]})")
    for name in arrays:
        kind = "var" if name.startswith("a") else "const"
        decls.append(f"(declare-{kind} {name} (Array I V))")
    text = "\n".join(decls + [f"(assert {lit})" for lit in lits]) + "\n"
    model = ["(universe I 2)", "(universe V 2)"]
    model += [f"(define-value {k} (elem {'I' if k[0] == 'i' else 'V'} {v}))"
              for k, v in values.items()]
    model += [f"(define-value {k} (array (default (elem V 0))"
              + "".join(f" ((elem I {i}) (elem V {v}))" for i, v in enumerate(a)
                        if v) + "))" for k, a in arrays.items()]
    prob = parse_problem(text)
    return prob, parse_model("\n".join(model), prob.sig)


def chain_problem(depth):
    """Problem text asserting ``x = f(g(f(...(c))))``, a chain of the given
    depth, and ``x != d``; with the chain's text, which qel keeps as
    ``(and (distinct CHAIN d))`` once it has eliminated x."""
    chain = "".join(f"({'fg'[i % 2]} " for i in range(depth)) + "c" + ")" * depth
    text = ("(declare-sort S 0) (declare-fun f (S) S) (declare-fun g (S) S)\n"
            "(declare-const c S) (declare-const d S) (declare-var x S)\n"
            f"(assert (= x {chain}))\n(assert (distinct x d))\n")
    return text, chain


TOWER_DECLS = ("(declare-sort S 0) (declare-fun h (S S) S) (declare-fun k (S S) S)\n"
               "(declare-const c S) (declare-const d S)\n")


def tower_problem(depth, rng):
    """Problem text defining a tower ``t(i+1) = s(t(i), t(i))`` of the given
    depth over c, each s one of h and k at random, and asserting
    ``t(depth) != d``; qel keeps ``(and (distinct TOWER d))``, whose tree
    has about 2^depth nodes over depth + 2 distinct subterms."""
    lines = [TOWER_DECLS + "(declare-var t0 S) (assert (= t0 c))"]
    for i in range(depth):
        lines.append(f"(declare-var t{i + 1} S) "
                     f"(assert (= t{i + 1} ({rng.choice('hk')} t{i} t{i})))")
    lines.append(f"(assert (distinct t{depth} d))")
    return "\n".join(lines) + "\n"


def deep_model_problems(depth=2000):
    """Projection problems over values nested depth deep, with a model of
    each, by name: (problem text, model text).  S is an (Array Int ...)
    nested depth deep, and D(v) its value whose every level is default-only
    down to v at the bottom.
    - equal, distinct: a = c and a != c with a := D(0), c := D(0) or D(1);
    - entry: a = c where each maps 1 to a value one level less deep that
      differs from its default only at the bottom;
    - selector: y = (fld x) with x := (nil), y := D(0), the field's default;
    - index_key: a = c over (Array S Int), each mapping D(1) to 5;
    - datatype: x != y over (mk (fld S)), x := (mk D(0)), y := (mk D(1))."""
    sort = "(Array Int " * depth + "Int" + ")" * depth

    def deep(v, levels=depth):
        return "(array (default " * levels + str(v) + "))" * levels

    entry = f"(array (default {deep(0, depth - 1)}) (1 {deep(1, depth - 1)}))"
    pair = f"(declare-datatype P ((mk (fld {sort})) (nil)))"
    return {
        "equal": (f"(declare-var a {sort}) (declare-const c {sort}) (assert (= a c))",
                  f"(define-value a {deep(0)}) (define-value c {deep(0)})"),
        "distinct": (f"(declare-var a {sort}) (declare-const c {sort})"
                     " (assert (distinct a c))",
                     f"(define-value a {deep(0)}) (define-value c {deep(1)})"),
        "entry": (f"(declare-var a {sort}) (declare-const c {sort}) (assert (= a c))",
                  f"(define-value a {entry}) (define-value c {entry})"),
        "selector": (f"{pair} (declare-var x P) (declare-const y {sort})"
                     " (assert (= y (fld x)))",
                     f"(define-value x (nil)) (define-value y {deep(0)})"),
        "index_key": (f"(declare-var a (Array {sort} Int))"
                      f" (declare-const c (Array {sort} Int)) (assert (= a c))",
                      "".join(f"(define-value {name} (array (default 0) ({deep(1)} 5)))"
                              for name in "ac")),
        "datatype": (f"{pair} (declare-var x P) (declare-const y P) (assert (distinct x y))",
                     f"(define-value x (mk {deep(0)})) (define-value y (mk {deep(1)}))"),
    }


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


# -- reference reduction tail ----------------------------------------------------
# The tail as it was before it read the graph's class view: process sorts every
# member's parent set and tests all children of a parent on every visit, and
# find_core keeps one congruence key set for the whole graph.  The library's
# stages must give the same assignment, in the same insertion order, the same
# core and the same literals.

def ref_process(g, r, todo):
    current = deque(todo)
    while current:
        ready = []
        while current:
            n = current.popleft()
            if n in r:
                continue
            r.update(dict.fromkeys(g.class_of(n), n))
            for m in g.class_of(n):
                for p in sorted(g.parents(m)):
                    if p not in r and \
                            all(c.id in r for c in g.nodes[p].children):
                        ready.append(p)
        seen = set()
        for p in sorted(ready, reverse=True):
            if p not in seen:
                seen.add(p)
                current.append(p)
    return r


def ref_find_defs(g):
    r = {}
    ref_process(g, r, [t.id for t in g.nodes if not t.children and t.ground])
    ref_process(g, r, [t.id for t in g.nodes if not t.children])
    return r


def ref_refine_defs(g, r, var_names):
    var_names = set(var_names)
    for node in g.nodes:
        if r.get(node.id) != node.id or node.label not in var_names:
            continue
        for m in g.class_of(node.id):
            if m == node.id or g.nodes[m].label in var_names:
                continue
            if not _ref_makes_cycle(g, r, m):
                r.update(dict.fromkeys(g.class_of(m), m))
                break
    return r


def _ref_makes_cycle(g, r, candidate):
    root = g.find(candidate)
    stack = [candidate]
    visited = set()
    while stack:
        for c in g.nodes[stack.pop()].children:
            rep = candidate if g.find(c.id) == root else r.get(c.id)
            if rep == candidate:
                return True
            if rep is not None and rep not in visited:
                visited.add(rep)
                stack.append(rep)
    return False


def ref_find_core(g, r, var_names):
    var_names = set(var_names)
    core = set()
    keys = set()
    for node in g.nodes:
        if r.get(node.id) != node.id:
            continue
        core.add(node.id)
        keys.add(g.congruence_key(node.id))
        for m in g.class_of(node.id):
            if m == node.id or g.nodes[m].label in var_names:
                continue
            key = g.congruence_key(m)
            if key in keys:
                continue
            keys.add(key)
            core.add(m)
    return core


def ref_to_expr(g, n, r, memo):
    """Extraction of node n under r by the walk the library's to_expr had,
    children through their representatives, memoized by node id."""
    from egraphqe.extraction import ExtractionBudgetError, InadmissibleReprError
    hit = memo.get(n)
    if hit is not None:
        return hit
    nodes = g.nodes
    node = nodes[n]
    if not node.children:
        memo[n] = node
        return node
    path = {n}
    stack = [(node, iter(node.children))]
    while stack:
        node, it = stack[-1]
        for c in it:
            rep = r.get(c.id)
            if rep is None:
                raise InadmissibleReprError(f"representative undefined for node {c.id}")
            if rep in memo:
                continue
            if rep in path:
                raise ExtractionBudgetError(f"node {rep} is on its own extraction path")
            child = nodes[rep]
            if child.children:
                path.add(rep)
                stack.append((child, iter(child.children)))
                break
            memo[rep] = child
        else:
            stack.pop()
            path.discard(node.id)
            memo[node.id] = g.store.mk_app(
                node.label, [memo[r.get(c.id)] for c in node.children])
    return memo[n]


def ref_to_formula(g, r, exclude=frozenset(), memo=None):
    from egraphqe.extraction import InadmissibleReprError
    for root in g.roots():
        members = g.class_of(root)
        reps = {r.get(m) for m in members}
        if len(reps) != 1 or reps.pop() not in members:
            raise InadmissibleReprError("not a unique in-class assignment per class")
    exclude = set(exclude)
    memo = {} if memo is None else memo
    literals = []
    seen_pairs = set()

    def emit(kind, lhs, rhs):
        if lhs is rhs and kind == "eq":
            return
        key = (kind, frozenset((lhs.id, rhs.id)))
        if key not in seen_pairs:
            seen_pairs.add(key)
            literals.append(Literal(kind, lhs, rhs))

    kept = set()
    for node in g.nodes:
        if r.get(node.id) != node.id:
            continue
        rep_term = ref_to_expr(g, node.id, r, memo)
        for m in g.class_of(node.id):
            if m in exclude:
                continue
            kept.add(node.id)
            if m == node.id:
                continue
            emit("eq", rep_term, ref_to_expr(g, m, r, memo))
    for a, b in g.diseqs:
        ra, rb = r.get(a), r.get(b)
        if ra in kept and rb in kept:
            emit("diseq", ref_to_expr(g, ra, r, memo), ref_to_expr(g, rb, r, memo))
    return mk_formula(g.store, literals)


def ref_reduce(g, var_names, taint=frozenset()):
    """The reference stages in reduce's order; returns the representative
    function, the core before the taint filter, and the formula."""
    r = ref_refine_defs(g, ref_find_defs(g), var_names)
    core = ref_find_core(g, r, var_names)
    memo = {}
    kept = core
    if taint:
        kept = {n for n in core
                if taint.isdisjoint(ref_to_expr(g, n, r, memo).vars)
                and taint.isdisjoint(ref_to_expr(g, r.get(n), r, memo).vars)}
    return r, core, ref_to_formula(g, r, set(g.node_ids()) - kept, memo)


# -- reference problem reader ---------------------------------------------------
# The reader the token-stream parser replaced: the whole text is read into
# nested lists first (REF_TOKEN takes each token with the whitespace and
# comments after it), and each assert body is then walked as a list.  The
# parser must build the same terms in the same order, and fail where this
# fails, with the same exception type and message.

_REF_SKIP = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")
REF_TOKEN = re.compile(r"([()]|[^ \t\r\n();]+)(?:[ \t\r\n]+|;[^\n]*)*")


def ref_tokens(text):
    return REF_TOKEN.findall(text, _REF_SKIP.match(text).end())


class _RefForm(list):
    __slots__ = ("at",)


class _RefLocated(Exception):
    def __init__(self, msg, form, index):
        super().__init__(msg)
        self.form = form
        self.index = index


def _ref_read_all(text):
    root = _RefForm()
    root.at = -1
    cur, parents = root, []
    for k, tok in enumerate(ref_tokens(text)):
        if tok == "(":
            form = _RefForm()
            form.at = k
            cur.append(form)
            parents.append(cur)
            cur = form
        elif tok == ")":
            if not parents:
                raise _RefLocated("unbalanced ')'", root, len(root))
            cur = parents.pop()
        else:
            cur.append(tok)
    if parents:
        raise _RefLocated("unclosed '('", parents[-1], len(parents[-1]) - 1)
    return root


def ref_where(text, form, index):
    depth = child = 0
    toks = REF_TOKEN.finditer(text, _REF_SKIP.match(text).end())
    for m in itertools.islice(toks, form.at + 1, None):
        if depth == 0:
            if child == index:
                break
            child += 1
        tok = m.group(1)
        depth += (tok == "(") - (tok == ")")
    start = m.start()
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start) - 1
    return f"{line}:{col}"


def ref_parse_problem(text):
    text = text.removeprefix("\ufeff")  # a byte order mark
    try:
        return _ref_problem(_ref_read_all(text))
    except _RefLocated as e:
        raise ParseError(f"{e.args[0]} at {ref_where(text, e.form, e.index)}") from None


def _ref_problem(forms):
    sig = Signature()
    store = TermStore(sig)
    literals = []
    command = None
    for form in forms:
        if command is not None:
            raise ParseError(f"content after ({command})")
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ParseError(f"expected a command, got {_ref_show(form)}")
        head = form[0]
        if head == "declare-sort":
            name, arity = _ref_exact(form, 2, "declare-sort (name arity)")
            if _ref_atom(arity) != "0":
                raise ParseError("only 0-ary sorts are supported")
            sig.declare_sort(_ref_atom(name))
        elif head == "declare-datatype":
            name, ctors = _ref_exact(form, 2, "declare-datatype (name ctor-list)")
            sig.declare_datatype(_ref_atom(name), _ref_ctors(sig, ctors))
        elif head == "declare-fun":
            name, args, _ = _ref_exact(form, 3, "declare-fun (name args result)")
            if not isinstance(args, list):
                raise ParseError("declare-fun needs an argument sort list")
            sig.declare_fun(_ref_atom(name),
                            [_ref_sort(sig, args, i) for i in range(len(args))],
                            _ref_sort(sig, form, 3))
        elif head == "declare-const":
            name, _ = _ref_exact(form, 2, "declare-const (name sort)")
            sig.declare_const(_ref_atom(name), _ref_sort(sig, form, 2))
        elif head == "declare-var":
            name, _ = _ref_exact(form, 2, "declare-var (name sort)")
            sig.declare_var(_ref_atom(name), _ref_sort(sig, form, 2))
        elif head == "assert":
            (body,) = _ref_exact(form, 1, "assert (literal)")
            literals.append(_ref_literal(store, body))
        elif head in ("qel", "mbp"):
            if len(form) != 1:
                raise ParseError(f"({head}) takes no arguments")
            command = head
        else:
            raise _RefLocated(f"unknown command '{head}'", form, 0)
    return Problem(sig, store, mk_formula(store, literals), command)


def _ref_ctors(sig, ctors):
    if not isinstance(ctors, list) or not ctors:
        raise ParseError("declare-datatype needs a non-empty constructor list")
    out = []
    for c in ctors:
        if not isinstance(c, list) or not c:
            raise ParseError("constructor must be (name (sel Sort) ...)")
        cname = _ref_atom(c[0])
        sels = []
        for s in c[1:]:
            if not isinstance(s, list) or len(s) != 2:
                raise ParseError(f"selector of '{cname}' must be (name Sort)")
            sels.append((_ref_atom(s[0]), _ref_sort(sig, s, 1)))
        out.append((cname, sels))
    return out


def _ref_sort(sig, parent, index):
    pending, built = [(parent, index)], []
    while pending:
        parent, index = pending.pop()
        if parent is None:
            value = built.pop()
            built.append(sig.ensure_array_sort(built.pop(), value))
            continue
        form = parent[index]
        if isinstance(form, str):
            try:
                built.append(sig.sorts[form])
            except KeyError:
                raise _RefLocated(f"unknown sort '{form}'", parent, index) from None
        elif isinstance(form, list) and len(form) == 3 \
                and _ref_atom(form[0]) == "Array":
            pending += [(None, None), (form, 2), (form, 1)]
        else:
            raise ParseError(f"bad sort {_ref_show(form)}")
    return built[0]


_REF_KINDS = {"=": "eq", "distinct": "diseq", "ueq": "ueq"}


def _ref_literal(store, form):
    if _ref_is_let(form):
        body, lets = _ref_lets(store, form)
        literal = _ref_literal(store, body)
        for let in reversed(lets):
            _ref_one_body(let)
        return literal
    if isinstance(form, list) and form and isinstance(form[0], str):
        head = form[0]
        if head in _REF_KINDS and len(form) == 3:
            return _ref_binary(store, _REF_KINDS[head], form)
        if head == "not" and len(form) == 2:
            inner = form[1]
            if isinstance(inner, list) and inner and _ref_atom(inner[0]) == "distinct":
                if len(inner) != 3:
                    raise ParseError("'distinct' takes two arguments, "
                                     f"got {len(inner) - 1}")
                return _ref_binary(store, "eq", inner)
            app = _ref_term(store, inner)
            _ref_need_bool(app)
            return Literal("eq", app, store.bot)
    app = _ref_term(store, form)
    _ref_need_bool(app)
    return Literal("eq", app, store.top)


def _ref_binary(store, kind, form):
    lhs, rhs = _ref_term(store, form[1]), _ref_term(store, form[2])
    if lhs.sort is not rhs.sort and lhs.sort != rhs.sort:
        raise ParseError(f"'{form[0]}' needs two arguments of one sort, "
                         f"got {lhs.sort!r} and {rhs.sort!r}")
    if kind == "ueq":
        store.mk_app("ueq", (lhs, rhs))  # the graph's marker, after the sides
    return Literal(kind, lhs, rhs)


def _ref_need_bool(term):
    if term.sort is not BOOL and term.sort != BOOL:
        raise ParseError(f"literal '{term!r}' is not Bool-sorted")


def _ref_term(store, form):
    if isinstance(form, str):
        return _ref_const(store, form)
    if _ref_is_let(form):
        body, lets = _ref_lets(store, form)
        term = _ref_term(store, body)
        for let in reversed(lets):
            _ref_one_body(let)
        return term
    _ref_check_app(form)
    stack = [(form, [])]
    while True:
        form, args = stack[-1]
        i, n = len(args) + 1, len(form)
        while i < n and (isinstance(form[i], str) or _ref_is_let(form[i])):
            args.append(_ref_term(store, form[i]))
            i += 1
        if i < n:
            _ref_check_app(form[i])
            stack.append((form[i], []))
            continue
        stack.pop()
        term = store.mk_app(form[0], args)
        if not stack:
            return term
        stack[-1][1].append(term)


def _ref_const(store, atom):
    if isinstance(atom, _RefBound):
        return atom.term
    try:
        return store.mk_const(atom)
    except InputError:
        store.sig.sort_of(atom)
        raise


# A let is read by substitution: its bindings' terms are read in turn, and
# each name is then replaced in the body's forms by a _RefBound, the name
# as a string that reads as its term, except where an inner let binds the
# name again.  The body's forms are read afterwards, so a name left over is
# an unknown symbol, and an error shows the body as written.  A let whose
# body is a let is one chain: the inner let's bindings are read with the
# outer names substituted, and the innermost body is substituted once with
# every name of the chain, an inner one shadowing an outer one.  That is
# what substituting each body in turn gives, and it takes time linear in
# the chain; every walk uses an explicit stack, so lets and terms of any
# depth are read without recursion.

class _RefBound(str):
    term = None


def _ref_is_let(form):
    return isinstance(form, list) and bool(form) and form[0] == "let"


def _ref_lets(store, form):
    """The innermost body of the chain of lets at form, every name bound in
    the chain substituted, and the chain's let forms, outermost first."""
    lets = []
    bound = {}
    while _ref_is_let(form):
        if len(form) < 2 or not isinstance(form[1], list):
            raise _RefLocated("let needs a list of bindings", form, 1)
        bindings = form[1]
        if not bindings:
            raise _RefLocated("let with no bindings", form, 1)
        names = []
        for i, b in enumerate(bindings):
            if not isinstance(b, list) or len(b) != 2 or not isinstance(b[0], str):
                raise _RefLocated("a let binding must be (name term)", bindings, i)
            if b[0] in names:
                raise _RefLocated(f"'{b[0]}' is bound twice in one let", b, 0)
            names.append(b[0])
        if len(form) < 3:
            raise _RefLocated("let takes one body", form, 2)
        new = {}
        for name, b in zip(names, bindings):
            new[name] = _RefBound(name)
            new[name].term = _ref_term(store, _ref_subst(b[1], bound))
        bound.update(new)
        lets.append(form)
        form = form[2]
    return _ref_subst(form, bound), lets


def _ref_one_body(form):
    if len(form) > 3:
        raise _RefLocated("let takes one body", form, 3)


def _ref_subst(form, bound):
    """form with each name in bound replaced where it is free: not a head,
    not a let's binder, not under a let that binds it again.  A copy made
    with an explicit stack of (forms to copy, names bound, copy to extend)."""
    top = []
    stack = [([form], bound, top)]
    while stack:
        forms, bound, out = stack.pop()
        for form in forms:
            if isinstance(form, str):
                out.append(form if isinstance(form, _RefBound)
                           else bound.get(form, form))
                continue
            copy = _RefForm()
            copy.at = form.at
            out.append(copy)
            if not form:
                continue
            if _ref_is_let(form) and len(form) > 1 and isinstance(form[1], list):
                bindings = _RefForm()
                bindings.at = form[1].at
                copy += [form[0], bindings]
                inner = bound
                for b in form[1]:
                    if isinstance(b, list) and len(b) == 2 and isinstance(b[0], str):
                        pair = _RefForm([b[0]])
                        pair.at = b.at
                        bindings.append(pair)
                        stack.append((b[1:], bound, pair))
                        if b[0] in inner:
                            inner = dict(inner) if inner is bound else inner
                            del inner[b[0]]
                    else:
                        bindings.append(b)
                stack.append((form[2:], inner, copy))
            elif isinstance(form[0], str):
                copy.append(form[0])
                stack.append((form[1:], bound, copy))
            else:
                stack.append((form, bound, copy))
    return top[0]


def _ref_check_app(form):
    if not (isinstance(form, list) and form and isinstance(form[0], str)):
        raise ParseError(f"bad term {_ref_show(form)}")
    if form[0] == "=":
        raise _RefLocated("nested '='", form, 0)


def _ref_exact(form, n, what):
    if len(form) != n + 1:
        raise ParseError(f"malformed {what}")
    return form[1:]


def _ref_atom(form):
    if not isinstance(form, str):
        raise ParseError(f"expected a symbol, got {_ref_show(form)}")
    return form


def _ref_show(form):
    out, stack = [], [_ref_quoted(form)]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            out.append(f)
        else:
            out.append("(")
            stack.append(")")
            for i in range(len(f) - 1, -1, -1):
                stack.append(_ref_quoted(f[i]))
                if i:
                    stack.append(" ")
    return "".join(out)


def _ref_quoted(form):
    return f"'{form}'" if isinstance(form, str) else form


# -- reference model reader ----------------------------------------------------
# The reader the token-stream model reader replaced: the text is read into
# Forms first (sexpr.read_all), the universes are read from the top-level
# forms, and each value is read by one generator per compound value, kept
# on an explicit stack.  parse_model must return an equal model, with equal
# reprs, or fail where this fails, with the same message.

def ref_parse_model(text, sig):
    text = text.removeprefix("\ufeff")  # a byte order mark
    try:
        return _ref_model(read_all(text), sig)
    except LocatedError as e:
        raise ModelError(e.located(text)) from None


def _ref_model(forms, sig) -> Model:
    constants = {}
    functions = {}
    universes = _ref_universes(forms, sig)
    for form in forms:
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ModelError("expected a model command")
        head = form[0]
        if head == "define-value" and len(form) == 3:
            name = _ref_name(form[1])
            args, sort = _ref_declared(sig, name)
            if args:
                raise ModelError(f"'{name}' takes arguments: use define-fun-values")
            if name in constants:
                raise ModelError(f"duplicate value for '{name}'")
            constants[name] = _ref_value(form, 2, sort, universes)
        elif head == "define-fun-values" and len(form) >= 3:
            name = _ref_name(form[1])
            args, result = _ref_declared(sig, name)
            default = _ref_default(form, 2, result, universes)
            table = {}
            for entry in form[3:]:
                if not isinstance(entry, list) or len(entry) != 2 \
                        or not isinstance(entry[0], list) \
                        or len(entry[0]) != len(args):
                    raise ModelError(f"bad table entry for '{name}'")
                key = tuple(_ref_value(entry[0], i, s, universes)
                            for i, s in enumerate(args))
                if key in table:
                    raise ModelError(f"duplicate table entry for '{name}'")
                table[key] = _ref_value(entry, 1, result, universes)
            functions[name] = (default, table)
        elif head == "universe" and len(form) == 3:
            pass  # read by _ref_universes
        else:
            raise ModelError(f"unknown model command '{head}'")
    return Model(constants, functions, universes)


def _ref_universes(forms, sig) -> dict:
    """Sort name -> size for each ``(universe S k)`` in forms, read before
    any value so that an element is checked wherever it appears."""
    universes = {}
    for form in forms:
        if isinstance(form, list) and len(form) == 3 and form[0] == "universe":
            k = _ref_int(form, 2)
            name = _ref_name(form[1])
            sort = sig.sorts.get(name)
            if sort is None or sort.kind is not SortKind.UNINTERPRETED:
                raise LocatedError(
                    f"'{name}' is not a declared uninterpreted sort",
                    form.at_child(1))
            if k < 1:
                raise LocatedError(f"universe of '{name}' is empty", form.at_child(2))
            if name in universes:
                raise LocatedError(f"duplicate universe for '{name}'", form.at_child(1))
            universes[name] = k
    return universes


def _ref_declared(sig, name):
    """(argument sorts, result sort) of name, a variable or an
    uninterpreted symbol declared in sig: the names a model defines."""
    if name in sig.variables:
        return (), sig.variables[name]
    if name not in sig.uninterpreted:
        raise ModelError(f"'{name}' is not declared")
    return sig.functions[name]


def _ref_value(form, index, sort, universes):
    """The value written as child index of form, read against sort.  Each
    level must have its sort's shape, so a value is never read deeper than
    its sort is nested.  An element must lie in its sort's universe when
    the model gives one.  The readers of the arrays and datatype values
    being read wait on an explicit stack, so a value of any depth reads,
    depth first and left to right as a recursive reader would."""
    value = _ref_read(form, index, sort, universes)
    if not isinstance(value, GeneratorType):
        return value
    readers = [value]
    value = None
    while readers:
        try:
            value = readers[-1].send(value)
        except StopIteration as done:
            readers.pop()
            value = done.value
        else:  # a compound part: read it first
            readers.append(value)
            value = None
    return value


def _ref_read(form, index, sort, universes):
    """The value at child index of form if it is an atom or an element,
    else a reader of its parts: a generator that reads each part in turn,
    yields the reader of a part that is compound itself and is sent back
    its value, and returns the whole."""
    v = form[index]
    if isinstance(v, str):
        if v in ("true", "false"):
            if sort.kind is SortKind.BOOL:
                return v == "true"
        elif v.lstrip("-").isdigit():
            n = _ref_int(form, index)
            if sort.kind is SortKind.INT:
                return n
        else:
            raise LocatedError(f"bad value '{v}'", form.at_child(index))
    elif not v or not isinstance(v[0], str):
        raise ModelError("bad value")
    elif v[0] == "elem" and len(v) == 3:
        name = _ref_name(v[1])
        n = _ref_int(v, 2)
        if sort.kind is SortKind.UNINTERPRETED and sort.name == name:
            size = universes.get(name)
            if size is not None and not 0 <= n < size:
                raise LocatedError(f"element {n} is outside the universe of "
                                   f"'{name}' (size {size})", v.at_child(2))
            return Elem(name, n)
    elif v[0] == "array" and len(v) >= 2:
        if sort.kind is SortKind.ARRAY:
            return _ref_array_reader(v, sort, universes)
    else:
        for ctor in sort.constructors:
            if ctor.name == v[0]:
                if len(v) != 1 + ctor.arity:
                    raise ModelError(f"constructor '{ctor.name}' expects "
                                     f"{ctor.arity} values")
                return _ref_adt_reader(v, ctor, universes)
    raise LocatedError(f"expected a value of sort {sort!r}", form.at_child(index))


def _ref_array_reader(v, sort, universes):
    default = _ref_read(_ref_default_form(v, 1), 1, sort.value, universes)
    if isinstance(default, GeneratorType):
        default = yield default
    mapping = {}
    for entry in v[2:]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ModelError("array entry must be (key value)")
        key = _ref_read(entry, 0, sort.index, universes)
        if isinstance(key, GeneratorType):
            key = yield key
        if key in mapping:
            raise ModelError(f"duplicate array key {show(key)}")
        value = _ref_read(entry, 1, sort.value, universes)
        if isinstance(value, GeneratorType):
            value = yield value
        mapping[key] = value
    return mk_array(default, mapping)


def _ref_adt_reader(v, ctor, universes):
    args = []
    for i, (_, s) in enumerate(ctor.selectors, start=1):
        arg = _ref_read(v, i, s, universes)
        if isinstance(arg, GeneratorType):
            arg = yield arg
        args.append(arg)
    return AdtVal(ctor.name, tuple(args))


def _ref_default(form, index, sort, universes):
    """The value v of ``(default v)`` at child index of form."""
    return _ref_value(_ref_default_form(form, index), 1, sort, universes)


def _ref_default_form(form, index):
    d = form[index]
    if not isinstance(d, list) or len(d) != 2 or _ref_name(d[0]) != "default":
        raise ModelError("expected (default value)")
    return d


def _ref_name(form) -> str:
    if not isinstance(form, str):
        raise ModelError("expected a symbol")
    return form


def _ref_int(form, index) -> int:
    """The integer at child index of form: an optional '-' and a numeral of
    ASCII digits, as in problem input (terms.is_numeral)."""
    text = form[index]
    if not isinstance(text, str):
        raise ModelError("expected a symbol")
    if not is_numeral(text[1:] if text.startswith("-") else text):
        raise LocatedError(f"expected an integer, got '{text}'", form.at_child(index))
    return int(text)


# -- reference model values and evaluator --------------------------------------
# The values the model used before they were interned: frozen dataclasses,
# equal when they have one class and equal fields, compared by ref_equal's
# explicit stack, with _ref_apply the evaluator over them.  ref_holds and
# ref_satisfies evaluate a model converted to them (ref_model), so holds
# and satisfies are checked against a second value representation.  Their
# own hash and repr recurse per level: an array keyed by a value about
# 1,000 levels deep raises RecursionError in ref_mk_array.

@dataclass(frozen=True)
class RefValue:
    pass


@dataclass(frozen=True)
class RefIntVal(RefValue):
    n: int

    def __repr__(self):
        return str(self.n)


@dataclass(frozen=True)
class RefBoolVal(RefValue):
    b: bool

    def __repr__(self):
        return "true" if self.b else "false"


@dataclass(frozen=True)
class RefElem(RefValue):
    sort: str
    k: int

    def __repr__(self):
        return f"(elem {self.sort} {self.k})"


@dataclass(frozen=True)
class RefArrayVal(RefValue):
    default: RefValue
    entries: tuple  # sorted ((key, value), ...) with value != default

    def __repr__(self):
        inner = " ".join(f"({k!r} {v!r})" for k, v in self.entries)
        sep = " " + inner if inner else ""
        return f"(array (default {self.default!r}){sep})"


@dataclass(frozen=True)
class RefAdtVal(RefValue):
    ctor: str
    args: tuple

    def __repr__(self):
        if not self.args:
            return f"({self.ctor})"
        return f"({self.ctor} " + " ".join(repr(a) for a in self.args) + ")"


def ref_mk_array(default, mapping):
    entries = tuple(sorted(((k, v) for k, v in dict(mapping).items()
                            if not ref_equal(v, default)),
                           key=lambda kv: repr(kv[0])))
    return RefArrayVal(default, entries)


def ref_array_read(arr, key):
    for k, v in arr.entries:
        if k == key:
            return v
    return arr.default


def ref_array_write(arr, key, val):
    mapping = dict(arr.entries)
    mapping[key] = val
    return ref_mk_array(arr.default, mapping)


def ref_default_value(sort):
    made = {}
    for name, s in sorts_within([sort]).items():
        if s.kind is SortKind.INT:
            made[name] = RefIntVal(0)
        elif s.kind is SortKind.BOOL:
            made[name] = RefBoolVal(False)
        elif s.kind is SortKind.UNINTERPRETED:
            made[name] = RefElem(name, 0)
        elif s.kind is SortKind.ARRAY:
            made[name] = RefArrayVal(made[s.value.name], ())
        else:
            ctor = s.constructors[0]
            made[name] = RefAdtVal(ctor.name,
                                   tuple(made[f.name] for _, f in ctor.selectors))
    return made[sort.name]


def ref_equal(a, b) -> bool:
    """a == b, by an explicit stack of the pairs of parts still to compare."""
    if a.__class__ is not RefArrayVal and a.__class__ is not RefAdtVal:
        return a == b
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is RefArrayVal:
            if len(a.entries) != len(b.entries):
                return False
            pending.append((a.default, b.default))
            for (ka, va), (kb, vb) in zip(a.entries, b.entries):
                pending += ((ka, kb), (va, vb))
        elif cls is RefAdtVal:
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return False
            pending += zip(a.args, b.args)
        elif a != b:
            return False
    return True


def _ref_apply(model, sig, term, args):
    label = term.label
    if is_numeral(label):
        return RefIntVal(int(label))
    if label == "true":
        return RefBoolVal(True)
    if label == "false":
        return RefBoolVal(False)
    if label in ARITH_FUNS:
        a, b = args
        if not isinstance(a, RefIntVal) or not isinstance(b, RefIntVal):
            raise ModelError(f"arithmetic on non-integers in {term!r}")
        if label == "+":
            return RefIntVal(a.n + b.n)
        if label == "-":
            return RefIntVal(a.n - b.n)
        if label == "*":
            return RefIntVal(a.n * b.n)
        if label == ">":
            return RefBoolVal(a.n > b.n)
        if label == "<":
            return RefBoolVal(a.n < b.n)
        if label == ">=":
            return RefBoolVal(a.n >= b.n)
        return RefBoolVal(a.n <= b.n)
    if label == "read":
        return ref_array_read(args[0], args[1])
    if label == "write":
        return ref_array_write(args[0], args[1], args[2])
    if label == "ueq":
        return RefBoolVal(ref_equal(args[0], args[1]))
    if label == "distinct":
        return RefBoolVal(not ref_equal(args[0], args[1]))
    role = sig.datatype.get(label)
    if role is not None:
        kind, ctor, i = role
        if kind == "constructor":
            return RefAdtVal(label, tuple(args))
        matches = isinstance(args[0], RefAdtVal) and args[0].ctor == ctor.name
        if kind == "tester":
            return RefBoolVal(matches)
        return args[0].args[i] if matches else ref_default_value(ctor.selectors[i][1])
    if label in model.constants:
        return model.constants[label]
    if label in model.functions:
        default, table = model.functions[label]
        return table.get(tuple(args), default)
    raise ModelError(f"symbol '{label}' has no interpretation")


def ref_eval(model, sig, term, memo):
    if not term.children:
        return _ref_apply(model, sig, term, ())
    hit = memo.get(term.id)
    if hit is not None:
        return hit
    for t in post_order(term, memo):
        memo[t.id] = _ref_apply(model, sig, t, [memo[c.id] for c in t.children])
    return memo[term.id]


def ref_value(value):
    """The reference value of a model value, built children first by an
    explicit stack of (value, whether its parts are converted)."""
    done, stack = [], [(value, False)]
    while stack:
        v, ready = stack.pop()
        if isinstance(v, bool):
            done.append(RefBoolVal(v))
        elif isinstance(v, int):
            done.append(RefIntVal(v))
        elif isinstance(v, Elem):
            done.append(RefElem(v.sort, v.k))
        elif not ready:
            parts = v.args if isinstance(v, AdtVal) else \
                (v.default, *itertools.chain.from_iterable(v.entries))
            stack.append((v, True))
            stack += [(p, False) for p in reversed(parts)]
        else:
            assert isinstance(v, (AdtVal, ArrayVal))
            n = len(v.args) if isinstance(v, AdtVal) else 1 + 2 * len(v.entries)
            parts = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(RefAdtVal(v.ctor, tuple(parts)) if isinstance(v, AdtVal)
                        else ref_mk_array(parts[0], zip(parts[1::2], parts[2::2])))
    return done[0]


def ref_model(model):
    """model with every value converted by ref_value."""
    functions = {name: (ref_value(default),
                        {tuple(map(ref_value, k)): ref_value(v) for k, v in table.items()})
                 for name, (default, table) in model.functions.items()}
    return Model({name: ref_value(v) for name, v in model.constants.items()},
                 functions, model.universes)


def ref_holds(model, sig, lit, memo=None):
    """holds over a model of reference values (ref_model)."""
    memo = {} if memo is None else memo
    same = ref_equal(ref_eval(model, sig, lit.lhs, memo),
                      ref_eval(model, sig, lit.rhs, memo))
    return not same if lit.kind == "diseq" else same


def ref_satisfies(model, sig, formula):
    memo = {}
    return all(ref_holds(model, sig, lit, memo) for lit in formula.literals)
