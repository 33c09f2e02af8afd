import itertools
import random
from functools import partial

import pytest

from egraphqe import (AdtVal, ArrayVal, Bounds, Elem, Literal, Model,
                      SearchSpaceError, Signature, TermStore, equiv_exists,
                      eval_term, find_model, implies_exists, mbp, qel,
                      satisfies, term_to_sexpr)
from egraphqe import oracle
from egraphqe.model import array_read, array_write, mk_array
from egraphqe.parser import parse_problem
from egraphqe.terms import (SortKind, formula_to_sexpr, is_numeral, mk_formula,
                            post_order)

from conftest import (DEMOS, chain_problem, load, load_mbp,
                      random_euf_instance, random_projection_instance, ref_equal,
                      ref_eval, ref_model, ref_value)


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
    prob = parse_problem("""
    (declare-const k Int)
    (declare-var z Int)
    (assert (= z (+ k 1)))
    """)
    sig, formula = prob.sig, prob.formula
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


def test_domains_of_an_array_sort_2000_deep_are_built_without_recursion():
    """Each level of (Array I ...) over a one-element I has one value, so
    the enumeration is admitted; its domains are built inner sort first."""
    d = 2000
    sort = "(Array I " * d + "I" + ")" * d
    prob = parse_problem(f"(declare-sort I 0) (declare-var a {sort}) "
                         f"(declare-var b {sort}) (assert (= a b))")
    formula = prob.formula
    assert equiv_exists(prob.sig, prob.store, formula, formula,
                        Bounds(universe=1)).ok


def test_selector_default_of_a_sort_2000_deep_is_built_without_recursion():
    """(fld nil) is the default of S, an (Array I ...) 2000 deep: it is built
    inner sort first, once per context, and compares with y's values
    without descending, since interned values compare by identity."""
    d = 2000
    sort = "(Array I " * d + "I" + ")" * d
    prob = parse_problem(
        f"(declare-sort I 0) (declare-datatype P ((mk (fld {sort})) (nil)))"
        f" (declare-var x P) (declare-var y {sort})"
        " (assert (= (is-nil x) true)) (assert (= y (fld x)))")
    formula = prob.formula
    verdict = equiv_exists(prob.sig, prob.store, formula, formula,
                           Bounds(universe=1))
    assert isinstance(verdict, oracle.Verdict)
    assert (verdict.ok, verdict.skipped) == (True, 0)


def test_model_of_a_sort_2000_deep_is_converted_without_recursion():
    """find_model on the selector problem above: its model holds the
    oracle's own values, y's an array 2000 deep, and satisfies the
    formula."""
    d = 2000
    sort = "(Array I " * d + "I" + ")" * d
    prob = parse_problem(
        f"(declare-sort I 0) (declare-datatype P ((mk (fld {sort})) (nil)))"
        f" (declare-var x P) (declare-var y {sort})"
        " (assert (= (is-nil x) true)) (assert (= y (fld x)))")
    model = find_model(prob.sig, prob.store, prob.formula, Bounds(universe=1))
    assert model.constants["x"] == AdtVal("nil", ())
    value = model.constants["y"]
    for _ in range(d):
        assert isinstance(value, ArrayVal) and value.entries == ()
        value = value.default
    assert value == Elem("I", 0)
    assert satisfies(model, prob.sig, prob.formula)


def test_free_variable_is_a_shared_symbol():
    sig = Signature()
    idx, val = sig.declare_sort("I"), sig.declare_sort("V")
    arr = sig.ensure_array_sort(idx, val)
    sig.declare_const("i", idx)
    sig.declare_const("e", val)
    sig.declare_var("a", arr)
    sig.declare_var("c", arr)
    store = TermStore(sig)
    a, c = store.mk_const("a"), store.mk_const("c")
    read = store.mk_app("read", (a, store.mk_const("i")))
    closure = mk_formula(store, [Literal("eq", read, store.mk_const("e")),
                                 Literal("eq", a, c)])
    true = mk_formula(store, [])
    # with c closed as well, some a = c always has read(a, i) = e
    assert implies_exists(sig, store, true, closure).ok
    verdict = implies_exists(sig, store, true, closure, free={"c"})
    assert not verdict.ok
    assert verdict.witness is not None and "c" in verdict.witness
    with pytest.raises(ValueError):
        implies_exists(sig, store, true, closure, free={"i"})


def test_empty_bounds_are_refused():
    sig, store = _euf()
    a, b = store.mk_const("a"), store.mk_const("b")
    f1 = mk_formula(store, [Literal("eq", a, b)])
    # no interpretation at universe 0: the check would pass vacuously
    assert not equiv_exists(sig, store, f1, mk_formula(store, []),
                            Bounds(universe=2)).ok
    for bad in (dict(universe=0), dict(universe=-1), dict(int_window=(3, 1))):
        with pytest.raises(ValueError):
            Bounds(**bad)
    Bounds(universe=1, int_window=(2, 2))


def test_plan_checks_each_literal_at_its_last_variable():
    prob = load("read_chain.smt2")
    terms = oracle._subterms(prob.formula)
    plan = oracle._plan(prob.formula, terms, prob.sig.variables.keys())
    assert plan.names == ["x", "y", "z"]
    lits = [(lit.kind, lit.lhs.id, lit.rhs.id)
            for lit in prob.formula.literals]
    checked = [[lits.index((kind, lhs, rhs)) for _, kind, lhs, rhs in entries]
               for entries, _ in plan.levels]
    # z = (read a x), (+ k 1) = (read a y), x = y, (> 3 z) = true
    assert checked == [[], [], [1, 2], [0, 3]]
    valued = [[term_to_sexpr(t) for terms, *_ in entries for t in terms] +
              [term_to_sexpr(t) for t in rest]
              for entries, rest in plan.levels]
    assert valued == [["a", "k", "1", "(+ k 1)", "3", "true"],
                      ["x", "(read a x)"], ["y", "(read a y)"],
                      ["z", "(> 3 z)"]]


# -- the backtracking search against a three-valued product search -----------

def _literal_plan(formula):
    """Per literal, (kind, lhs id, rhs id, terms): the literal's subterms
    that no earlier literal has, children before parents."""
    seen = set()
    plan = []
    for lit in formula.literals:
        terms = []
        for side in (lit.lhs, lit.rhs):
            if side.id not in seen:
                for t in post_order(side, seen):
                    seen.add(t.id)
                    terms.append(t)
        plan.append((lit.kind, lit.lhs.id, lit.rhs.id, terms))
    return plan


def _product_sat(self, idx, interp, want_assignment=False):
    """Three-valued reference for ``_Context.sat``: every assignment of the
    variables of formula idx in itertools.product order, each evaluated
    literal by literal until one fails, its terms by _apply.  A term with
    an undefined argument is undefined, and so is a literal with an
    undefined side.  An assignment fails at its first failing literal,
    holds when every literal holds, and is undefined otherwise.  The first assignment that holds decides
    (True); else the formula is undefined (None) when some assignment is,
    and False when none is."""
    fvars = self.vars_per_formula[idx]
    names = sorted(fvars)
    doms = [self.domain(fvars[n]) for n in names]
    plan = _literal_plan(self.formulas[idx])
    undef = oracle._UNDEFINED
    undefined = False
    for combo in itertools.product(*doms):
        assign = dict(zip(names, combo))
        val = {}
        outcome = True
        for kind, lhs, rhs, terms in plan:
            for t in terms:
                args = [val[c.id] for c in t.children]
                val[t.id] = undef if undef in args else \
                    _apply(self, t, args, interp, assign)
            if val[lhs] is undef or val[rhs] is undef:
                outcome = None
            elif (val[lhs] == val[rhs]) == (kind == "diseq"):
                outcome = False
                break
        if outcome:
            return assign if want_assignment else True
        undefined = undefined or outcome is None
    return None if want_assignment or undefined else False


def _apply(self, term, args, interp, assign):
    """Value of term's symbol applied to the values of its arguments;
    undefined when it leaves the enumerated domains."""
    label = term.label
    # declared symbols first: they label most terms, and no declared
    # name is a numeral or a builtin
    if label in assign:
        out = assign[label]
    elif label in interp:
        val = interp[label]
        out = val.get(tuple(args), oracle._UNDEFINED) \
            if isinstance(val, dict) else val
    elif is_numeral(label):
        out = int(label)
    elif label == "true":
        out = True
    elif label == "false":
        out = False
    elif label in ("+", "-", "*"):
        a, b = args
        out = a + b if label == "+" else a - b if label == "-" else a * b
        lo, hi = self.window
        if out < lo or out > hi:
            out = oracle._UNDEFINED
    elif label in (">", "<", ">=", "<="):
        a, b = args
        out = {">": a > b, "<": a < b, ">=": a >= b, "<=": a <= b}[label]
    elif label == "read":
        out = array_read(args[0], args[1])
    elif label == "write":
        out = array_write(args[0], args[1], args[2])
    elif label in ("ueq",):
        out = args[0] == args[1]
    elif label == "distinct":
        out = args[0] != args[1]
    else:
        out = _eval_adt(self, label, args)
    return out


def _eval_adt(self, label, args):
    role = self.sig.datatype.get(label)
    if role is None:
        raise SearchSpaceError(f"symbol '{label}' not enumerable")
    kind, ctor, i = role
    if kind == "constructor":
        return AdtVal(label, tuple(args))
    matches = args[0].ctor == ctor.name
    if kind == "tester":
        return matches
    return args[0].args[i] if matches else _default(ctor.selectors[i][1])


def _default(sort):
    if sort.kind is SortKind.INT:
        return 0
    if sort.kind is SortKind.BOOL:
        return False
    if sort.kind is SortKind.UNINTERPRETED:
        return Elem(sort.name, 0)
    if sort.kind is SortKind.ARRAY:
        return mk_array(_default(sort.value), ())
    ctor = sort.constructors[0]
    return AdtVal(ctor.name, tuple(_default(s) for _, s in ctor.selectors))


def _choices(self):
    out = []
    for name, sort in sorted(self.consts.items()):
        out.append((name, self.domain(sort)))
    for name, (arg_sorts, result) in sorted(self.funcs.items()):
        keys = list(itertools.product(*(self.domain(s) for s in arg_sorts)))
        res_dom = self.domain(result)
        tables = [dict(zip(keys, vals))
                  for vals in itertools.product(res_dom, repeat=len(keys))]
        out.append((name, tables))
    return out


def _product_interpretations(self):
    """Reference for ``_Context.interpretations``: every interpretation of
    the product, each of weight 1."""
    for sizes in self._size_vectors():
        self._sizes = dict(zip(self._uninterp, sizes))
        self._domains = {}
        self._var_domains = [None] * len(self.formulas)
        choices = _choices(self)
        names = [n for n, _ in choices]
        for combo in itertools.product(*(c for _, c in choices)):
            yield dict(zip(names, combo)), 1


def _outcome(call):
    try:
        out = call()
    except SearchSpaceError as e:
        return ("refused", str(e))
    if isinstance(out, oracle.Verdict):
        return (out.ok, out.witness, out.skipped)
    return out


def _names_an_element(witness):
    """Whether a witness gives a value of an uninterpreted sort to some
    constant or function table entry."""
    values = [v for val in witness.values()
              for v in (val.values() if isinstance(val, dict) else (val,))]
    return any(isinstance(v, tuple) and v[0] == "e" for v in values)


def _assert_twins(monkeypatch, calls):
    """Each oracle call gives the same verdict, witness, skip count, model
    or refusal with the shipped oracle as with the naive one: the
    three-valued product search over every interpretation of the product.
    The one allowed difference is documented at Verdict.skipped: on a
    failing verdict whose witness gives some cell an element of an
    uninterpreted sort, the skip count is weighted, and at least the
    naive one."""
    fast = [_outcome(c) for c in calls]
    with monkeypatch.context() as m:
        m.setattr(oracle._Context, "sat", _product_sat)
        m.setattr(oracle._Context, "interpretations", _product_interpretations)
        slow = [_outcome(c) for c in calls]
    assert len(fast) == len(slow)
    for i, (f, s) in enumerate(zip(fast, slow)):
        if isinstance(f, tuple) and len(f) == 3 and f[0] is False and \
                f[:2] == s[:2] and _names_an_element(f[1]):
            assert f[2] >= s[2], f"call {i}: {f} != {s}"
        else:
            assert f == s, f"call {i}: {f} != {s}"
    return fast


def _both_ways(sig, store, f, g, bounds):
    return [partial(equiv_exists, sig, store, f, g, bounds),
            partial(implies_exists, sig, store, f, g, bounds),
            partial(implies_exists, sig, store, g, f, bounds),
            partial(find_model, sig, store, g, bounds)]


def test_backtracking_matches_product_search_on_euf(monkeypatch):
    rng = random.Random(6)
    calls = []
    for _ in range(300):
        sig, store, formula, _ = random_euf_instance(rng)
        half = mk_formula(store, formula.literals[:len(formula.literals) // 2])
        for bounds in (Bounds(), Bounds(universe=2)):
            calls.append(partial(find_model, sig, store, formula, bounds))
            for other in (qel(sig, store, formula), half):
                calls += _both_ways(sig, store, formula, other, bounds)
    outcomes = _assert_twins(monkeypatch, calls)
    assert any(isinstance(o, tuple) and o[0] is False for o in outcomes)


def test_backtracking_matches_product_search_on_projections(monkeypatch):
    rng = random.Random(6)
    calls = []
    for _ in range(200):
        sig, store, formula = random_projection_instance(rng)
        bounds = Bounds(universe=2)
        calls.append(partial(find_model, sig, store, formula, bounds))
        model = calls[-1]()
        if model is not None:
            out = mbp(sig, store, formula, formula.free_vars, model).formula
            calls += _both_ways(sig, store, formula, out, bounds)
    outcomes = _assert_twins(monkeypatch, calls)
    assert any(isinstance(o, tuple) and o[0] is False for o in outcomes)


def _random_int_instance(rng):
    """Random conjunction over Int variables x, y, z, a kept k and
    f : Int -> Int, whose sums and differences often leave a small window,
    as does the numeral 2 at (-1, 1): f(2) is then undefined."""
    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return rng.choice(("x", "y", "z", "k", "0", "1", "2"))
        if roll < 0.8:
            return f"({rng.choice('+-')} {term(depth - 1)} {term(depth - 1)})"
        return f"(f {term(depth - 1)})"
    asserts = [f"(assert ({rng.choice(('=', 'distinct', '<'))} "
               f"{term(2)} {term(2)}))" for _ in range(rng.randint(1, 4))]
    prob = parse_problem("(declare-const k Int) (declare-fun f (Int) Int) "
                         "(declare-var x Int) (declare-var y Int) "
                         "(declare-var z Int)" + "".join(asserts))
    return prob.sig, prob.store, prob.formula


def test_backtracking_matches_product_search_on_arithmetic(monkeypatch):
    # a literal that fails decides its assignment, whatever the order of the
    # literals and wherever a term leaves the window or the domains
    calls = []
    for text in (
            # z != z fails on every assignment; x + 1 leaves the window
            # (-1, 3) at x = 3
            "(declare-var x Int) (declare-var y Int) (declare-var z Int)"
            "(assert (distinct z z)) (assert (= y (+ x 1)))",
            # y != y fails on every assignment; f is applied to (fld nil),
            # that is 0, outside the window (3, 7), where f has no table entry
            "(declare-datatype P ((mk (fld Int)) (nil)))"
            "(declare-fun f (Int) Int) (declare-var x P) (declare-var y Int)"
            "(assert (distinct y y)) (assert (= (f (fld x)) 5))"):
        prob = parse_problem(text)
        calls.append(partial(equiv_exists, prob.sig, prob.store, prob.formula,
                             mk_formula(prob.store, [])))
    # z + 1 leaves the window (0, 2) at z = 2, in either literal order
    for order in ("(assert (distinct z z)) (assert (= y (+ z 1)))",
                  "(assert (= y (+ z 1))) (assert (distinct z z))"):
        prob = parse_problem("(declare-var y Int) (declare-var z Int)" + order)
        calls.append(partial(equiv_exists, prob.sig, prob.store, prob.formula,
                             prob.formula, Bounds(int_window=(0, 2))))
    # (f (fld nil)) is undefined at the window (3, 7): the assignment
    # x = nil, y = 5 is undefined, and decides nothing
    prob = parse_problem(
        "(declare-datatype P ((mk (fld Int)) (nil)))"
        "(declare-fun f (Int) Int) (declare-var x P) (declare-var y Int)"
        "(assert (= y 5)) (assert (= (f (fld x)) y))")
    calls.append(partial(equiv_exists, prob.sig, prob.store, prob.formula,
                         mk_formula(prob.store, []),
                         Bounds(int_window=(3, 7))))
    rng = random.Random(6)
    pairs = []  # indices of equiv_exists(f, g) and equiv_exists(reversed f, g)
    for _ in range(120):
        sig, store, formula = _random_int_instance(rng)
        lits = formula.literals
        half = mk_formula(store, lits[:len(lits) // 2])
        backwards = mk_formula(store, lits[::-1])
        for bounds in (Bounds(int_window=(0, 2)), Bounds(int_window=(-1, 1))):
            start = len(calls)
            calls.append(partial(find_model, sig, store, formula, bounds))
            for other in (half, backwards):
                calls += _both_ways(sig, store, formula, other, bounds)
            calls.append(partial(equiv_exists, sig, store, backwards, half,
                                 bounds))
            pairs.append((start + 1, len(calls) - 1))
    outcomes = _assert_twins(monkeypatch, calls)
    assert [(ok, n) for ok, _, n in outcomes[:2]] == [(False, 0)] * 2
    assert [(ok, n) for ok, _, n in outcomes[2:4]] == [(True, 0)] * 2
    # f misses 5 on 4 ** 5 of its 5 ** 5 tables
    assert outcomes[4] == (True, None, 1024)
    for i, j in pairs:
        assert outcomes[i][::2] == outcomes[j][::2], (i, j)
    verdicts = [o for o in outcomes if isinstance(o, tuple) and len(o) == 3]
    assert any(ok is False for ok, _, _ in verdicts[5:])
    assert any(skipped for _, _, skipped in verdicts)


def _cli_check(run):
    """A check at the CLI's bounds: the first that the oracle accepts."""
    def call():
        for bounds in (Bounds(), Bounds(universe=2, int_pad=1)):
            try:
                return run(bounds)
            except SearchSpaceError:
                pass
        raise SearchSpaceError("refused at every bound")
    return call


QEL_DEMOS = sorted(p.name for p in DEMOS.glob("*.smt2")
                   if p.read_text().rstrip().endswith("(qel)"))


@pytest.mark.parametrize("name", QEL_DEMOS)
def test_backtracking_matches_product_search_on_qel_demos(monkeypatch, name):
    prob = load(name)
    sig, store, formula = prob.sig, prob.store, prob.formula
    out = qel(sig, store, formula)
    (ok, _, skipped), = _assert_twins(monkeypatch, [_cli_check(
        lambda b: equiv_exists(sig, store, formula, out, b))])
    assert ok
    # k + 1 leaves the window when k is its top value
    assert skipped == (3125 if name == "read_chain.smt2" else 0)


def test_backtracking_matches_product_search_on_mbp_demo(monkeypatch):
    outs = []
    for model_file in sorted(DEMOS.glob("nested_pair_array*.model")):
        prob, model = load_mbp(model=model_file.name)
        sig, store, formula = prob.sig, prob.store, prob.formula
        outs.append(mbp(sig, store, formula, formula.free_vars, model).formula)
    # the output is the same under either demo model, and so is its check
    assert len({formula_to_sexpr(out) for out in outs}) == 1
    (ok, _, _), = _assert_twins(monkeypatch, [_cli_check(
        lambda b: implies_exists(sig, store, outs[-1], formula, b))])
    assert ok


# -- interpretations up to a renaming of the uninterpreted elements -----------

def test_renaming_yields_54_of_260_interpretations():
    prob = parse_problem("(declare-sort U 0) (declare-const c0 U)"
                         " (declare-const c1 U) (declare-fun f (U) U)"
                         " (assert (= (f c0) c1))")
    ctx = oracle._Context(prob.sig, prob.store, (prob.formula,), Bounds())
    shipped = list(ctx.interpretations())
    full = list(_product_interpretations(ctx))
    # universes 1, 2 and 3: 1 + 2 ** 2 * 2 ** 2 + 3 ** 2 * 3 ** 3
    assert (len(shipped), sum(w for _, w in shipped)) == (54, 260)
    assert len(full) == 260
    # in product order, and each one of the product
    at = [full.index((interp, 1)) for interp, _ in shipped]
    assert at == sorted(at)
    # the one interpretation at universe 1; then c0 = e0 at universe 2
    # stands for c0 = e1 too
    e0, e1 = Elem("U", 0), Elem("U", 1)
    assert shipped[:2] == [({"c0": e0, "c1": e0, "f": {(e0,): e0}}, 1),
                           ({"c0": e0, "c1": e0, "f": {(e0,): e0, (e1,): e0}}, 2)]


@pytest.mark.parametrize("text, universe", [
    # no constant or function: one empty interpretation per size vector
    ("(declare-sort U 0) (declare-var x U) (declare-var y U)"
     " (assert (= x y))", 3),
    ("(declare-var x Int) (assert (= x 1))", 3),
    # nothing renames: one element; cells of Int values only; element 0
    # of V pinned by the selector's default at universe 2
    ("(declare-sort U 0) (declare-const c0 U) (declare-const c1 U)"
     " (declare-fun f (U) U) (assert (= (f c0) c1))", 1),
    ("(declare-sort U 0) (declare-fun g (U) Int) (declare-const k Int)"
     " (declare-var z U) (declare-var y Int) (assert (= y (+ k (g z))))", 3),
    ("(declare-sort V 0) (declare-datatype R ((mk (fld V)) (unit)))"
     " (declare-const e0 V) (declare-var x V)"
     " (assert (= x (fld unit))) (assert (= e0 x))", 2),
], ids=["no-symbols", "no-symbols-int", "universe-1", "int-cells",
        "pinned-element"])
def test_walk_yields_the_product_where_nothing_renames(text, universe):
    prob = parse_problem(text)
    ctx = oracle._Context(prob.sig, prob.store, (prob.formula,),
                          Bounds(universe=universe, int_window=(0, 2)))
    shipped = list(ctx.interpretations())
    assert shipped == list(_product_interpretations(ctx))
    if not ctx.consts and not ctx.funcs:
        assert shipped == [({}, 1)] * len(list(ctx._size_vectors()))


def test_selector_default_pins_element_0(monkeypatch):
    # (fld unit) is the default element 0 of V: e0 = x holds only when e0
    # is element 0, which no renaming may move
    prob = parse_problem("(declare-sort V 0)"
                         " (declare-datatype R ((mk (fld V)) (unit)))"
                         " (declare-const e0 V) (declare-var x V)"
                         " (assert (= x (fld unit))) (assert (= e0 x))")
    true = mk_formula(prob.store, [])
    calls = [partial(equiv_exists, prob.sig, prob.store, prob.formula, true,
                     Bounds(universe=2)),
             partial(find_model, prob.sig, prob.store, prob.formula,
                     Bounds(universe=2))]
    verdict, model = _assert_twins(monkeypatch, calls)
    assert verdict == (False, {"e0": Elem("V", 1)}, 0)
    assert model.constants["e0"] == model.constants["x"]


def test_witness_sets_a_constant_to_a_new_element(monkeypatch):
    prob = parse_problem("(declare-sort U 0) (declare-const c0 U)"
                         " (declare-const c1 U) (declare-fun f (U) U)"
                         " (assert (= (f c0) (f c1)))")
    true = mk_formula(prob.store, [])
    calls = [partial(implies_exists, prob.sig, prob.store, true, prob.formula,
                     bounds) for bounds in (Bounds(), Bounds(universe=2))]
    outcomes = _assert_twins(monkeypatch, calls)
    e0, e1 = Elem("U", 0), Elem("U", 1)
    # c0 = e0 stands for every element, c1 = e1 for every other one
    assert outcomes == [(False, {"c0": e0, "c1": e1,
                                 "f": {(e0,): e0, (e1,): e1}}, 0)] * 2


def test_failing_skip_count_is_weighted(monkeypatch):
    # k + 1 leaves the window at k = 1; the first failing interpretation is
    # c0 = e0, c1 = e1, k = 0 at universe 2, after the undefined
    # c0 = c1 = e0, k = 1 at universes 1 and 2.  The latter at universe 2
    # stands for c0 = c1 = e1, k = 1 too, which comes after the witness
    prob = parse_problem("(declare-sort U 0) (declare-const c0 U)"
                         " (declare-const c1 U) (declare-const k Int)"
                         " (declare-var y Int) (assert (= y (+ k 1)))")
    both = mk_formula(prob.store, list(prob.formula.literals) + [Literal(
        "eq", prob.store.mk_const("c0"), prob.store.mk_const("c1"))])
    call = partial(equiv_exists, prob.sig, prob.store, prob.formula, both,
                   Bounds(universe=2, int_window=(0, 1)))
    witness = {"c0": Elem("U", 0), "c1": Elem("U", 1), "k": 0}
    assert _outcome(call) == (False, witness, 3)
    with monkeypatch.context() as m:
        m.setattr(oracle._Context, "interpretations", _product_interpretations)
        assert _outcome(call) == (False, witness, 2)


# -- the oracle's compiled evaluators -------------------------------------------

def _evaluators(ctx):
    """Each planned term's compiled evaluator, by term id."""
    evs = {}
    for _, levels in ctx.plans:
        for entries, rest in levels:
            evs.update(rest)
            for pairs, *_ in entries:
                evs.update(pairs)
    return evs


def _value(evs, term, interp, args):
    """term valued by its evaluator in evs, its children taking args."""
    val = {c.id: a for c, a in zip(term.children, args)}
    return evs[term.id](val, interp, {})


def test_evaluators_agree_on_every_datatype_symbol():
    """Both evaluators read what a constructor, tester or selector does from
    the signature's datatype table: on every value of the oracle's domain
    they agree on each of them, a selector of the other constructor too."""
    sig = parse_problem(
        "(declare-sort U 0)\n"
        "(declare-datatype D ((mk (num Int) (flag Bool) (elt U)) (none)))\n"
        "(declare-const x D) (declare-const n Int) (declare-const b Bool)\n"
        "(declare-const e U)").sig
    store = TermStore(sig)
    x, n, b, e = (store.mk_const(s) for s in "xnbe")
    terms = [store.mk_app("mk", (n, b, e)), store.mk_const("none")] + \
        [store.mk_app(f, (x,))
         for f in ("is-mk", "is-none", "num", "flag", "elt")]
    assert {t.label for t in terms} == set(sig.datatype)
    formula = mk_formula(store, [Literal("eq", t, t) for t in terms])
    ctx = oracle._Context(sig, store, (formula,), Bounds(universe=2))
    evs = _evaluators(ctx)
    values = ctx.domain(sig.sorts["D"])
    assert len(values) == 3 * 2 * 2 + 1  # Int window (-1, 1), U of two
    first = [ctx.domain(t.sort)[0] for t in (n, b, e)]
    for v in values:
        # mk(n, b, e) is v itself when v is an mk value
        interp = dict(zip("nbe", v.args if v.ctor == "mk" else first), x=v)
        model = Model(interp, {}, {"U": 2})
        for t in terms:
            got = _value(evs, t, interp, [interp[c.label] for c in t.children])
            assert got is eval_term(model, sig, t), (v, term_to_sexpr(t))
        assert _value(evs, terms[0], interp, [interp[c] for c in "nbe"]) \
            is (v if v.ctor == "mk" else AdtVal("mk", tuple(first)))


def test_evaluators_agree_on_every_int_builtin():
    """On every pair of values of the oracle's Int window, both evaluators
    agree on each arithmetic symbol, comparison, ueq and distinct term
    wherever the oracle's value is defined; the oracle's value is undefined
    only where arithmetic leaves the window.  Both read model.OPS, so the
    oracle's value is also checked against the reference _apply here."""
    sig = parse_problem("(declare-const m Int) (declare-const n Int)").sig
    store = TermStore(sig)
    m, n = store.mk_const("m"), store.mk_const("n")
    terms = [store.mk_app(f, (m, n)) for f in
             ("+", "-", "*", ">", "<", ">=", "<=", "ueq", "distinct")]
    formula = mk_formula(store, [Literal("eq", t, t) for t in terms])
    ctx = oracle._Context(sig, store, (formula,), Bounds(int_window=(-2, 3)))
    evs = _evaluators(ctx)
    window = ctx.domain(sig.sorts["Int"])
    assert window == list(range(-2, 4))
    undefined = set()
    for a, b in itertools.product(window, repeat=2):
        interp = {"m": a, "n": b}
        model = Model(interp, {}, {})
        for t in terms:
            got = _value(evs, t, interp, [a, b])
            ref = _apply(ctx, t, [a, b], interp, {})
            assert (type(got), got) == (type(ref), ref), (a, b, term_to_sexpr(t))
            if got is oracle._UNDEFINED:
                assert not -2 <= eval_term(model, sig, t) <= 3
                undefined.add(t.label)
                continue
            want = eval_term(model, sig, t)
            assert (type(got), got) == (type(want), want), (a, b, term_to_sexpr(t))
    assert undefined == {"+", "-", "*"}


BOOL_BUILTINS_PROBLEM = (
    "(declare-sort U 0) (declare-fun f (U) U) (declare-fun g (Bool U) U)"
    " (declare-fun p (Bool Bool) Bool) (declare-const a U) (declare-const b U)"
    " (declare-const q Bool)")


def _bool_builtin_term(store, rnd, sort, depth):
    """A random term of sort U or Bool in which distinct and ueq terms,
    over U or over Bool, stand under the uninterpreted p and g."""
    app = store.mk_app
    if sort == "U":
        if depth == 0 or rnd.random() < 0.25:
            return store.mk_const(rnd.choice("ab"))
        if rnd.random() < 0.3:
            return app("f", (_bool_builtin_term(store, rnd, "U", depth - 1),))
        return app("g", (_bool_builtin_term(store, rnd, "Bool", depth - 1),
                         _bool_builtin_term(store, rnd, "U", depth - 1)))
    if depth == 0 or rnd.random() < 0.15:
        return store.mk_const(rnd.choice(("q", "true", "false")))
    head = rnd.choice(("distinct", "ueq", "p"))
    args = ("Bool", "Bool") if head == "p" else (rnd.choice(("U", "Bool")),) * 2
    return app(head, tuple(_bool_builtin_term(store, rnd, s, depth - 1) for s in args))


@pytest.mark.parametrize("seed", range(6))
def test_distinct_and_ueq_under_functions_match_the_references(seed):
    """Random terms that nest distinct and ueq under uninterpreted Bool
    arguments, valued under random interpretations: the oracle's compiled
    evaluators agree with its reference _apply, and model.eval_term agrees
    with the reference evaluator of conftest, on every subterm."""
    rnd = random.Random(seed)
    sig = parse_problem(BOOL_BUILTINS_PROBLEM).sig
    store = TermStore(sig)
    roots = [store.mk_const("a"), store.mk_const("b")]
    roots += [_bool_builtin_term(store, rnd, rnd.choice(("U", "Bool")), 5)
              for _ in range(10)]
    terms, memo = [], set()
    for root in roots:
        for t in post_order(root, memo):
            memo.add(t.id)
            terms.append(t)
    assert any(t.label in ("p", "g") and c.label in ("distinct", "ueq")
               for t in terms for c in t.children)
    formula = mk_formula(store, [Literal("eq", t, t) for t in roots])
    ctx = oracle._Context(sig, store, (formula,), Bounds(universe=2))
    evs = _evaluators(ctx)
    bools, elems = [False, True], ctx.domain(sig.sorts["U"])
    domains = {"Bool": bools, "U": elems}
    for _ in range(20):
        interp = {"a": rnd.choice(elems), "b": rnd.choice(elems), "q": rnd.choice(bools)}
        for name in "fgp":
            arg_sorts, result = sig.functions[name]
            keys = itertools.product(*(domains[s.name] for s in arg_sorts))
            interp[name] = {k: rnd.choice(domains[result.name]) for k in keys}
        model = Model({n: v for n, v in interp.items() if not isinstance(v, dict)},
                      {n: (v[next(iter(v))], v) for n, v in interp.items()
                       if isinstance(v, dict)}, {"U": 2})
        ref = ref_model(model)
        val, ref_memo = {}, {}
        for t in terms:
            val[t.id] = got = evs[t.id](val, interp, {})
            want = _apply(ctx, t, [val[c.id] for c in t.children], interp, {})
            assert (type(got), got) == (type(want), want), term_to_sexpr(t)
            value = eval_term(model, sig, t)
            assert ref_equal(ref_value(value), ref_eval(ref, sig, t, ref_memo)), \
                term_to_sexpr(t)
            assert value == got, term_to_sexpr(t)


def test_every_compiled_kind_is_undefined_at_an_undefined_argument():
    """Each evaluator of a term with arguments, of every kind and arity,
    gives _UNDEFINED when any one argument is undefined and the others are
    defined."""
    prob = parse_problem(
        "(declare-sort U 0) (declare-fun f (U) U) (declare-fun g (U Int) U)"
        " (declare-fun h (U U Int) Int)"
        " (declare-datatype D ((mk (num Int) (flag Bool) (elt U)) (none)))"
        " (declare-datatype W ((w1 (w Int)) (w2 (wa U) (wb U))))"
        " (declare-const a (Array U Int)) (declare-const b (Array U Int))"
        " (declare-const c U) (declare-const d U) (declare-const k Int)"
        " (declare-const j Int) (declare-const x D)")
    sig, store = prob.sig, TermStore(prob.sig)
    # distinct arguments, so that each position is fed on its own
    a, b, c, d, k, j, x = (store.mk_const(s) for s in "abcdkjx")
    app = store.mk_app
    terms = [app("f", (c,)), app("g", (c, k)), app("h", (c, d, k)),
             *(app(op, (k, j)) for op in
               ("+", "-", "*", ">", "<", ">=", "<=")),
             app("read", (a, c)), app("write", (a, c, k)),
             app("ueq", (c, d)), app("distinct", (k, j)),
             app("mk", (k, store.top, c)), app("w1", (k,)), app("w2", (c, d)),
             app("is-mk", (x,)), app("num", (x,)), app("elt", (x,))]
    formula = mk_formula(store, [Literal("eq", t, t) for t in terms])
    ctx = oracle._Context(sig, store, (formula,),
                          Bounds(universe=1, int_window=(0, 1)))
    evs = _evaluators(ctx)
    interp = next(ctx.interpretations())[0]
    values = {t.id: ctx.domain(t.sort)[0] for t in (a, b, c, d, k, j, x)}
    values[store.top.id] = True
    kinds = set()
    for t in terms:
        args = [values[ch.id] for ch in t.children]
        for pos in range(len(args)):
            got = _value(evs, t, interp, args[:pos] + [oracle._UNDEFINED]
                         + args[pos + 1:])
            assert got is oracle._UNDEFINED, (term_to_sexpr(t), pos)
        kinds.add(t.label)
        assert _value(evs, t, interp, args) is not oracle._UNDEFINED
    assert len(kinds) == len(terms)
