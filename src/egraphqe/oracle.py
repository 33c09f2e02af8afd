"""Brute-force semantic checker over small finite interpretations.

Decides entailment and equivalence of existential closures by enumerating
every interpretation of the shared symbols within given bounds and, per
interpretation, searching assignments for the existential variables.  The
interpretations are enumerated up to renaming: two that differ by a
renaming of the elements of an uninterpreted sort get the same verdict, so
one stands for the others and counts with their number (its weight).  The
first interpretation in product order with a given verdict is always
enumerated, so witnesses and models are those of the full product.  Int,
Bool, array and datatype values are enumerated in full.  The assignment
search backtracks: it binds the variables one at a time in sorted name
order and checks each literal as soon as its last variable is bound
(forward checking), so a failing literal prunes every assignment that
extends the bound prefix.  It visits assignments in the order of the full
product, so the first model it finds is the first model of the product.
Declared variables passed as ``free`` are shared symbols: enumerated with
the interpretation, not closed existentially.  Integers range over a window
derived from the numerals in the formulas.  Evaluation is three-valued
(Kleene), by one rule: a term with an undefined argument is undefined.
Undefinedness starts where a value leaves the enumerated domains
(arithmetic out of the window, a function applied outside its table), and a
literal with an undefined side is undefined.  An assignment fails when some
literal fails and holds when all hold; a formula holds when some assignment
holds and fails when all fail; else each is undefined, whatever the order
of the literals.  An interpretation on which the comparison is undefined is
skipped (a soundness note, reported in the verdict).  Deliberately
independent of the egraph machinery: plain evaluation over the model's
values (ints, bools, and interned elements, arrays and datatype values),
built by the model's constructors, so find_model returns them as they are
and any two compare by identity, however deep.  What the builtins compute
is shared with the model evaluator, one table (model.OPS) that each
context compiles into its evaluators, and so are the declarations: the
symbols enumerated are the variables and the signature's uninterpreted
symbols, and constructors, testers and selectors are told apart by its
datatype table.  Each formula's subterms are listed once, by iterative
post-order walks, and each distinct subterm is valued once per binding of
its last variable, so terms of any depth are checked.  What a term's symbol
does is decided once per context, when the term is compiled into an
evaluator (closure compilation: Feeley & Lapalme, Computer Languages 1987):
a variable or a symbol of the interpretation is read, a numeral or Boolean
is a constant, and every other symbol is one function of its arguments'
values, so the search tests no symbol's name.  Domains, each sort's default
and the variables' domains of each formula are built once per universe-size
vector or context, not per interpretation.  Sorts are walked with an
explicit stack and sized by saturating products, so sorts of any depth are
sized, and their domains and defaults built, without recursion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from .model import OPS, AdtVal, ArrayVal, Elem, Model, default_values, mk_array
from .terms import (Formula, Sort, SortKind, is_numeral, post_order,
                    sorts_within)


class SearchSpaceError(Exception):
    pass


# the value of a term that leaves the enumerated domains
_UNDEFINED = object()

@dataclass
class Bounds:
    universe: int = 3
    int_window: Optional[tuple] = None  # (lo, hi) inclusive
    int_pad: int = 2                    # derived window: numerals +- pad
    max_cost: int = 20_000_000          # interpretations x assignments guard

    def __post_init__(self):
        # an empty universe or window enumerates no interpretation, and
        # every check would pass vacuously
        if self.universe < 1:
            raise ValueError(f"universe must be at least 1, got {self.universe}")
        if self.int_window is not None and \
                self.int_window[0] > self.int_window[1]:
            raise ValueError(f"empty int_window {self.int_window}")


@dataclass
class Verdict:
    """ok: whether the comparison holds on every interpretation on which it
    is defined.  witness: the first failing interpretation in product
    order.  skipped: how many interpretations the comparison is undefined
    on, each enumerated one counted with its weight
    (_Context.interpretations).  On a passing verdict that is the number in
    the full product.  On a failing one it is the weighted count of those
    enumerated before the witness, which may include renamings that come
    after it in product order; it is exactly the number before the witness
    when no constant or function value lies in an uninterpreted sort."""
    ok: bool
    witness: Optional[dict] = None
    skipped: int = 0

    def __bool__(self):
        return self.ok


def equiv_exists(sig, store, f1: Formula, f2: Formula,
                 bounds: Bounds = None, free=frozenset()) -> Verdict:
    """Existential closures agree on every enumerated interpretation.  The
    declared variables in free are shared symbols, not closed."""
    return _compare(sig, store, f1, f2, bounds or Bounds(), True, free)


def implies_exists(sig, store, f1: Formula, f2: Formula,
                   bounds: Bounds = None, free=frozenset()) -> Verdict:
    """Existential closure of f1 entails that of f2 on every interpretation.
    The declared variables in free are shared symbols, not closed."""
    return _compare(sig, store, f1, f2, bounds or Bounds(), False, free)


def _compare(sig, store, f1, f2, bounds, both_ways, free):
    unknown = set(free) - sig.variables.keys()
    if unknown:
        raise ValueError(f"free names no declared variable: {sorted(unknown)}")
    ctx = _Context(sig, store, (f1, f2), bounds, free)
    skipped = 0
    for interp, weight in ctx.interpretations():
        s1 = ctx.sat(0, interp)
        if s1 is False and not both_ways:
            continue  # a false premise decides the implication
        # an undefined side leaves an equivalence undefined, but not an
        # implication whose conclusion holds
        s2 = ctx.sat(1, interp) if s1 is not None or not both_ways else None
        if s2 is True and not both_ways:
            continue
        if s1 is None or s2 is None:
            skipped += weight
        elif s1 != s2:
            return Verdict(False, witness=dict(interp), skipped=skipped)
    return Verdict(True, skipped=skipped)


def find_model(sig, store, formula: Formula, bounds: Bounds = None):
    """First enumerated model of the conjunction (variables included), as a
    Model usable by the evaluator; None when unsatisfiable in bounds."""
    bounds = bounds or Bounds()
    ctx = _Context(sig, store, (formula,), bounds)
    for interp, _ in ctx.interpretations():
        assign = ctx.sat(0, interp, want_assignment=True)
        if assign is None:
            continue
        constants = {}
        functions = {}
        for name, val in itertools.chain(interp.items(), assign.items()):
            if isinstance(val, dict):
                functions[name] = (next(iter(val.values())), val)
            else:
                constants[name] = val
        return Model(constants, functions, dict(ctx._sizes))
    return None


# -- internals ----------------------------------------------------------------

class _Context:
    def __init__(self, sig, store, formulas, bounds, free=frozenset()):
        self.sig = sig
        self.store = store
        self.bounds = bounds
        self.formulas = formulas
        self.variables = sig.variables.keys() - free
        self.terms = [_subterms(f) for f in formulas]
        self.window = bounds.int_window or self._derive_window()
        plans = [_plan(f, terms, self.variables)
                 for f, terms in zip(formulas, self.terms)]
        self.consts, self.funcs, self.vars_per_formula = self._symbols(plans)
        self.sorts_used = self._sorts_used()
        self._uninterp = sorted(name for name, s in self.sorts_used.items()
                                if s.kind is SortKind.UNINTERPRETED)
        self._sizes = {name: bounds.universe for name in self._uninterp}
        within = sorts_within([*self.sorts_used.values(),
                               *(t.sort for terms in self.terms for t in terms)])
        # element 0 of a sort that is an array's value or a datatype's field
        # is named by the arrays' pinned default and the selectors' defaults,
        # so it is never renamed
        self._pinned = {s.name for sort in within.values()
                        for s in _defaulted(sort) if s.name in self._sizes}
        self._defaults = default_values(within)
        evs = {t.id: self._compile(t) for terms in self.terms for t in terms}
        self.plans = [_compiled(plan, evs) for plan in plans]
        # per size vector: each sort's domain by name, and per formula its
        # variables' domains in binding order (sat)
        self._domains = {}
        self._var_domains = [None] * len(formulas)
        self._guard()

    def _derive_window(self):
        nums = {int(t.label) for terms in self.terms for t in terms
                if is_numeral(t.label)}
        pad = max(1, self.bounds.int_pad)
        if not nums:
            return (-1, pad - 1)
        return (min(nums) - pad, max(nums) + pad)

    def _symbols(self, plans):
        consts = {}
        funcs = {}
        for terms in self.terms:
            for term in terms:
                self._scan(term, consts, funcs)
        vars_per = [{n: self.sig.variables[n] for n in plan.names}
                    for plan in plans]
        return consts, funcs, vars_per

    def _scan(self, term, consts, funcs):
        label = term.label
        if label in self.variables:
            return
        if label in self.sig.variables:  # free: a shared symbol
            consts.setdefault(label, self.sig.variables[label])
        elif label in self.sig.uninterpreted:
            arg_sorts, result = self.sig.functions[label]
            if arg_sorts:
                funcs.setdefault(label, (arg_sorts, result))
            else:
                consts.setdefault(label, result)

    def _sorts_used(self):
        """The sorts of the enumerated symbols and every sort inside them,
        by name, each after the sorts inside it (sorts_within)."""
        roots = list(self.consts.values())
        for args, res in self.funcs.values():
            roots += (*args, res)
        for fvars in self.vars_per_formula:
            roots += fvars.values()
        return sorts_within(roots)

    def domain(self, sort: Sort) -> list:
        """The values of sort, built once per size vector.  The sorts inside
        it are built first, in the order sorts_within gives, so no sort's
        domain recurses into another's, however deep the nesting."""
        hit = self._domains.get(sort.name)
        if hit is None:
            for inner in sorts_within([sort]).values():
                if inner.name not in self._domains:
                    self._domains[inner.name] = self._build_domain(inner)
            hit = self._domains[sort.name]
        return hit

    def _build_domain(self, sort: Sort) -> list:
        """The values of sort, the sorts inside it built."""
        doms = self._domains
        if sort.kind is SortKind.BOOL:
            dom = [False, True]
        elif sort.kind is SortKind.INT:
            lo, hi = self.window
            dom = list(range(lo, hi + 1))
        elif sort.kind is SortKind.UNINTERPRETED:
            dom = [Elem(sort.name, i) for i in range(self._sizes[sort.name])]
        elif sort.kind is SortKind.ARRAY:
            idx = doms[sort.index.name]
            val = doms[sort.value.name]
            # default pinned to the first value: over a fully enumerated index
            # domain each function then has exactly one canonical form
            dom = [mk_array(val[0], zip(idx, choice))
                   for choice in itertools.product(val, repeat=len(idx))]
        elif sort.kind is SortKind.ADT:
            dom = []
            for ctor in sort.constructors:
                arg_doms = [doms[s.name] for _, s in ctor.selectors]
                for args in itertools.product(*arg_doms):
                    dom.append(AdtVal(ctor.name, args))
        else:
            raise SearchSpaceError(f"cannot enumerate sort {sort}")
        return dom

    def _domain_size(self, sort: Sort, size, cap) -> int:
        """The size of sort's domain, saturated at cap; size holds the
        sizes of the sorts inside it."""
        if sort.kind is SortKind.BOOL:
            return 2
        if sort.kind is SortKind.INT:
            lo, hi = self.window
            return min(cap, hi - lo + 1)
        if sort.kind is SortKind.UNINTERPRETED:
            return min(cap, self.bounds.universe)
        if sort.kind is SortKind.ARRAY:
            return _capped_pow(size[sort.value.name], size[sort.index.name],
                               cap)
        if sort.kind is SortKind.ADT:
            total = 0
            for ctor in sort.constructors:
                n = 1
                for _, s in ctor.selectors:
                    n = min(cap, n * size[s.name])
                total = min(cap, total + n)
            return total
        raise SearchSpaceError(f"cannot enumerate sort {sort}")

    def _guard(self):
        # worst case: every uninterpreted sort at its full size, times the
        # number of size vectors enumerated.  Every size is at least 1, so
        # saturating each product at max_cost + 1 keeps the verdict and
        # keeps the numbers small
        cap = self.bounds.max_cost + 1
        size = {}
        for name, sort in self.sorts_used.items():  # inner sorts first
            size[name] = self._domain_size(sort, size, cap)
        total = _capped_pow(self.bounds.universe, len(self._uninterp), cap)
        for sort in self.consts.values():
            total = min(cap, total * size[sort.name])
        for arg_sorts, result in self.funcs.values():
            keys = 1
            for s in arg_sorts:
                keys = min(cap, keys * size[s.name])
            total = min(cap, total * _capped_pow(size[result.name], keys, cap))
        assigns = 0
        for fvars in self.vars_per_formula:
            a = 1
            for s in fvars.values():
                a = min(cap, a * size[s.name])
            assigns = min(cap, assigns + a)
        if total * max(1, assigns) > self.bounds.max_cost:
            raise SearchSpaceError(
                f"search space too large: {_at_most(total, cap)} "
                f"interpretations x {_at_most(assigns, cap)} assignments "
                f"exceeds {self.bounds.max_cost}")

    def _size_vectors(self):
        return itertools.product(range(1, self.bounds.universe + 1),
                                 repeat=len(self._uninterp))

    def interpretations(self):
        """Pairs (interpretation, weight), over every universe-size vector
        up to the bound (so one-element universes are covered as well), in
        product order.  The interpretations are enumerated up to a renaming
        of the elements (_up_to_renaming), and the weight is the number of
        interpretations of the product that the one yielded stands for, so
        the weights sum to the size of the product."""
        for sizes in self._size_vectors():
            self._sizes = dict(zip(self._uninterp, sizes))
            self._domains = {}
            self._var_domains = [None] * len(self.formulas)
            yield from _up_to_renaming(*self._cells())

    def _cells(self):
        """The cells of an interpretation in product order: the constants,
        then each function's table entries in key order, constants and
        functions by name.  Elements of the uninterpreted sorts are numbered
        one bit each.  A cell is (value domain, mask of the elements in its
        key, per value the mask of the elements in it, whether it can
        rename: its value sort is uninterpreted, of two or more elements).
        Returned with the layout that puts the cells' values together as an
        interpretation, and the mask of the pinned elements."""
        first = {}
        n = 0
        for name in self._uninterp:
            first[name] = n
            n += self._sizes[name]
        masks = {}
        layout = []
        cells = []

        def add(sort, key_mask):
            dom = self.domain(sort)
            if sort.name not in masks:
                masks[sort.name] = [_elements(v, first) for v in dom]
            renames = sort.kind is SortKind.UNINTERPRETED and len(dom) > 1
            cells.append((dom, key_mask, masks[sort.name], renames))

        for name, sort in sorted(self.consts.items()):
            layout.append((name, None, len(cells)))
            add(sort, 0)
        for name, (arg_sorts, result) in sorted(self.funcs.items()):
            keys = list(itertools.product(*(self.domain(s) for s in arg_sorts)))
            layout.append((name, keys, len(cells)))
            for key in keys:
                key_mask = 0
                for arg in key:
                    key_mask |= _elements(arg, first)
                add(result, key_mask)
        pinned = 0
        for name in self._pinned:
            pinned |= 1 << first[name]
        return layout, cells, pinned

    def sat(self, idx, interp, want_assignment=False):
        """Whether formula idx holds under interp for some assignment of its
        variables: True, False, or None when it is undefined, that is, no
        assignment holds and some assignment is undefined (with
        want_assignment: the first assignment that holds, or None).
        Depth-first over the variables in plan order, without recursion:
        after names[d] is bound to the next value of its domain, level d + 1
        is checked, and the search backtracks when a literal fails.  An
        undefined prefix is searched only until an assignment is found
        undefined: no extension of it can hold, and the formula is then
        undefined at best.  Assignments are tried in itertools.product
        order.  The variables' domains are listed once per size vector."""
        names, levels = self.plans[idx]
        doms = self._var_domains[idx]
        if doms is None:
            fvars = self.vars_per_formula[idx]
            doms = self._var_domains[idx] = [self.domain(fvars[n])
                                             for n in names]
        assign = {}
        val = {}
        found = assign if want_assignment else True
        # set once some assignment is undefined: the formula is then at best
        # undefined, and an undefined prefix is pruned like a failing one;
        # from the start when only an assignment that holds is wanted
        undefined = want_assignment
        check = self._check
        outcome = check(levels[0], val, interp, assign)
        if outcome is False or (outcome is None and undefined):
            return None if undefined else False
        if not names:
            return found if outcome else None
        last = len(names) - 1
        pos = [0] * len(names)  # per depth, the next domain index to try
        # per depth d, the outcome of levels 0..d: True, or None (undefined)
        holds = [outcome] + [None] * last
        d = 0
        while d >= 0:
            i = pos[d]
            if i == len(doms[d]):
                pos[d] = 0  # unbind names[d]: its next binding starts over
                d -= 1
                continue
            pos[d] = i + 1
            assign[names[d]] = doms[d][i]
            outcome = check(levels[d + 1], val, interp, assign)
            if outcome is False:
                continue
            outcome = holds[d] and outcome
            if outcome is None and undefined:
                continue
            if d < last:
                d += 1
                holds[d] = outcome
            elif outcome:
                return found
            else:
                undefined = True
        return None if undefined else False

    @staticmethod
    def _check(level, val, interp, assign):
        """Value the level's terms by their evaluators and check its
        literals, in formula order: False as soon as one fails, else True
        when every one holds and None when some side is undefined."""
        entries, rest = level
        outcome = True
        for evs, diseq, lhs, rhs in entries:
            for tid, ev in evs:
                val[tid] = ev(val, interp, assign)
            a, b = val[lhs], val[rhs]
            if a is _UNDEFINED or b is _UNDEFINED:
                outcome = None
            elif (a == b) is diseq:
                return False
        for tid, ev in rest:
            val[tid] = ev(val, interp, assign)
        return outcome

    def _compile(self, term):
        """The evaluator of term: ev(val, interp, assign) is its value, val
        holding its children's values by id.  What the term's symbol does
        is decided here, once per context.  A variable is read from assign,
        a constant or function table of the interpretation from interp, and
        a numeral, true or false is a constant.  Every other symbol, a
        builtin or a datatype symbol, is a function of its arguments'
        values, undefined when an argument is (_strict): a builtin is its
        entry in model.OPS, + - * undefined where they leave the window,
        and a selector of the other constructor gives its field sort's
        default."""
        label = term.label
        ids = [c.id for c in term.children]
        if label in self.variables:
            return lambda val, interp, assign: assign[label]
        if label in self.consts:
            return lambda val, interp, assign: interp[label]
        if label in self.funcs:
            return _table(label, ids)
        if is_numeral(label) or label in ("true", "false"):
            value = int(label) if is_numeral(label) else label == "true"
            return lambda val, interp, assign: value
        op = OPS.get(label)
        if op is not None:
            if label in ("+", "-", "*"):
                op = _windowed(op, *self.window)
            return _strict(op, ids)
        kind, ctor, i = self.sig.datatype[label]
        name = ctor.name
        if kind == "constructor":
            return _strict(lambda *args: AdtVal(name, args), ids)
        if kind == "tester":
            return _strict(lambda v: v.ctor == name, ids)
        default = self._defaults[ctor.selectors[i][1].name]
        return _strict(lambda v: v.args[i] if v.ctor == name else default, ids)


class _Plan(NamedTuple):
    names: list   # the formula's variables, in binding order
    levels: list  # per level, (entries, rest)


def _subterms(formula):
    """The formula's distinct subterms, children before parents."""
    seen = set()
    return [t for lit in formula.literals for t in _new_subterms(lit, seen)]


def _plan(formula, terms, variables) -> _Plan:
    """The search plan of formula, whose subterms are terms.  names are
    its variables (those in variables) in sorted order, the order the
    search binds them.  A term's level is 0 when it has no variable and
    d + 1 when names[d] is its last variable; a literal's level is that of
    its sides.  levels[d] is (entries, rest): per literal of level d in
    formula order, (new, kind, lhs id, rhs id), new being its subterms not
    listed before it; then rest, the level's other terms, which later
    levels need.  Each list runs children before parents, and each term is
    listed once, at its own level, so it is valued as soon as its
    variables are bound, and a literal is checked as soon as its sides are
    valued.  The context compiles the plan (_compiled): each term becomes
    the pair of its id and its evaluator."""
    names = sorted({t.label for t in terms if t.label in variables})
    depth = {name: d + 1 for d, name in enumerate(names)}
    level = {}
    own = [[] for _ in range(len(names) + 1)]
    for t in terms:
        lv = max([depth.get(t.label, 0)] + [level[c.id] for c in t.children])
        level[t.id] = lv
        own[lv].append(t)
    lits = [[] for _ in own]
    for lit in formula.literals:
        lits[max(level[lit.lhs.id], level[lit.rhs.id])].append(lit)
    listed = set()
    levels = []
    for level_terms, level_lits in zip(own, lits):
        # every term of a lower level is listed by now, so a literal of
        # this level yields only terms of this level
        entries = [(list(_new_subterms(lit, listed)), lit.kind,
                    lit.lhs.id, lit.rhs.id) for lit in level_lits]
        rest = [t for t in level_terms if t.id not in listed]
        listed.update(t.id for t in rest)
        levels.append((entries, rest))
    return _Plan(names, levels)


def _new_subterms(lit, seen):
    """The subterms of lit's sides whose ids are not in seen, children
    before parents and left to right; each is entered in seen."""
    for side in (lit.lhs, lit.rhs):
        if side.id not in seen:
            for t in post_order(side, seen):
                seen.add(t.id)
                yield t


def _compiled(plan, evs) -> _Plan:
    """plan with each term replaced by the pair (its id, its evaluator in
    evs), and each literal's kind by whether it is a disequality, so that
    checking a level runs no dispatch on a term or a literal."""
    def pairs(terms):
        return [(t.id, evs[t.id]) for t in terms]
    return _Plan(plan.names, [
        ([(pairs(terms), kind == "diseq", lhs, rhs)
          for terms, kind, lhs, rhs in entries], pairs(rest))
        for entries, rest in plan.levels])


def _strict(op, ids):
    """The evaluator that applies op to the values of the terms ids, and
    is undefined when one of them is.  Arities 1 and 2, most terms', are
    valued without building an argument list."""
    if len(ids) == 1:
        a, = ids

        def ev(val, interp, assign):
            x = val[a]
            return _UNDEFINED if x is _UNDEFINED else op(x)
    elif len(ids) == 2:
        a, b = ids

        def ev(val, interp, assign):
            x = val[a]
            y = val[b]
            return _UNDEFINED if x is _UNDEFINED or y is _UNDEFINED \
                else op(x, y)
    else:
        def ev(val, interp, assign):
            args = [val[i] for i in ids]
            return _UNDEFINED if _UNDEFINED in args else op(*args)
    return ev


def _windowed(op, lo, hi):
    """op, undefined where its value leaves the Int window [lo, hi]."""
    def arith(x, y):
        out = op(x, y)
        return out if lo <= out <= hi else _UNDEFINED
    return arith


def _table(label, ids):
    """The evaluator of an application of the function label: its table's
    entry at the values of the terms ids, undefined where the table has
    none.  An undefined argument is in no key, so it needs no test."""
    return lambda val, interp, assign: \
        interp[label].get(tuple([val[i] for i in ids]), _UNDEFINED)


def _defaulted(sort):
    """The sorts inside sort whose default value its values may hold: an
    array's value sort (each array's default is pinned, see domain) and a
    datatype's field sorts (a selector's default)."""
    if sort.kind is SortKind.ARRAY:
        return [sort.value]
    return [s for ctor in sort.constructors for _, s in ctor.selectors]


def _up_to_renaming(layout, cells, pinned):
    """The interpretations whose cells take the values of cells, up to a
    renaming of the elements of the uninterpreted sorts (the least-number
    heuristic of SEM: Zhang & Zhang, IJCAI 1995), each with its weight.
    An element is mentioned once it appears in an earlier cell's key or
    value, in the cell's own key, or is pinned.  A cell of an uninterpreted
    sort of two or more elements takes only the mentioned elements and the
    first element not mentioned; the latter stands for each of the k
    elements not mentioned, which a renaming that fixes the mentioned ones
    swaps with it, so it multiplies the weight by k.  Every other cell
    takes its whole domain, so a maximal run of such cells is one
    itertools.product step (_run_options).  A renaming preserves every
    verdict, and each interpretation left out has a renamed twin that comes
    earlier in product order, so the first interpretation of the product
    with a given verdict is yielded.  Where no element can be renamed, each
    interpretation of the product is yielded, with weight 1; with no cells,
    the one empty interpretation.  Depth first over the steps with explicit
    stacks, in product order."""
    if not cells:
        yield {}, 1
        return
    steps = []  # per depth: (first cell, end of its cells, options)
    start = 0
    for at, cell in enumerate(cells):
        if cell[3]:
            if start < at:
                steps.append((start, at,
                              _run_options(cells[start:at], False)))
            steps.append((at, at + 1, partial(_options, cell)))
            start = at + 1
    if start < len(cells):
        steps.append((start, len(cells), _run_options(cells[start:], True)))
    n = len(steps)
    values = [None] * len(cells)
    options = [steps[0][2](pinned)] + [None] * (n - 1)
    weights = [1] * n  # per depth, the weight of the steps before it
    d = 0
    while d >= 0:
        option = next(options[d], None)
        if option is None:
            d -= 1
            continue
        start, stop, _ = steps[d]
        values[start:stop], mentioned, factor = option
        weight = weights[d] * factor
        if d + 1 < n:
            d += 1
            weights[d] = weight
            options[d] = steps[d][2](mentioned)
        else:
            yield {name: values[at] if keys is None
                   else dict(zip(keys, values[at:at + len(keys)]))
                   for name, keys, at in layout}, weight


def _run_options(cells, last):
    """The options of a run of cells that cannot rename, after cells that
    mention the elements in mentioned: per tuple of the cells' values in
    product order, (the values, the elements mentioned after them, factor
    1).  After the last run nothing reads what is mentioned."""
    doms = [dom for dom, _, _, _ in cells]
    keys = 0
    for _, key_mask, _, _ in cells:
        keys |= key_mask
    if last or not any(any(masks) for _, _, masks, _ in cells):
        return lambda mentioned: zip(itertools.product(*doms),
                                     itertools.repeat(mentioned | keys),
                                     itertools.repeat(1))
    paired = [list(zip(dom, masks)) for dom, _, masks, _ in cells]

    def options(mentioned):
        mentioned |= keys
        for combo in itertools.product(*paired):
            m = mentioned
            for _, mask in combo:
                m |= mask
            yield tuple(v for v, _ in combo), m, 1
    return options


def _options(cell, mentioned):
    """The values that a cell of an uninterpreted sort takes after cells
    that mention the elements in mentioned: per value, ((value,), the
    elements mentioned after it, the factor it brings to the weight)."""
    dom, key_mask, masks, _ = cell
    mentioned |= key_mask
    out = []
    new = True
    for v, bit in zip(dom, masks):
        if mentioned & bit:
            out.append(((v,), mentioned, 1))
        elif new:
            new = False
            unmentioned = sum(1 for b in masks if not mentioned & b)
            out.append(((v,), mentioned | bit, unmentioned))
    return iter(out)


def _elements(value, first):
    """Mask of the elements of uninterpreted sorts inside value, the k-th
    element of sort S at bit first[S] + k; walked with an explicit stack."""
    mask = 0
    stack = [value]
    while stack:
        v = stack.pop()
        if v.__class__ is Elem:
            mask |= 1 << (first[v.sort] + v.k)
        elif v.__class__ is ArrayVal:
            stack.append(v.default)
            for entry in v.entries:
                stack += entry
        elif v.__class__ is AdtVal:
            stack += v.args
    return mask


def _capped_pow(base, exp, cap):
    """min(cap, base ** exp) for base, exp >= 1, without the power when it
    is huge: 2 ** cap.bit_length() exceeds cap."""
    if base == 1:
        return 1
    return cap if exp >= cap.bit_length() else min(cap, base ** exp)


def _at_most(n, cap):
    return f"over {cap - 1}" if n == cap else str(n)
