"""Brute-force semantic checker over small finite interpretations.

Decides entailment and equivalence of existential closures by enumerating
every interpretation of the shared symbols within given bounds and, per
interpretation, searching assignments for the existential variables.  The
interpretations are enumerated in full.  The assignment search backtracks:
it binds the variables one at a time in sorted name order and checks each
literal as soon as its last variable is bound (forward checking), so a
failing literal prunes every assignment that extends the bound prefix.  It
visits assignments in the order of the full product, so the first model it
finds is the first model of the product.  A term is valued once its
variables are bound, which can be before the product search, checking
literal by literal, would reach it; so a failed evaluation (arithmetic out
of the window, a function applied outside its table) is kept as the term's
value and raised only where the product search meets it first.  Verdicts,
witnesses, skip counts and refusals are those of the product search.
Declared variables passed as ``free`` are shared symbols: enumerated with
the interpretation, not closed existentially.  Integers range over a window
derived from the numerals in the formulas; arithmetic that escapes the
window skips that interpretation (a soundness note, reported in the
verdict).  Deliberately independent of the egraph machinery: plain
evaluation over plain Python values.  Only the declarations are shared
with the model evaluator: the symbols enumerated are the variables and the
signature's uninterpreted symbols, and constructors, testers and selectors
are told apart by its datatype table.  Each formula's subterms are listed
once, by iterative post-order walks, and each distinct subterm is valued
once per binding of its last variable, so terms of any depth are checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import AdtVal, BoolVal, Elem, IntVal, Model, mk_array
from .terms import Formula, Sort, SortKind, is_numeral, post_order


class SearchSpaceError(Exception):
    pass


class _OutOfWindow(Exception):
    pass


_ARITH = ("+", "-", "*")


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
    ok: bool
    witness: Optional[dict] = None      # failing shared interpretation
    skipped: int = 0                    # interpretations skipped (arith window)

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
    for interp in ctx.interpretations():
        try:
            s1 = ctx.sat(f1, interp)
            if not s1 and not both_ways:
                continue
            s2 = ctx.sat(f2, interp)
        except _OutOfWindow:
            skipped += 1
            continue
        bad = (s1 != s2) if both_ways else (s1 and not s2)
        if bad:
            return Verdict(False, witness=dict(interp), skipped=skipped)
    return Verdict(True, skipped=skipped)


def find_model(sig, store, formula: Formula, bounds: Bounds = None):
    """First enumerated model of the conjunction (variables included), as a
    Model usable by the evaluator; None when unsatisfiable in bounds."""
    bounds = bounds or Bounds()
    ctx = _Context(sig, store, (formula,), bounds)
    for interp in ctx.interpretations():
        try:
            assign = ctx.sat(formula, interp, want_assignment=True)
        except _OutOfWindow:
            continue
        if assign is None:
            continue
        constants = {}
        functions = {}
        for name, val in itertools.chain(interp.items(), assign.items()):
            if isinstance(val, dict):
                table = {tuple(map(_to_model_value, k)): _to_model_value(v)
                         for k, v in val.items()}
                functions[name] = (next(iter(table.values())), table)
            else:
                constants[name] = _to_model_value(val)
        universes = dict(ctx._sizes)
        return Model(constants, functions, universes)
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
        self.plans = [_plan(f, terms, self.variables, self.window,
                            sig.datatype)
                      for f, terms in zip(formulas, self.terms)]
        self.consts, self.funcs, self.vars_per_formula = self._symbols()
        self.sorts_used = self._sorts_used()
        self._uninterp = sorted(s.name for s in self.sorts_used
                                if s.kind is SortKind.UNINTERPRETED)
        self._sizes = {name: bounds.universe for name in self._uninterp}
        self._domains = {}
        self._guard()

    def _derive_window(self):
        nums = {int(t.label) for terms in self.terms for t in terms
                if is_numeral(t.label)}
        pad = max(1, self.bounds.int_pad)
        if not nums:
            return (-1, pad - 1)
        return (min(nums) - pad, max(nums) + pad)

    def _symbols(self):
        consts = {}
        funcs = {}
        for terms in self.terms:
            for term in terms:
                self._scan(term, consts, funcs)
        vars_per = [{n: self.sig.variables[n] for n in plan.names}
                    for plan in self.plans]
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
        out = set()

        def visit(sort):
            if sort in out:
                return
            out.add(sort)
            if sort.kind is SortKind.ARRAY:
                visit(sort.index)
                visit(sort.value)
            for ctor in sort.constructors:
                for _, s in ctor.selectors:
                    visit(s)

        for s in self.consts.values():
            visit(s)
        for args, res in self.funcs.values():
            for s in args:
                visit(s)
            visit(res)
        for fvars in self.vars_per_formula:
            for s in fvars.values():
                visit(s)
        return out

    def domain(self, sort: Sort) -> list:
        hit = self._domains.get(sort.name)
        if hit is not None:
            return hit
        if sort.kind is SortKind.BOOL:
            dom = [False, True]
        elif sort.kind is SortKind.INT:
            lo, hi = self.window
            dom = list(range(lo, hi + 1))
        elif sort.kind is SortKind.UNINTERPRETED:
            dom = [("e", sort.name, i) for i in range(self._sizes[sort.name])]
        elif sort.kind is SortKind.ARRAY:
            idx = self.domain(sort.index)
            val = self.domain(sort.value)
            # default pinned to the first value: over a fully enumerated index
            # domain each function then has exactly one canonical form
            dom = [_canon_array(val[0], zip(idx, choice))
                   for choice in itertools.product(val, repeat=len(idx))]
        elif sort.kind is SortKind.ADT:
            dom = []
            for ctor in sort.constructors:
                arg_doms = [self.domain(s) for _, s in ctor.selectors]
                for args in itertools.product(*arg_doms):
                    dom.append(("adt", ctor.name, args))
        else:
            raise SearchSpaceError(f"cannot enumerate sort {sort}")
        self._domains[sort.name] = dom
        return dom

    def _domain_size(self, sort: Sort) -> int:
        if sort.kind is SortKind.BOOL:
            return 2
        if sort.kind is SortKind.INT:
            lo, hi = self.window
            return hi - lo + 1
        if sort.kind is SortKind.UNINTERPRETED:
            return self.bounds.universe
        if sort.kind is SortKind.ARRAY:
            return self._domain_size(sort.value) ** self._domain_size(sort.index)
        if sort.kind is SortKind.ADT:
            total = 0
            for ctor in sort.constructors:
                n = 1
                for _, s in ctor.selectors:
                    n *= self._domain_size(s)
                total += n
            return total
        raise SearchSpaceError(f"cannot enumerate sort {sort}")

    def _guard(self):
        # worst case: every uninterpreted sort at its full size, times the
        # number of size vectors enumerated
        total = len(list(self._size_vectors()))
        for sort in self.consts.values():
            total *= self._domain_size(sort)
        for arg_sorts, result in self.funcs.values():
            keys = 1
            for s in arg_sorts:
                keys *= self._domain_size(s)
            total *= self._domain_size(result) ** keys
        assigns = 0
        for fvars in self.vars_per_formula:
            a = 1
            for s in fvars.values():
                a *= self._domain_size(s)
            assigns += a
        if total * max(1, assigns) > self.bounds.max_cost:
            raise SearchSpaceError(
                f"search space too large: {total} interpretations x "
                f"{assigns} assignments exceeds {self.bounds.max_cost}")

    def _size_vectors(self):
        return itertools.product(range(1, self.bounds.universe + 1),
                                 repeat=len(self._uninterp))

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

    def interpretations(self):
        """All interpretations, over every universe-size vector up to the
        bound (so one-element universes are covered as well)."""
        for sizes in self._size_vectors():
            self._sizes = dict(zip(self._uninterp, sizes))
            self._domains = {}
            choices = self._choices()
            names = [n for n, _ in choices]
            for combo in itertools.product(*(c for _, c in choices)):
                yield dict(zip(names, combo))

    def sat(self, formula, interp, want_assignment=False):
        """Whether the formula holds under interp for some assignment of its
        variables (with want_assignment: the first such assignment, or None).
        Depth-first over the variables in plan order, without recursion:
        after names[d] is bound to the next value of its domain, level d + 1
        is checked, and the search backtracks as soon as every extension of
        the bound prefix is known to fail.  Assignments are tried in
        itertools.product order, and an error (_OutOfWindow included) is
        raised exactly when the product search, valuing each assignment
        literal by literal, would meet it first."""
        idx = self.formulas.index(formula)
        names, levels, fallible = self.plans[idx]
        fvars = self.vars_per_formula[idx]
        doms = [self.domain(fvars[n]) for n in names]
        assign = {}
        val = {}
        found = assign if want_assignment else True
        failed = None if want_assignment else False
        first = self._check(levels[0], fallible, val, interp, assign, None)
        if first is False:
            return failed
        if not names:
            return found
        last = len(names) - 1
        pos = [0] * len(names)  # per depth, the next domain index to try
        pending = [first] + [None] * last  # per depth d: first, levels 0..d
        d = 0
        while d >= 0:
            i = pos[d]
            if i == len(doms[d]):
                pos[d] = 0  # unbind names[d]: its next binding starts over
                d -= 1
                continue
            pos[d] = i + 1
            assign[names[d]] = doms[d][i]
            first = self._check(levels[d + 1], fallible, val, interp, assign,
                                pending[d])
            if first is not False:
                if d == last:
                    return found
                d += 1
                pending[d] = first
        return failed

    def _check(self, level, fallible, val, interp, assign, first):
        """Value the level's terms and check its literals.  The product
        search takes an assignment's outcome from its first literal, in
        formula order, that does not pass: one that fails, or one whose
        sides fail to evaluate (arithmetic leaving the window, say).  first
        is the earliest such literal of the lower levels, (index, error or
        None), or None.  A failing literal decides every extension of the
        bound prefix when no fallible literal before it is still unchecked;
        one with an error when no literal before it is.  Returns False when
        every extension fails, raises the error when every extension meets
        it, and else returns the new first."""
        entries, rest, unchecked, unchecked_fallible = level
        apply, guarded = self._apply, self._apply_guarded
        for index, terms, kind, lhs, rhs in entries:
            for t in terms:
                val[t.id] = (guarded if t.id in fallible else apply)(
                    t, [val[c.id] for c in t.children], interp, assign)
            if first is not None and first[0] < index:
                continue
            a, b = val[lhs], val[rhs]
            error = a if isinstance(a, Exception) else \
                b if isinstance(b, Exception) else None
            if error is not None:
                if index < unchecked:
                    raise error
                first = (index, error)
            elif (a == b) == (kind == "diseq"):
                if index < unchecked_fallible:
                    return False
                first = (index, None)
        for t in rest:
            val[t.id] = (guarded if t.id in fallible else apply)(
                t, [val[c.id] for c in t.children], interp, assign)
        # a first of a lower level can be decided by this level's literals
        if first is not None and \
                first[0] < (unchecked if first[1] else unchecked_fallible):
            if first[1]:
                raise first[1]
            return False
        return first

    def _apply_guarded(self, term, args, interp, assign):
        """_apply for a fallible term.  A failed evaluation, its own or
        that of its first failed argument, is returned as its value: it is
        raised only where the product search would meet it (_check)."""
        for a in args:
            if isinstance(a, Exception):
                return a
        try:
            return self._apply(term, args, interp, assign)
        except (_OutOfWindow, SearchSpaceError) as e:
            return e.with_traceback(None)

    def _apply(self, term, args, interp, assign):
        """Value of term's symbol applied to the values of its arguments."""
        label = term.label
        # declared symbols first: they label most terms, and no declared
        # name is a numeral or a builtin
        if label in assign:
            out = assign[label]
        elif label in interp:
            val = interp[label]
            out = val.get(tuple(args)) if isinstance(val, dict) else val
            if out is None:
                raise SearchSpaceError(f"missing table entry for '{label}'")
        elif is_numeral(label):
            out = int(label)
        elif label == "true":
            out = True
        elif label == "false":
            out = False
        elif label in _ARITH:
            a, b = args
            out = a + b if label == "+" else a - b if label == "-" else a * b
            lo, hi = self.window
            if out < lo or out > hi:
                raise _OutOfWindow()
        elif label in (">", "<", ">=", "<="):
            a, b = args
            out = {">": a > b, "<": a < b, ">=": a >= b, "<=": a <= b}[label]
        elif label == "read":
            out = _array_read(args[0], args[1])
        elif label == "write":
            out = _canon_array(args[0][1],
                               list(args[0][2]) + [(args[1], args[2])])
        elif label in ("ueq",):
            out = args[0] == args[1]
        elif label == "distinct":
            out = args[0] != args[1]
        else:
            out = self._eval_adt(label, args)
        return out

    def _eval_adt(self, label, args):
        role = self.sig.datatype.get(label)
        if role is None:
            raise SearchSpaceError(f"symbol '{label}' not enumerable")
        kind, ctor, i = role
        if kind == "constructor":
            return ("adt", label, tuple(args))
        matches = args[0][1] == ctor.name
        if kind == "tester":
            return matches
        return args[0][2][i] if matches else self._default(ctor.selectors[i][1])

    def _default(self, sort: Sort):
        if sort.kind is SortKind.INT:
            return 0
        if sort.kind is SortKind.BOOL:
            return False
        if sort.kind is SortKind.UNINTERPRETED:
            return ("e", sort.name, 0)
        if sort.kind is SortKind.ARRAY:
            return _canon_array(self._default(sort.value), ())
        ctor = sort.constructors[0]
        return ("adt", ctor.name,
                tuple(self._default(s) for _, s in ctor.selectors))


class _Plan(NamedTuple):
    names: list          # the formula's variables, in binding order
    levels: list         # (entries, rest, unchecked, unchecked_fallible)
    fallible: frozenset  # ids of the terms whose evaluation may fail


def _subterms(formula):
    """The formula's distinct subterms, children before parents."""
    seen = set()
    return [t for lit in formula.literals for t in _new_subterms(lit, seen)]


def _plan(formula, terms, variables, window, datatype) -> _Plan:
    """The search plan of formula, whose subterms are terms.  names are
    its variables (those in variables) in sorted order, the order the
    search binds them.  A term's level is 0 when it has no variable and
    d + 1 when names[d] is its last variable; a literal's level is that of
    its sides.  levels[d] is (entries, rest, unchecked, unchecked_fallible):
    per literal of level d in formula order, (index in formula, new, kind,
    lhs id, rhs id), new being its subterms not listed before it; then
    rest, the level's other terms, which later levels need; then the index
    of the first literal of a higher level, and of the first such literal
    with a fallible side (len(formula.literals) when there is none).  Each
    list runs children before parents, and each term is listed once, at
    its own level, so it is valued as soon as its variables are bound, and
    a literal is checked as soon as its sides are valued.  A term is
    fallible when it, or a term below it, may leave the enumerated domains
    (_leaves_domains): only then can evaluating it raise."""
    names = sorted({t.label for t in terms if t.label in variables})
    depth = {name: d + 1 for d, name in enumerate(names)}
    level = {}
    fallible = set()
    own = [[] for _ in range(len(names) + 1)]
    for t in terms:
        lv = max([depth.get(t.label, 0)] + [level[c.id] for c in t.children])
        level[t.id] = lv
        own[lv].append(t)
        if _leaves_domains(t, window, datatype) or \
                any(c.id in fallible for c in t.children):
            fallible.add(t.id)
    n = len(formula.literals)
    lits = [[] for _ in own]
    heads = [[n, n] for _ in own]  # per level: first literal, first fallible
    for index, lit in enumerate(formula.literals):
        lv = max(level[lit.lhs.id], level[lit.rhs.id])
        lits[lv].append((index, lit))
        head = heads[lv]
        head[0] = min(head[0], index)
        if lit.lhs.id in fallible or lit.rhs.id in fallible:
            head[1] = min(head[1], index)
    above = [(n, n)] * len(own)  # the same over every higher level
    for d in range(len(own) - 2, -1, -1):
        above[d] = tuple(map(min, above[d + 1], heads[d + 1]))
    listed = set()
    levels = []
    for d, (level_terms, level_lits) in enumerate(zip(own, lits)):
        # every term of a lower level is listed by now, so a literal of
        # this level yields only terms of this level
        entries = [(index, list(_new_subterms(lit, listed)), lit.kind,
                    lit.lhs.id, lit.rhs.id) for index, lit in level_lits]
        rest = [t for t in level_terms if t.id not in listed]
        listed.update(t.id for t in rest)
        levels.append((entries, rest) + above[d])
    return _Plan(names, levels, frozenset(fallible))


def _leaves_domains(term, window, datatype):
    """Whether evaluating term may fail, or give a value outside the
    enumerated domains that fails a term above it (as a function argument),
    though its arguments' values lie inside them: arithmetic may leave the
    window, so may a numeral, and a selector applied to another constructor
    gives a default that holds 0 (_Context._default)."""
    label = term.label
    if label in _ARITH:
        return True
    if is_numeral(label):
        return not window[0] <= int(label) <= window[1]
    role = datatype.get(label)
    if role is not None and role[0] == "selector":
        return _default_holds_int(term.sort)
    return False


def _default_holds_int(sort):
    if sort.kind is SortKind.INT:
        return True
    if sort.kind is SortKind.ARRAY:
        return _default_holds_int(sort.value)
    if sort.kind is SortKind.ADT:
        return any(_default_holds_int(s)
                   for _, s in sort.constructors[0].selectors)
    return False


def _new_subterms(lit, seen):
    """The subterms of lit's sides whose ids are not in seen, children
    before parents and left to right; each is entered in seen."""
    for side in (lit.lhs, lit.rhs):
        if side.id not in seen:
            for t in post_order(side, seen):
                seen.add(t.id)
                yield t


def _canon_array(default, entries):
    mapping = {}
    for k, v in entries:
        mapping[k] = v
    items = tuple(sorted(((k, v) for k, v in mapping.items() if v != default),
                         key=repr))
    return ("arr", default, items)


def _array_read(arr, key):
    for k, v in arr[2]:
        if k == key:
            return v
    return arr[1]


def _to_model_value(v):
    if isinstance(v, bool):
        return BoolVal(v)
    if isinstance(v, int):
        return IntVal(v)
    if isinstance(v, tuple):
        if v[0] == "e":
            return Elem(v[1], v[2])
        if v[0] == "arr":
            return mk_array(_to_model_value(v[1]),
                            {_to_model_value(k): _to_model_value(x)
                             for k, x in v[2]})
        if v[0] == "adt":
            return AdtVal(v[1], tuple(_to_model_value(a) for a in v[2]))
    raise SearchSpaceError(f"cannot convert value {v!r}")
