"""Brute-force semantic checker over small finite interpretations.

Decides entailment and equivalence of existential closures by enumerating
every interpretation of the shared (kept) symbols within given bounds and,
per interpretation, searching assignments for the eliminated variables.
Integers range over a window derived from the numerals in the formulas;
arithmetic that escapes the window skips that interpretation (a soundness
note, reported in the verdict).  Deliberately independent of the egraph
machinery: plain evaluation over plain Python values.  Each formula's
subterms are listed once, by iterative post-order walks, and evaluated in
that order, each distinct subterm once, so terms of any depth are checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .model import AdtVal, BoolVal, Elem, IntVal, Model, mk_array
from .terms import Formula, Sort, SortKind, is_numeral, post_order

_BUILTIN = {"true", "false", "+", "-", "*", ">", "<", ">=", "<=",
            "read", "write", "ueq", "distinct"}


class SearchSpaceError(Exception):
    pass


class _OutOfWindow(Exception):
    pass


@dataclass
class Bounds:
    universe: int = 3
    int_window: Optional[tuple] = None  # (lo, hi) inclusive
    int_pad: int = 2                    # derived window: numerals +- pad
    max_cost: int = 20_000_000          # interpretations x assignments guard


@dataclass
class Verdict:
    ok: bool
    witness: Optional[dict] = None      # failing shared interpretation
    skipped: int = 0                    # interpretations skipped (arith window)

    def __bool__(self):
        return self.ok


def equiv_exists(sig, store, f1: Formula, f2: Formula,
                 bounds: Bounds = None) -> Verdict:
    """Existential closures agree on every enumerated interpretation."""
    return _compare(sig, store, f1, f2, bounds or Bounds(), both_ways=True)


def implies_exists(sig, store, f1: Formula, f2: Formula,
                   bounds: Bounds = None) -> Verdict:
    """Existential closure of f1 entails that of f2 on every interpretation."""
    return _compare(sig, store, f1, f2, bounds or Bounds(), both_ways=False)


def _compare(sig, store, f1, f2, bounds, both_ways):
    ctx = _Context(sig, store, (f1, f2), bounds)
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
    def __init__(self, sig, store, formulas, bounds):
        self.sig = sig
        self.store = store
        self.bounds = bounds
        self.formulas = formulas
        self.plans = [_plan(f) for f in formulas]
        self.window = bounds.int_window or self._derive_window()
        self.consts, self.funcs, self.vars_per_formula = self._symbols()
        self.sorts_used = self._sorts_used()
        self._uninterp = sorted(s.name for s in self.sorts_used
                                if s.kind is SortKind.UNINTERPRETED)
        self._sizes = {name: bounds.universe for name in self._uninterp}
        self._domains = {}
        self._guard()

    def _derive_window(self):
        nums = {int(t.label) for plan in self.plans for *_, terms in plan
                for t in terms if is_numeral(t.label)}
        pad = max(1, self.bounds.int_pad)
        if not nums:
            return (-1, pad - 1)
        return (min(nums) - pad, max(nums) + pad)

    def _symbols(self):
        consts = {}
        funcs = {}
        vars_per = []
        for plan in self.plans:
            fvars = {}
            for *_, terms in plan:
                for term in terms:
                    self._scan(term, consts, funcs, fvars)
            vars_per.append(fvars)
        return consts, funcs, vars_per

    def _scan(self, term, consts, funcs, fvars):
        label = term.label
        if label in self.sig.variables:
            fvars.setdefault(label, self.sig.variables[label])
        elif label not in _BUILTIN and not is_numeral(label) \
                and not self._is_adt_symbol(term):
            arg_sorts, result = self.sig.functions[label]
            if arg_sorts:
                funcs.setdefault(label, (arg_sorts, result))
            else:
                consts.setdefault(label, result)

    def _is_adt_symbol(self, term):
        decl = self.sig.functions.get(term.label)
        if decl is None:
            return False
        arg_sorts, result = decl
        if result.kind is SortKind.ADT and \
                any(c.name == term.label for c in result.constructors):
            return True
        if arg_sorts and arg_sorts[0].kind is SortKind.ADT:
            for ctor in arg_sorts[0].constructors:
                if term.label == ctor.tester or \
                        any(term.label == s for s, _ in ctor.selectors):
                    return True
        return False

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
            return max(1, self.bounds.universe)
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
        idx = self.formulas.index(formula)
        fvars = self.vars_per_formula[idx]
        names = sorted(fvars)
        doms = [self.domain(fvars[n]) for n in names]
        plan = self.plans[idx]
        for combo in itertools.product(*doms):
            assign = dict(zip(names, combo))
            val = {}
            for kind, lhs, rhs, terms in plan:
                for t in terms:
                    val[t.id] = self._apply(t, [val[c.id] for c in t.children],
                                            interp, assign)
                if (val[lhs] == val[rhs]) == (kind == "diseq"):
                    break  # the literal fails
            else:
                return assign if want_assignment else True
        return None if want_assignment else False

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
        elif label in ("+", "-", "*"):
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
            out = self._eval_adt(term, label, args)
        return out

    def _eval_adt(self, term, label, args):
        decl = self.sig.functions.get(label)
        if decl is None:
            raise SearchSpaceError(f"symbol '{label}' not enumerable")
        arg_sorts, result = decl
        if result.kind is SortKind.ADT and \
                any(c.name == label for c in result.constructors):
            return ("adt", label, tuple(args))
        adt_sort = arg_sorts[0]
        for ctor in adt_sort.constructors:
            if label == ctor.tester:
                return args[0][0] == "adt" and args[0][1] == ctor.name
            for i, (sel, sel_sort) in enumerate(ctor.selectors):
                if label == sel:
                    if args[0][1] == ctor.name:
                        return args[0][2][i]
                    return self._default(sel_sort)
        raise SearchSpaceError(f"symbol '{label}' not enumerable")

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


def _plan(formula):
    """Per literal, (kind, lhs id, rhs id, terms): terms are the subterms of
    the literal that no earlier literal has, children before parents and
    left to right.  Evaluating them in order gives each distinct subterm of
    the formula one value, and a literal's sides are valued once its terms
    are, so a check can stop at the first literal that fails."""
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
