"""Sorts, signatures, and hash-consed terms.

The fragment handled everywhere in this package is a conjunction of
equality-shaped literals: t = u, t != u, and explicit equality ueq(t, u).
Predicate applications are encoded as P(args) = true / P(args) = false, so
the only Boolean structure is the top-level conjunction.  Arithmetic symbols
(numerals, +, -, *, >, ...) are ordinary function symbols here; they only
acquire meaning in the model evaluator and the finite-model oracle.

Terms are hash-consed DAGs, and nothing here walks them as trees.  A term's
variable order is computed when the term is made, from its children's
orders, so no walk is needed to read it.  The printer is an iterative
post-order walk, left to right, memoized by term id, so a term of any depth
prints in time linear in its output and without recursion; a literal whose
tree blows up prints under let binders, in time and space linear in its
DAG (see the comment above the printers).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence


class InputError(Exception):
    """A problem with the user-supplied input (syntax, sorts, consistency)."""


class SortMismatchError(InputError):
    pass


class UnknownSymbolError(InputError):
    pass


class DuplicateDeclarationError(InputError):
    pass


class SortKind(Enum):
    UNINTERPRETED = "uninterpreted"
    BOOL = "bool"
    INT = "int"
    ARRAY = "array"
    ADT = "adt"


@dataclass(frozen=True)
class Constructor:
    name: str
    selectors: tuple  # tuple of (selector name, Sort)

    @property
    def tester(self):
        return "is-" + self.name

    @property
    def arity(self):
        return len(self.selectors)


@dataclass(frozen=True)
class Sort:
    name: str
    kind: SortKind
    index: Optional["Sort"] = None
    value: Optional["Sort"] = None
    constructors: tuple = ()

    def __repr__(self):
        return self.name


BOOL = Sort("Bool", SortKind.BOOL)
INT = Sort("Int", SortKind.INT)

# Polymorphic builtins resolved structurally in mk_app rather than held in
# the function table: array access, disequality and explicit equality.
POLYMORPHIC = ("read", "write", "distinct", "ueq")

ARITH_FUNS = {
    "+": ((INT, INT), INT),
    "-": ((INT, INT), INT),
    "*": ((INT, INT), INT),
    ">": ((INT, INT), BOOL),
    "<": ((INT, INT), BOOL),
    ">=": ((INT, INT), BOOL),
    "<=": ((INT, INT), BOOL),
}


def is_numeral(label: str) -> bool:
    """An Int numeral: a non-empty run of ASCII digits."""
    return label.isdigit() and label.isascii()


def array_sort(index: Sort, value: Sort) -> Sort:
    return Sort(f"(Array {index.name} {value.name})", SortKind.ARRAY,
                index=index, value=value)


def sorts_within(roots):
    """The sorts in roots and every sort inside them, by name, each after
    the sorts inside it.  Walked with an explicit stack and keyed by name,
    so no sort is hashed, however deep."""
    out = {}
    stack = [(sort, False) for sort in reversed(roots)]
    while stack:
        sort, expanded = stack.pop()
        if sort.name in out:
            continue
        if expanded:
            out[sort.name] = sort
            continue
        stack.append((sort, True))
        if sort.kind is SortKind.ARRAY:
            stack += [(sort.value, False), (sort.index, False)]
        for ctor in sort.constructors:
            stack += [(s, False) for _, s in ctor.selectors]
    return out


class Signature:
    """Symbol table: sorts, functions, and the variables to eliminate.

    Constants are 0-ary functions.  Names flagged via declare_var are the
    free variables a reduction is allowed to remove; every other symbol is
    kept.  Numerals are auto-declared nullary Int functions on first use.

    This is the one place that says what a name denotes.  uninterpreted
    holds the names from declare_fun/declare_const, the only functions a
    model interprets; datatype maps each constructor, tester and selector
    name to (kind, Constructor, field index), the index None but for a
    selector.  Every other function is a builtin with a fixed meaning.
    """

    def __init__(self):
        self.sorts = {"Bool": BOOL, "Int": INT}
        self.functions = {"true": ((), BOOL), "false": ((), BOOL)}
        self.functions.update(ARITH_FUNS)
        self.variables = {}
        self.uninterpreted = set()
        self.datatype = {}

    def _check_fresh(self, name):
        if name in self.functions or name in self.variables:
            raise DuplicateDeclarationError(f"'{name}' is already declared")
        if name in POLYMORPHIC or name == "let" or is_numeral(name):
            raise DuplicateDeclarationError(f"'{name}' is reserved")

    def declare_sort(self, name) -> Sort:
        if name in self.sorts:
            raise DuplicateDeclarationError(f"sort '{name}' is already declared")
        sort = Sort(name, SortKind.UNINTERPRETED)
        self.sorts[name] = sort
        return sort

    def ensure_array_sort(self, index: Sort, value: Sort) -> Sort:
        sort = array_sort(index, value)
        return self.sorts.setdefault(sort.name, sort)

    def declare_datatype(self, name, constructors) -> Sort:
        """constructors: iterable of (ctor name, [(selector name, Sort), ...])."""
        if name in self.sorts:
            raise DuplicateDeclarationError(f"sort '{name}' is already declared")
        ctors = tuple(Constructor(cn, tuple(sels)) for cn, sels in constructors)
        sort = Sort(name, SortKind.ADT, constructors=ctors)
        self.sorts[name] = sort
        for ctor in ctors:
            self._declare_adt(ctor.name, tuple(s for _, s in ctor.selectors),
                              sort, ("constructor", ctor, None))
            self._declare_adt(ctor.tester, (sort,), BOOL, ("tester", ctor, None))
            for i, (sel_name, sel_sort) in enumerate(ctor.selectors):
                self._declare_adt(sel_name, (sort,), sel_sort,
                                  ("selector", ctor, i))
        return sort

    def _declare_adt(self, name, arg_sorts, result, role):
        self._check_fresh(name)
        self.functions[name] = (arg_sorts, result)
        self.datatype[name] = role

    def declare_fun(self, name, arg_sorts: Sequence[Sort], result: Sort):
        self._check_fresh(name)
        self.functions[name] = (tuple(arg_sorts), result)
        self.uninterpreted.add(name)

    def declare_const(self, name, sort: Sort):
        self.declare_fun(name, (), sort)

    def declare_var(self, name, sort: Sort):
        self._check_fresh(name)
        self.variables[name] = sort

    def _ensure_numeral(self, name):
        if name not in self.functions:
            self.functions[name] = ((), INT)

    def sort_of(self, name) -> Sort:
        """Sort of a nullary symbol (variable, constant, or numeral)."""
        if name in self.variables:
            return self.variables[name]
        if is_numeral(name):
            self._ensure_numeral(name)
        if name in self.functions:
            args, result = self.functions[name]
            if args:
                raise SortMismatchError(f"'{name}' expects arguments")
            return result
        raise UnknownSymbolError(f"unknown symbol '{name}'")


class Term:
    """Hash-consed term; identity comparison is structural equality.

    vars holds the names of the to-eliminate variables occurring in the
    term, in the order a left-to-right tree walk first meets them; ground is
    ``not vars``.  Terms are made only by TermStore.mk_app, and their fields,
    vars included, are read-only."""
    __slots__ = ("id", "label", "children", "sort", "ground", "vars")

    def __init__(self, id, label, children, sort, vars):
        self.id = id
        self.label = label
        self.children = children
        self.sort = sort
        self.ground = not vars
        self.vars = vars

    def __repr__(self):
        return term_to_sexpr(self)


def post_order(term: Term, memo):
    """Yield term and its subterms whose ids are not in memo, each once,
    children before parents and left to right, term last.  The caller
    enters each yielded term's id in memo before it asks for the next one.
    An explicit stack replaces recursion, so any depth is walked."""
    stack = [(term, iter(term.children))]
    while stack:
        t, it = stack[-1]
        for c in it:
            if c.id not in memo:
                if c.children:
                    stack.append((c, iter(c.children)))
                    break
                yield c
        else:
            stack.pop()
            yield t


class TermStore:
    """Hash-consing arena; one shared store per problem instance."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self._table = {}       # (label, child terms) -> term
        self.terms = []

    def mk_app(self, label: str, args: Sequence[Term] = ()) -> Term:
        args = tuple(args)
        key = (label, args)
        return self._table.get(key) or self._make(label, args, key)

    def _make(self, label, args, key) -> Term:
        """A new term for key, (label, args), which is not in the table.
        A term in the table had its sorts checked when it was made."""
        variables = self.sig.variables
        if not args and label in variables:
            sort, order = variables[label], (label,)
        else:
            sort = self._resolve_sort(label, args)
            # the children's orders merged left to right without repeats;
            # a single non-empty order is shared, not copied
            order = ()
            for a in args:
                if a.vars and a.vars is not order:
                    if order:
                        order = tuple(dict.fromkeys(
                            v for c in args for v in c.vars))
                        break
                    order = a.vars
        term = Term(len(self.terms), label, args, sort, order)
        self.terms.append(term)
        self._table[key] = term
        return term

    def mk_const(self, label: str) -> Term:
        return self._table.get((label, ())) or self._make(label, (), (label, ()))

    @property
    def top(self) -> Term:
        return self.mk_const("true")

    @property
    def bot(self) -> Term:
        return self.mk_const("false")

    def _resolve_sort(self, label, args) -> Sort:
        entry = self.sig.functions.get(label)
        if entry is None:
            return self._resolve_builtin(label, args)
        arg_sorts, result = entry
        if len(arg_sorts) != len(args):
            raise SortMismatchError(
                f"'{label}' expects {len(arg_sorts)} arguments, got {len(args)}")
        for a, want in zip(args, arg_sorts):
            if a.sort is not want and a.sort != want:
                self._check(label, a.sort, want)
        return result

    def _resolve_builtin(self, label, args) -> Sort:
        """The sort of a label that is not in the function table: a
        polymorphic builtin or a numeral met for the first time; a variable
        here is applied to arguments."""
        sig = self.sig
        if label == "read":
            arr = self._need_array(label, args, 2)
            self._check(label, args[1].sort, arr.index)
            return arr.value
        if label == "write":
            arr = self._need_array(label, args, 3)
            self._check(label, args[1].sort, arr.index)
            self._check(label, args[2].sort, arr.value)
            return arr
        if label in ("distinct", "ueq"):
            if len(args) != 2 or (args[0].sort is not args[1].sort
                                  and args[0].sort != args[1].sort):
                raise SortMismatchError(f"'{label}' needs two arguments of one sort")
            return BOOL
        if label in sig.variables:
            raise SortMismatchError(f"variable '{label}' applied to arguments")
        if not is_numeral(label):
            raise UnknownSymbolError(f"unknown symbol '{label}'")
        sig._ensure_numeral(label)
        return self._resolve_sort(label, args)

    def _need_array(self, label, args, arity) -> Sort:
        if len(args) != arity or args[0].sort.kind is not SortKind.ARRAY:
            raise SortMismatchError(f"'{label}' expects an array first argument")
        return args[0].sort

    @staticmethod
    def _check(label, got, want):
        if got is not want and got != want:
            raise SortMismatchError(f"'{label}': expected {want}, got {got}")


class Literal:
    """The literal lhs = rhs, lhs != rhs or ueq(lhs, rhs), as kind is "eq",
    "diseq" or "ueq".  Two literals are equal when their fields are.  Like
    a Term, it is read-only by convention: nothing assigns its fields after
    it is made."""
    __slots__ = ("kind", "lhs", "rhs")

    def __init__(self, kind, lhs, rhs):
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        if other.__class__ is not Literal:
            return NotImplemented
        return (self.kind == other.kind and self.lhs == other.lhs
                and self.rhs == other.rhs)

    def __hash__(self):
        return hash((self.kind, self.lhs, self.rhs))

    def __repr__(self):
        return literal_to_sexpr(self)


@dataclass(frozen=True)
class Formula:
    literals: tuple
    free_vars: tuple  # variable names, first-occurrence order

    def __repr__(self):
        return formula_to_sexpr(self)


def mk_formula(store: TermStore, literals: Iterable[Literal]) -> Formula:
    literals = tuple(literals)
    ordered = {}
    for lit in literals:
        for v in lit.lhs.vars:
            ordered[v] = None
        for v in lit.rhs.vars:
            ordered[v] = None
    return Formula(literals, tuple(ordered))


# The printers append string pieces to one list per call and join it once.
# A subterm met for the first time is written piece by piece, and the memo
# notes its span in the list; met again, the span is joined into its string
# once, and that string is reused from then on.  So an unshared chain prints
# in linear time and memory.
#
# A literal (or a term printed alone) whose tree blows up is printed under
# SMT-LIB let binders instead, so that its text is linear in its DAG:
#
#     (let ((?l!0 (h c c))) (let ((?l!1 (k ?l!0 ?l!0))) (distinct (h ?l!1 ?l!1) d)))
#
# The decision costs the flat printer one comparison per join.  A join whose
# string has more than _DENSE characters per piece of its span aborts the
# literal; without one, no string exceeds _DENSE pieces' worth of text, so
# the flat text stays within _DENSE times the square of its piece count.  An
# aborted literal gets binders when its tree, both sides expanded, has more
# than _SHARING nodes per distinct subterm; every other literal prints flat,
# as it always has.  Then each non-leaf subterm that occurs twice or more in
# the literal's tree is bound, children before parents, one binding per let,
# and the literal goes inside the lets unchanged, a predicate as (P ...) or
# (not (P ...)).  Binders are named ?l!0, ?l!1, ... afresh in each literal,
# skipping every label that occurs in it.  The parser reads them back.  A
# formula's literals share one memo, so a subterm printed by an earlier
# literal is copied, not joined, and a borderline literal may print flat in
# a formula and under lets alone; either text reads back to the same terms.

_DENSE = 64
_SHARING = 16


class _Dense(Exception):
    """A join of the flat printer exceeded _DENSE characters per piece."""


def term_to_sexpr(term: Term) -> str:
    if not term.children:
        return term.label
    out = []
    _print(term, out, {})
    return "".join(out)


def literal_to_sexpr(lit: Literal) -> str:
    out = []
    _print(lit, out, {})
    return "".join(out)


def formula_to_sexpr(formula: Formula) -> str:
    if not formula.literals:
        return "true"
    out = ["(and"]
    memo = {}
    for lit in formula.literals:
        out.append(" ")
        _print(lit, out, memo)
    out.append(")")
    return "".join(out)


def _print(unit, out, memo):
    """Append the text of unit, a literal or a term printed alone: flat, or
    under let binders when its tree blows up (see above)."""
    if isinstance(unit, Term):
        emit, sides = _emit, (unit,)
    else:
        emit, sides = _emit_literal, (unit.lhs, unit.rhs)
    start, known = len(out), len(memo)
    try:
        emit(unit, out, memo, True)
        return
    except _Dense:
        # drop the pieces and the memo entries of the aborted attempt; the
        # memo keeps its insertion order, so they are its last entries
        del out[start:]
        while len(memo) > known:
            memo.popitem()
    memo = {}
    bound = _binders(sides)
    for t, name in bound:
        out.append(f"(let (({name} ")
        _emit(t, out, memo, False)
        out.append(")) ")
        memo[t.id] = name
    emit(unit, out, memo, False)
    out.append(")" * len(bound))


def _binders(sides):
    """The (subterm, name) pairs to bind in a literal with these sides,
    children before parents, or none when its tree has at most _SHARING
    nodes per distinct subterm.  A subterm's number of occurrences in the
    tree is summed over its parents, parents first, and saturates, so no
    big integer is made."""
    paths, order = {}, []
    for side in sides:
        if side.id not in paths:
            for t in post_order(side, paths):
                paths[t.id] = 0
                order.append(t)
    for side in sides:
        paths[side.id] += 1
    cap = _SHARING * len(order) + 1
    for t in reversed(order):
        n = paths[t.id]
        for c in t.children:
            paths[c.id] = min(paths[c.id] + n, cap)
    if sum(paths.values()) <= _SHARING * len(order):
        return []
    labels = {t.label for t in order}
    names = (f"?l!{k}" for k in itertools.count())
    names = (name for name in names if name not in labels)
    return list(zip((t for t in order if t.children and paths[t.id] > 1), names))


def _emit_literal(lit, out, memo, watch):
    lhs, rhs = lit.lhs, lit.rhs
    if lit.kind == "diseq":
        out.append("(distinct ")
    elif lit.kind == "ueq":
        out.append("(ueq ")
    else:
        # equalities with a Bool constant print in predicate form
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if a.label == "true" and not a.children and b is not a:
                _emit(b, out, memo, watch)
                return
            if a.label == "false" and not a.children and b is not a:
                out.append("(not ")
                _emit(b, out, memo, watch)
                out.append(")")
                return
        out.append("(= ")
    _emit(lhs, out, memo, watch)
    out.append(" ")
    _emit(rhs, out, memo, watch)
    out.append(")")


def _emit(term, out, memo, watch):
    """Append the pieces of term's s-expression to out (see above); watch
    says whether a dense join raises _Dense."""
    if not term.children:
        out.append(term.label)
        return
    hit = memo.get(term.id)
    if hit is not None:
        out.append(_reuse(term, hit, out, memo, watch))
        return
    stack = [(term, iter(term.children), len(out))]
    out.append("(" + term.label)
    while stack:
        t, it, start = stack[-1]
        for c in it:
            out.append(" ")
            if not c.children:
                out.append(c.label)
                continue
            hit = memo.get(c.id)
            if hit is None:
                stack.append((c, iter(c.children), len(out)))
                out.append("(" + c.label)
                break
            out.append(_reuse(c, hit, out, memo, watch))
        else:
            stack.pop()
            out.append(")")
            memo[t.id] = (start, len(out))


def _reuse(term, hit, out, memo, watch):
    """The string of a subterm printed before (or its binder's name): its
    span, joined once."""
    if isinstance(hit, str):
        return hit
    a, b = hit
    s = "".join(out[a:b])
    if watch and len(s) > _DENSE * (b - a):
        raise _Dense
    memo[term.id] = s
    return s
