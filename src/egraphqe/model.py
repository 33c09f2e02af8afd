"""Finite first-order models and literal evaluation.

A model gives values to constants and variables, finite tables with a
default to functions, and sizes to uninterpreted sorts.  Arrays are finite
maps plus a default (entries equal to the default are normalized away, so
structural equality is extensional equality); datatype values are
constructor trees.  Applying a selector to the wrong constructor returns a
fixed per-sort default value.  What a symbol denotes is looked up in the
Signature: a model interprets only the variables and the uninterpreted
symbols (sig.uninterpreted), and constructors, testers and selectors are
told apart by sig.datatype, the table the finite-model oracle reads too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .sexpr import Form, LocatedError, read_all, read_form, tokens
from .terms import (ARITH_FUNS, InputError, Literal, Signature, Sort,
                    SortKind, Term, is_numeral, post_order, sorts_within)


class ModelError(InputError):
    pass


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class IntVal(Value):
    n: int

    def __repr__(self):
        return str(self.n)


@dataclass(frozen=True)
class BoolVal(Value):
    b: bool

    def __repr__(self):
        return "true" if self.b else "false"


@dataclass(frozen=True)
class Elem(Value):
    sort: str
    k: int

    def __repr__(self):
        return f"(elem {self.sort} {self.k})"


@dataclass(frozen=True)
class ArrayVal(Value):
    default: Value
    entries: tuple  # sorted ((key, value), ...) with value != default

    def __repr__(self):
        inner = " ".join(f"({k!r} {v!r})" for k, v in self.entries)
        sep = " " + inner if inner else ""
        return f"(array (default {self.default!r}){sep})"


@dataclass(frozen=True)
class AdtVal(Value):
    ctor: str
    args: tuple

    def __repr__(self):
        if not self.args:
            return f"({self.ctor})"
        return f"({self.ctor} " + " ".join(repr(a) for a in self.args) + ")"


def mk_array(default: Value, mapping) -> ArrayVal:
    # _equal, not !=, so that values of any depth compare
    entries = tuple(sorted(((k, v) for k, v in dict(mapping).items()
                            if not _equal(v, default)), key=lambda kv: repr(kv[0])))
    return ArrayVal(default, entries)


def array_read(arr: ArrayVal, key: Value) -> Value:
    for k, v in arr.entries:
        if k == key:
            return v
    return arr.default


def array_write(arr: ArrayVal, key: Value, val: Value) -> ArrayVal:
    mapping = dict(arr.entries)
    mapping[key] = val
    return mk_array(arr.default, mapping)


def default_value(sort: Sort) -> Value:
    """The default value of sort: 0, false, element 0, the array whose
    default is its value sort's, or the first constructor over its fields'
    defaults.  The sorts inside it are done first, in the order
    sorts_within gives, so no call recurses, however deep the sort."""
    made = {}
    for name, s in sorts_within([sort]).items():
        if s.kind is SortKind.INT:
            made[name] = IntVal(0)
        elif s.kind is SortKind.BOOL:
            made[name] = BoolVal(False)
        elif s.kind is SortKind.UNINTERPRETED:
            made[name] = Elem(name, 0)
        elif s.kind is SortKind.ARRAY:
            made[name] = ArrayVal(made[s.value.name], ())
        else:
            ctor = s.constructors[0]
            made[name] = AdtVal(ctor.name,
                                tuple(made[f.name] for _, f in ctor.selectors))
    return made[sort.name]


@dataclass(frozen=True)
class Model:
    constants: dict       # name -> Value (covers variables as well)
    functions: dict       # name -> (default Value, {arg tuple: Value})
    universes: dict       # uninterpreted sort name -> size

    def with_constant(self, name, value: Value) -> "Model":
        if name in self.constants:
            raise ModelError(f"'{name}' is already interpreted")
        consts = dict(self.constants)
        consts[name] = value
        return Model(consts, self.functions, self.universes)


def eval_term(model: Model, sig: Signature, term: Term) -> Value:
    return _eval(model, sig, term, {})


def _eval(model, sig, term, memo) -> Value:
    """Value of term, by an iterative post-order walk memoized by term id in
    memo, so any depth evaluates and each distinct subterm once."""
    if not term.children:
        return _apply(model, sig, term, ())
    hit = memo.get(term.id)
    if hit is not None:
        return hit
    for t in post_order(term, memo):
        memo[t.id] = _apply(model, sig, t, [memo[c.id] for c in t.children])
    return memo[term.id]


def _apply(model, sig, term, args) -> Value:
    """Value of term's symbol applied to the values of its arguments."""
    label = term.label
    if is_numeral(label):
        return IntVal(int(label))
    if label == "true":
        return BoolVal(True)
    if label == "false":
        return BoolVal(False)
    if label in ARITH_FUNS:
        a, b = args
        if not isinstance(a, IntVal) or not isinstance(b, IntVal):
            raise ModelError(f"arithmetic on non-integers in {term!r}")
        if label == "+":
            return IntVal(a.n + b.n)
        if label == "-":
            return IntVal(a.n - b.n)
        if label == "*":
            return IntVal(a.n * b.n)
        if label == ">":
            return BoolVal(a.n > b.n)
        if label == "<":
            return BoolVal(a.n < b.n)
        if label == ">=":
            return BoolVal(a.n >= b.n)
        return BoolVal(a.n <= b.n)
    if label == "read":
        return array_read(args[0], args[1])
    if label == "write":
        return array_write(args[0], args[1], args[2])
    if label == "ueq":
        return BoolVal(_equal(args[0], args[1]))
    if label == "distinct":
        return BoolVal(not _equal(args[0], args[1]))
    role = sig.datatype.get(label)
    if role is not None:
        kind, ctor, i = role
        if kind == "constructor":
            return AdtVal(label, tuple(args))
        matches = isinstance(args[0], AdtVal) and args[0].ctor == ctor.name
        if kind == "tester":
            return BoolVal(matches)
        return args[0].args[i] if matches else default_value(ctor.selectors[i][1])
    if label in model.constants:
        return model.constants[label]
    if label in model.functions:
        default, table = model.functions[label]
        return table.get(tuple(args), default)
    raise ModelError(f"symbol '{label}' has no interpretation")


def _equal(a: Value, b: Value) -> bool:
    """a == b, by an explicit stack of the pairs of parts still to compare,
    so values of any depth compare: as the dataclasses' own __eq__, two
    values are equal when they have one class and equal fields."""
    if a.__class__ is not ArrayVal and a.__class__ is not AdtVal:
        return a == b  # an Int, Bool or element value, whose fields are flat
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is ArrayVal:
            if len(a.entries) != len(b.entries):
                return False
            pending.append((a.default, b.default))
            for (ka, va), (kb, vb) in zip(a.entries, b.entries):
                pending += ((ka, kb), (va, vb))
        elif cls is AdtVal:
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return False
            pending += zip(a.args, b.args)
        elif a != b:
            return False
    return True


def holds(model: Model, sig: Signature, lit: Literal, _memo=None) -> bool:
    memo = {} if _memo is None else _memo
    same = _equal(_eval(model, sig, lit.lhs, memo), _eval(model, sig, lit.rhs, memo))
    return not same if lit.kind == "diseq" else same


def satisfies(model: Model, sig: Signature, formula) -> bool:
    memo = {}
    return all(holds(model, sig, lit, memo) for lit in formula.literals)


# -- model files -------------------------------------------------------------

def parse_model(text: str, sig: Signature) -> Model:
    """Read a model file
    ``(define-value name value)`` / ``(define-fun-values name (default v)
    ((arg ...) v) ...)`` / ``(universe S k)``.  Each name must be a
    variable or an uninterpreted symbol declared in sig, not a builtin,
    numeral, constructor, tester or selector, and each value is read
    against the sort it is declared with.  A universe is given at most
    once, for a declared uninterpreted sort S, and has k >= 1 elements;
    every ``(elem S n)`` in a value then has 0 <= n < k.

    The text is split into one token list (``sexpr.tokens``), walked by
    index: the universes first, wherever they stand, then each command in
    turn, its values built children first by one explicit stack.  One
    ``Elem`` stands for each ``(elem S k)`` of a read.  Nothing checks the
    parentheses up front: when reading fails, the text is read as forms
    first, so that an unbalanced ')' or an unclosed '(' is the error
    reported, as it is when it comes first in the text."""
    toks = tokens(text)
    try:
        try:
            return _Reader(toks, sig).model()
        except (InputError, LocatedError, IndexError):
            # an unbalanced ')' or an unclosed '(' is reported first; only
            # an unclosed '(' lets the reader run off the end of toks
            read_all(text)
            raise
    except LocatedError as e:
        raise ModelError(e.located(text)) from None


_PARENS = frozenset("()")
_PENDING = object()  # an array's default or key not read yet


class _Reader:
    """One read of a model file.  A list whose length decides an error (a
    command, a (default v), an entry, a constructor value) is not counted
    before its parts are read: while it is open it waits in ``lists`` as
    (ordinal of its '(', number of children, error), and it raises its
    error if it closes early or late.  When reading fails inside a command,
    the outermost open list of another length is the error, as it is when
    every length is checked before the parts."""

    def __init__(self, toks, sig):
        self.toks, self.sig = toks, sig
        self.universes, self.universe_ends = _universes(toks, sig)
        self.elems = {}  # (S, k) token pair -> its one Elem
        self.lists = []
        self.constants, self.functions = {}, {}

    def model(self) -> Model:
        toks = self.toks
        k = 0
        while k < len(toks):
            if toks[k] != "(" or toks[k + 1] in _PARENS:
                raise ModelError("expected a model command")
            head = toks[k + 1]
            if head == "universe" and k in self.universe_ends:
                k = self.universe_ends[k]
                continue
            if head not in ("define-value", "define-fun-values"):
                raise ModelError(f"unknown model command '{head}'")
            try:
                if head == "define-value":
                    k = self.define_value(k)
                else:
                    k = self.define_fun_values(k)
            except (InputError, LocatedError):
                _check_lengths(toks, self.lists)
                raise
        return Model(self.constants, self.functions, self.universes)

    def define_value(self, k):
        """Read the (define-value name value) at k; the ordinal after it."""
        self.lists.append((k, 3, "unknown model command 'define-value'"))
        name = _name(self.toks, k + 2)
        args, sort = _declared(self.sig, name)
        if args:
            raise ModelError(f"'{name}' takes arguments: use define-fun-values")
        if name in self.constants:
            raise ModelError(f"duplicate value for '{name}'")
        self.constants[name], k = self.value(k + 3, sort)
        return _close(self.toks, k, self.lists)

    def define_fun_values(self, k):
        """Read the (define-fun-values name (default v) ((arg ...) v) ...)
        at k; the ordinal after it."""
        toks, lists = self.toks, self.lists
        j = k + 2
        if toks[j] == ")" or toks[read_form(toks, j)[1]] == ")":  # no default
            raise ModelError("unknown model command 'define-fun-values'")
        name = _name(toks, j)
        args, result = _declared(self.sig, name)
        _check_default(toks, j + 1)
        lists.append((j + 1, 2, "expected (default value)"))
        default, j = self.value(j + 3, result)
        j = _close(toks, j, lists)
        bad = f"bad table entry for '{name}'"
        table = {}
        while toks[j] != ")":
            if toks[j] != "(" or toks[j + 1] != "(":
                raise ModelError(bad)
            lists += ((j, 2, bad), (j + 1, len(args), bad))
            j += 2
            key = []
            for sort in args:
                v, j = self.value(j, sort)
                key.append(v)
            j = _close(toks, j, lists)
            key = tuple(key)
            if key in table:
                raise ModelError(f"duplicate table entry for '{name}'")
            table[key], j = self.value(j, result)
            j = _close(toks, j, lists)
        self.functions[name] = (default, table)
        return j + 1

    def value(self, k, sort):
        """The value at token k, read against sort, and the ordinal after
        it.  Each level must have its sort's shape, so a value is never
        read deeper than its sort is nested.  An element must lie in its
        sort's universe when the model gives one.  The arrays, as [sort,
        default, {key: value}, key], and the datatype values, as
        (constructor, arguments), being read wait on an explicit stack, so
        a value of any depth reads, children first and left to right."""
        toks, lists, elems = self.toks, self.lists, self.elems
        stack = []
        while True:
            if toks[k] != "(":
                value = _atom(toks, k, sort)
                k += 1
            elif toks[k + 1] == "elem" and toks[k + 2] not in _PARENS \
                    and toks[k + 3] not in _PARENS and toks[k + 4] == ")":
                pair = (toks[k + 2], toks[k + 3])
                value = elems.get(pair)
                if value is None:
                    value = elems[pair] = _elem(toks, k, sort, self.universes)
                elif sort.name != pair[0]:  # sort names are unique in sig
                    raise LocatedError(f"expected a value of sort {sort!r}", k)
                k += 5
            elif toks[k + 1] == "array" and toks[k + 2] != ")":
                if sort.kind is not SortKind.ARRAY:
                    raise LocatedError(f"expected a value of sort {sort!r}", k)
                _check_default(toks, k + 2)
                lists.append((k + 2, 2, "expected (default value)"))
                stack.append([sort, _PENDING, {}, None])
                k += 4
                sort = sort.value
                continue
            else:
                ctor = _constructor(toks, k, sort)
                lists.append((k, 1 + ctor.arity, f"constructor '{ctor.name}' "
                                                 f"expects {ctor.arity} values"))
                k += 2
                if ctor.selectors:
                    stack.append((ctor, []))
                    sort = ctor.selectors[0][1]
                    continue
                value = AdtVal(ctor.name, ())
                k = _close(toks, k, lists)
            # the value is whole: it is the next part of the innermost open one
            while stack:
                top = stack[-1]
                if type(top) is tuple:
                    ctor, args = top
                    args.append(value)
                    if len(args) < len(ctor.selectors):
                        sort = ctor.selectors[len(args)][1]
                        break
                    k = _close(toks, k, lists)
                    stack.pop()
                    value = AdtVal(ctor.name, tuple(args))
                    continue
                array, default, mapping, key = top
                if key is _PENDING:
                    if value in mapping:
                        raise ModelError(f"duplicate array key {value!r}")
                    top[3] = value
                    sort = array.value
                    break
                k = _close(toks, k, lists)
                if default is _PENDING:
                    top[1] = value
                else:
                    mapping[key] = value
                if toks[k] == "(":  # the next entry, (key value)
                    lists.append((k, 2, "array entry must be (key value)"))
                    top[3] = _PENDING
                    k += 1
                    sort = array.index
                    break
                if toks[k] != ")":
                    raise ModelError("array entry must be (key value)")
                k += 1
                stack.pop()
                value = mk_array(top[1], mapping)
            else:
                return value, k


def _universes(toks, sig):
    """Sort name -> size for each top-level ``(universe S k)``, read before
    any value so that an element is checked wherever it appears, and the
    ordinal after each such command by the ordinal of its '('.  A
    candidate is a '(' before a 'universe' token, found by list.index; it
    is top-level when as many '(' as ')' come before it, counted on the
    slices between candidates."""
    universes, ends = {}, {}
    i = depth = counted = 0
    while True:
        try:
            i = toks.index("universe", i + 1)
        except ValueError:
            return universes, ends
        at = i - 1
        if toks[at] != "(":
            continue
        part = toks[counted:at]
        depth += part.count("(") - part.count(")")
        counted = at
        if depth:
            continue
        form, end = read_form(toks, at)
        if len(form) != 3:
            continue
        k = _int(toks, form.at_child(2))
        name = _name(toks, at + 2)
        sort = sig.sorts.get(name)
        if sort is None or sort.kind is not SortKind.UNINTERPRETED:
            raise LocatedError(f"'{name}' is not a declared uninterpreted sort", at + 2)
        if k < 1:
            raise LocatedError(f"universe of '{name}' is empty", at + 3)
        if name in universes:
            raise LocatedError(f"duplicate universe for '{name}'", at + 2)
        universes[name] = k
        ends[at] = end


def _declared(sig, name):
    """(argument sorts, result sort) of name, a variable or an
    uninterpreted symbol declared in sig: the names a model defines."""
    if name in sig.variables:
        return (), sig.variables[name]
    if name not in sig.uninterpreted:
        raise ModelError(f"'{name}' is not declared")
    return sig.functions[name]


def _atom(toks, k, sort) -> Value:
    """The value of the atom at k: true, false or an integer, of sort."""
    v = toks[k]
    if v == "true" or v == "false":
        if sort.kind is SortKind.BOOL:
            return BoolVal(v == "true")
    elif v.lstrip("-").isdigit():
        n = _int(toks, k)
        if sort.kind is SortKind.INT:
            return IntVal(n)
    else:
        raise LocatedError(f"bad value '{v}'", k)
    raise LocatedError(f"expected a value of sort {sort!r}", k)


def _elem(toks, k, sort, universes) -> Elem:
    """The element (elem S n) at k, of the uninterpreted sort."""
    name = toks[k + 2]
    n = _int(toks, k + 3)
    if sort.kind is not SortKind.UNINTERPRETED or sort.name != name:
        raise LocatedError(f"expected a value of sort {sort!r}", k)
    size = universes.get(name)
    if size is not None and not 0 <= n < size:
        raise LocatedError(f"element {n} is outside the universe of "
                           f"'{name}' (size {size})", k + 3)
    return Elem(name, n)


def _constructor(toks, k, sort):
    """The constructor of sort that heads the list at k, which is neither
    (elem S n) of two atoms nor (array ...) with parts.  An (elem ...) of
    three children is an element one of whose parts is not an atom."""
    head = toks[k + 1]
    if head in _PARENS:
        raise ModelError("bad value")
    if head == "elem" and len(read_form(toks, k)[0]) == 3:
        raise ModelError("expected a symbol")
    for ctor in sort.constructors:
        if ctor.name == head:
            return ctor
    raise LocatedError(f"expected a value of sort {sort!r}", k)


def _check_default(toks, k):
    """Check that the list at k opens as (default ...); its length is
    checked as it closes."""
    if toks[k] == "(" and toks[k + 1] == "default":
        return
    if toks[k] == "(" and toks[k + 1] == "(" and len(read_form(toks, k)[0]) == 2:
        raise ModelError("expected a symbol")
    raise ModelError("expected (default value)")


def _close(toks, k, lists):
    """The ordinal after the ')' at k that closes the innermost open list
    of lists, or that list's error."""
    if toks[k] != ")":
        raise ModelError(lists[-1][2])
    lists.pop()
    return k + 1


def _check_lengths(toks, lists):
    """Raise the error of the outermost list of lists whose number of
    children is other than assumed.  Each list lies inside the one before
    it, so one reading of the first as a Form counts them all."""
    if not lists:
        return
    sizes, pending = {}, [read_form(toks, lists[0][0])[0]]
    while pending:
        form = pending.pop()
        sizes[form.at] = len(form)
        pending += [c for c in form if isinstance(c, Form)]
    for at, n, error in lists:
        if sizes[at] != n:
            raise ModelError(error) from None


def _name(toks, k) -> str:
    if toks[k] == "(":
        raise ModelError("expected a symbol")
    return toks[k]


def _int(toks, k) -> int:
    """The integer at token k: an optional '-' and a numeral of ASCII
    digits, as in problem input (terms.is_numeral)."""
    text = toks[k]
    if text == "(":
        raise ModelError("expected a symbol")
    if not is_numeral(text[1:] if text.startswith("-") else text):
        raise LocatedError(f"expected an integer, got '{text}'", k)
    return int(text)
