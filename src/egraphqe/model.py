"""Finite first-order models and literal evaluation.

A model gives values to constants and variables, finite tables with a
default to functions, and sizes to uninterpreted sorts.  An Int or Bool
value is a Python int or bool.  Elements, arrays and datatype values are
hash-consed (Filliâtre & Conchon, *Type-safe modular hash-consing*, 2006):
each is built from values already built, and its class keeps one live
object per value in a weak intern table, so two values are equal exactly
when they are one object, and no comparison or lookup descends into them,
however deep.  Arrays are finite maps plus a default: entries equal to the
default are dropped and the rest are ordered by their keys' content (an
array or datatype key by its text), so equal arrays are one object and
print alike whatever the process made before.  Datatype values are a
constructor over argument values.  The finite-model oracle builds its
values with the same constructors, and what each builtin symbol computes
is one table, OPS, that the oracle compiles too.  Applying a selector to
the wrong constructor returns a fixed per-sort default value.  What a
symbol denotes is looked up in the Signature: a model interprets only the
variables and the uninterpreted symbols (sig.uninterpreted), and
constructors, testers and selectors are told apart by sig.datatype, the
table the finite-model oracle reads too.
"""
from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass

from .sexpr import Form, LocatedError, read_form, read_text
from .terms import (ARITH_FUNS, InputError, Literal, Signature, Sort,
                    SortKind, Term, is_numeral, post_order, sorts_within)


class ModelError(InputError):
    pass


# -- values ------------------------------------------------------------------

class _Table(dict):
    """Intern key -> weak reference to the one live value with that key.
    The key holds the value's parts, interned values or atoms, and the
    classes of the atoms: True == 1 and hash(True) == hash(1), so without
    them (mk true) would be found as (mk 1)."""

    def enter(self, key, value):
        self[key] = weakref.KeyedRef(value, self._forget, key)

    def _forget(self, ref):
        if self.get(ref.key) is ref:  # no new value has taken the key
            del self[ref.key]


class _Interned:
    """A hash-consed value: equal and hashed as object does, by identity."""
    __slots__ = ("__weakref__",)

    def __repr__(self):
        return show(self)


class Elem(_Interned):
    """Element k of the uninterpreted sort named sort."""
    __slots__ = ("sort", "k")
    _table = _Table()

    def __new__(cls, sort: str, k: int):
        ref = cls._table.get((sort, k))
        value = ref and ref()
        if value is None:
            value = object.__new__(cls)
            value.sort, value.k = sort, k
            cls._table.enter((sort, k), value)
        return value


class ArrayVal(_Interned):
    """An array: default, and entries, the sorted ((key, value), ...) with
    value != default.  Built by mk_array."""
    __slots__ = ("default", "entries")
    _table = _Table()


class AdtVal(_Interned):
    """The datatype value of the constructor named ctor over args."""
    __slots__ = ("ctor", "args")
    _table = _Table()

    def __new__(cls, ctor: str, args: tuple):
        key = (ctor, args, *map(type, args))
        ref = cls._table.get(key)
        value = ref and ref()
        if value is None:
            value = object.__new__(cls)
            value.ctor, value.args = ctor, args
            cls._table.enter(key, value)
        return value


_K = operator.attrgetter("k")


def mk_array(default, mapping) -> ArrayVal:
    """The array of default and mapping (a dict, or (key, value) pairs),
    its entries equal to default dropped and the rest ordered by key: ints
    and bools by value, elements by number, arrays and datatype values by
    their text (show), so the order depends on the keys alone."""
    if mapping.__class__ is not dict:
        mapping = dict(mapping)
    keys = [k for k, v in mapping.items() if v != default]
    if len(keys) > 1:
        first = keys[0]
        keys.sort(key=None if isinstance(first, int)
                  else _K if first.__class__ is Elem else show)
    entries = tuple([(k, mapping[k]) for k in keys])
    key = (default, entries, type(default), type(keys[0]) if keys else None)
    ref = ArrayVal._table.get(key)
    value = ref and ref()
    if value is None:
        value = object.__new__(ArrayVal)
        value.default, value.entries = default, entries
        ArrayVal._table.enter(key, value)
    return value


def array_read(arr: ArrayVal, key):
    for k, v in arr.entries:
        if k == key:
            return v
    return arr.default


def array_write(arr: ArrayVal, key, val) -> ArrayVal:
    mapping = dict(arr.entries)
    mapping[key] = val
    return mk_array(arr.default, mapping)


# What each builtin symbol computes from its arguments' values: the model
# evaluator and the finite-model oracle both read this one table.
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       ">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le,
       "read": array_read, "write": array_write,
       "ueq": operator.eq, "distinct": operator.ne}


def default_values(within) -> dict:
    """Each sort's default value, by name: 0, false, element 0, the array
    whose default is its value sort's, or the first constructor over its
    fields' defaults.  within holds each sort after the sorts inside it
    (sorts_within), so no sort's default recurses, however deep."""
    made = {}
    for name, s in within.items():
        if s.kind is SortKind.INT:
            made[name] = 0
        elif s.kind is SortKind.BOOL:
            made[name] = False
        elif s.kind is SortKind.UNINTERPRETED:
            made[name] = Elem(name, 0)
        elif s.kind is SortKind.ARRAY:
            made[name] = mk_array(made[s.value.name], ())
        else:
            ctor = s.constructors[0]
            made[name] = AdtVal(ctor.name,
                                tuple(made[f.name] for _, f in ctor.selectors))
    return made


def default_value(sort: Sort):
    """The default value of sort (default_values)."""
    return default_values(sorts_within([sort]))[sort.name]


def show(value) -> str:
    """The text of value as a model file writes it: an integer, true,
    false, (elem S k), (array (default d) (k v) ...) or (ctor a ...).  The
    parts still to print wait on one explicit stack, text before values,
    so a value of any depth prints."""
    out = []
    stack = [value]
    while stack:
        v = stack.pop()
        cls = v.__class__
        if cls is str:
            out.append(v)
        elif cls is bool:
            out.append("true" if v else "false")
        elif cls is int:
            out.append(str(v))
        elif cls is Elem:
            out.append(f"(elem {v.sort} {v.k})")
        elif cls is ArrayVal:
            parts = ["(array (default ", v.default, ")"]
            for k, x in v.entries:
                parts += (" (", k, " ", x, ")")
            parts.append(")")
            stack += reversed(parts)
        else:
            parts = ["(" + v.ctor]
            for a in v.args:
                parts += (" ", a)
            parts.append(")")
            stack += reversed(parts)
    return "".join(out)


@dataclass(frozen=True)
class Model:
    constants: dict       # name -> value (covers variables as well)
    functions: dict       # name -> (default value, {arg tuple: value})
    universes: dict       # uninterpreted sort name -> size

    def with_constant(self, name, value) -> "Model":
        if name in self.constants:
            raise ModelError(f"'{name}' is already interpreted")
        consts = dict(self.constants)
        consts[name] = value
        return Model(consts, self.functions, self.universes)


def eval_term(model: Model, sig: Signature, term: Term):
    return _eval(model, sig, term, {})


def _eval(model, sig, term, memo):
    """Value of term, by an iterative post-order walk memoized by term id in
    memo, so any depth evaluates and each distinct subterm once.  memo also
    keeps, by sort name, the defaults that selectors built (_apply)."""
    if not term.children:
        return _apply(model, sig, term, (), memo)
    hit = memo.get(term.id)
    if hit is not None:
        return hit
    for t in post_order(term, memo):
        memo[t.id] = _apply(model, sig, t, [memo[c.id] for c in t.children],
                            memo)
    return memo[term.id]


def _apply(model, sig, term, args, memo):
    """Value of term's symbol applied to the values of its arguments.  A
    selector applied to another constructor's value gives its sort's
    default, built once per walk and kept in memo under the sort's name."""
    label = term.label
    op = OPS.get(label)
    if op is not None:
        if label in ARITH_FUNS:
            a, b = args
            if a.__class__ is not int or b.__class__ is not int:
                raise ModelError(f"arithmetic on non-integers in {term!r}")
        return op(*args)
    if is_numeral(label):
        return int(label)
    if label == "true":
        return True
    if label == "false":
        return False
    role = sig.datatype.get(label)
    if role is not None:
        kind, ctor, i = role
        if kind == "constructor":
            return AdtVal(label, tuple(args))
        matches = args[0].__class__ is AdtVal and args[0].ctor == ctor.name
        if kind == "tester":
            return matches
        if matches:
            return args[0].args[i]
        sort = ctor.selectors[i][1]
        if sort.name not in memo:
            memo[sort.name] = default_value(sort)
        return memo[sort.name]
    if label in model.constants:
        return model.constants[label]
    if label in model.functions:
        default, table = model.functions[label]
        return table.get(tuple(args), default)
    raise ModelError(f"symbol '{label}' has no interpretation")


def holds(model: Model, sig: Signature, lit: Literal, _memo=None) -> bool:
    memo = {} if _memo is None else _memo
    same = _eval(model, sig, lit.lhs, memo) == _eval(model, sig, lit.rhs, memo)
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
    turn, its values built children first by one explicit stack, so each
    is interned from interned parts.  Each ``(elem S k)`` token pair is
    checked once per read.  ``sexpr.read_text`` is the frame: it drops a
    byte order mark and reports an unbalanced ')' or an unclosed '(' first."""
    return read_text(text, lambda toks: _Reader(toks, sig).model(), ModelError)


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
        self.elems = {}  # (S, k) token pair -> its Elem, checked
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
                        raise ModelError(f"duplicate array key {show(value)}")
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


def _atom(toks, k, sort):
    """The value of the atom at k: true, false or an integer, of sort."""
    v = toks[k]
    if v == "true" or v == "false":
        if sort.kind is SortKind.BOOL:
            return v == "true"
    elif v.lstrip("-").isdigit():
        n = _int(toks, k)
        if sort.kind is SortKind.INT:
            return n
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
