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

from .sexpr import LocatedError, read_all
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
    every ``(elem S n)`` in a value then has 0 <= n < k."""
    try:
        return _model(read_all(text), sig)
    except LocatedError as e:
        raise ModelError(e.located(text)) from None


def _model(forms, sig) -> Model:
    constants = {}
    functions = {}
    universes = _universes(forms, sig)
    for form in forms:
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ModelError("expected a model command")
        head = form[0]
        if head == "define-value" and len(form) == 3:
            name = _name(form[1])
            args, sort = _declared(sig, name)
            if args:
                raise ModelError(f"'{name}' takes arguments: use define-fun-values")
            if name in constants:
                raise ModelError(f"duplicate value for '{name}'")
            constants[name] = _value(form, 2, sort, universes)
        elif head == "define-fun-values" and len(form) >= 3:
            name = _name(form[1])
            args, result = _declared(sig, name)
            default = _default(form, 2, result, universes)
            table = {}
            for entry in form[3:]:
                if not isinstance(entry, list) or len(entry) != 2 \
                        or not isinstance(entry[0], list) \
                        or len(entry[0]) != len(args):
                    raise ModelError(f"bad table entry for '{name}'")
                key = tuple(_value(entry[0], i, s, universes)
                            for i, s in enumerate(args))
                if key in table:
                    raise ModelError(f"duplicate table entry for '{name}'")
                table[key] = _value(entry, 1, result, universes)
            functions[name] = (default, table)
        elif head == "universe" and len(form) == 3:
            pass  # read by _universes
        else:
            raise ModelError(f"unknown model command '{head}'")
    return Model(constants, functions, universes)


def _universes(forms, sig) -> dict:
    """Sort name -> size for each ``(universe S k)`` in forms, read before
    any value so that an element is checked wherever it appears."""
    universes = {}
    for form in forms:
        if isinstance(form, list) and len(form) == 3 and form[0] == "universe":
            k = _int(form, 2)
            name = _name(form[1])
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


def _declared(sig, name):
    """(argument sorts, result sort) of name, a variable or an
    uninterpreted symbol declared in sig: the names a model defines."""
    if name in sig.variables:
        return (), sig.variables[name]
    if name not in sig.uninterpreted:
        raise ModelError(f"'{name}' is not declared")
    return sig.functions[name]


def _value(form, index, sort, universes) -> Value:
    """The value written as child index of form, read against sort.  Each
    level must have its sort's shape, so a value is never read deeper than
    its sort is nested.  An element must lie in its sort's universe when
    the model gives one.  The readers of the arrays and datatype values
    being read wait on an explicit stack, so a value of any depth reads,
    depth first and left to right as a recursive reader would."""
    value = _read(form, index, sort, universes)
    if isinstance(value, Value):
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


def _read(form, index, sort, universes):
    """The value at child index of form if it is an atom or an element,
    else a reader of its parts: a generator that reads each part in turn,
    yields the reader of a part that is compound itself and is sent back
    its value, and returns the whole."""
    v = form[index]
    if isinstance(v, str):
        if v in ("true", "false"):
            if sort.kind is SortKind.BOOL:
                return BoolVal(v == "true")
        elif v.lstrip("-").isdigit():
            n = _int(form, index)
            if sort.kind is SortKind.INT:
                return IntVal(n)
        else:
            raise LocatedError(f"bad value '{v}'", form.at_child(index))
    elif not v or not isinstance(v[0], str):
        raise ModelError("bad value")
    elif v[0] == "elem" and len(v) == 3:
        name = _name(v[1])
        n = _int(v, 2)
        if sort.kind is SortKind.UNINTERPRETED and sort.name == name:
            size = universes.get(name)
            if size is not None and not 0 <= n < size:
                raise LocatedError(f"element {n} is outside the universe of "
                                   f"'{name}' (size {size})", v.at_child(2))
            return Elem(name, n)
    elif v[0] == "array" and len(v) >= 2:
        if sort.kind is SortKind.ARRAY:
            return _array_reader(v, sort, universes)
    else:
        for ctor in sort.constructors:
            if ctor.name == v[0]:
                if len(v) != 1 + ctor.arity:
                    raise ModelError(f"constructor '{ctor.name}' expects "
                                     f"{ctor.arity} values")
                return _adt_reader(v, ctor, universes)
    raise LocatedError(f"expected a value of sort {sort!r}", form.at_child(index))


def _array_reader(v, sort, universes):
    default = _read(_default_form(v, 1), 1, sort.value, universes)
    if not isinstance(default, Value):
        default = yield default
    mapping = {}
    for entry in v[2:]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ModelError("array entry must be (key value)")
        key = _read(entry, 0, sort.index, universes)
        if not isinstance(key, Value):
            key = yield key
        if key in mapping:
            raise ModelError(f"duplicate array key {key!r}")
        value = _read(entry, 1, sort.value, universes)
        if not isinstance(value, Value):
            value = yield value
        mapping[key] = value
    return mk_array(default, mapping)


def _adt_reader(v, ctor, universes):
    args = []
    for i, (_, s) in enumerate(ctor.selectors, start=1):
        arg = _read(v, i, s, universes)
        if not isinstance(arg, Value):
            arg = yield arg
        args.append(arg)
    return AdtVal(ctor.name, tuple(args))


def _default(form, index, sort, universes):
    """The value v of ``(default v)`` at child index of form."""
    return _value(_default_form(form, index), 1, sort, universes)


def _default_form(form, index):
    d = form[index]
    if not isinstance(d, list) or len(d) != 2 or _name(d[0]) != "default":
        raise ModelError("expected (default value)")
    return d


def _name(form) -> str:
    if not isinstance(form, str):
        raise ModelError("expected a symbol")
    return form


def _int(form, index) -> int:
    """The integer at child index of form: an optional '-' and a numeral of
    ASCII digits, as in problem input (terms.is_numeral)."""
    text = form[index]
    if not isinstance(text, str):
        raise ModelError("expected a symbol")
    if not is_numeral(text[1:] if text.startswith("-") else text):
        raise LocatedError(f"expected an integer, got '{text}'", form.at_child(index))
    return int(text)
