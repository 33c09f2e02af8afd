"""SMT-LIB-subset reader for problem files.

Supported commands:

    (declare-sort S 0)
    (declare-datatype P ((ctor (sel Sort) ...) ...))     ; non-recursive
    (declare-fun f (Sort ...) Sort)
    (declare-const c Sort)
    (declare-var x Sort)          ; marks x as a variable to eliminate
    (assert LIT)
    (qel) | (mbp)                 ; optional trailing command marker

Literals are (= t u), (distinct t u), (ueq t u), Bool applications, and
negated Bool applications; (not (distinct t u)) is read as (= t u), and
distinct takes exactly two arguments in both forms.  The two sides of
every literal have one sort.  Terms use read/write
for array access and the usual prefix arithmetic symbols; numerals are
auto-declared.  Inside a term, (distinct t u) is an ordinary Bool term.
``peq`` is reserved for the partial equalities of array projection and
rejected in input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sexpr import LocatedError, read_all
from .terms import (BOOL, Formula, InputError, Literal, Signature,
                    TermStore, mk_formula)


class ParseError(InputError):
    pass


@dataclass
class Problem:
    sig: Signature
    store: TermStore
    formula: Formula
    command: Optional[str]  # "qel" | "mbp" | None


def parse_problem(text: str) -> Problem:
    try:
        return _problem(read_all(text))
    except LocatedError as e:
        raise ParseError(e.located(text)) from None


def _problem(forms) -> Problem:
    sig = Signature()
    store = TermStore(sig)
    literals = []
    command = None
    for form in forms:
        if command is not None:
            raise ParseError(f"content after ({command})")
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ParseError(f"expected a command, got {_show(form)}")
        head = form[0]
        if head == "declare-sort":
            name, arity = _exact(form, 2, "declare-sort (name arity)")
            if _atom(arity) != "0":
                raise ParseError("only 0-ary sorts are supported")
            sig.declare_sort(_atom(name))
        elif head == "declare-datatype":
            name, ctors = _exact(form, 2, "declare-datatype (name ctor-list)")
            sig.declare_datatype(_atom(name), _parse_ctors(sig, ctors))
        elif head == "declare-fun":
            name, args, _ = _exact(form, 3, "declare-fun (name args result)")
            if not isinstance(args, list):
                raise ParseError("declare-fun needs an argument sort list")
            sig.declare_fun(_atom(name),
                            [_sort(sig, args, i) for i in range(len(args))],
                            _sort(sig, form, 3))
        elif head == "declare-const":
            name, _ = _exact(form, 2, "declare-const (name sort)")
            sig.declare_const(_atom(name), _sort(sig, form, 2))
        elif head == "declare-var":
            name, _ = _exact(form, 2, "declare-var (name sort)")
            sig.declare_var(_atom(name), _sort(sig, form, 2))
        elif head == "assert":
            (body,) = _exact(form, 1, "assert (literal)")
            literals.append(_literal(store, body))
        elif head in ("qel", "mbp"):
            if len(form) != 1:
                raise ParseError(f"({head}) takes no arguments")
            command = head
        else:
            raise LocatedError(f"unknown command '{head}'", form, 0)
    return Problem(sig, store, mk_formula(store, literals), command)


def parse_formula(text: str):
    """Convenience entry point: (Signature, Formula) of the input."""
    prob = parse_problem(text)
    return prob.sig, prob.formula


def _parse_ctors(sig, ctors):
    if not isinstance(ctors, list) or not ctors:
        raise ParseError("declare-datatype needs a non-empty constructor list")
    out = []
    for c in ctors:
        if not isinstance(c, list) or not c:
            raise ParseError("constructor must be (name (sel Sort) ...)")
        cname = _atom(c[0])
        sels = []
        for s in c[1:]:
            if not isinstance(s, list) or len(s) != 2:
                raise ParseError(f"selector of '{cname}' must be (name Sort)")
            sels.append((_atom(s[0]), _sort(sig, s, 1)))
        out.append((cname, sels))
    return out


def _sort(sig, parent, index):
    """The sort written as child index of parent.  The forms are visited
    left to right, an array's index sort before its value sort, by an
    explicit stack of pending forms (None marks an array whose two sorts
    are built), so a sort of any nesting depth parses."""
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
                raise LocatedError(f"unknown sort '{form}'", parent, index) from None
        elif isinstance(form, list) and len(form) == 3 and _atom(form[0]) == "Array":
            pending += [(None, None), (form, 2), (form, 1)]
        else:
            raise ParseError(f"bad sort {_show(form)}")
    return built[0]


_KINDS = {"=": "eq", "distinct": "diseq", "ueq": "ueq"}


def _literal(store, form) -> Literal:
    if isinstance(form, list) and form and isinstance(form[0], str):
        head = form[0]
        if head in _KINDS and len(form) == 3:
            return _binary(store, _KINDS[head], form)
        if head == "not" and len(form) == 2:
            inner = form[1]
            if isinstance(inner, list) and inner and _atom(inner[0]) == "distinct":
                if len(inner) != 3:
                    raise ParseError("'distinct' takes two arguments, "
                                     f"got {len(inner) - 1}")
                return _binary(store, "eq", inner)
            app = _term(store, inner)
            _need_bool(app)
            return Literal("eq", app, store.bot)
    app = _term(store, form)
    _need_bool(app)
    return Literal("eq", app, store.top)


def _binary(store, kind, form) -> Literal:
    """The literal of the given kind between the two arguments of form,
    which must have one sort."""
    lhs, rhs = _term(store, form[1]), _term(store, form[2])
    if lhs.sort is not rhs.sort and lhs.sort != rhs.sort:
        raise ParseError(f"'{form[0]}' needs two arguments of one sort, "
                         f"got {lhs.sort!r} and {rhs.sort!r}")
    return Literal(kind, lhs, rhs)


def _need_bool(term):
    if term.sort is not BOOL and term.sort != BOOL:
        raise ParseError(f"literal '{term!r}' is not Bool-sorted")


def _term(store, form):
    """The term of form, built bottom-up and left to right by an explicit
    stack of (application, arguments built so far), so any depth parses."""
    if isinstance(form, str):
        return _const(store, form)
    _check_app(form)
    stack = [(form, [])]
    while True:
        form, args = stack[-1]
        i, n = len(args) + 1, len(form)
        while i < n and isinstance(form[i], str):
            args.append(_const(store, form[i]))
            i += 1
        if i < n:
            _check_app(form[i])
            stack.append((form[i], []))
            continue
        stack.pop()
        term = store.mk_app(form[0], args)
        if not stack:
            return term
        stack[-1][1].append(term)


def _const(store, atom):
    try:
        return store.mk_const(atom)
    except InputError:
        # sort_of rejects every label that mk_const rejects, with the
        # message for a symbol used as a constant
        store.sig.sort_of(atom)
        raise


def _check_app(form):
    if not (isinstance(form, list) and form and isinstance(form[0], str)):
        raise ParseError(f"bad term {_show(form)}")
    if form[0] == "=":
        raise LocatedError("nested '='", form, 0)
    if form[0] == "peq":
        raise LocatedError("'peq' is reserved", form, 0)


def _exact(form, n, what):
    if len(form) != n + 1:
        raise ParseError(f"malformed {what}")
    return form[1:]


def _atom(form) -> str:
    if not isinstance(form, str):
        raise ParseError(f"expected a symbol, got {_show(form)}")
    return form


def _show(form):
    """form as text for an error message, by an explicit stack of pending
    forms and output strings (atoms already quoted), so a malformed form of
    any depth is shown."""
    out, stack = [], [_quoted(form)]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            out.append(f)
        else:
            out.append("(")
            stack.append(")")
            for i in range(len(f) - 1, -1, -1):
                stack.append(_quoted(f[i]))
                if i:
                    stack.append(" ")
    return "".join(out)


def _quoted(form):
    return f"'{form}'" if isinstance(form, str) else form
