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

SMT-LIB ``(let ((x t) ...) body)`` may stand wherever a literal or a term
may, as the printer writes it around a literal whose tree blows up.  The
bindings of one let are parallel: their terms are read in the scope around
the let, and the names, distinct within one let, are entered together for
the body.  Nested lets are sequential, and an inner name shadows outer
names and declared symbols.  A name denotes its term, sort and all, and
out of its scope it is an unknown symbol.  ``let`` cannot be declared.

The text is split into one token list (``sexpr.tokens``), walked by index.
The terms of an assert are hash-consed straight from the tokens, and a
declaration is read as a small ``Form``, or directly when its sort is one
atom.  One reader, ``_term``, reads every term, lets and all, with one
explicit stack; it looks at the scope only while a let is open.  The
frame is ``sexpr.read_text``: it drops a byte order mark and reports an
unbalanced ')' or an unclosed '(' first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sexpr import Form, LocatedError, read_form, read_text
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
    return read_text(text, _problem, ParseError)


_PARENS = frozenset("()")


def _problem(toks) -> Problem:
    sig = Signature()
    store = TermStore(sig)
    literals = []
    command = None
    k = 0
    while k < len(toks):
        if command is not None:
            raise ParseError(f"content after ({command})")
        head = toks[k + 1] if toks[k] == "(" else None
        if head == "assert":
            literal, k = _assert(store, toks, k)
            literals.append(literal)
        elif head in ("declare-const", "declare-var") \
                and toks[k + 2] not in _PARENS and toks[k + 3] not in _PARENS \
                and toks[k + 4] == ")":
            sort = sig.sorts.get(toks[k + 3])
            if sort is None:
                raise LocatedError(f"unknown sort '{toks[k + 3]}'", k + 3)
            if head == "declare-const":
                sig.declare_const(toks[k + 2], sort)
            else:
                sig.declare_var(toks[k + 2], sort)
            k += 5
        else:
            form, k = read_form(toks, k)
            command = _command(sig, form)
    return Problem(sig, store, mk_formula(store, literals), command)


def _command(sig, form):
    """Enter the declaration form in sig, or return the command it names."""
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
    elif head in ("qel", "mbp"):
        if len(form) != 1:
            raise ParseError(f"({head}) takes no arguments")
        return head
    else:
        raise LocatedError(f"unknown command '{head}'", form.at + 1)
    return None


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
                raise LocatedError(f"unknown sort '{form}'",
                                   parent.at_child(index)) from None
        elif isinstance(form, list) and len(form) == 3 and _atom(form[0]) == "Array":
            pending += [(None, None), (form, 2), (form, 1)]
        else:
            raise ParseError(f"bad sort {_show(form)}")
    return built[0]


_KINDS = {"=": "eq", "distinct": "diseq", "ueq": "ueq"}

# The readers below take the token ordinal k of what they read and return
# it with the ordinal after it.  A literal's shape is told by its head and
# its number of arguments, which is known only once they are read.  So the
# arguments are read for the shape the head asks for, and when the count
# turns out other, the literal is read again as a Bool term, as it would
# have been read from the start; the terms met again are store hits, so the
# store gains the same terms in the same order.  When reading fails, the
# literal is read as a form to count its arguments, and an error that the
# count implies comes first.


def _assert(store, toks, k):
    """The literal of the (assert LIT) at k."""
    if toks[k + 2] == ")":
        raise ParseError("malformed assert (literal)")
    try:
        literal, j = _literal(store, toks, k + 2)
    except (InputError, LocatedError):
        if toks[read_form(toks, k + 2)[1]] != ")":
            raise ParseError("malformed assert (literal)") from None
        raise
    if toks[j] != ")":
        raise ParseError("malformed assert (literal)")
    return literal, j + 1


def _literal(store, toks, k, scope=None):
    if toks[k] == "(":
        head = toks[k + 1]
        kind = _KINDS.get(head)
        if kind is not None:
            return _binary(store, toks, k, kind, scope)
        if head == "not":
            return _negation(store, toks, k, scope)
        if head == "let":
            return _let_literal(store, toks, k)
    return _predicate(store, toks, k, scope)


def _let_literal(store, toks, k):
    """The literal under the lets at k.  Each let's bindings are read in the
    scope of the lets around it, then entered in the scope together, and
    the literal inside them all is read in the scope of them all."""
    scope, depth = {}, 0
    while toks[k] == "(" and toks[k + 1] == "let":
        bindings, k = _let_header(toks, k)
        scope.update([(name, _term(store, toks, at, scope)[0])
                      for name, at in bindings])
        depth += 1
    literal, k = _literal(store, toks, k, scope)
    for _ in range(depth):
        if toks[k] != ")":
            raise LocatedError("let takes one body", k)
        k += 1
    return literal, k


def _binary(store, toks, k, kind, scope):
    """The literal of the given kind between the two arguments of the list
    at k, which must have one sort."""
    head = toks[k + 1]
    lhs = rhs = None
    j = k + 2
    try:
        if toks[j] != ")":
            lhs, j = _term(store, toks, j, scope)
            if toks[j] != ")":
                rhs, j = _term(store, toks, j, scope)
    except (InputError, LocatedError):
        if head == "=" and len(read_form(toks, k)[0]) != 3:
            raise LocatedError("nested '='", k + 1) from None
        raise
    if rhs is None or toks[j] != ")":
        return _predicate(store, toks, k, scope)
    if lhs.sort is not rhs.sort and lhs.sort != rhs.sort:
        raise ParseError(f"'{head}' needs two arguments of one sort, "
                         f"got {lhs.sort!r} and {rhs.sort!r}")
    if kind == "ueq":  # the graph's marker, the term right after the sides
        store.mk_app("ueq", (lhs, rhs))
    return Literal(kind, lhs, rhs), j + 1


def _negation(store, toks, k, scope):
    """The literal of the (not ...) at k: (= t u) for (not (distinct t u)),
    and app = false for (not app)."""
    j = k + 2
    if toks[j] == ")":
        return _predicate(store, toks, k, scope)
    if toks[j] == "(" and toks[j + 1] in ("(", "distinct"):
        form = read_form(toks, k)[0]
        if len(form) != 2:
            return _predicate(store, toks, k, scope)
        inner = form[1]
        _atom(inner[0])  # else it is 'distinct'
        if len(inner) != 3:
            raise ParseError("'distinct' takes two arguments, "
                             f"got {len(inner) - 1}")
        literal, j = _binary(store, toks, j, "eq", scope)
        return literal, j + 1
    app, j = _term(store, toks, j, scope)
    if toks[j] != ")":
        return _predicate(store, toks, k, scope)
    _need_bool(app)
    return Literal("eq", app, store.bot), j + 1


def _predicate(store, toks, k, scope):
    """The literal app = true of the Bool term app at k."""
    app, k = _term(store, toks, k, scope)
    _need_bool(app)
    return Literal("eq", app, store.top), k


def _need_bool(term):
    if term.sort is not BOOL and term.sort != BOOL:
        raise ParseError(f"literal '{term!r}' is not Bool-sorted")


_BAD_HEADS = frozenset(("(", ")", "=", "let"))


def _term(store, toks, k, scope=None):
    """The term at k, where lets may stand and scope maps each name bound
    around k to its term.  It is built bottom-up and left to right by one
    explicit stack, so any depth parses.  The stack holds the applications,
    as (head, arguments built so far), and the lets, as [bindings, terms
    read, entries shadowed, body ordinal].  A let's bindings are read in
    turn in the scope around it; then they are entered in scope together
    for its body, and when it closes the entries they shadowed come back.
    While no let is open, an atom or an application already in the store
    costs one table lookup; a term that is one atom skips the stack."""
    table = store._table
    tok = toks[k]
    if tok != "(" and tok != ")" and not (scope and tok in scope):
        return table.get((tok, ())) or _const(store, tok), k + 1
    stack = []
    while True:
        tok = toks[k]
        k += 1
        if tok == "(":
            head = toks[k]
            if head in _BAD_HEADS:
                if head != "let":
                    _bad_head(toks, k - 1)
                if scope is None:
                    scope = {}
                bindings, body = _let_header(toks, k - 1)
                stack.append([bindings, [], None, body])
                k = bindings[0][1]
                continue
            stack.append((head, []))
            k += 1
            continue
        if tok == ")" and stack:
            head, args = stack.pop()
            key = (head, tuple(args))
            term = table.get(key) or store._make(head, key[1], key)
        elif scope and tok in scope:
            term = scope[tok]
        else:
            term = table.get((tok, ())) or _const(store, tok)
        while stack:
            top = stack[-1]
            if type(top) is tuple:
                top[1].append(term)
                break
            bindings, terms, shadowed, body = top
            if shadowed is None:                # a binding's term
                terms.append(term)
                if len(terms) < len(bindings):
                    k = bindings[len(terms)][1]
                    break
                names = [name for name, _ in bindings]
                top[2] = [(name, scope.get(name)) for name in names]
                scope.update(zip(names, terms))
                k = body
                break
            if toks[k] != ")":                  # the body
                raise LocatedError("let takes one body", k)
            k += 1
            for name, old in shadowed:
                if old is None:
                    del scope[name]
                else:
                    scope[name] = old
            stack.pop()
        else:
            return term, k


def _const(store, atom):
    """The constant atom, not yet in the store."""
    try:
        return store._make(atom, (), (atom, ()))
    except InputError:
        # sort_of rejects every label that mk_const rejects, with the
        # message for a symbol used as a constant
        store.sig.sort_of(atom)
        raise


def _let_header(toks, k):
    """The bindings of the let at k, as (name, ordinal of its term) pairs,
    and the ordinal of its body.  The bindings must be a non-empty list of
    (name term) with distinct names, and a body must follow them."""
    if toks[k + 2] != "(":
        raise LocatedError("let needs a list of bindings", k + 2)
    form, body = read_form(toks, k + 2)
    if not form:
        raise LocatedError("let with no bindings", k + 2)
    bindings = {}
    for i, b in enumerate(form):
        if not isinstance(b, Form) or len(b) != 2 or not isinstance(b[0], str):
            raise LocatedError("a let binding must be (name term)",
                               form.at_child(i))
        if b[0] in bindings:
            raise LocatedError(f"'{b[0]}' is bound twice in one let", b.at + 1)
        bindings[b[0]] = b.at + 2
    if toks[body] == ")":
        raise LocatedError("let takes one body", body)
    return list(bindings.items()), body


def _bad_head(toks, k):
    """Reject the list at k, whose head is not a symbol that may head a
    term."""
    head = toks[k + 1]
    if head == "=":
        raise LocatedError("nested '='", k + 1)
    raise ParseError(f"bad term {_show(read_form(toks, k)[0])}")


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
