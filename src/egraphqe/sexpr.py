"""Minimal s-expression reader shared by the problem and model parsers.

Atoms are plain strings and a parenthesized list is a ``Form``.  Tokens
carry no positions: ``where`` reads the text again to find one, and only
error messages call it.
"""
from __future__ import annotations

import itertools
import re

# Whitespace is exactly space, tab, CR and LF; ';' starts a comment that
# runs to the end of the line.  A token match takes the whitespace and
# comments after it, so a search never starts inside a comment; _SKIP takes
# those before the first token.
_SKIP = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")
_TOKEN = re.compile(r"([()]|[^ \t\r\n();]+)(?:[ \t\r\n]+|;[^\n]*)*")


class Form(list):
    """A parenthesized list; ``at`` is the ordinal of its '(' among the
    tokens of the text (-1 for the top level, which has none)."""
    __slots__ = ("at",)


class LocatedError(Exception):
    """An input error at child ``index`` of ``form``.  The entry point that
    holds the text reports it as "message at line:col"."""

    def __init__(self, msg, form, index):
        super().__init__(msg)
        self.form = form
        self.index = index

    def located(self, text):
        return f"{self.args[0]} at {where(text, self.form, self.index)}"


def read_all(text):
    """The top-level Form of text: its s-expressions in order."""
    root = Form()
    root.at = -1
    cur, parents = root, []
    for k, tok in enumerate(_TOKEN.findall(text, _SKIP.match(text).end())):
        if tok == "(":
            form = Form()
            form.at = k
            cur.append(form)
            parents.append(cur)
            cur = form
        elif tok == ")":
            if not parents:
                raise LocatedError("unbalanced ')'", root, len(root))
            cur = parents.pop()
        else:
            cur.append(tok)
    if parents:
        raise LocatedError("unclosed '('", parents[-1], len(parents[-1]) - 1)
    return root


def where(text, form, index):
    """"line:col" of child ``index`` of ``form`` in text, or of the token
    after its last child when ``index == len(form)``.  Lines count from 1
    and columns from 0, one column per character (a tab or a CR is one)."""
    depth = child = 0
    tokens = _TOKEN.finditer(text, _SKIP.match(text).end())
    for m in itertools.islice(tokens, form.at + 1, None):
        if depth == 0:
            if child == index:
                break
            child += 1
        tok = m.group(1)
        depth += (tok == "(") - (tok == ")")
    start = m.start()
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start) - 1
    return f"{line}:{col}"
