"""Minimal s-expression reader shared by the problem and model parsers.

``tokens`` splits a text into its tokens, a list of strings, and both
readers walk that list by index, building terms and model values straight
from it.  Atoms are plain strings and a parenthesized list read by
``read_form`` is a ``Form``: the readers take as Forms only small parts
(declarations, universe commands) and the lists an error message needs the
length of.  ``read_text`` is the frame of both readers: it drops a byte
order mark, and when reading fails, ``read_all`` reads the whole text as
Forms, so that an unbalanced ')' or an unclosed '(' is the error reported.
An error is located by the ordinal of its token in the list: tokens carry
no positions, and ``where`` reads the text again to find one, which only
error messages do.
"""
from __future__ import annotations

import itertools
import re

from .terms import InputError

# Whitespace is exactly space, tab, CR and LF; ';' starts a comment that
# runs to the end of the line.  Every other character is an atom character,
# \x0b, \x0c, \x1c and \xa0 among them.  A comment is removed (or blanked,
# to keep positions) before the tokens are matched; the newline after it
# stays, so it never joins two atoms.  str.split, with a space put around
# each parenthesis, gives the same tokens faster on a text that is ASCII
# and holds none of _SPLIT_ALSO, the only other ASCII characters it splits
# on; every other text is matched by _TOKEN, which ``where`` also uses.
_COMMENT = re.compile(r";[^\n]*")
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")
_SPLIT_ALSO = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def tokens(text):
    """The tokens of text: '(', ')' and atoms, in order."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    if text.isascii() and not any(c in text for c in _SPLIT_ALSO):
        return text.replace("(", " ( ").replace(")", " ) ").split()
    return _TOKEN.findall(text)


class Form(list):
    """A parenthesized list; ``at`` and ``end`` are the ordinals of its '('
    and ')' among the tokens of the text."""
    __slots__ = ("at", "end")

    def at_child(self, index):
        """The token ordinal of child ``index``, or of the ')' when
        ``index == len(self)``."""
        k = self.at + 1
        for child in self[:index]:
            k = child.end + 1 if isinstance(child, Form) else k + 1
        return k


class LocatedError(Exception):
    """An input error at the token of ordinal ``at``.  The entry point that
    holds the text reports it as "message at line:col"."""

    def __init__(self, msg, at):
        super().__init__(msg)
        self.at = at

    def located(self, text):
        return f"{self.args[0]} at {where(text, self.at)}"


def read_form(toks, k):
    """The s-expression at token ``k`` of toks, an atom or a Form, and the
    ordinal of the token after it."""
    tok = toks[k]
    if tok != "(":
        if tok == ")":
            raise LocatedError("unbalanced ')'", k)
        return tok, k + 1
    top = cur = Form()
    cur.at = k
    parents = []
    for k in range(k + 1, len(toks)):
        tok = toks[k]
        if tok == "(":
            form = Form()
            form.at = k
            cur.append(form)
            parents.append(cur)
            cur = form
        elif tok == ")":
            cur.end = k
            if not parents:
                return top, k + 1
            cur = parents.pop()
        else:
            cur.append(tok)
    raise LocatedError("unclosed '('", cur.at)


def read_all(text):
    """The s-expressions of text in order, as a list.  The first unbalanced
    ')' or, failing one, the innermost unclosed '(' is an error."""
    toks = tokens(text)
    forms, k = [], 0
    while k < len(toks):
        form, k = read_form(toks, k)
        forms.append(form)
    return forms


def read_text(text, read, error):
    """read(toks), toks the tokens of text after one leading U+FEFF (a byte
    order mark) is dropped.  Nothing checks the parentheses up front: when
    reading fails, the text is read as forms first, so that an unbalanced
    ')' or an unclosed '(' is the error reported, as it is when it comes
    first in the text.  A LocatedError is raised as error("message at
    line:col"), located in the text after the mark."""
    text = text.removeprefix("\ufeff")
    toks = tokens(text)
    try:
        try:
            return read(toks)
        except (InputError, LocatedError, IndexError):
            # only an unclosed '(' lets a reader run off the end of toks
            read_all(text)
            raise
    except LocatedError as e:
        raise error(e.located(text)) from None


def where(text, at):
    """"line:col" of the token of ordinal ``at`` in text.  Lines count from
    1 and columns from 0, one column per character (a tab or a CR is one)."""
    if ";" in text:
        text = _COMMENT.sub(lambda m: " " * len(m.group()), text)
    start = next(itertools.islice(_TOKEN.finditer(text), at, None)).start()
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start) - 1
    return f"{line}:{col}"
