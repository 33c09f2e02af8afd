"""The token-stream problem reader against the list-walking reference in
conftest: the same terms in the same order, or the same error."""
import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egraphqe import InputError, parse_problem
from egraphqe.sexpr import tokens

from conftest import DEMOS, chain_problem, ref_parse_problem, ref_tokens

TESTS = Path(__file__).resolve().parent


def _texts_in_tests():
    """Every string constant in the test sources that declares or asserts
    something: the problem texts the suites feed the reader.  The mutants'
    file is skipped: its strings are test ids and source snippets, and a
    mutant's kill list could not name the cases they would add."""
    out = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "mutants.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and ("(declare-" in node.value or "(assert" in node.value):
                out.add(node.value)
    return sorted(out)


# a seeded random.Random: hypothesis draws the seed alone, not every call
# made on the generator
SEEDED = st.integers(0, 2**32 - 1).map(random.Random)

PROBLEMS = ([p.read_text() for p in sorted(DEMOS.glob("*.smt2"))]
            + _texts_in_tests() + [chain_problem(40)[0]])


def _outcome(parse, text):
    """What reading text gives: the term table (label, child ids and sort
    per term id), the literals, the variables, the command and the
    signature; or the type and message of the input error."""
    try:
        prob = parse(text)
    except InputError as e:
        return type(e), str(e)
    sig = prob.sig
    return ([(t.label, tuple(c.id for c in t.children), t.sort)
             for t in prob.store.terms],
            [(lit.kind, lit.lhs.id, lit.rhs.id) for lit in prob.formula.literals],
            prob.formula.free_vars, prob.command,
            sig.sorts, sig.functions, sig.variables, sig.datatype)


def _agree(text):
    assert _outcome(parse_problem, text) == _outcome(ref_parse_problem, text)


@pytest.mark.parametrize("text", PROBLEMS)
def test_reader_matches_reference_on_test_and_demo_problems(text):
    _agree(text)


# -- generated problems ---------------------------------------------------------

GEN_DECLS = """\
(declare-sort U 0) (declare-sort V 0)
(declare-datatype P ((mk (fst U) (snd V)) (nil)))
(declare-fun f (U) U) (declare-fun h (U U) U) (declare-fun Q (U) Bool)
(declare-const a (Array U V)) (declare-const c U) (declare-const d U)
(declare-const e V) (declare-const k Int) (declare-const q Bool)
(declare-var x U) (declare-var y U) (declare-var z (Array U V))
(declare-var w P) (declare-var i Int)
"""

# sort -> (leaves, [(head, argument sorts)])
_GRAMMAR = {
    "U": (["c", "d", "x", "y"], [("f", "U"), ("h", "UU"), ("fst", "P")]),
    "V": (["e"], [("read", "AU"), ("snd", "P")]),
    "A": (["a", "z"], [("write", "AUV")]),
    "P": (["w", "nil"], [("mk", "UV")]),
    "I": (["k", "i", "0", "7"], [("+", "II"), ("-", "II")]),
    "B": (["q", "true", "false"], [("Q", "U"), ("is-mk", "P"),
                                   ("distinct", "UU"), ("<", "II")]),
}


def _gen_term(rnd, sort, depth, scope=None):
    """A term of the sort; with a scope (sort -> names bound there), the
    bound names are leaves too, and now and then the term is a let."""
    leaves, apps = _GRAMMAR[sort]
    if scope is not None:
        leaves = leaves + scope.get(sort, [])
        if depth and rnd.random() < 0.15:
            return _gen_let(rnd, depth, scope,
                            lambda inner: _gen_term(rnd, sort, depth - 1, inner))
    if depth == 0 or rnd.random() < 0.35:
        return rnd.choice(leaves)
    head, args = rnd.choice(apps)
    if rnd.random() < 0.05:              # now and then ill-sorted
        args = [rnd.choice("UVAPIB") for _ in args]
    return "(" + " ".join([head] + [_gen_term(rnd, s, depth - 1, scope)
                                    for s in args]) + ")"


def _gen_literal(rnd, scope=None):
    sort = rnd.choice("UVAPIB")
    s, t = _gen_term(rnd, sort, 3, scope), _gen_term(rnd, sort, 3, scope)
    shape = rnd.randrange(6)
    if shape < 3:
        return f"({('=', 'distinct', 'ueq')[shape]} {s} {t})"
    if shape == 3:
        return f"(not (distinct {s} {t}))"
    b = _gen_term(rnd, "B", 3, scope)
    return f"(not {b})" if shape == 4 else b


# c and x shadow declared symbols; a name bound again shadows the outer one
_LET_NAMES = ("n", "m", "c", "x")


def _gen_let(rnd, depth, scope, body):
    """(let (bindings) BODY): one or two names bound in parallel, mostly to
    terms of sort U, their terms read in scope; BODY is body(inner scope)."""
    names = rnd.sample(_LET_NAMES, rnd.randint(1, 2))
    inner = {sort: [n for n in ns if n not in names] for sort, ns in scope.items()}
    bindings = []
    for name in names:
        sort = rnd.choice("UUUV")
        bindings.append(f"({name} {_gen_term(rnd, sort, max(depth - 1, 0), scope)})")
        inner.setdefault(sort, []).append(name)
    return f"(let ({' '.join(bindings)}) {body(inner)})"


def gen_let_problem(rnd):
    """A random problem over GEN_DECLS whose literals stand under lets and
    hold lets inside their terms."""
    lines = [GEN_DECLS]
    for _ in range(rnd.randint(1, 4)):
        if rnd.random() < 0.6:
            lines.append(f"(assert {_gen_let(rnd, 3, {}, lambda s: _gen_literal(rnd, s))})")
        else:
            lines.append(f"(assert {_gen_literal(rnd, {})})")
    return "\n".join(lines)


def gen_problem(rnd):
    """A random EUF, array and datatype problem over GEN_DECLS, with a
    comment now and then and maybe a command."""
    lines = [GEN_DECLS]
    for _ in range(rnd.randint(1, 6)):
        comment = " ; (note)" if rnd.random() < 0.2 else ""
        lines.append(f"(assert {_gen_literal(rnd)}){comment}")
    lines.append(rnd.choice(("", "(qel)", "(mbp)")))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SEEDED)
def test_reader_matches_reference_on_generated_problems(rnd):
    _agree(gen_problem(rnd))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SEEDED)
def test_reader_matches_reference_on_generated_let_problems(rnd):
    _agree(gen_let_problem(rnd))


# -- let binders ----------------------------------------------------------------

LET_DECLS = ("(declare-sort S 0) (declare-fun f (S) S) (declare-fun h (S S) S)\n"
             "(declare-fun P (S) Bool) (declare-const c S) (declare-const d S)\n"
             "(declare-var x S)\n")

# valid: shadowing, sequential and parallel scope, lets as terms and around
# every literal form; then each malformed let, and names out of scope
LET_PROBLEMS = [LET_DECLS + body for body in (
    "(assert (let ((y (f c))) (= x (h y y))))",
    "(assert (let ((c d)) (= x c)))\n(assert (= x c))",
    "(assert (let ((x c)) (let ((x (f x))) (distinct x d))))",
    "(assert (let ((y c)) (let ((y d) (z y)) (= z (f y)))))",
    "(assert (let ((y (f c)) (z (f d))) (= (h y z) x)))",
    "(assert (= x (let ((y (f c))) (h y (let ((y d)) (f y))))))",
    "(assert (let ((y c)) (P y)))\n(assert (let ((y d)) (not (P y))))",
    "(assert (let ((y c)) (not (distinct y x))))",
    "(assert (not (let ((y c)) (P y))))",
    "(assert (let ((y (let ((z c)) (f z)))) (ueq y x)))",
    "(assert (let ((y c)) y))",
    "(assert (let ((b (P c))) b))",
    "(assert (= x (let ((y c)) y)))\n(assert (= x y))",
    "(assert (let ((y c)) (= x (f y))))\n(assert (= y x))",
    "(assert (let () (= x c)))",
    "(assert (= x (let () c)))",
    "(assert (let (y c) (= x y)))",
    "(assert (let ((y)) (= x c)))",
    "(assert (let ((y c d)) (= x y)))",
    "(assert (let (((y) c)) (= x c)))",
    "(assert (let ((y c) (y d)) (= x y)))",
    "(assert (let y (= x c)))",
    "(assert (let))",
    "(assert (let ((y c))))",
    "(assert (let ((y c)) (= x y) (= x c)))",
    "(assert (= x (let ((y c)) y d)))",
    "(assert (= x (let ((y c)))))",
    "(assert (let ((y nosuch) (y c)) (= x y)))",
    "(assert (let ((y (h c))) (= x y)))",
    "(assert (let ((y (P c))) (= x y)))",
    "(assert (= x (let ((y c)) (y c))))",
    "(declare-const let S)",
    "(declare-fun let (S) S)",
)]


@pytest.mark.parametrize("text", LET_PROBLEMS)
def test_reader_matches_reference_on_lets(text):
    _agree(text)


@pytest.mark.parametrize("body, message", [
    ("(let () (= x c))", "let with no bindings at 4:13"),
    ("(= x (let () c))", "let with no bindings at 4:18"),
    ("(let (y c) (= x y))", "a let binding must be (name term) at 4:14"),
    ("(let ((y c) (y d)) (= x y))", "'y' is bound twice in one let at 4:21"),
    ("(let y (= x c))", "let needs a list of bindings at 4:13"),
    ("(let ((y c)))", "let takes one body at 4:20"),
    ("(let ((y c)) (= x y) (= x c))", "let takes one body at 4:29"),
    ("(= x (let ((y c)) y d))", "let takes one body at 4:28"),
    ("(= x (let ((y c)) y))) (assert (= x y)", "unknown symbol 'y'"),
])
def test_let_errors_and_positions(body, message):
    with pytest.raises(InputError) as exc:
        parse_problem(LET_DECLS + "(assert " + body + ")")
    assert str(exc.value) == message


def test_let_is_reserved():
    with pytest.raises(InputError) as exc:
        parse_problem("(declare-sort S 0) (declare-const let S)")
    assert str(exc.value) == "'let' is reserved"


_D = 3000
_LETS = "".join(f"(let ((y{i + 1} (f y{i}))) " for i in range(_D))
_CHAIN = "(f " * _D + "{}" + ")" * _D


@pytest.mark.parametrize("body, leaf", [
    # 3000 sequential lets around a literal, and as a term
    (f"(let ((y0 c)) {_LETS}(= x y{_D}){')' * _D})", "c"),
    (f"(let ((y0 c)) (= x {_LETS}y{_D}{')' * _D}))", "c"),
    # a let under 3000 nested applications
    ("(= x " + _CHAIN.format("(let ((y c)) (h y y))") + ")", "(h c c)"),
    # a 3000-deep chain in a let's binding, and in its body
    ("(let ((y " + _CHAIN.format("c") + ")) (= x y))", "c"),
    ("(let ((y c)) (= x " + _CHAIN.format("y") + "))", "c"),
], ids=["lets-around-literal", "lets-as-term", "let-under-chain",
        "chain-in-binding", "chain-in-body"])
def test_lets_nested_3000_deep_parse(body, leaf):
    """x = f(f(...leaf)), 3000 deep, read through lets nested 3000 deep or
    around and inside an application chain 3000 deep, and read to the same
    terms by the reference reader, at the default recursion limit."""
    text = LET_DECLS + f"(assert {body})"
    (lit,) = parse_problem(text).formula.literals
    depth, t = 0, lit.rhs
    while t.label == "f":
        depth, t = depth + 1, t.children[0]
    assert (lit.lhs.label, depth, repr(t)) == ("x", _D, leaf)
    _agree(text)


# -- single-token mutants ------------------------------------------------------

_SPAN = re.compile(r"[()]|[^ \t\r\n();]+")
_REPLACEMENTS = ("=", "peq", "()", "7", "nosuch")


def mutate(text, rnd):
    """text with one token deleted, replaced or added, or cut short; three
    times in four the token is one of the asserts, if there are any."""
    blanked = re.sub(r";[^\n]*", lambda m: " " * len(m.group()), text)
    spans = [m.span() for m in _SPAN.finditer(blanked)]
    first = next((n for n, (i, j) in enumerate(spans) if text[i:j] == "assert"), 0)
    if rnd.random() < 0.75:
        spans = spans[first:]
    how = rnd.randrange(6)
    if how == 0 or not spans:
        return text[:rnd.randrange(len(text) + 1)]
    if how == 1:                          # delete or insert a parenthesis
        i, j = rnd.choice(spans)
        parens = [s for s in spans if text[s[0]] in "()"]
        if parens and rnd.random() < 0.5:
            i, j = rnd.choice(parens)
            return text[:i] + text[j:]
        return text[:i] + rnd.choice("()") + text[i:]
    if how == 2:                          # distinct with three arguments
        at = [s for s in spans if text[s[0]:s[1]] == "distinct"]
        if at:
            i, j = rnd.choice(at)
            return text[:j] + " " + rnd.choice(("c", "x", "5")) + text[j:]
    atoms = [s for s in spans if text[s[0]] not in "()"] or spans
    i, j = rnd.choice(atoms)
    return text[:i] + rnd.choice(_REPLACEMENTS) + text[j:]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(PROBLEMS),
                 SEEDED.map(gen_problem),
                 SEEDED.map(gen_let_problem)),
       SEEDED)
def test_reader_matches_reference_on_mutants(text, rnd):
    _agree(mutate(text, rnd))


@pytest.mark.parametrize("literal", [
    "(= c (f c) d)", "(= c)", "(=)", "(distinct c)", "(distinct c d x)",
    "(ueq c d x)", "(not)", "(not q q)", "(not (distinct c d x))",
    "(not (distinct c))", "(not ((f) c))", "(not (distinct c d) q)",
    "(not ((f) c) q)", "(not (= c d))", "(not (peq z z))", "(not ())",
    "(= c (f nosuch) d)", "(= nosuch)", "(not (distinct nosuch d x))",
    "(not (distinct nosuch d) q)", "(distinct nosuch d x)", "(= (= c d) x)",
    "((f c) c)", "()", "q q", "(f c) (= c nosuch)", "(= c (f ()))",
    "(not (distinct c (f (h c))))", "(not (Q nosuch) q)",
])
def test_reader_matches_reference_on_literal_shapes(literal):
    """Literals whose shape is other than their head asks, with and
    without an error inside: the error the shape implies comes first."""
    _agree(GEN_DECLS + f"(assert {literal})\n(qel)")


def test_unbalanced_parenthesis_comes_before_an_unknown_symbol():
    text = "(declare-sort S 0) (declare-const c S)\n\n(assert (= c nosuch)))"
    with pytest.raises(InputError) as exc:
        parse_problem(text)
    assert str(exc.value) == "unbalanced ')' at 3:21"
    _agree(text)


def test_negation_of_a_declared_not_reads_as_a_term():
    """A user may declare 'not'; a (not ...) of other than one argument is
    then an application, as in the reference."""
    text = ("(declare-sort S 0) (declare-const c S) (declare-const d S)\n"
            "(declare-fun not (Bool Bool) Bool) (declare-const q Bool)\n"
            "(assert (not (distinct c d) q)) (assert (not q))")
    _agree(text)
    assert repr(parse_problem(text).formula) == \
        "(and (not (distinct c d) q) (not q))"


# -- the tokenizer -------------------------------------------------------------

TOKEN_CASES = [
    "a;c\nb",
    "(a b) ; a comment at the end of the text",
    "(declare-sort S 0)\r\n(declare-const c S)\r\n",
    "(a\tb)\t(c\t\t d)",
    "(a\x0bb \x0cc d\x1ce \xa0 f\u2028g)",
    "(a\x1db)",
    "(a\x1eb \x1fc)\x1d(d)",
    "(a\x85b \u3000c)",
    ";only a comment",
    "",
    "  \n ",
    "(a;b\n c);d",
]


@pytest.mark.parametrize("text", TOKEN_CASES)
def test_tokens_match_reference_tokenizer(text):
    assert tokens(text) == ref_tokens(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=" \t\r\n;()ab\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000",
               max_size=40))
def test_tokens_match_reference_tokenizer_on_random_texts(text):
    assert tokens(text) == ref_tokens(text)


@pytest.mark.parametrize("text", [
    "(declare-sort S 0);c\n(declare-const c S)(assert (= c (f c)))",
    "(declare-sort S 0) (declare-const c S) (assert (= c nosuch)) ; at EOF",
    "(declare-sort S 0)\r\n(declare-const c S)\r\n(assert (= c (= c c)))",
    "(declare-sort S 0)\t(declare-const c\tS)\n\t(assert\t(= c (= c c)))",
    "(declare-sort S\x0b0) (declare-const c\x0cd S)\n(assert (= c\x1c (= c c)))",
    "(declare-sort S 0) (declare-const c\x1dd S)\n(assert (= c\x1dd (= c c)))",
    "(declare-sort S 0) (declare-const c\xa0d S)\n(assert (= c\xa0d\u2028(= c c)))",
    "(declare-sort S 0) (declare-const c\u2028d S)\n(frob c\u2028d)",
    "(declare-sort S 0) ; ((\n(declare-const c T)",
    "(declare-sort S 0) (declare-const c S) ; )\n(assert (= c c))) ; (",
    "(declare-sort S 0) (declare-const c S) ; )\n(assert (= c c)",
])
def test_error_positions_match_reference(text):
    with pytest.raises(InputError):
        parse_problem(text)
    _agree(text)

