import ast
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egraphqe import (AdtVal, ArrayVal, Elem, Literal, Model, Signature,
                      TermStore, eval_term, holds, mbp, mk_array, parse_model,
                      parse_problem, satisfies)
from egraphqe.model import (OPS, ModelError, array_read, array_write,
                            default_value, show)
from egraphqe.oracle import Bounds, find_model
from egraphqe.terms import mk_formula, post_order

from conftest import (DEMOS, deep_model_problems, load, load_mbp,
                      random_projection_instance, ref_equal, ref_eval,
                      ref_holds, ref_model, ref_parse_model, ref_satisfies,
                      ref_value)


def _setup():
    sig = Signature()
    arr = sig.ensure_array_sort(sig.sorts["Int"], sig.sorts["Int"])
    sig.declare_const("a", arr)
    sig.declare_var("x", sig.sorts["Int"])
    store = TermStore(sig)
    model = Model({"a": mk_array(0, {3: 3}),
                   "x": 3}, {}, {})
    return sig, store, model


def test_eval_read_matches_assignment():
    sig, store, model = _setup()
    lit = Literal("eq",
                  store.mk_app("read", (store.mk_const("a"), store.mk_const("x"))),
                  store.mk_const("x"))
    assert holds(model, sig, lit)


def test_eval_true_constant():
    sig, store, model = _setup()
    assert eval_term(model, sig, store.top) == True


def test_eval_selector_on_value():
    prob = load("nested_pair_array.smt2")
    store = prob.store
    model = Model({"p": AdtVal("pair", (mk_array(0, {}), 5))},
                  {}, {})
    t = store.mk_app("snd", (store.mk_const("p"),))
    assert eval_term(model, prob.sig, t) == 5
    t2 = store.mk_app("fst", (store.mk_const("p"),))
    assert eval_term(model, prob.sig, t2) == mk_array(0, {})


def test_holds_equality_and_disequality():
    sig, store, model = _setup()
    sig.declare_const("i", sig.sorts["Int"])
    sig.declare_const("j", sig.sorts["Int"])
    m = Model(dict(model.constants, i=2, j=2), {}, {})
    assert holds(m, sig, Literal("eq", store.mk_const("i"), store.mk_const("j")))
    assert holds(m, sig, Literal("eq", store.mk_const("i"), store.mk_const("i")))
    m2 = Model(dict(model.constants, i=1, j=2), {}, {})
    assert holds(m2, sig, Literal("diseq", store.mk_const("i"), store.mk_const("j")))


def test_read_over_write_semantics():
    base = mk_array(0, {1: 7})
    written = array_write(base, 2, 9)
    assert array_read(written, 2) == 9
    assert array_read(written, 1) == 7
    assert array_read(written, 5) == 0
    # writing the default normalizes away
    assert array_write(base, 1, 0) == mk_array(0, {})


def test_extend_fresh_name_only():
    sig, store, model = _setup()
    m2 = model.with_constant("d!0", 4)
    assert m2.constants["d!0"] == 4
    assert eval_term(m2, sig, store.mk_const("x")) == 3
    with pytest.raises(ModelError):
        m2.with_constant("d!0", 5)
    # extensions with distinct names commute
    m3 = model.with_constant("u", 1).with_constant("v", 2)
    m4 = model.with_constant("v", 2).with_constant("u", 1)
    assert m3 == m4


def test_parse_model_of_projection_example():
    prob, model = load_mbp()
    assert satisfies(model, prob.sig, prob.formula)


def test_parse_model_empty_ok():
    sig = Signature()
    assert parse_model("", sig) == Model({}, {}, {})


def test_parse_model_duplicate_array_key_rejected():
    sig = Signature()
    sig.declare_const("a", sig.ensure_array_sort(sig.sorts["Int"], sig.sorts["Int"]))
    with pytest.raises(ModelError, match="duplicate array key 1"):
        parse_model("(define-value a (array (default 0) (1 2) (1 3)))", sig)


def test_parse_fun_values_and_universe():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u], u)
    m = parse_model("""
    (universe U 3)
    (define-fun-values f (default (elem U 0)) (((elem U 1)) (elem U 2)))
    """, sig)
    assert m.universes == {"U": 3}
    store = TermStore(sig)
    sig.declare_const("c", u)
    m2 = m.with_constant("c", Elem("U", 1))
    t = store.mk_app("f", (store.mk_const("c"),))
    assert eval_term(m2, sig, t) == Elem("U", 2)


def test_selector_on_wrong_constructor_gives_default():
    sig = Signature()
    val = sig.sorts["Int"]
    sig.declare_datatype("Rec", [("mk", [("fld", val)]), ("unit", [])])
    sig.declare_const("r", sig.sorts["Rec"])
    store = TermStore(sig)
    m = Model({"r": AdtVal("unit", ())}, {}, {})
    t = store.mk_app("fld", (store.mk_const("r"),))
    assert eval_term(m, sig, t) == default_value(val)
    tester = store.mk_app("is-unit", (store.mk_const("r"),))
    assert eval_term(m, sig, tester) == True


def test_selector_defaults_are_built_once_per_sort_in_one_walk(monkeypatch):
    """Fifty selectors applied to the other constructor, over a field sort
    nested 2,000 deep: one satisfies builds that sort's default once."""
    import egraphqe.model as model_module
    problem, text = deep_model_problems()["selector"]
    problem += "".join(f" (declare-var x{k} P) (assert (= y (fld x{k})))"
                       for k in range(50))
    text += "".join(f" (define-value x{k} (nil))" for k in range(50))
    prob = parse_problem(problem)
    model = parse_model(text, prob.sig)
    calls = []

    def counted(within):
        calls.append(list(within))
        return default_values(within)

    default_values = model_module.default_values
    monkeypatch.setattr(model_module, "default_values", counted)
    assert len(prob.formula.literals) == 51
    assert satisfies(model, prob.sig, prob.formula)
    assert len(calls) == 1


def test_missing_interpretation_detected_at_eval():
    sig, store, model = _setup()
    sig.declare_const("w", sig.sorts["Int"])
    with pytest.raises(ModelError):
        eval_term(model, sig, store.mk_const("w"))


def test_every_builtin_agrees_with_the_reference_evaluator():
    """Each symbol of OPS, on every pair of Ints in a window and on an
    array, has the value that the reference evaluator gives it."""
    sig = parse_problem("(declare-const m Int) (declare-const n Int)"
                        " (declare-const a (Array Int Int))").sig
    store = TermStore(sig)
    m, n, a = (store.mk_const(s) for s in "mna")
    app = store.mk_app
    written = app("write", (a, m, n))
    terms = [app(op, (m, n)) for op in
             ("+", "-", "*", ">", "<", ">=", "<=", "ueq", "distinct")]
    terms += [app("read", (a, m)), written, app("read", (written, n)),
              app("ueq", (a, written)), app("distinct", (a, written))]
    assert {t.label for t in terms} == set(OPS)
    for i, j in itertools.product(range(-2, 3), repeat=2):
        model = Model({"m": i, "n": j, "a": mk_array(0, {0: 1, 2: -1})}, {}, {})
        ref = ref_model(model)
        for t in terms:
            assert ref_equal(ref_value(eval_term(model, sig, t)),
                             ref_eval(ref, sig, t, {})), (i, j, t)


@pytest.mark.parametrize("op", ["+", "<="])
def test_arithmetic_on_non_integers_is_a_model_error(op):
    """A hand-built model may give an Int symbol a Bool value; arithmetic
    on it is an error, not the int arithmetic of Python's bools."""
    sig, store, model = _setup()
    bad = Model(dict(model.constants, x=True), {}, {})
    term = store.mk_app(op, (store.mk_const("x"), store.mk_const("1")))
    with pytest.raises(ModelError) as exc:
        eval_term(bad, sig, term)
    assert str(exc.value) == f"arithmetic on non-integers in ({op} x 1)"


def test_satisfies_deep_chain_under_planted_model():
    sig = Signature()
    u = sig.declare_sort("U")
    sig.declare_fun("f", [u], u)
    sig.declare_const("c", u)
    sig.declare_var("x", u)
    store = TermStore(sig)
    chain = store.mk_const("c")
    for _ in range(10_000):
        chain = store.mk_app("f", (chain,))
    formula = mk_formula(store, [Literal("eq", store.mk_const("x"), chain)])
    # f swaps the two elements, so an even chain over c lands back on c
    f = (Elem("U", 0), {(Elem("U", 0),): Elem("U", 1), (Elem("U", 1),): Elem("U", 0)})
    planted = Model({"c": Elem("U", 0), "x": Elem("U", 0)}, {"f": f}, {"U": 2})
    assert satisfies(planted, sig, formula)
    wrong = Model({"c": Elem("U", 0), "x": Elem("U", 1)}, {"f": f}, {"U": 2})
    assert not satisfies(wrong, sig, formula)


POSITIONAL_PROBLEM = ("(declare-sort S 0) (declare-sort T 0)\n"
                      "(declare-const c S) (declare-const d S)")


@pytest.mark.parametrize("text, message", [
    ("(define-value c foo)", "bad value 'foo' at 1:16"),
    ("; a (comment)\n(define-value c (elem S 1)) (define-value d bar)",
     "bad value 'bar' at 2:44"),
    ("(universe S x)", "expected an integer, got 'x' at 1:12"),
    ("(universe S 2)\n\t(universe T\r\n  y)", "expected an integer, got 'y' at 3:2"),
    ("\n  (define-value c (elem S zero))", "expected an integer, got 'zero' at 2:26"),
    ("(define-value c ²)", "expected an integer, got '²' at 1:16"),
    # an integer is an optional '-' and ASCII digits, as in problem input
    ("(define-value c ١٢)", "expected an integer, got '١٢' at 1:16"),
    ("(define-value c (elem S ١))", "expected an integer, got '١' at 1:24"),
    ("(universe S 1_0)", "expected an integer, got '1_0' at 1:12"),
    ("(universe S ٣)", "expected an integer, got '٣' at 1:12"),
    ("(universe S -)", "expected an integer, got '-' at 1:12"),
    ("(universe S --2)", "expected an integer, got '--2' at 1:12"),
    ("(universe S +2)", "expected an integer, got '+2' at 1:12"),
    ("(define-value c (elem S 1)))", "unbalanced ')' at 1:27"),
    # a byte order mark is dropped, and columns count from after it
    ("\ufeff(define-value c foo)", "bad value 'foo' at 1:16"),
    ("\ufeff(define-value c (elem S 1)))", "unbalanced ')' at 1:27"),
])
def test_positional_model_errors(text, message):
    prob = parse_problem(POSITIONAL_PROBLEM)
    with pytest.raises(ModelError) as exc:
        parse_model(text, prob.sig)
    assert str(exc.value) == message


DEEP = "(array (default " * 3000 + "0" + "))" * 3000
SORTS_PROBLEM = (
    "(declare-sort V 0) (declare-const a (Array Int V)) (declare-var i Int)\n"
    "(declare-fun f (V Int) Bool)\n"
    "(declare-datatype P ((mk (fst V) (snd Int)) (nil)))"
    "(declare-const p P) (assert (= i 1))")


@pytest.mark.parametrize("text, message", [
    # a value of the wrong shape for its symbol's sort
    ("(define-value a (elem V 1))", "expected a value of sort (Array Int V) at 1:16"),
    ("(define-value i true)", "expected a value of sort Int at 1:16"),
    ("(define-value i (elem Int 3))", "expected a value of sort Int at 1:16"),
    ("(define-value a (array (default (elem V 0)) ((elem V 1) (elem V 0))))",
     "expected a value of sort Int at 1:45"),
    ("(define-value p (mk 1 1))", "expected a value of sort V at 1:20"),
    ("(define-value p (nope 1 1))", "expected a value of sort P at 1:16"),
    ("(define-fun-values f (default 1))", "expected a value of sort Bool at 1:30"),
    ("(define-fun-values f (default true) (((elem V 0) true) false))",
     "expected a value of sort Int at 1:49"),
    ("(define-fun-values f (default true) (((elem V 0)) false))",
     "bad table entry for 'f'"),
    ("(define-value f true)", "'f' takes arguments: use define-fun-values"),
    # a name or a table entry given twice
    ("(define-value i 1) (define-value i 1)", "duplicate value for 'i'"),
    ("(define-fun-values f (default true) (((elem V 0) 1) false)"
     " (((elem V 0) 1) true))", "duplicate table entry for 'f'"),
    # a value nested deeper than its sort
    ("(define-value a (array (default (array (default (elem V 0))))))",
     "expected a value of sort V at 1:32"),
    pytest.param(f"(define-value a {DEEP})", "expected a value of sort V at 1:32",
                 id="deep-declared"),
    # a value for a symbol the problem does not declare
    ("(define-value b 1)", "'b' is not declared"),
    pytest.param(f"(define-value zz {DEEP})", "'zz' is not declared",
                 id="deep-undeclared"),
    ("(define-fun-values g (default 1))", "'g' is not declared"),
    # a builtin, numeral, constructor, tester or selector: its meaning is fixed
    ("(define-value true false)", "'true' is not declared"),
    ("(define-fun-values + (default 0))", "'+' is not declared"),
    ("(define-value 1 7)", "'1' is not declared"),
    ("(define-value nil (mk (elem V 0) 5))", "'nil' is not declared"),
    ("(define-fun-values is-mk (default true))", "'is-mk' is not declared"),
    ("(define-fun-values fst (default (elem V 0)))", "'fst' is not declared"),
])
def test_model_values_fit_declared_sorts(text, message):
    sig = parse_problem(SORTS_PROBLEM).sig
    with pytest.raises(ModelError) as exc:
        parse_model(text, sig)
    assert str(exc.value) == message


UNIVERSE_PROBLEM = ("(declare-sort V 0) (declare-const c V)"
                    " (declare-var a (Array Int V)) (assert (= (read a 0) c))")


@pytest.mark.parametrize("text, message", [
    ("(universe Zork 2)", "'Zork' is not a declared uninterpreted sort at 1:10"),
    ("(universe Int 2)", "'Int' is not a declared uninterpreted sort at 1:10"),
    ("(universe V -3)", "universe of 'V' is empty at 1:12"),
    ("(universe V 0)", "universe of 'V' is empty at 1:12"),
    ("(universe V 3) (universe V 1)", "duplicate universe for 'V' at 1:25"),
    ("(universe V 1) (define-value c (elem V 5))",
     "element 5 is outside the universe of 'V' (size 1) at 1:39"),
    # a universe inside a value is a value, not a command
    ("(define-value c (universe Zork 1))", "expected a value of sort V at 1:16"),
    # universes are read first, wherever they stand in the file
    ("(define-value c (elem V 5)) (universe V 1)",
     "element 5 is outside the universe of 'V' (size 1) at 1:24"),
    ("(universe V 2) (define-value c (elem V -1))",
     "element -1 is outside the universe of 'V' (size 2) at 1:39"),
    ("(define-value a (array (default (elem V 0)) (3 (elem V 2))))\n"
     "(universe V 2)", "element 2 is outside the universe of 'V' (size 2) at 1:55"),
])
def test_universe_is_declared_nonempty_and_holds_every_element(text, message):
    sig = parse_problem(UNIVERSE_PROBLEM).sig
    with pytest.raises(ModelError) as exc:
        parse_model(text, sig)
    assert str(exc.value) == message


def test_elements_inside_the_universe_are_accepted():
    prob = parse_problem(UNIVERSE_PROBLEM)
    m = parse_model("(define-value a (array (default (elem V 0)) (3 (elem V 1))))\n"
                    "(define-value c (elem V 0)) (universe V 2)", prob.sig)
    assert m.universes == {"V": 2}
    assert satisfies(m, prob.sig, prob.formula)


def test_comments_at_either_end_are_skipped():
    prob = parse_problem("; (lead\n(declare-sort S 0) (declare-const c S) ; trailing (x")
    assert set(prob.sig.sorts) == {"Bool", "Int", "S"}
    model = parse_model("(define-value c (elem S 1)) ; (y z", prob.sig)
    assert model.constants == {"c": Elem("S", 1)}


def test_model_values_2000_deep_read_without_recursion():
    depth = 2000
    sort = "(Array Int " * depth + "V" + ")" * depth
    sig = parse_problem(f"(declare-sort V 0) (declare-var a {sort})").sig
    head = "(define-value a " + "(array (default " * depth
    model = parse_model(head + "(elem V 1)" + "))" * depth + ")", sig)
    value = model.constants["a"]
    for _ in range(depth):
        assert isinstance(value, ArrayVal) and value.entries == ()
        value = value.default
    assert value == Elem("V", 1)
    # an error at the bottom is reported where it stands
    with pytest.raises(ModelError) as exc:
        parse_model(head + "(elem W 1)" + "))" * depth + ")", sig)
    assert str(exc.value) == f"expected a value of sort V at 1:{len(head)}"


def test_array_entries_are_compared_with_the_default_at_any_depth():
    """(array (default D0) (1 D)) for D0 a default-only value 1,999 levels
    deep: the entry stays when D differs from D0 at the bottom, and is
    dropped when it equals D0."""
    depth = 2000
    sort = "(Array Int " * depth + "Int" + ")" * depth
    sig = parse_problem(f"(declare-var a {sort}) (declare-var b {sort})").sig

    def value(v):
        return "(array (default " * (depth - 1) + str(v) + "))" * (depth - 1)

    model = parse_model(f"(define-value a (array (default {value(0)}) (1 {value(1)})))\n"
                        f"(define-value b (array (default {value(0)}) (1 {value(0)})))",
                        sig)
    (key, entry), = model.constants["a"].entries
    assert key == 1 and entry is not model.constants["a"].default
    assert model.constants["b"].entries == ()


# -- the token-stream reader against the Form-walking reference in conftest ----

def _outcome(parse, text, sig):
    """What reading text gives: the model and its repr, or the message of
    the model error."""
    try:
        model = parse(text, sig)
    except ModelError as e:
        return ModelError, str(e)
    return model, repr(model)


def _agree(text, sig):
    assert _outcome(parse_model, text, sig) == _outcome(ref_parse_model, text, sig)


def _model_texts_in_tests():
    """Every string constant in the test sources that reads as part of a
    model file: the model texts the suites feed the reader.  The mutants'
    file is skipped, as in the problem collector of test_parser.py."""
    out = set()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        if path.name == "mutants.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.search(r"\((define-value|define-fun-values|universe) ",
                                  node.value):
                out.add(node.value)
    return sorted(out)


DEMO_PROBLEM = (DEMOS / "nested_pair_array.smt2").read_text()
DEMO_SIG = parse_problem(DEMO_PROBLEM).sig
DEMO_MODELS = [p.read_text() for p in sorted(DEMOS.glob("*.model"))]
TWIN_PROBLEMS = [DEMO_PROBLEM, POSITIONAL_PROBLEM, SORTS_PROBLEM, UNIVERSE_PROBLEM]


@pytest.mark.parametrize("problem", TWIN_PROBLEMS)
@pytest.mark.parametrize("text", DEMO_MODELS + _model_texts_in_tests())
def test_reader_matches_reference_on_demo_and_test_models(problem, text):
    _agree(text, parse_problem(problem).sig)


# Models of the shape of the benchmark's array projections -- elements of I
# and V, arrays of I to V with one entry per index, pairs over them, arrays
# of pairs -- and beside them integers, Booleans, function tables, a
# datatype with a constructor named elem and a nullary one, and arrays
# indexed by arrays and by datatype values.
GEN_PROBLEM = """\
(declare-sort I 0) (declare-sort V 0)
(declare-datatype Pair ((pair (fst (Array I V)) (snd V))))
(declare-datatype R ((mk (rf I) (rs (Array Int V))) (nil) (elem (re Int))))
(declare-var a (Array I V)) (declare-var b (Array I V)) (declare-const c (Array I V))
(declare-var p Pair) (declare-const r Pair) (declare-const q (Array I Pair))
(declare-var s R) (declare-const t (Array (Array I V) R)) (declare-const u (Array R Bool))
(declare-var n Int) (declare-const flag Bool)
(declare-fun f (I Int) Bool) (declare-fun g (R) (Array I V))
"""
GEN_SIG = parse_problem(GEN_PROBLEM + "".join(
    f"(declare-const x{k} I) (declare-const e{k} V)" for k in range(8))).sig


def _gen_value(sort, rnd, ui):
    if sort.name == "Int":
        return str(rnd.randrange(-3, 8))
    if sort.name == "Bool":
        return rnd.choice(("true", "false"))
    if sort.name in ("I", "V"):
        return f"(elem {sort.name} {rnd.randrange(ui if sort.name == 'I' else 4)})"
    if sort.index is not None:
        # no entry equal to the default, and the keys in repr order: each
        # array value has one text, so distinct key texts are distinct keys
        default = _gen_value(sort.value, rnd, ui)
        rows = {_gen_value(sort.index, rnd, ui): _gen_value(sort.value, rnd, ui)
                for _ in range(rnd.randrange(5))}
        return f"(array (default {default})" + "".join(
            f" ({k} {v})" for k, v in sorted(rows.items()) if v != default) + ")"
    ctor = rnd.choice(sort.constructors)
    return "(" + " ".join([ctor.name] + [_gen_value(s, rnd, ui)
                                         for _, s in ctor.selectors]) + ")"


def gen_model(rnd):
    """A model of GEN_SIG, its commands in random order."""
    ui = rnd.randrange(2, 12)
    lines = [f"(universe I {ui})", "(universe V 4)"]
    for name, sort in GEN_SIG.variables.items():
        lines.append(f"(define-value {name} {_gen_value(sort, rnd, ui)})")
    for name in sorted(GEN_SIG.uninterpreted):
        args, result = GEN_SIG.functions[name]
        if not args:
            lines.append(f"(define-value {name} {_gen_value(result, rnd, ui)})")
            continue
        rows = {"(" + " ".join(_gen_value(s, rnd, ui) for s in args) + ")"
                for _ in range(rnd.randrange(4))}
        lines.append(f"(define-fun-values {name} (default {_gen_value(result, rnd, ui)})"
                     + "".join(f" ({row} {_gen_value(result, rnd, ui)})"
                               for row in sorted(rows)) + ")")
    rnd.shuffle(lines)
    return "\n".join(lines) + "\n"


# a seeded random.Random: hypothesis draws the seed alone, not every call
# made on the generator
SEEDED = st.integers(0, 2**32 - 1).map(random.Random)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SEEDED)
def test_reader_matches_reference_on_generated_models(rnd):
    text = gen_model(rnd)
    _agree(text, GEN_SIG)


_SPAN = re.compile(r"[()]|[^ \t\r\n();]+")


def mutate(text, rnd):
    """text with one token deleted, duplicated, or swapped for '(', ')',
    'universe', 'elem' or a numeral."""
    i, j = rnd.choice([m.span() for m in _SPAN.finditer(text)])
    how = rnd.randrange(3)
    if how == 0:
        return text[:i] + text[j:]
    if how == 1:
        return text[:j] + " " + text[i:]
    swap = rnd.choice(("(", ")", "universe", "elem", str(rnd.randrange(-2, 12))))
    return text[:i] + swap + text[j:]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from([(DEMO_SIG, m) for m in DEMO_MODELS]),
                 SEEDED.map(lambda rnd: (GEN_SIG, gen_model(rnd)))),
       SEEDED)
def test_reader_matches_reference_on_mutants(case, rnd):
    sig, text = case
    _agree(mutate(text, rnd), sig)


def test_values_of_found_models_read_back():
    """Reading (define-value n <repr(v)>) gives back v, for every value of
    the models find_model returns on the criterion-5 instances, and the
    whole model read back with its universes is the model."""
    rng = random.Random(5)
    for _ in range(200):
        sig, store, formula = random_projection_instance(rng)
        bounds = Bounds(universe=3 if len(sig.variables) <= 2 else 2)
        model = find_model(sig, store, formula, bounds)
        assert model is not None  # every one of these 200 is satisfiable
        assert not model.functions
        for name, value in model.constants.items():
            back = parse_model(f"(define-value {name} {value!r})", sig)
            assert back.constants[name] is value
        text = "".join(f"(universe {s} {k})\n" for s, k in model.universes.items()) \
            + "".join(f"(define-value {n} {v!r})\n" for n, v in model.constants.items())
        assert parse_model(text, sig) == model


# -- interned values ----------------------------------------------------------

def test_int_and_bool_arrays_are_different_values():
    """True == 1 and hash(True) == hash(1) in Python: an (Array Int Int)
    with default 0 and an (Array Int Bool) with default false, read or
    built, are still two objects, and each prints its own default; so are
    arrays keyed by 1 and by true, and constructor values over them."""
    sig = parse_problem("(declare-const a (Array Int Int)) (declare-const b (Array Int Bool))"
                        " (declare-const c (Array Bool Int)) (declare-const d (Array Int Int))").sig
    m = parse_model("(define-value a (array (default 0))) (define-value b (array (default false)))"
                    " (define-value c (array (default 0) (true 2)))"
                    " (define-value d (array (default 0) (1 2)))", sig)
    a, b, c, d = (m.constants[n] for n in "abcd")
    assert a is mk_array(0, {}) and b is mk_array(False, {})
    assert a is not b and c is not d
    assert (repr(a), repr(b)) == ("(array (default 0))", "(array (default false))")
    assert (repr(c), repr(d)) == ("(array (default 0) (true 2))", "(array (default 0) (1 2))")
    assert AdtVal("mk", (1,)) is not AdtVal("mk", (True,))
    assert (repr(AdtVal("mk", (1,))), repr(AdtVal("mk", (True,)))) == ("(mk 1)", "(mk true)")
    assert (show(True), show(0)) == ("true", "0")


def test_equal_values_from_reader_evaluator_and_oracle_are_one_object():
    prob = parse_problem("""
    (declare-sort U 0)
    (declare-datatype Pair ((pair (fst (Array U U)) (snd U))))
    (declare-var a (Array U U)) (declare-var p Pair) (declare-const u U)
    (declare-const v U)
    (assert (= p (pair (write a u v) u))) (assert (distinct u v))
    """)
    sig, store = prob.sig, prob.store
    found = find_model(sig, store, prob.formula, Bounds(universe=2))
    text = "".join(f"(universe {s} {k})\n" for s, k in found.universes.items()) \
        + "".join(f"(define-value {n} {show(v)})\n" for n, v in found.constants.items())
    read = parse_model(text, sig)
    for name, value in found.constants.items():
        assert read.constants[name] is value
    a, u, v = (store.mk_const(n) for n in "auv")
    written = store.mk_app("write", (a, u, v))
    for model in (found, read):
        assert eval_term(model, sig, store.mk_app("pair", (written, u))) \
            is found.constants["p"]
        assert eval_term(model, sig, written) is found.constants["p"].args[0]
        assert eval_term(model, sig, store.mk_app("snd", (store.mk_const("p"),))) \
            is found.constants["u"]


def test_mk_array_is_one_object_for_entries_in_any_order():
    elems = [Elem("U", k) for k in range(4)]
    pairs = [AdtVal("p", (e, k)) for k, e in enumerate(elems)]
    for keys, values in ((list(range(4)), elems), (elems, [5, 6, 7, 8]),
                         (pairs, [True, False, True, True]),
                         ([False, True], [3, 4])):
        entries = list(zip(keys, values))
        arrays = set()
        for seed in range(6):
            random.Random(seed).shuffle(entries)
            arrays.add(mk_array(values[0], entries))
            arrays.add(mk_array(values[0], dict(entries)))
        arrays.add(array_write(mk_array(values[0], entries[1:]), *entries[0]))
        arr, = arrays
        assert len(arr.entries) == len(entries) - sum(
            v == values[0] for v in values)


ORDER_PROBLEM = ("(declare-sort OrdI 0) (declare-sort OrdV 0)"
                 " (declare-datatype OrdP ((op (ofst OrdI))))"
                 " (declare-const a (Array OrdI OrdV))"
                 " (declare-const p (Array OrdP OrdV))")


@pytest.mark.parametrize("text, make", [
    ("(define-value a (array (default (elem OrdV 0))"
     " ((elem OrdI 1) (elem OrdV 1)) ((elem OrdI 0) (elem OrdV 1))))",
     lambda k: Elem("OrdI", k)),
    ("(define-value p (array (default (elem OrdV 0))"
     " ((op (elem OrdI 1)) (elem OrdV 1)) ((op (elem OrdI 0)) (elem OrdV 1))))",
     lambda k: AdtVal("op", (Elem("OrdI", k),))),
], ids=["elements", "datatype-values"])
def test_array_text_does_not_depend_on_the_values_made_before(text, make):
    """The first read makes the key with element 1 first; the second finds
    both keys made in the other order.  Both print the entries in one
    order, element 0 first."""
    sig = parse_problem(ORDER_PROBLEM).sig
    first = repr(parse_model(text, sig))
    made = [make(0), make(1)]  # alive through the second read
    assert repr(parse_model(text, sig)) == first
    assert first.index("(elem OrdI 0)") < first.index("(elem OrdI 1)")


def _keys(kind, ks):
    if kind == "elements":
        return [Elem("OrdK", k) for k in ks]
    if kind == "datatype-values":
        return [AdtVal("ok", (k, Elem("OrdK", k % 3))) for k in ks]
    return [mk_array(0, {k: 1, k + 1: 2}) for k in ks]


@pytest.mark.parametrize("kind", ["elements", "datatype-values", "arrays"])
def test_array_keys_are_ordered_by_content(kind):
    """Keys made in a shuffled order, and alive together, are ordered by
    element number, or by text for composite keys: the order of the keys
    alone, not of their making."""
    ks = list(range(12))
    random.Random(3).shuffle(ks)
    keys = _keys(kind, ks)
    arr = mk_array(False, {key: True for key in keys})
    got = [key for key, _ in arr.entries]
    if kind == "elements":
        assert [key.k for key in got] == list(range(12))
    else:
        assert [show(key) for key in got] == sorted(show(key) for key in keys)
    assert got != keys


def test_values_are_dropped_with_their_last_reference():
    before = len(AdtVal._table)
    value = AdtVal("only_here", (mk_array(Elem("W", 7), {1: Elem("W", 8)}),))
    assert len(AdtVal._table) == before + 1
    del value
    assert len(AdtVal._table) == before


def test_deep_index_key_model_reads_without_recursion():
    """An array whose index sort is an (Array Int ...) 2,000 deep, with one
    entry keyed by a value that deep: reading it hashes the key by its
    identity, and it prints by one explicit stack."""
    problem, text = deep_model_problems()["index_key"]
    prob = parse_problem(problem)
    model = parse_model(text, prob.sig)
    a, c = model.constants["a"], model.constants["c"]
    assert a is c and satisfies(model, prob.sig, prob.formula)
    (key, value), = a.entries
    assert value == 5 and show(key).count("(array (default ") == 2000
    with pytest.raises(ModelError, match="duplicate array key"):
        parse_model(text.replace(" 5)))", " 5) (" + show(key) + " 6)))", 1), prob.sig)


# -- holds and satisfies against the dataclass values ---------------------------

def _agrees_with_reference(model, sig, formula):
    """holds and satisfies agree with the reference evaluator over the
    dataclass values (conftest), and so does every subterm's value."""
    ref = ref_model(model)
    memo, seen = {}, set()
    for lit in formula.literals:
        got = _outcome_of(holds, model, sig, lit)
        assert got == _outcome_of(ref_holds, ref, sig, lit), lit
        for side in (lit.lhs, lit.rhs) if got[0] is not ModelError else ():
            for t in post_order(side, seen):
                seen.add(t.id)
                assert ref_equal(ref_value(eval_term(model, sig, t)),
                                  ref_eval(ref, sig, t, memo)), t
    assert _outcome_of(satisfies, model, sig, formula) == \
        _outcome_of(ref_satisfies, ref, sig, formula)


def _outcome_of(check, *args):
    try:
        return check(*args), None
    except ModelError as e:
        return ModelError, str(e)


def _flipped(formula, store, j):
    lits = list(formula.literals)
    lit = lits[j]
    lits[j] = Literal("diseq" if lit.kind == "eq" else "eq", lit.lhs, lit.rhs)
    return mk_formula(store, lits)


def test_holds_agrees_with_reference_on_projection_instances():
    """On the criterion-5 instances: the input under its found model, the
    projection under the extended model, and the input under the models
    of the input with one literal negated, where some literal fails."""
    rng = random.Random(5)
    failing = 0
    for _ in range(200):
        sig, store, formula = random_projection_instance(rng)
        bounds = Bounds(universe=3 if len(sig.variables) <= 2 else 2)
        model = find_model(sig, store, formula, bounds)
        _agrees_with_reference(model, sig, formula)
        res = mbp(sig, store, formula, formula.free_vars, model)
        _agrees_with_reference(res.model, sig, res.formula)
        _agrees_with_reference(res.model, sig, formula)
        for j in range(len(formula.literals)):
            other = find_model(sig, store, _flipped(formula, store, j), bounds)
            if other is not None:
                _agrees_with_reference(other, sig, formula)
                failing += not satisfies(other, sig, formula)
    assert failing > 100


def test_holds_agrees_with_reference_on_demo_and_deep_models():
    cases = [load_mbp(model=p.name) for p in sorted(DEMOS.glob("*.model"))]
    for name, (problem, text) in deep_model_problems().items():
        if name != "index_key":  # the reference's hash recurses on its key
            prob = parse_problem(problem)
            cases.append((prob, parse_model(text, prob.sig)))
    for prob, model in cases:
        sig, formula = prob.sig, prob.formula
        _agrees_with_reference(model, sig, formula)
        res = mbp(sig, prob.store, formula, formula.free_vars, model)
        _agrees_with_reference(res.model, sig, res.formula)
