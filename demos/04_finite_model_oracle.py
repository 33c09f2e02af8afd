"""Walkthrough: checking reductions with the brute-force finite-model oracle.

The oracle enumerates every interpretation of the kept symbols over small
finite universes and compares satisfiability of the existential closures.
The interpretations are enumerated up to a renaming of the elements of
the uninterpreted sorts, each counted with the number it stands for; per
interpretation, the assignments of the existential variables are searched
by backtracking, each literal checked as soon as its last variable is
bound.  A term that
leaves the integer window is undefined, and an interpretation on which the
comparison stays undefined is skipped and counted.  Declared variables
passed as ``free`` are kept symbols too.  It is the independent
referee the test suite uses against the egraph pipeline.
"""
from pathlib import Path

from egraphqe import (Bounds, equiv_exists, find_model, implies_exists,
                      parse_problem, qel, satisfies)
from egraphqe.terms import mk_formula

HERE = Path(__file__).resolve().parent

prob = parse_problem((HERE / "read_chain.smt2").read_text())
out = qel(prob.sig, prob.store, prob.formula)
print("input: ", prob.formula)
print("output:", out)

# equivalence of existential closures, checked over all arrays/integers in a
# four-value window (the window keeps the array enumeration tractable)
verdict = equiv_exists(prob.sig, prob.store, prob.formula, out,
                       Bounds(int_window=(0, 3)))
print("closures equivalent:", verdict.ok,
      f"({verdict.skipped} interpretations undefined: k + 1 leaves the window)")

# the oracle can also hunt for models; useful to seed projections
prob2 = parse_problem("""
(declare-sort U 0)
(declare-const c U)
(declare-fun f (U) U)
(declare-var x U)
(assert (= (f x) c))
(assert (distinct x c))
""")
model = find_model(prob2.sig, prob2.store, prob2.formula, Bounds(universe=2))
print("\nfound model:", model.constants)
print("satisfies:", satisfies(model, prob2.sig, prob2.formula))

# one-directional entailment between closures
weaker = qel(prob2.sig, prob2.store, prob2.formula)
print("reduction implies input:",
      implies_exists(prob2.sig, prob2.store, weaker, prob2.formula,
                     Bounds(universe=2)).ok)

# a declared variable passed as free is a shared symbol, enumerated with f
# rather than closed: every x is f of some y only when f is onto
prob3 = parse_problem("""
(declare-sort U 0)
(declare-fun f (U) U)
(declare-var x U)
(declare-var y U)
(assert (= (f y) x))
""")
true = mk_formula(prob3.store, [])
for free in (set(), {"x"}):
    verdict = implies_exists(prob3.sig, prob3.store, true, prob3.formula,
                             Bounds(universe=2), free=free)
    print(f"true implies the closure, free {sorted(free)}:", verdict.ok)
    if not verdict.ok:
        print("  witness:", verdict.witness)
