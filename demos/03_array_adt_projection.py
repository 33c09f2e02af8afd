"""Walkthrough: projecting array and datatype variables under a model.

The example mixes an array of pairs with a pair of an array: the pair p and
the inner array a are projected away.  The saturation trace shows the write
being unwound into a read, the pair equality being split into selector
equalities, and the disequality split being skipped because p's class has
already become ground.
"""
from pathlib import Path

from egraphqe import (mbp, parse_model, parse_problem, satisfies,
                      term_to_sexpr)

HERE = Path(__file__).resolve().parent

prob = parse_problem((HERE / "nested_pair_array.smt2").read_text())
model = parse_model((HERE / "nested_pair_array.model").read_text(), prob.sig)

print("input:", prob.formula)
print("projecting:", ", ".join(prob.formula.free_vars))
print("model satisfies input:", satisfies(model, prob.sig, prob.formula))

res = mbp(prob.sig, prob.store, prob.formula, prob.formula.free_vars, model)
print("\nrule applications:", res.rule_fires)
print("note: the disequality split never fired -- after the array rules run,")
print("p's class contains read(p2, j), so p != q is rewritable to ground form")

print("\nclasses after saturation:")
g = res.graph
for root in g.roots():
    members = [term_to_sexpr(g.nodes[m]) for m in g.class_of(root)]
    if len(members) > 1:
        print("  {" + ", ".join(members) + "}")

print("\nprojected result:", res.formula)
print("remaining variables:", res.formula.free_vars or "(none)")
print("model satisfies output:", satisfies(res.model, prob.sig, res.formula))

# the run never had to consult the model (all side conditions were forced),
# so any other satisfying model gives the identical output
prob2 = parse_problem((HERE / "nested_pair_array.smt2").read_text())
model2 = parse_model((HERE / "nested_pair_array_alt.model").read_text(), prob2.sig)
res2 = mbp(prob2.sig, prob2.store, prob2.formula,
           prob2.formula.free_vars, model2)
print("\nsame output under a different model:", res2.formula == res.formula
      or repr(res2.formula) == repr(res.formula))
