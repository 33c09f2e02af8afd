"""Walkthrough: quantifier reduction on the three worked examples.

The pipeline stages are run one by one so the intermediate choices are
visible: constructively-ground analysis, bottom-up representative choice,
refinement of variable representatives, and the output core.
"""
from pathlib import Path

from egraphqe import (EGraph, find_core, find_defs, parse_problem, qel,
                      refine_defs, term_to_sexpr, to_formula)

HERE = Path(__file__).resolve().parent


def show(name):
    prob = parse_problem((HERE / name).read_text())
    g = EGraph.from_formula(prob.sig, prob.store, prob.formula)
    print(f"== {name}")
    print("  input:            ", prob.formula)

    ground = [term_to_sexpr(g.nodes[n]) for n in g.node_ids()
              if g.cground(n)]
    print("  rewritable-to-ground nodes:", "{" + ", ".join(ground) + "}")

    r = find_defs(g)
    reps = sorted({r.get(n) for n in g.node_ids()})
    print("  representatives:  ",
          ", ".join(term_to_sexpr(g.nodes[n]) for n in reps))

    r = refine_defs(g, r, prob.formula.free_vars)
    reps2 = sorted({r.get(n) for n in g.node_ids()})
    if reps2 != reps:
        print("  after refinement: ",
              ", ".join(term_to_sexpr(g.nodes[n]) for n in reps2))

    core = find_core(g, r, prob.formula.free_vars)
    dropped = [term_to_sexpr(g.nodes[n])
               for n in sorted(set(g.node_ids()) - core)]
    print("  dropped from core:", "{" + ", ".join(dropped) + "}")

    out = to_formula(g, r, set(g.node_ids()) - core)
    print("  result:           ", out)
    gone = [v for v in prob.formula.free_vars if v not in out.free_vars]
    print("  eliminated:       ", ", ".join(gone) or "(none)")
    print()


# z and y get ground definitions (k+1 reaches z's class through congruence);
# x survives because its class holds only variables
show("read_chain.smt2")

# circular definitions y = f(x), x = g(y): picking 6 and then g bottom-up
# grounds both classes, a full elimination
show("circular_defs.smt2")

# no ground term anywhere: x is still expressible as a function of y, but
# retargeting y's class as well would close a cycle, so y stays
show("no_ground_defs.smt2")

# both classes collapse to single core nodes: the reduction is just "true"
show("congruent_funs.smt2")

# the pipeline in one call
prob = parse_problem((HERE / "read_chain.smt2").read_text())
print("one-call form:", qel(prob.sig, prob.store, prob.formula))
