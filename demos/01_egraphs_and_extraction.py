"""Walkthrough: egraphs of conjunctions, and extracting formulas back out.

Loads z = read(a,x) /\ k+1 = read(a,y) /\ x = y /\ 3 > z, shows the
equivalence classes congruence closure derives, and demonstrates how the
choice of class representatives shapes the extracted formula.
"""
from pathlib import Path

from egraphqe import (EGraph, build_repr_graph, is_admissible, parse_problem,
                      term_to_sexpr, to_expr, to_formula)

HERE = Path(__file__).resolve().parent

prob = parse_problem((HERE / "read_chain.smt2").read_text())
g = EGraph.from_formula(prob.sig, prob.store, prob.formula)

print("input:", prob.formula)
print("\nequivalence classes (congruence closure):")
for root in g.roots():
    members = [term_to_sexpr(g.nodes[m]) for m in g.class_of(root)]
    print("  {" + ", ".join(members) + "}")
# note that read(a,x) and read(a,y) were merged without an explicit literal:
# x = y makes them congruent, and transitivity pulls in k+1.

# A representative function picks one node per class: a dict from node id
# to representative id.  Extraction rebuilds terms using representatives
# for children.  Pick z and x:
z = next(n.id for n in g.nodes if n.label == "z")
x = next(n.id for n in g.nodes if n.label == "x")
r = {}
r.update(dict.fromkeys(g.class_of(z), z))
r.update(dict.fromkeys(g.class_of(x), x))
for root in g.roots():
    if root not in r:
        r.update(dict.fromkeys(g.class_of(root), root))

read_ay = next(n.id for n in g.nodes
               if n.label == "read" and n.children[1].label == "y")
print("\nwith z and x as representatives:")
print("  read(a,y) extracts to", term_to_sexpr(to_expr(g, read_ay, r)))
print("  whole graph extracts to", to_formula(g, r))

# Not every choice works.  An inadmissible function (one whose induced
# node -> child-representative graph has a cycle) makes extraction diverge;
# the extractor raises when a representative is already on its current path.
print("\nrepresentative edges for this choice:", sorted(build_repr_graph(g, r)))
print("admissible:", is_admissible(g, r))

print("\nDOT dump (render with graphviz):")
print(g.dump_dot(r))
