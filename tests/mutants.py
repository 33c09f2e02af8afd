"""Source mutants that the tests must kill.

    python3 tests/mutants.py

Run from the root of a checkout.  Each entry is a file, the exact text a
mutant replaces, the text put in its place, and the ids of the tests that
must fail on the mutant.  For each entry the script copies ``src``,
``tests``, ``demos`` and ``perfbench`` into a temporary directory, applies
the one change there, and runs only the named tests.  It exits 1 if the old
text no longer occurs exactly once, or if a named test passes on the mutant
(the mutant survives).  From the ``find_defs`` counters on, an entry lists
every test that fails on its mutant in a full tier-1 run; the seven entries
before it list the twin tests written against them.  Tier 1 does not
collect this file; add the mutants of a change here instead of describing
them.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench")

EGRAPH = "src/egraphqe/egraph.py"
MERGES_EITHER_WAY = "tests/test_mbp.py::test_ground_analysis_takes_in_merges_either_way"
EVERY_PASS = "tests/test_mbp.py::test_ground_analysis_matches_the_reference_at_every_pass"
QEL_EUF = ("tests/test_egraph.py::"
           "test_ground_analysis_matches_the_reference_on_qel_euf_sequences")
ROOT_TWIN = "tests/test_egraph.py::test_root_array_matches_a_union_find_"
MBP = "src/egraphqe/mbp.py"
QEL = "src/egraphqe/qel.py"
ORACLE = "src/egraphqe/oracle.py"
SPLIT_ONCE = ("tests/test_mbp.py::"
              "test_each_disequality_reaches_the_split_rule_at_most_once")
WATERMARK_TWIN = ("tests/test_mbp.py::"
                  "test_watermarks_match_the_loop_with_per_key_marks")
TAIL_TWIN = "tests/test_qel.py::test_tail_matches_reference"
BY_CONTENT = "tests/test_model.py::test_array_keys_are_ordered_by_content"
PARSER = "tests/test_parser.py::"
TOKENS_TWIN = PARSER + "test_tokens_match_reference_tokenizer"
TEXTS_TWIN = PARSER + "test_reader_matches_reference_on_test_and_demo_problems"
POSITIONS_TWIN = PARSER + "test_error_positions_match_reference"
READER_MUTANTS = PARSER + "test_reader_matches_reference_on_mutants"
X1D_TEXT = "[(declare-sort S 0) (declare-const c\\x1dd S)\\n(assert (= c\\x1dd (= c c)))]"
NBSP_TEXT = ("[(declare-sort S 0) (declare-const c\\xa0d S)\\n"
             "(assert (= c\\xa0d\\u2028(= c c)))]")
LS_TEXT = "[(declare-sort S 0) (declare-const c\\u2028d S)\\n(frob c\\u2028d)]"
DISTINCT_TWIN = "tests/test_oracle.py::test_distinct_and_ueq_under_functions_match_the_references"
MADE_NEITHER = ("tests/test_egraph.py::"
                "test_true_and_false_merged_after_literals_that_made_neither")
UNDEFINED_ARGUMENT = ("tests/test_oracle.py::"
                      "test_every_compiled_kind_is_undefined_at_an_undefined_argument")
EXTRACTION = "src/egraphqe/extraction.py"
UEQ_TEXTS = ("[\\n    (declare-const c Int)\\n    (declare-const d Int)\\n"
             "    (declare-fun f (Int) Int)\\n    (declare-var x Int)\\n"
             "    (declare-var y Int)\\n    (assert (ueq c (f x)))\\n"
             "    (assert (ueq d (f y)))\\n    (assert (ueq x y))\\n    ]",
             "[(declare-sort U 0) (declare-fun f (U) U)\\n(declare-const c U) "
             "(declare-const d U) (declare-var x U) (declare-var y U)\\n"
             "(assert (ueq y (f x)))\\n(assert (= (f x) c))\\n(assert (distinct x d))\\n]")
UEQ_LET_TEXT = ("[(declare-sort S 0) (declare-fun f (S) S) (declare-fun h (S S) S)\\n"
                "(declare-fun P (S) Bool) (declare-const c S) (declare-const d S)\\n"
                "(declare-var x S)\\n"
                "(assert (let ((y (let ((z c)) (f z)))) (ueq y x)))]")

# every test that fails when the reading frame does not read the text as
# forms first (an unclosed '(' then ends in an IndexError), one id a line.
# Many of the ids quote whole model and problem texts, so they are kept in
# a file of their own.
FRAME_KILLS = (ROOT / "tests" / "frame_mutant_kills.txt").read_text().splitlines()


# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("a merge that makes a class ground re-checks no parent", EGRAPH,
     "        if regrounded:\n"
     "            self._settle([p for m in regrounded for p in self._parents[m]])\n",
     "",
     [MERGES_EITHER_WAY, EVERY_PASS, QEL_EUF + "[0]"]),
    ("the re-check always starts from the absorbed side", EGRAPH,
     "regrounded += absorbed if rx in ground else self._members[rx]",
     "regrounded += absorbed",
     [MERGES_EITHER_WAY, EVERY_PASS, QEL_EUF + "[0]"]),
    ("a question settles no new node", EGRAPH,
     "            self._settle(range(self._settled, len(self.nodes)))\n",
     "",
     [MERGES_EITHER_WAY, QEL_EUF + "[1]",
      "tests/test_qel.py::test_cground_read_chain"]),
    ("a question settles only the newest node", EGRAPH,
     "self._settle(range(self._settled, len(self.nodes)))",
     "self._settle([len(self.nodes) - 1])",
     [MERGES_EITHER_WAY, QEL_EUF + "[1]",
      "tests/test_qel.py::test_cground_read_chain"]),
    ("a merge relabels only the absorbed root", EGRAPH,
     "            for m in absorbed:\n"
     "                root[m] = rx\n",
     "            root[ry] = rx\n",
     [ROOT_TWIN + "on_random_merges", ROOT_TWIN + "when_the_growing_class_is_absorbed",
      "tests/test_egraph.py::test_class_lists_and_parents_match_a_reference"]),
    ("the disequality watermark is never advanced", MBP,
     "return progress, (size, peq_size, diseq_size)",
     "return progress, (size, peq_size, diseq_start)",
     [SPLIT_ONCE, WATERMARK_TWIN,
      "tests/test_mbp.py::test_monotone_growth_and_second_pass_no_progress"]),
    ("a partial equality of a node with itself is unwound from both sides",
     MBP, "dict.fromkeys(((lhs, rhs), (rhs, lhs)))", "((lhs, rhs), (rhs, lhs))",
     [WATERMARK_TWIN]),
    ("process counters count children, not distinct children", QEL,
     "unmet = [len(set(node.children)) for node in g.nodes]",
     "unmet = [len(node.children) for node in g.nodes]",
     [TAIL_TWIN, "tests/test_qel.py::test_find_defs_counts_a_repeated_child_once"]),
    ("refine_defs retargets only the candidate", QEL,
     "r.update(dict.fromkeys(members[m], m))", "r[m] = m",
     ["tests/test_qel.py::test_refine_defs_no_ground",
      "tests/test_acceptance.py::test_criterion_1_golden_examples",
      "tests/test_acceptance.py::test_criterion_4_admissibility_preservation",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_euf",
      "tests/test_oracle.py::"
      "test_backtracking_matches_product_search_on_qel_demos[no_ground_defs.smt2]",
      "tests/test_qel.py::test_refine_defs_order_insensitive",
      "tests/test_qel.py::test_makes_cycle_agrees_with_reference",
      "tests/test_qel.py::test_qel_golden_outputs",
      "tests/test_qel.py::test_qel_equivalence_small",
      "tests/test_qel.py::test_qel_idempotent",
      "tests/test_qel.py::test_find_defs_admissible_and_maximally_ground",
      "tests/test_qel.py::test_unreachable_variables_never_survive",
      "tests/test_qel.py::test_qel_twice_on_one_store_prints_the_same[nested_pair_array.smt2]",
      "tests/test_qel.py::test_qel_twice_on_one_store_prints_the_same[no_ground_defs.smt2]",
      "tests/test_qel.py::test_qel_twice_on_one_generated_store_prints_the_same",
      TAIL_TWIN,
      "tests/test_cli.py::test_projecting_both_sides_of_a_written_equality_ends",
      "tests/test_mbp.py::test_elim_eq_declares_an_array_valued_fresh_variable",
      "tests/test_mbp.py::test_write_projections_keep_the_contract",
      WATERMARK_TWIN]),
    ("class_of hands out the live member list", EGRAPH,
     "return sorted(self._members[self.find(n)])",
     "return self._members[self.find(n)]",
     ["tests/test_egraph.py::test_class_lists_and_parents_match_a_reference",
      TAIL_TWIN, "tests/test_qel.py::test_process_matches_reference_from_partial_reprs",
      "tests/test_qel.py::test_to_formula_matches_reference_on_random_reprs"]),
    ("the Ackermann decisions are not sorted", MBP,
     "    decisions.sort(key=lambda d: d[:2])\n", "",
     ["tests/test_mbp.py::test_partitioned_ackermann_matches_all_pairs"]),
    ("no renaming pin", ORACLE,
     "self._pinned = {s.name for sort in within.values()\n"
     "                        for s in _defaulted(sort) if s.name in self._sizes}",
     "self._pinned = set()",
     ["tests/test_oracle.py::"
      "test_walk_yields_the_product_where_nothing_renames[pinned-element]",
      "tests/test_oracle.py::test_selector_default_pins_element_0"]),
    ("no undefined-argument rule at arity 1", ORACLE,
     "return _UNDEFINED if x is _UNDEFINED else op(x)", "return op(x)",
     [UNDEFINED_ARGUMENT]),
    ("no undefined-argument rule at arity 2", ORACLE,
     "return _UNDEFINED if x is _UNDEFINED or y is _UNDEFINED \\\n"
     "                else op(x, y)",
     "return op(x, y)",
     ["tests/test_oracle.py::test_qel_read_chain_equivalence_with_arithmetic",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_arithmetic",
      "tests/test_oracle.py::"
      "test_backtracking_matches_product_search_on_qel_demos[read_chain.smt2]",
      UNDEFINED_ARGUMENT]),
    ("a parallel let read sequentially", "src/egraphqe/parser.py",
     "        scope.update([(name, _term(store, toks, at, scope)[0])\n"
     "                      for name, at in bindings])\n",
     "        for name, at in bindings:\n"
     "            scope[name] = _term(store, toks, at, scope)[0]\n",
     ["tests/test_parser.py::test_reader_matches_reference_on_generated_let_problems",
      "tests/test_parser.py::test_reader_matches_reference_on_lets["
      "(declare-sort S 0) (declare-fun f (S) S) (declare-fun h (S S) S)\\n"
      "(declare-fun P (S) Bool) (declare-const c S) (declare-const d S)\\n"
      "(declare-var x S)\\n"
      "(assert (let ((y c)) (let ((y d) (z y)) (= z (f y)))))]",
      "tests/test_parser.py::test_reader_matches_reference_on_mutants"]),
    ("distinct computes equality in the table of builtins", "src/egraphqe/model.py",
     '"ueq": operator.eq, "distinct": operator.ne}',
     '"ueq": operator.eq, "distinct": operator.eq}',
     ["tests/test_model.py::test_every_builtin_agrees_with_the_reference_evaluator",
      "tests/test_oracle.py::test_evaluators_agree_on_every_int_builtin",
      *(f"{DISTINCT_TWIN}[{seed}]" for seed in range(6))]),
    ("the oracle does not window +", ORACLE,
     'if label in ("+", "-", "*"):', 'if label in ("-", "*"):',
     ["tests/test_oracle.py::test_out_of_window_interpretations_skipped",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_arithmetic",
      "tests/test_oracle.py::"
      "test_backtracking_matches_product_search_on_qel_demos[read_chain.smt2]",
      "tests/test_oracle.py::test_failing_skip_count_is_weighted",
      "tests/test_oracle.py::test_evaluators_agree_on_every_int_builtin"]),
    ("array keys ordered by id", "src/egraphqe/model.py",
     "else _K if first.__class__ is Elem else show)", "else id)",
     # test_array_text_does_not_depend_on_the_values_made_before fails on it
     # too when freed values' addresses are reused in the other order, not
     # on every run, so it is not listed
     [BY_CONTENT + "[elements]", BY_CONTENT + "[datatype-values]",
      BY_CONTENT + "[arrays]"]),
    ("the reading frame does not read the text as forms first", "src/egraphqe/sexpr.py",
     "            read_all(text)\n", "", FRAME_KILLS),
    ("the split guard lets \\x1d through", "src/egraphqe/sexpr.py",
     '"\\x1c", "\\x1d", "\\x1e"', '"\\x1c", "\\x1e"',
     [TOKENS_TWIN + "[(a\\x1db)]", TOKENS_TWIN + "_on_random_texts",
      TEXTS_TWIN + X1D_TEXT, POSITIONS_TWIN + X1D_TEXT, READER_MUTANTS]),
    ("the split guard does not ask for ASCII", "src/egraphqe/sexpr.py",
     "if text.isascii() and not any(", "if not any(",
     [TOKENS_TWIN + "[(a\\x85b \\u3000c)]", TOKENS_TWIN + "_on_random_texts",
      TEXTS_TWIN + NBSP_TEXT, TEXTS_TWIN + LS_TEXT, POSITIONS_TWIN + NBSP_TEXT,
      POSITIONS_TWIN + LS_TEXT, READER_MUTANTS]),
    ("literal equality ignores the kind", "src/egraphqe/terms.py",
     "return (self.kind == other.kind and self.lhs == other.lhs\n"
     "                and self.rhs == other.rhs)",
     "return self.lhs == other.lhs and self.rhs == other.rhs",
     ["tests/test_terms.py::test_literal_equality_and_hash_are_by_fields"]),
    ("the node of false is never noted, so true and false are never compared", EGRAPH,
     '_TRUTH = ("true", "false")', '_TRUTH = ("true",)',
     ["tests/test_egraph.py::test_top_bottom_never_share_a_class",
      MADE_NEITHER + "[true-first]", MADE_NEITHER + "[false-first]",
      "tests/test_egraph.py::test_inconsistency_raised_exactly_when_rescan_finds_violation"]),
    ("solving a partial equality makes the term read(v, i) to value d!k", MBP,
     "array_read(state.meval(v), state.meval(ix))",
     'state.meval(store.mk_app("read", (v, ix)))',
     ["tests/test_mbp.py::test_elim_eq_reads_the_fresh_value_off_the_model",
      "tests/test_mbp.py::"
      "test_partial_equalities_meet_the_rules_in_the_order_they_were_made"]),
    ("extraction reuses a node's term without comparing its children", EXTRACTION,
     "return term if args == term.children else store.mk_app(term.label, args)",
     "return term",
     ["tests/test_acceptance.py::test_criterion_1_golden_examples",
      "tests/test_acceptance.py::test_criterion_3_ground_definitions_eliminated",
      "tests/test_cli.py::test_qel_read_chain_golden",
      "tests/test_cli.py::test_mbp_golden_with_check",
      "tests/test_cli.py::test_qel_check_passes",
      "tests/test_cli.py::test_output_reparses",
      "tests/test_cli.py::test_qel_prints_a_tower_under_lets[60]",
      "tests/test_cli.py::test_qel_prints_a_tower_under_lets[3000]",
      "tests/test_cli.py::test_peq_is_an_ordinary_symbol[check0]",
      "tests/test_cli.py::test_peq_is_an_ordinary_symbol[check1]",
      "tests/test_extraction.py::test_to_expr_read_chain",
      "tests/test_extraction.py::test_to_expr_circular_b",
      "tests/test_extraction.py::test_to_formula_read_chain_no_exclusions",
      "tests/test_mbp.py::test_projection_example_output",
      "tests/test_mbp.py::test_projection_example_model_independent",
      "tests/test_mbp.py::test_elim_wr_rd_skipped_when_class_is_ground",
      "tests/test_mbp.py::test_adt_deconstruct_selector_equalities",
      "tests/test_mbp.py::test_a_disequality_made_ground_earlier_in_the_pass_is_not_split",
      "tests/test_mbp.py::"
      "test_a_variable_solved_over_a_projected_one_is_solved_again_over_a_kept_one",
      "tests/test_mbp.py::"
      "test_partial_equalities_meet_the_rules_in_the_order_they_were_made",
      "tests/test_mbp.py::test_write_projections_keep_the_contract",
      "tests/test_oracle.py::test_qel_read_chain_equivalence_with_arithmetic",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_qel_demos[circular_defs.smt2]",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_qel_demos[no_ground_defs.smt2]",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_qel_demos[read_chain.smt2]",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_mbp_demo",
      "tests/test_qel.py::test_qel_golden_outputs",
      "tests/test_qel.py::test_qel_eliminates_expected_vars",
      "tests/test_qel.py::test_qel_equivalence_small",
      "tests/test_qel.py::test_qel_idempotent",
      "tests/test_qel.py::test_ground_definition_always_eliminates",
      "tests/test_qel.py::test_unreachable_variables_never_survive",
      "tests/test_qel.py::test_tail_matches_reference",
      "tests/test_qel.py::test_to_formula_matches_reference_on_random_reprs",
      "tests/test_terms.py::test_tower_prints_linear_and_reads_back[12]",
      "tests/test_terms.py::test_tower_prints_linear_and_reads_back[15]",
      "tests/test_terms.py::test_tower_prints_linear_and_reads_back[60]",
      "tests/test_terms.py::test_tower_prints_linear_and_reads_back[3000]"]),
    ("the reader makes no ueq marker", "src/egraphqe/parser.py",
     '        store.mk_app("ueq", (lhs, rhs))\n', "        pass\n",
     ["tests/test_cli.py::test_dot_golden_of_a_ueq_problem",
      *(TEXTS_TWIN + text for text in UEQ_TEXTS),
      PARSER + "test_reader_matches_reference_on_generated_problems",
      PARSER + "test_reader_matches_reference_on_generated_let_problems",
      PARSER + "test_reader_matches_reference_on_lets" + UEQ_LET_TEXT,
      PARSER + "test_reader_matches_reference_on_mutants"]),
    ("a new node is not looked up among the congruence keys", EGRAPH,
     "        other = self._cong.setdefault(self._canon_key(term), nid)\n"
     "        if other != nid:\n"
     "            self._merge(nid, other)\n",
     "",
     ["tests/test_acceptance.py::test_criterion_1_golden_examples",
      "tests/test_acceptance.py::test_criterion_5_projection_contract",
      "tests/test_cli.py::test_qel_read_chain_golden",
      "tests/test_egraph.py::test_read_chain_classes",
      "tests/test_egraph.py::test_explicit_equality_keeps_nodes_and_merges",
      "tests/test_egraph.py::test_add_term_idempotent_and_congruent",
      "tests/test_egraph.py::test_assert_eq_congruence_propagates",
      "tests/test_egraph.py::test_true_and_false_merged_after_literals_that_made_neither[true-first]",
      "tests/test_egraph.py::test_true_and_false_merged_after_literals_that_made_neither[false-first]",
      "tests/test_egraph.py::test_root_idempotent_and_congruence_invariant",
      "tests/test_egraph.py::test_class_lists_and_parents_match_a_reference",
      "tests/test_egraph.py::test_root_array_matches_a_union_find_when_the_growing_class_is_absorbed",
      "tests/test_egraph.py::test_a_graph_holds_a_prefix_of_its_store",
      "tests/test_extraction.py::test_to_formula_read_chain_no_exclusions",
      "tests/test_mbp.py::test_ackermann_equal_and_diseq_branches",
      "tests/test_mbp.py::test_random_projection_contract",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_qel_demos[read_chain.smt2]",
      "tests/test_qel.py::test_cground_read_chain",
      "tests/test_qel.py::test_find_defs_read_chain_picks",
      "tests/test_qel.py::test_find_core_read_chain",
      "tests/test_qel.py::test_qel_golden_outputs",
      "tests/test_qel.py::test_tail_matches_reference"]),
    ("congruence keys hold the child ids, not their class roots", EGRAPH,
     "return (t.label, tuple([root[c.id] for c in t.children]))",
     "return (t.label, tuple([c.id for c in t.children]))",
     ["tests/test_acceptance.py::test_criterion_1_golden_examples",
      "tests/test_acceptance.py::test_criterion_5_projection_contract",
      "tests/test_cli.py::test_qel_read_chain_golden",
      "tests/test_egraph.py::test_a_graph_holds_a_prefix_of_its_store",
      "tests/test_egraph.py::test_add_term_idempotent_and_congruent",
      "tests/test_egraph.py::test_assert_eq_congruence_propagates",
      "tests/test_egraph.py::test_class_lists_and_parents_match_a_reference",
      "tests/test_egraph.py::test_explicit_equality_keeps_nodes_and_merges",
      "tests/test_egraph.py::test_read_chain_classes",
      *(f"{ROOT_TWIN}on_qel_euf_literals[{k}]" for k in range(4)),
      ROOT_TWIN + "on_random_merges", ROOT_TWIN + "when_the_growing_class_is_absorbed",
      MADE_NEITHER + "[false-first]", MADE_NEITHER + "[true-first]",
      "tests/test_extraction.py::test_to_formula_read_chain_no_exclusions",
      "tests/test_mbp.py::test_ackermann_equal_and_diseq_branches",
      "tests/test_mbp.py::test_random_projection_contract",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_qel_demos[read_chain.smt2]",
      "tests/test_qel.py::test_cground_read_chain",
      "tests/test_qel.py::test_find_core_one_rep_per_class_when_congruent",
      "tests/test_qel.py::test_find_core_read_chain",
      "tests/test_qel.py::test_find_defs_read_chain_picks",
      "tests/test_qel.py::test_qel_golden_outputs"]),
    ("process looks a child term up among r's node ids", QEL,
     "if c.id not in r}) for node in g.nodes]", "if c not in r}) for node in g.nodes]",
     ["tests/test_qel.py::test_process_matches_reference_from_partial_reprs"]),
    ("a partial equality is recorded again under its key", MBP,
     "        if key in self.peq_keys:\n"
     "            return False\n",
     "",
     ["tests/test_mbp.py::"
      "test_a_variable_solved_over_a_projected_one_is_solved_again_over_a_kept_one",
      "tests/test_mbp.py::test_a_variable_in_a_ground_class_is_not_solved_again",
      WATERMARK_TWIN]),
    ("elim_wr also excepts the index on a clash", MBP,
     "            state.partial_eq(s, u, exceptions)",
     "            state.partial_eq(s, u, {**exceptions, ival: i})",
     ["tests/test_mbp.py::test_a_clash_keeps_the_first_index", WATERMARK_TWIN]),
    ("elim_eq solves a variable whenever it may", MBP,
     "        if v.label in mentions or mentions in tried \\\n"
     "                or tried and g.ground_class(v.id):",
     "        if v.label in mentions:",
     ["tests/test_cli.py::test_projecting_both_sides_of_a_written_equality_ends",
      "tests/test_mbp.py::test_a_variable_in_a_ground_class_is_not_solved_again",
      "tests/test_mbp.py::test_write_projections_keep_the_contract"]),
    ("elim_eq solves a variable once whatever its solutions mention", MBP,
     "        if v.label in mentions or mentions in tried \\\n",
     "        if v.label in mentions or tried \\\n",
     ["tests/test_mbp.py::"
      "test_a_variable_solved_over_a_projected_one_is_solved_again_over_a_kept_one",
      "tests/test_mbp.py::test_write_projections_keep_the_contract"]),
    ("elim_eq solves a variable in a ground class again", MBP,
     " \\\n                or tried and g.ground_class(v.id):",
     ":",
     ["tests/test_mbp.py::test_a_variable_in_a_ground_class_is_not_solved_again"]),
    ("partial equalities are offered after all of a pass's nodes", MBP,
     "        while k < peq_size and state.peq_at[k] <= n:",
     "        while k < peq_size and n == size:",
     ["tests/test_mbp.py::"
      "test_partial_equalities_meet_the_rules_in_the_order_they_were_made",
      WATERMARK_TWIN]),
    ("the partial-equality watermark is never advanced", MBP,
     "return progress, (size, peq_size, diseq_size)",
     "return progress, (size, peq_start, diseq_size)",
     ["tests/test_acceptance.py::test_criterion_1_golden_examples",
      "tests/test_acceptance.py::test_criterion_6_cground_skip_on_projection_example",
      "tests/test_cli.py::test_mbp_golden_with_check",
      "tests/test_cli.py::test_dot_output",
      "tests/test_cli.py::test_projecting_both_sides_of_a_written_equality_ends",
      "tests/test_cli.py::test_file_with_a_byte_order_mark_reads_as_without[nested_pair_array.smt2]",
      "tests/test_cli.py::test_file_with_a_byte_order_mark_reads_as_without[nested_pair_array.model]",
      "tests/test_cli.py::test_mbp_check_failure_exits_3",
      "tests/test_egraph.py::test_node_ids_are_term_ids_in_a_saturated_graph[nested_pair_array.model]",
      "tests/test_egraph.py::test_node_ids_are_term_ids_in_a_saturated_graph[nested_pair_array_alt.model]",
      "tests/test_mbp.py::test_projection_example_output",
      "tests/test_mbp.py::test_saturated_projection_graph_has_no_distinct_node",
      "tests/test_mbp.py::test_projection_example_model_independent",
      "tests/test_mbp.py::test_projection_example_model_holds_on_output",
      "tests/test_mbp.py::test_cground_skip_blocks_disequality_split",
      "tests/test_mbp.py::test_elim_eq_declares_an_array_valued_fresh_variable",
      "tests/test_mbp.py::test_elim_eq_reads_the_fresh_value_off_the_model",
      "tests/test_mbp.py::test_elim_wr_unwinds_write_and_keeps_read_fact",
      "tests/test_mbp.py::test_adt_deconstruct_selector_equalities",
      "tests/test_mbp.py::test_monotone_growth_and_second_pass_no_progress",
      "tests/test_mbp.py::test_saturated_graph_keeps_congruent_terms_apart",
      "tests/test_mbp.py::test_nested_write_unwinds_twice",
      "tests/test_mbp.py::test_a_clash_keeps_the_first_index",
      "tests/test_mbp.py::"
      "test_a_variable_solved_over_a_projected_one_is_solved_again_over_a_kept_one",
      "tests/test_mbp.py::"
      "test_partial_equalities_meet_the_rules_in_the_order_they_were_made",
      "tests/test_mbp.py::test_write_projections_keep_the_contract",
      "tests/test_mbp.py::test_partitioned_ackermann_matches_all_pairs",
      "tests/test_mbp.py::test_watermarks_match_the_loop_with_per_key_marks",
      "tests/test_mbp.py::test_each_disequality_reaches_the_split_rule_at_most_once",
      "tests/test_mbp.py::test_ground_analysis_matches_the_reference_at_every_pass",
      "tests/test_model.py::test_holds_agrees_with_reference_on_demo_and_deep_models",
      "tests/test_oracle.py::test_backtracking_matches_product_search_on_mbp_demo",
      "tests/test_qel.py::test_makes_cycle_agrees_with_reference",
      "tests/test_qel.py::test_tail_matches_reference",
      "tests/test_qel.py::test_process_matches_reference_from_partial_reprs"]),
]


def run(name, path, old, new, tests) -> str:
    """None if the mutant is killed, else why not."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for sub in COPIED:
            shutil.copytree(ROOT / sub, tmp / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        text = (tmp / path).read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {path}"
        (tmp / path).write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *tests], cwd=tmp, env=env, capture_output=True, text=True)
        # a test id may hold spaces, so each listed id is looked up whole
        lines = proc.stdout.splitlines()
        survivors = [t for t in tests if f"FAILED {t}" not in lines
                     and not any(line.startswith(f"FAILED {t} - ") for line in lines)]
        if survivors:
            return "these tests pass: " + ", ".join(survivors)
    return None


def main() -> int:
    status = 0
    for name, path, old, new, tests in MUTANTS:
        why = run(name, path, old, new, tests)
        print(f"{'killed  ' if why is None else 'SURVIVED'} {name}")
        if why is not None:
            print(f"         {why}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
