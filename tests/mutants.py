"""Source mutants that the tests must kill.

    python3 tests/mutants.py

Run from the root of a checkout.  Each entry is a file, the exact text a
mutant replaces, the text put in its place, and the ids of the tests that
must fail on the mutant.  For each entry the script copies ``src``,
``tests``, ``demos`` and ``perfbench`` into a temporary directory, applies
the one change there, and runs only the named tests.  It exits 1 if the old
text no longer occurs exactly once, or if a named test passes on the mutant
(the mutant survives).  Tier 1 does not collect this file; add the mutants
of a change here instead of describing them.
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
SPLIT_ONCE = ("tests/test_mbp.py::"
              "test_each_disequality_reaches_the_split_rule_at_most_once")
WATERMARK_TWIN = ("tests/test_mbp.py::"
                  "test_watermarks_match_the_loop_with_per_key_marks")

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
     "return progress, (size, diseq_size)",
     "return progress, (size, diseq_start)",
     [SPLIT_ONCE, WATERMARK_TWIN,
      "tests/test_mbp.py::test_monotone_growth_and_second_pass_no_progress"]),
    ("a partial equality of a node with itself is unwound from both sides",
     MBP, "dict.fromkeys(((lhs, rhs), (rhs, lhs)))", "((lhs, rhs), (rhs, lhs))",
     [WATERMARK_TWIN]),
    ("process counters count children, not distinct children", EGRAPH,
     "distinct = [len(set(node.children)) for node in self.nodes]",
     "distinct = [len(node.children) for node in self.nodes]",
     ["tests/test_qel.py::test_tail_matches_reference",
      "tests/test_egraph.py::test_class_lists_and_parents_match_a_reference"]),
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
        failed = {line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")}
        survivors = [t for t in tests if t not in failed]
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
