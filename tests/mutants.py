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
    ("the first question starts from an empty analysis", EGRAPH,
     "        self._settle(range(len(self.nodes)))\n",
     "        self._settle(())\n",
     [MERGES_EITHER_WAY, QEL_EUF + "[1]",
      "tests/test_qel.py::test_cground_read_chain"]),
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
