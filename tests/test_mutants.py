"""The mutation register stays attached to the code and the tests it names.

Running the register takes seconds per entry, so tier-1 only checks that
each entry still applies and still names tests that exist; ``python
tests/mutants.py`` runs it.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_register_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_entry_applies_once_and_names_existing_tests(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node
