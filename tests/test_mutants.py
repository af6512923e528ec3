"""The mutation table (``tests/mutants.py``) still fits the code it mutates.

Running the table takes minutes, so tier-1 only checks it statically: every
row's snippet occurs exactly once in its file, and every test a row names
exists.  A change that moves a mutated snippet or renames a killing test
fails here, in the same change.
"""
import ast

from mutants import MUTANTS, ROOT, snippet_count


def test_rows_have_unique_names_and_name_tests():
    assert len({row.name for row in MUTANTS}) == len(MUTANTS)
    assert all(row.tests and row.old != row.new for row in MUTANTS)


def test_each_snippet_occurs_exactly_once():
    assert [(row.name, n) for row in MUTANTS if (n := snippet_count(row)) != 1] == []


def test_every_named_test_exists():
    functions: dict[str, set[str]] = {}
    for path in {test_id.partition("::")[0] for row in MUTANTS for test_id in row.tests}:
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        functions[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    missing = []
    for row in MUTANTS:
        for test_id in row.tests:
            path, _, name = test_id.partition("::")
            if name.partition("[")[0] not in functions[path]:
                missing.append((row.name, test_id))
    assert missing == []
