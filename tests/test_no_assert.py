"""Library invariants raise `NagaoError`: an `assert` vanishes under
`python -O`, so no module under src/ may contain one."""

import ast

from conftest import ROOT


def test_no_assert_statements_in_the_library():
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements under src/: " + ", ".join(found)
