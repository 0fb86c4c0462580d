"""Source-level invariants of the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sigmabuild"


def test_library_has_no_assert_statements():
    # python -O strips asserts, so library invariants must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []
