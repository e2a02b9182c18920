"""Words are built only through the checked constructors.

`object.__new__` skips a class's checks, so the package may call it in two
places only: `core._new_part`, for parts whose elements `KSubset.of` has
already checked, and the trusted `Code._from_rows`, whose words are built
through the checked constructors when asked.  A second word builder that
skips the checks would have to call it too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ALLOWED = {("core.py", "_new_part"), ("core.py", "Code._from_rows")}


def _object_new_sites() -> set[tuple[str, str]]:
    """(file, enclosing qualified name) of every reference to object.__new__."""
    sites = set()

    def visit(node: ast.AST, scope: tuple[str, ...], filename: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            sites.add((filename, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, filename)

    for path in sorted((ROOT / "src" / "ekcodes").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path.name)
    return sites


def test_object_new_only_in_the_trusted_constructors():
    assert _object_new_sites() == _ALLOWED
