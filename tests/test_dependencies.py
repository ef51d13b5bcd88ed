"""numpy is lgcert's only runtime dependency.

The test extras install scipy and hypothesis, so an accidental import of
either in the package would pass every other test; this one reads the
package's imports from its source instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lgcert"


def absolute_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_standard_library_and_numpy_are_imported():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    foreign = {
        path.name: sorted(names)
        for path in files
        if (names := absolute_imports(path) - set(sys.stdlib_module_names) - {"numpy"})
    }
    assert foreign == {}
