"""Every class in ``cama/errors.py`` is raised by the program.

A class that only tests construct names no condition a user or a caller
meets; this keeps such a class from coming back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cama"


def defined_classes() -> list[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def constructed_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
    return names


def test_every_error_class_is_constructed_in_the_package():
    classes = defined_classes()
    assert classes
    constructed = constructed_names()
    assert [name for name in classes if name not in constructed] == []
