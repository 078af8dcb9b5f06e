"""The benchmark's tracing hooks still find what they hook in the program.

``bench/tracing.py`` wraps callables by (module, attribute) name and counts
degradation warnings by the prefix of their format string; a rename in
``src/cama`` would otherwise break ``--trace 1`` or silently read 0.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def warning_formats():
    formats = []
    for path in sorted((ROOT / "src" / "cama").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "warning"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                formats.append(node.args[0].value)
    return formats


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing._TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_counted_warning_prefix_is_logged():
    tracing = load_tracing()
    formats = warning_formats()
    assert formats
    unmatched = [
        prefix
        for prefix, _ in tracing.LogCounter.KINDS
        if not any(f.startswith(prefix) for f in formats)
    ]
    assert unmatched == []
