"""README's Python blocks run, and each call form its "Library use" section
names binds to the signature of the function it names."""

import inspect
import re
from pathlib import Path

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def test_library_use_runs_and_names_real_signatures():
    namespace = {}
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(block, namespace)
    calls = re.findall(r"`(\w+)\(([^`]*)\)`", section("Library use"))
    assert calls
    for name, args in calls:
        params = [param.strip() for param in args.split(",") if param.strip()]
        keywords = dict(param.split("=", 1) for param in params if "=" in param)
        positional = [param for param in params if "=" not in param]
        inspect.signature(namespace[name]).bind(*positional, **keywords)
