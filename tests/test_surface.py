"""The public surface: every exported name has a caller outside the tests."""

import ast
import re
from pathlib import Path

import hpa_dynamics

ROOT = Path(__file__).resolve().parent.parent


def _python_references(path):
    """Names a module imports, reads or reaches as an attribute; a ``def``,
    a ``class`` or an assignment of the name is no reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def test_every_export_is_used_outside_the_tests():
    files = [f for f in (ROOT / "src").rglob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "bench").rglob("*.py")) + list((ROOT / "scripts").rglob("*.py"))
    used = set().union(*map(_python_references, files))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= set(re.findall(r"\w+", readme))
    unused = [name for name in hpa_dynamics.__all__ if name not in used]
    assert unused == [], f"exported but called only by tests: {unused}"
