"""Every module under src/spectower and tests uses each name it imports.

A name counts as used if it is read anywhere in the module (at any depth,
so a function's local import counts when the module reads the name) or
listed in the module's `__all__`.  `spectower/__init__.py` exports by a
table of strings that are not imports, so it needs no exemption.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(os.path.relpath(os.path.join(d, f), ROOT)
                 for top in ("src/spectower", "tests") for d, _, fs in os.walk(os.path.join(ROOT, top))
                 for f in fs if f.endswith(".py"))


def unused_imports(source):
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in getattr(node.value, "elts", ()) if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nimport x.y\nprint(d, x)\n") == ["os", "b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_import(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
