"""Every import under ``src/repro`` is read by the module that makes it.

No linter is installed here, so this scan is the check: it parses each
module with ``ast`` and fails on an import (at module level or inside a
function) whose bound name the module never reads.  It skips
``__future__`` imports, an ``__init__.py``'s re-exports from its own
package, names listed in ``__all__`` or read in a string annotation,
and lines marked ``# noqa: F401``, the marker of an import kept for its
side effect (the inline backend's pre-fork preload).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOQA = "# noqa: F401"


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names read by ``annotation``, inside string annotations too."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= {sub.id for sub in ast.walk(ast.parse(
                node.value, mode="eval")) if isinstance(sub, ast.Name)}
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings of ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return read


def unused_imports(source: str, package: str | None = None
                   ) -> list[tuple[int, str]]:
    """(line, name) of each import in ``source`` that nothing reads.

    ``package`` names the package when ``source`` is its
    ``__init__.py``: imports from that package are its re-exports.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or package is not None and (
                    node.level or node.module.startswith(f"{package}.")):
                continue
            bound = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        else:
            continue
        if NOQA in lines[node.lineno - 1]:
            continue
        unused += [(node.lineno, name) for name in bound
                   if name not in read]
    return unused


def test_no_module_in_src_has_an_unused_import():
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("")
        package = (".".join(module.parent.parts)
                   if path.name == "__init__.py" else None)
        found += [f"{path.relative_to(SRC)}:{line}: {name}"
                  for line, name in unused_imports(path.read_text(),
                                                   package)]
    assert found == []


def test_scan_flags_unread_imports_and_honours_each_exemption():
    source = '''
from __future__ import annotations
import os
import json  # noqa: F401
import xml.dom
from typing import TYPE_CHECKING
from collections import OrderedDict, deque
from pkg.sub import helper
from .sibling import other
if TYPE_CHECKING:
    from pathlib import Path
__all__ = ["deque"]


def f(path: "Path") -> None:
    import sys
    return TYPE_CHECKING
'''
    assert unused_imports(source) == [
        (3, "os"), (5, "xml"), (7, "OrderedDict"), (8, "helper"),
        (9, "other"), (16, "sys")]
    assert unused_imports(source, package="pkg") == [
        (3, "os"), (5, "xml"), (7, "OrderedDict"), (16, "sys")]
