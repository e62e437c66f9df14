"""Package exports that import their submodule on first access.

A package ``__init__`` that re-exports names from heavy submodules
(numpy, the simulator, the service stack) would load all of them for
every command that imports the package.  :func:`lazy_exports` builds a
PEP 562 module ``__getattr__`` instead: each name is imported the first
time it is looked up, then cached in the package namespace.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for ``package`` resolving ``exports``
    (submodule -> the names it provides) on first access."""
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
