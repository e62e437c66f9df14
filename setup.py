"""Package declaration for ``repro``: the sources under ``src/``.

There is no ``pyproject.toml``; all the metadata lives here.  The
version is read from ``src/repro/__init__.py`` as text, so declaring
the package imports none of it.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    match = re.search(r'^__version__ = "([^"]+)"$',
                      init.read_text(encoding="utf-8"), re.MULTILINE)
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
