"""The installed package ships every bundled data file, and every bundled
data file is read by the package.

Tests run from the source tree, where every file under `src/restory/data/`
is found whether or not `pyproject.toml` lists it; an installed package
holds only the files its package-data globs match. A data file that no
code names is dead weight that still ships.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_bundled_data_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    package = ROOT / "src" / "restory"
    shipped = {path for pattern in config["tool"]["setuptools"]["package-data"]["restory"]
               for path in package.glob(pattern)}
    bundled = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert bundled, "no bundled data files found"
    unlisted = sorted(str(path.relative_to(package)) for path in bundled - shipped)
    assert unlisted == []


def test_every_bundled_data_file_is_named_by_the_package():
    package = ROOT / "src" / "restory"
    literals = {node.value
                for module in package.glob("*.py")
                for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    bundled = [path for path in (package / "data").rglob("*") if path.is_file()]
    assert bundled, "no bundled data files found"
    orphans = sorted(str(path.relative_to(package)) for path in bundled
                     if path.name not in literals)
    assert orphans == []
