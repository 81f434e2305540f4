"""The installed package ships every bundled data file.

Tests run from the source tree, where every file under `src/restory/data/`
is found whether or not `pyproject.toml` lists it; an installed package
holds only the files its package-data globs match.
"""

from __future__ import annotations

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
