"""Every name a polyscore module exports in ``__all__`` resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import polyscore

MODULES = sorted(m.name for m in pkgutil.iter_modules(polyscore.__path__) if not m.name.startswith("_"))


def test_the_layer_modules_are_listed():
    assert {"polybasis", "expfam", "sampler", "estimators", "fisher", "hardness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"polyscore.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"polyscore.{name}.__all__ names {missing}, which it does not define"


def test_the_cnf_fixtures_ship_as_package_data():
    # a non-editable install carries only the files pyproject's package-data globs name
    tomllib = pytest.importorskip("tomllib")
    package = Path(polyscore.__file__).parent
    with open(package.parents[1] / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["polyscore"]
    shipped = {p.relative_to(package).as_posix() for g in globs for p in package.glob(g)}
    fixtures = {f"testdata/{name}.cnf" for name in ("clause1", "uniq3", "unsat8")}
    assert fixtures <= shipped
    assert {p.relative_to(package).as_posix() for p in (package / "testdata").iterdir()} == fixtures
