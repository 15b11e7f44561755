"""Every name a polyscore module exports in ``__all__`` resolves."""

import importlib
import pkgutil

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
