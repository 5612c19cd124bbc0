"""Every public name a module declares exists, so a deleted function
cannot linger in an `__all__` list."""

import importlib
import pkgutil

import pytest

import mdpv

MODULES = sorted(m.name for m in pkgutil.iter_modules(mdpv.__path__,
                                                       "mdpv."))


def test_every_module_is_listed():
    assert {"mdpv.ansatz", "mdpv.catalog", "mdpv.cli", "mdpv.expr",
            "mdpv.polytools", "mdpv.residual", "mdpv.riccati", "mdpv.rng",
            "mdpv.sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing
    assert len(set(exported)) == len(exported)
