"""Every name a module lists in ``__all__`` exists and comes with a star import."""

import importlib

import pytest

MODULES = (
    "cli", "cost_model", "history", "schedulers", "search_space", "simulate", "streams", "validate"
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist_and_star_import(module):
    mod = importlib.import_module(f"ace_hpo.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from ace_hpo.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
