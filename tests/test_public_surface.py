"""The package's exported names: each resolves and none is listed twice."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["dsegym", "dsegym.agents"])
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []
