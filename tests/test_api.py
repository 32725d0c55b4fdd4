"""The package's public API is the union of its library modules' `__all__`."""

import importlib

import pytest

import dicksonrs


@pytest.mark.parametrize("module", ["gf", "polyring", "dickson", "charsum", "sieve", "rscode"])
def test_every_public_name_is_importable_from_the_package(module):
    mod = importlib.import_module(f"dicksonrs.{module}")
    missing = [name for name in mod.__all__ if getattr(dicksonrs, name, None) is not getattr(mod, name)]
    assert missing == []
