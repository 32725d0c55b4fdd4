"""The package's public API is the union of its library modules' `__all__`;
`charsum` and `sieve` load on first use."""

import importlib

import pytest

import dicksonrs


@pytest.mark.parametrize("module", ["gf", "polyring", "dickson", "charsum", "sieve", "rscode"])
def test_every_public_name_is_importable_from_the_package(module):
    mod = importlib.import_module(f"dicksonrs.{module}")
    missing = [name for name in mod.__all__ if getattr(dicksonrs, name, None) is not getattr(mod, name)]
    assert missing == []


def test_lazy_module_loads_on_attribute_access(fresh_python):
    code = "import dicksonrs; print(sorted(dicksonrs.charsum.SUMS))"
    assert fresh_python(code) == "['identity', 'lemma', 'weil1', 'weil2', 'weil3']"


def test_star_import_binds_exactly_the_public_api(fresh_python):
    code = """
import importlib
ns = {}
exec("from dicksonrs import *", ns)
mods = ["gf", "polyring", "dickson", "charsum", "sieve", "rscode"]
want = {name for m in mods for name in importlib.import_module(f"dicksonrs.{m}").__all__}
print(set(ns) - {"__builtins__"} == want)
"""
    assert fresh_python(code) == "True"


def test_unknown_name_raises_attribute_error(fresh_python):
    code = """
import dicksonrs
try:
    dicksonrs.no_such_name
except AttributeError as e:
    print(e)
"""
    assert fresh_python(code) == "module 'dicksonrs' has no attribute 'no_such_name'"


def test_checked_specs_check_every_copy():
    # namedtuple's `_replace` builds through `_make`; both must reach the
    # constructor's checks, as a spec built directly does
    F = dicksonrs.FiniteField(7)
    specs = [dicksonrs.DicksonSpec(F, 2, 1), dicksonrs.RSCodeSpec(F, (0, 1, 2), 1),
             dicksonrs.AdditiveCharacter(F, 1)]
    # each out-of-range value replaces the spec's last field
    for spec, (field, bad) in zip(specs, [("a", 99), ("k", 3), ("b", 7)]):
        assert type(spec)._make(tuple(spec)) == spec == spec._replace()
        with pytest.raises(ValueError):
            spec._replace(**{field: bad})
        with pytest.raises(ValueError):
            type(spec)._make((*spec[:-1], bad))
    with pytest.raises(ValueError, match="n = 0"):
        dicksonrs.DicksonSpec._make((F, 0, 1))
