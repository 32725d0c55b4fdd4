"""The package's public API is the union of its library modules' `__all__`;
`charsum` and `sieve` load on first use."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import dicksonrs


@pytest.mark.parametrize("module", ["gf", "polyring", "dickson", "charsum", "sieve", "rscode"])
def test_every_public_name_is_importable_from_the_package(module):
    mod = importlib.import_module(f"dicksonrs.{module}")
    missing = [name for name in mod.__all__ if getattr(dicksonrs, name, None) is not getattr(mod, name)]
    assert missing == []


def _annotation_names(tree):
    """Every name read by an annotation of tree, string annotations included."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            notes += [arg.annotation for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                 a.vararg, a.kwarg) if arg and arg.annotation]
            notes += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    while notes:
        for node in ast.walk(notes.pop()):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                notes.append(ast.parse(node.value, mode="eval"))


def _module_names(tree):
    """Names bound by tree's top-level statements and its `if TYPE_CHECKING:` blocks."""
    body = list(tree.body)
    for node in body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            body += node.body
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", sorted(Path(dicksonrs.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_annotation_names_a_module_level_binding(path):
    # annotations stay unevaluated at run time, so nothing else notices a name
    # imported only inside a function, which type checkers cannot resolve
    tree = ast.parse(path.read_text())
    bound = set(_module_names(tree)) | set(dir(builtins))
    assert sorted(set(_annotation_names(tree)) - bound) == []


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
