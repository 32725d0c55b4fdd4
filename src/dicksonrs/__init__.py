"""Deep-hole experiments for Reed-Solomon codes over Dickson value sets.

The package splits along the natural seams of the problem:

    gf       - exact GF(p^m) arithmetic, trace, quadratic character
    polyring - dense polynomials and Lagrange interpolation
    dickson  - Dickson evaluation, value sets, exact counting formulas
    charsum  - additive character sums and their Weil-type bounds
    sieve    - cycle-type combinatorics, bound chain, region solver
    rscode   - codes, exact error distance, subset-sum deep-hole tests
    cli      - the `dickson` command and reproducible suites

Each library module's `__all__` is its public API, re-exported here whole.
`charsum` and `sieve`, their names and the package's `__all__` load on
first use (PEP 562), so the deep-hole path never imports them.  Result
records are named tuples: `r._replace(...)` and `r._asdict()` copy and
convert them.
"""

__version__ = "0.1.0"

from .gf import *
from .polyring import *
from .dickson import *
from .rscode import *

_MODULES = ("gf", "polyring", "dickson", "charsum", "sieve", "rscode")
_LAZY = ("charsum", "sieve")


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for m in _MODULES for n in import_module(f"{__name__}.{m}").__all__]
    if not name.startswith("__"):  # a probe for a dunder loads nothing
        for module in map(__getattr__, _LAZY):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
