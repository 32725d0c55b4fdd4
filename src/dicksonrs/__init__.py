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
"""

__version__ = "0.1.0"

from .gf import *
from .polyring import *
from .dickson import *
from .charsum import *
from .sieve import *
from .rscode import *
