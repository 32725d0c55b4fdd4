"""Deep-hole experiments for Reed-Solomon codes over Dickson value sets.

The package splits along the natural seams of the problem:

    gf       - exact GF(p^m) arithmetic, trace, quadratic character
    polyring - dense polynomials and Lagrange interpolation
    dickson  - Dickson evaluation, value sets, exact counting formulas
    charsum  - additive character sums and their Weil-type bounds
    sieve    - cycle-type combinatorics, bound chain, region solver
    rscode   - codes, exact error distance, subset-sum deep-hole tests
    cli      - the `dickson` command and reproducible suites
"""

__version__ = "0.1.0"

from .gf import FiniteField, TwoAdicData, parse_field_spec, two_adic
from .polyring import Polynomial, lagrange_interpolate, parse_poly_literal
from .dickson import (
    DicksonSpec,
    EvaluationSet,
    PreimageReport,
    ValueSetReport,
    dickson_eval,
    preimage_count,
    value_counts,
    value_set,
    value_set_size_formula,
)
from .charsum import (
    AdditiveCharacter,
    CharSumReport,
    char_eval,
    nontrivial_characters,
    sum_over_value_set,
    weighted_identity_check,
    weighted_sum,
    weil_sum_1,
    weil_sum_2,
    weil_sum_3,
)
from .sieve import (
    BoundReport,
    RegionSpec,
    C_k_eval,
    C_k_periodic_bound,
    cycle_types,
    falling_factorial,
    main_bound_check,
    perm_count,
    region_solve,
    sieve_identity_F,
)
from .rscode import (
    DeepHoleResult,
    DistanceReport,
    RSCodeSpec,
    ReceivedWord,
    SubsetSumTable,
    count_Nu,
    deg_k1_deep_hole_test,
    deg_k1_reduction,
    encode,
    error_distance_bf,
    monomial_word,
    subset_sum_count,
    subset_sum_find,
)
