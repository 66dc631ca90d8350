"""Exact intersection Alexander polynomial calculus for PL knots.

Subpackages group the calculus by layer: ``laurent`` implements the base ring
Q[t, t^-1] and its similarity classes, ``gmodule`` finitely generated modules
over it, ``exactseq`` polynomial and module exact sequences, ``engine`` the
degree-by-degree intersection polynomial formulas for point and product
singularities, ``bounds`` divisor and multiplicity bounds for general strata,
and ``twisted`` twisted simplicial homology and the spectral-sequence pages
those bounds are read from.
"""

from ialex.laurent import (
    LaurentPoly,
    factor,
    gcd,
    involute,
    is_alexander_type,
    normalize,
    parse,
    similar,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "factor",
    "gcd",
    "involute",
    "is_alexander_type",
    "normalize",
    "parse",
    "similar",
    "__version__",
]
