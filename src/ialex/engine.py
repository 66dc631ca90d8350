"""Closed-form intersection Alexander polynomials for isolated singularities.

A PL knot that fails to be locally flat along a singular set still carries
intersection Alexander polynomials, one family per perversity.  A locally
flat knot keeps its ordinary Alexander polynomials.  For the computable
singular shapes (a point singularity, a product-neighborhood singular
manifold) the polynomials have closed forms in terms of ordinary Alexander
data; this module implements those forms, the perversity arithmetic and
cone formula they rest on, superduality, and the normalization checks the
outputs must satisfy.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from ialex.gmodule import FgGammaModule, NotTorsion, kunneth_summands
from ialex.laurent import (
    MAX_SPAN,
    LaurentPoly,
    PolyLike,
    SpanCapExceeded,
    _ONE,
    _Record,
    _quotient,
    _strict_int,
    divides,
    exact_quotient,
    involute,
    is_alexander_type,
    normalize,
)

__all__ = [
    "DiskKnotData",
    "DivisibilityViolation",
    "InvalidPerversity",
    "Perversity",
    "PerversityOutOfRange",
    "ProductSingularityInput",
    "SuperperversityNotAllowed",
    "cone_ih",
    "ia_point",
    "ia_product",
    "superdual_polynomials",
    "validate_normalization",
]


class InvalidPerversity(ValueError):
    """The value table violates the perversity growth axioms."""


class PerversityOutOfRange(LookupError):
    """A perversity was queried beyond its stored codimension table."""


class SuperperversityNotAllowed(ValueError):
    """A geometric computation was requested for a superperversity."""


class DivisibilityViolation(ValueError):
    """Input data contradicts a divisibility the theory guarantees."""


# the normal form of t - 1, and Gamma/(t - 1), the degree-0 link module
_T_MINUS_ONE = normalize("t - 1")
_GAMMA_MOD_T_MINUS_ONE = FgGammaModule.cyclic(_T_MINUS_ONE)


def _cap_n(n: int) -> None:
    """ia_product and superdual_polynomials give one entry per degree below
    n - 1 or n, so n is capped as an exponent span is, before any is built."""
    if n > MAX_SPAN:
        raise SpanCapExceeded(f"n = {n} is over the cap {MAX_SPAN}")


class Perversity(_Record):
    """A perversity function stored as its value table on codimensions 2..D.

    The table must start at 0 or 1 on codimension 2 and grow by steps of 0
    or 1; its values must be ints, not booleans, floats or strings.  Values
    beyond the table raise rather than extrapolate.

    >>> p = Perversity([0, 0, 1, 2])
    >>> p(2), p(5)
    (0, 2)
    >>> p.is_traditional
    True
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(_strict_int(v, "a perversity value") for v in values)
        if not vals:
            raise InvalidPerversity("empty value table")
        if vals[0] not in (0, 1):
            raise InvalidPerversity("value at codimension 2 must be 0 or 1")
        for m, (cur, nxt) in enumerate(zip(vals, vals[1:]), start=2):
            if not cur <= nxt <= cur + 1:
                raise InvalidPerversity(
                    f"growth axiom fails between codimensions {m} and {m + 1}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, max_codim: int) -> "Perversity":
        return cls([0] * (max_codim - 1))

    @classmethod
    def top(cls, max_codim: int) -> "Perversity":
        return cls([k - 2 for k in range(2, max_codim + 1)])

    @property
    def max_codim(self) -> int:
        return len(self.values) + 1

    @property
    def is_traditional(self) -> bool:
        return self.values[0] == 0

    def __call__(self, codim: int) -> int:
        if not 2 <= codim <= self.max_codim:
            raise PerversityOutOfRange(
                f"perversity is defined on codimensions 2..{self.max_codim}, "
                f"got {codim}")
        return self.values[codim - 2]

    def superdual(self) -> "Perversity":
        """The complementary perversity q with p(k) + q(k) = k - 1.

        >>> Perversity.zero(6).superdual().values
        (1, 2, 3, 4, 5)
        >>> Perversity.top(6).superdual().values
        (1, 1, 1, 1, 1)
        """
        return Perversity([k - 1 - self(k) for k in range(2, self.max_codim + 1)])

    def cutoff(self, codim: int) -> int:
        """m - 1 - p(m): the cone formula keeps a codimension-m link's
        homology below this degree.  With the superdual's, it sums to m - 1.

        >>> p = Perversity([0, 1, 1, 2])
        >>> p.cutoff(4), [p.cutoff(m) + p.superdual().cutoff(m) for m in range(2, 6)]
        (2, [1, 2, 3, 4])
        """
        return codim - 1 - self(codim)

    def __repr__(self) -> str:
        return f"Perversity({list(self.values)!r})"


def cone_ih(link: Sequence[FgGammaModule], n: int, p: Perversity,
            ) -> tuple[FgGammaModule, ...]:
    """Intersection homology of the open cone on an (n-1)-dimensional link.

    Low degrees copy the link, high degrees are cut off at p.cutoff(n); only a
    maximal superperversity lets the degree-0 module survive past the cutoff
    (and it always does survive, both clauses giving the link's degree 0).

    >>> circle = [FgGammaModule.cyclic("t - 1")]
    >>> [str(m) for m in cone_ih(circle, 2, Perversity.zero(2))]
    ['(t - 1)', '0']
    """
    if len(link) > _strict_int(n, "n"):
        raise ValueError(f"link of a {n}-cone is graded over 0..{n - 1}")
    cutoff = p.cutoff(n)
    zero = FgGammaModule.zero()
    return tuple(link[i] if i < len(link) and (i == 0 or i < cutoff) else zero
                 for i in range(n))


class DiskKnotData(_Record):
    """Alexander subpolynomial data (a_i, b_i, c_i) of a point singularity.

    The three families factor the polynomials of the singularity's
    Mayer-Vietoris sequence: nu_i = a_i b_i, lambda_i = b_i c_i,
    mu_i = c_i a_{i-1}.  Degrees beyond the stored ranges are 1, as is
    a_{-1}.  Interleaved from the top degree down, nu, lambda, mu factor over
    the delta chain a, b, c, ..., a_{-1} by construction; the one check left
    is that the top a be 1 (the sequence is zero-bounded).

    >>> data = DiskKnotData(4, a=["1"], b=["t - 1"], c=["1"])
    >>> str(data.lam(0)), str(data.nu(0)), str(data.mu(0))
    ('t - 1', 't - 1', '1')
    """

    __slots__ = ("n", "a", "b", "c", "top")

    def __init__(self, n: int, a: Sequence[PolyLike], b: Sequence[PolyLike],
                 c: Sequence[PolyLike]):
        if _strict_int(n, "the ambient dimension") < 3:
            raise ValueError("ambient sphere dimension must be at least 3")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", tuple(normalize(x) for x in a))
        object.__setattr__(self, "b", tuple(normalize(x) for x in b))
        object.__setattr__(self, "c", tuple(normalize(x) for x in c))
        object.__setattr__(self, "top",
                           max(len(self.a), len(self.b), len(self.c), 1) - 1)
        if not self.a_at(self.top).is_one:
            raise ValueError(
                "inconsistent subpolynomial data: boundary splittings must be 1")

    def a_at(self, i: int) -> LaurentPoly:
        return self.a[i] if 0 <= i < len(self.a) else _ONE

    def b_at(self, i: int) -> LaurentPoly:
        return self.b[i] if 0 <= i < len(self.b) else _ONE

    def c_at(self, i: int) -> LaurentPoly:
        return self.c[i] if 0 <= i < len(self.c) else _ONE

    def lam(self, i: int) -> LaurentPoly:
        return self.b_at(i) * self.c_at(i)

    def nu(self, i: int) -> LaurentPoly:
        return self.a_at(i) * self.b_at(i)

    def mu(self, i: int) -> LaurentPoly:
        return self.c_at(i) * self.a_at(i - 1)

    def __repr__(self) -> str:
        return (f"DiskKnotData(n={self.n}, a={[str(x) for x in self.a]!r}, "
                f"b={[str(x) for x in self.b]!r}, c={[str(x) for x in self.c]!r})")


def _require_traditional(p: Perversity):
    if not p.is_traditional:
        raise SuperperversityNotAllowed(
            "geometric computations require p(2) = 0; use superduality for "
            "superperverse values")


def ia_point(data: DiskKnotData, p: Perversity) -> tuple[LaurentPoly, ...]:
    """Intersection Alexander polynomials of a knot with one point singularity.

    Below the perversity cutoff m = p.cutoff(n) the answer is the ordinary
    lambda_i; at the cutoff only the shared factor c_i survives; above it the
    answer switches to mu_i.

    >>> data = DiskKnotData(5, a=["1", "t - 2", "1"], b=["t - 1", "t + 1", "1"],
    ...                     c=["1", "t^2 - t + 1", "1"])
    >>> [str(q) for q in ia_point(data, Perversity.top(5))]
    ['t - 1', 't^2 - t + 1', 't - 2', '1']
    """
    _require_traditional(p)
    cut = p.cutoff(data.n)
    out = []
    for i in range(max(data.top + 1, data.n - 1)):
        if i < cut:
            out.append(data.lam(i))
        elif i == cut:
            out.append(data.c_at(i))
        else:
            out.append(data.mu(i))
    return tuple(out)


class ProductSingularityInput(_Record):
    """Data for a singular manifold with a product regular neighborhood.

    The singular set Sigma (dimension n-k-1) sits in the n-sphere with a
    neighborhood that looks like Sigma x c(S^k); the knot meets the
    neighborhood in Sigma x c(ell) for a locally flat link knot ell in S^k.
    Required data: the Gamma-homology of Sigma, the link complement modules
    H_s(S^k - ell; Gamma), the subpolynomials c_i of the complement sequence,
    and the high Mayer-Vietoris kernel parts a_high (the full kernel
    polynomials a may be supplied separately when their low parts are
    nontrivial; they default to a_high).
    """

    __slots__ = ("n", "k", "perversity", "sigma_homology", "link_modules",
                 "c", "a_high", "a")

    def __init__(self, n: int, k: int, perversity: Perversity,
                 sigma_homology: Sequence[FgGammaModule],
                 link_modules: Sequence[FgGammaModule],
                 c: Sequence[PolyLike],
                 a_high: Sequence[PolyLike],
                 a: Optional[Sequence[PolyLike]] = None):
        _cap_n(_strict_int(n, "the ambient dimension"))
        if not 2 <= _strict_int(k, "the link dimension") <= n - 1:
            raise ValueError(f"need 2 <= k <= n-1, got k={k}, n={n}")
        perversity(k + 1)  # raises PerversityOutOfRange if table too short
        _require_traditional(perversity)

        sigma = tuple(sigma_homology)
        sigma_dim = n - k - 1
        if len(sigma) > sigma_dim + 1:
            raise ValueError(
                f"sigma homology graded over 0..{sigma_dim} for dim {sigma_dim}")
        if len(sigma) == sigma_dim + 1 and sigma[-1].torsion:
            raise ValueError(
                "top-degree homology of the singular set must be torsion-free")

        links = tuple(link_modules)
        for s, mod in enumerate(links):
            if not mod.is_torsion:
                raise NotTorsion(f"link module in degree {s} has free rank")
            if s >= k - 1 and not mod.is_zero:
                raise ValueError(
                    f"link modules must vanish in degrees >= {k - 1}")
        if not links or links[0] != _GAMMA_MOD_T_MINUS_ONE:
            raise ValueError("link module in degree 0 must be Gamma/(t - 1)")

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "perversity", perversity)
        object.__setattr__(self, "sigma_homology", sigma)
        object.__setattr__(self, "link_modules", links)
        object.__setattr__(self, "c", tuple(normalize(x) for x in c))
        object.__setattr__(self, "a_high", tuple(normalize(x) for x in a_high))
        full = tuple(normalize(x) for x in a) if a is not None else self.a_high
        object.__setattr__(self, "a", full)

    def c_at(self, i: int) -> LaurentPoly:
        return self.c[i] if 0 <= i < len(self.c) else _ONE

    def a_high_at(self, i: int) -> LaurentPoly:
        return self.a_high[i] if 0 <= i < len(self.a_high) else _ONE

    def a_at(self, i: int) -> LaurentPoly:
        return self.a[i] if 0 <= i < len(self.a) else _ONE


def ia_product(inp: ProductSingularityInput,
               ) -> tuple[tuple[LaurentPoly, ...], list[dict]]:
    """Intersection Alexander polynomials for a product-neighborhood stratum.

    Degree by degree: the full Mayer-Vietoris polynomial nu_i is the Kunneth
    order of Sigma against the link complement, split as low * high at the
    cut p.cutoff(k+1) on the link degree (at least 1, as a traditional
    perversity has p(k+1) <= k - 1); one Kunneth pass gives the orders of
    every degree, and a positive free rank raises NotTorsion.  The high
    part splits as a_high * b_high, b = nu/a splits as b_high * b_low, and
    so b_low = low / (a / a_high): a divides nu and b_high divides b
    exactly when a / a_high divides low.  The output is
    a_high_{i-1} * b_low_i * c_i.  The report carries (nu, b_high, b_low)
    per degree.
    """
    p = inp.perversity
    s_min = p.cutoff(inp.k + 1)
    out: list[LaurentPoly] = []
    report: list[dict] = []
    table = kunneth_summands(inp.sigma_homology, inp.link_modules, s_min)
    for i in range(inp.n - 1):
        free, low, high = table[i] if i < len(table) else (0, (), ())
        if free:
            raise NotTorsion("order polynomial requires a torsion module")
        low, high = math.prod(low, start=_ONE), math.prod(high, start=_ONE)
        a_high, a_full = inp.a_high_at(i), inp.a_at(i)
        a_rest = _quotient(a_full, a_high)
        if a_rest is None:
            raise DivisibilityViolation(
                f"degree {i}: a_high = {a_high} does not divide a = {a_full}")
        b_high = _quotient(high, a_high)
        if b_high is None:
            raise DivisibilityViolation(
                f"degree {i}: a_high = {a_high} does not divide the high "
                f"Kunneth polynomial {high}")
        nu = low * high
        b_low = _quotient(low, a_rest)
        if b_low is None:
            if not divides(a_full, nu):
                raise DivisibilityViolation(
                    f"degree {i}: a = {a_full} does not divide nu = {nu}")
            raise DivisibilityViolation(
                f"degree {i}: b_high = {b_high} does not divide "
                f"b = {exact_quotient(nu, a_full)}")
        value = inp.a_high_at(i - 1) * b_low * inp.c_at(i)
        out.append(value)
        report.append({
            "degree": i,
            "nu": str(nu),
            "b_high": str(b_high),
            "b_low": str(b_low),
            "value": str(value),
        })
    return tuple(out), report


def superdual_polynomials(ia: Sequence[PolyLike], n: int,
                          ) -> tuple[LaurentPoly, ...]:
    """Transport polynomials across superduality: degree i from degree n-1-i.

    The dual-perversity polynomial in degree i is the involution of the
    original in degree n-1-i; degrees outside the input grading contribute 1,
    and a nonunit in a degree >= n, which has no dual, raises ValueError.

    >>> [str(q) for q in superdual_polynomials(["t - 1", "2*t - 1"], 3)]
    ['1', 't - 2', 't - 1']
    """
    _cap_n(_strict_int(n, "n"))
    reps = [normalize(q) for q in ia]
    for j, rep in enumerate(reps):
        if j >= n and not rep.is_one:
            raise ValueError(f"degree {j} holds {rep}, but degrees >= {n} "
                             "have no superdual degree")
    return tuple(normalize(involute(reps[j])) if j < len(reps) else _ONE
                 for j in reversed(range(n)))


def validate_normalization(ia: Sequence[PolyLike], n: int,
                           super_variant: bool = False) -> list[dict]:
    """Check the degree-by-degree normalization a knot's polynomials satisfy.

    Traditional perversities: degree 0 is similar to t - 1, positive degrees
    are of Alexander type, and degrees >= n-1 are units.  Superperversities
    (values obtained through duality): units at degree 0 and past n-1,
    t - 1 at degree n-1, Alexander type strictly between.

    Returns one record per degree with the requirement and its outcome.
    """
    _strict_int(n, "n")
    reps = [normalize(q) for q in ia]
    report = []
    for i, rep in enumerate(reps):
        if super_variant:
            if i == 0 or i > n - 1:
                requirement, ok = "similar to 1", rep.is_one
            elif i == n - 1:
                requirement, ok = "similar to t - 1", rep == _T_MINUS_ONE
            else:
                requirement, ok = "Alexander type", is_alexander_type(rep)
        else:
            if i == 0:
                requirement, ok = "similar to t - 1", rep == _T_MINUS_ONE
            elif i >= n - 1:
                requirement, ok = "similar to 1", rep.is_one
            else:
                requirement, ok = "Alexander type", is_alexander_type(rep)
        report.append({"degree": i, "requirement": requirement,
                       "value": str(rep), "ok": ok})
    return report
