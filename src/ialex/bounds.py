"""Divisor windows and power bounds for intersection Alexander polynomials.

Once the singular set of a knot has several strata, no closed form for the
intersection polynomials remains.  What survives is arithmetic control: a
prime can divide the degree-j polynomial only if it divides the ordinary
Alexander polynomial in that degree or a link polynomial of some stratum
whose grading falls in an explicit window, and its multiplicity is capped by
a sum read off the local-system homology of the strata.  This module
implements those admissibility sets, the matching exclusion certificates,
the multiplicity cap, and a checker that compares a computed polynomial
against them.

Throughout, t - 1 is dropped from link-derived contributions: the degree-zero
link polynomial is always a unit multiple of t - 1, while the polynomials
being bounded take a nonzero value at t = 1 in the degrees these windows
cover.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ialex.engine import Perversity
from ialex.gmodule import NotPrime, _require_prime
from ialex.laurent import (
    DEFAULT_DEGREE_CAP,
    LaurentPoly,
    PolyLike,
    divides,
    factor,
    multiplicity,
    normalize,
)

__all__ = [
    "DegreeOutOfRange",
    "E2Table",
    "MissingOrdinaryData",
    "StratificationData",
    "Stratum",
    "StratumComponent",
    "allowed_primes_general",
    "allowed_primes_single",
    "check_result",
    "exclusion_single",
    "max_power_bound",
]


class DegreeOutOfRange(ValueError):
    """The requested degree lies outside the window the bound covers."""


class MissingOrdinaryData(ValueError):
    """The ordinary-polynomial variant was requested but a link component
    carries no ordinary polynomials."""


_T_MINUS_ONE = normalize("t - 1")


def _primes_of(poly: PolyLike, degree_cap: int) -> set[LaurentPoly]:
    return {p for p, _ in factor(poly, degree_cap)}


def _link_primes(poly: PolyLike, degree_cap: int) -> set[LaurentPoly]:
    return _primes_of(poly, degree_cap) - {_T_MINUS_ONE}


class StratumComponent:
    """One connected piece of a singular stratum.

    Carries the graded intersection Alexander polynomials of the component's
    link knot and, optionally, the link knot's ordinary Alexander
    polynomials.
    """

    __slots__ = ("xi", "zeta")

    def __init__(self, xi: Iterable[PolyLike],
                 zeta: Optional[Iterable[PolyLike]] = None):
        self.xi = tuple(normalize(q) for q in xi)
        self.zeta = None if zeta is None else tuple(normalize(q) for q in zeta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StratumComponent):
            return NotImplemented
        return (self.xi, self.zeta) == (other.xi, other.zeta)

    def __hash__(self) -> int:
        return hash((self.xi, self.zeta))

    def __repr__(self) -> str:
        xi = [str(q) for q in self.xi]
        if self.zeta is None:
            return f"StratumComponent({xi!r})"
        return f"StratumComponent({xi!r}, zeta={[str(q) for q in self.zeta]!r})"


class Stratum:
    """A pure stratum of the singular set: its dimension and its connected
    components' link data."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components: Iterable[StratumComponent]):
        self.dim = int(dim)
        self.components = tuple(components)
        if not all(isinstance(c, StratumComponent) for c in self.components):
            raise TypeError("components must be StratumComponent values")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stratum):
            return NotImplemented
        return (self.dim, self.components) == (other.dim, other.components)

    def __hash__(self) -> int:
        return hash((self.dim, self.components))

    def __repr__(self) -> str:
        return f"Stratum({self.dim}, {list(self.components)!r})"


class StratificationData:
    """The singular set of a knotted sphere pair, stratum by stratum.

    `n` is the ambient sphere dimension.  A stratum of dimension i has link
    knots of dimension n - i - 1, so its link polynomial gradings must stay
    below n - i - 1 and the dimension itself must leave room for a genuine
    knot pair (i <= n - 3).  Strata are stored sorted by dimension.

    >>> data = StratificationData(7, [
    ...     Stratum(2, [StratumComponent(["t - 1", "t^2 - t + 1"])])])
    >>> data.strata[0].components[0].xi[1]
    LaurentPoly('t^2 - t + 1')
    """

    __slots__ = ("n", "strata")

    def __init__(self, n: int, strata: Iterable[Stratum]):
        self.n = int(n)
        if self.n < 3:
            raise ValueError("ambient dimension must be at least 3")
        self.strata = tuple(sorted(strata, key=lambda s: s.dim))
        dims = [s.dim for s in self.strata]
        if len(set(dims)) != len(dims):
            raise ValueError("stratum dimensions must be distinct")
        for stratum in self.strata:
            if not 0 <= stratum.dim <= self.n - 3:
                raise ValueError(
                    f"stratum dimension {stratum.dim} leaves no room for a "
                    f"link knot pair in S^{self.n}")
            limit = self.n - stratum.dim - 1
            for comp in stratum.components:
                for polys in (comp.xi, comp.zeta):
                    if polys is not None and len(polys) > limit:
                        raise ValueError(
                            f"link polynomials of a {stratum.dim}-stratum in "
                            f"S^{self.n} are graded below {limit}")

    def to_json(self) -> dict:
        strata = []
        for stratum in self.strata:
            comps = []
            for comp in stratum.components:
                entry = {"xi": [str(q) for q in comp.xi]}
                if comp.zeta is not None:
                    entry["zeta"] = [str(q) for q in comp.zeta]
                comps.append(entry)
            strata.append({"dim": stratum.dim, "components": comps})
        return {"n": self.n, "strata": strata}

    @classmethod
    def from_json(cls, data: dict) -> "StratificationData":
        strata = []
        for record in data.get("strata", ()):
            if not isinstance(record, dict):
                raise TypeError("a stratum must be an object")
            comps = record.get("components", ())
            if not all(isinstance(c, dict) for c in comps):
                raise TypeError("a component must be an object")
            comps = [StratumComponent(c.get("xi", ()), c.get("zeta"))
                     for c in comps]
            strata.append(Stratum(record["dim"], comps))
        return cls(data["n"], strata)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StratificationData):
            return NotImplemented
        return (self.n, self.strata) == (other.n, other.strata)

    def __repr__(self) -> str:
        return f"StratificationData({self.n}, {list(self.strata)!r})"


class E2Table:
    """Polynomials of the stratum homology with cone-link coefficients.

    Entry (i, p, q) is the order polynomial of the degree-p homology of the
    dimension-i stratum with coefficients in the degree-q cone-link
    intersection homology.  Unit entries are dropped, so the table's support
    is exactly its nontrivial entries; an absent entry reads as 1.

    >>> table = E2Table({(0, 2, 0): "t - 1", (0, 0, 1): "1"})
    >>> table.entry(0, 2, 0)
    LaurentPoly('t - 1')
    >>> table.entry(0, 0, 1)
    LaurentPoly('1')
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple, PolyLike]):
        table = {}
        for key, poly in dict(entries).items():
            i, p, q = (int(v) for v in key)
            if i < 0 or p < 0 or q < 0:
                raise ValueError("table indices must be non-negative")
            rep = normalize(poly)
            if not rep.is_one:
                table[(i, p, q)] = rep
        self._entries = table

    def entry(self, i: int, p: int, q: int) -> LaurentPoly:
        return self._entries.get((i, p, q), LaurentPoly.one())

    def items(self) -> tuple:
        return tuple(sorted(self._entries.items()))

    def to_json(self) -> dict:
        return {"entries": [
            {"i": i, "p": p, "q": q, "poly": str(poly)}
            for (i, p, q), poly in self.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "E2Table":
        return cls({(e["i"], e["p"], e["q"]): e["poly"]
                    for e in data.get("entries", ())})

    def __eq__(self, other) -> bool:
        if not isinstance(other, E2Table):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        inner = {key: str(poly) for key, poly in self.items()}
        return f"E2Table({inner!r})"


def allowed_primes_single(i: int, n: int, k: int, c_i: PolyLike,
                          xi: Sequence[PolyLike],
                          degree_cap: int = DEFAULT_DEGREE_CAP,
                          ) -> set[LaurentPoly]:
    """Admissible prime divisors when the singular set is one closed manifold
    stratum with a product link-cone neighborhood.

    The ambient sphere is S^n, the link knot sits in S^k, and xi lists that
    knot's graded Alexander polynomials.  In degree i with 0 < i < n - 1, the
    intersection polynomial's primes all divide c_i or some xi[s] with
    0 <= i - s <= n - k and 0 < s < k - 1.

    >>> allowed = allowed_primes_single(2, 7, 4, "t - 2",
    ...                                 ["t - 1", "t^2 - t + 1"])
    >>> sorted(str(q) for q in allowed)
    ['t - 2', 't^2 - t + 1']
    """
    if not 0 < i < n - 1:
        raise DegreeOutOfRange(
            f"the divisor window covers degrees 0 < i < {n - 1}, got {i}")
    out = _primes_of(c_i, degree_cap)
    for s, poly in enumerate(xi):
        if 0 < s < k - 1 and 0 <= i - s <= n - k:
            out |= _link_primes(poly, degree_cap)
    return out


def exclusion_single(gamma: PolyLike, i: int, k: int, p: Perversity,
                     lambda_i: PolyLike, xi: Sequence[PolyLike],
                     degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Certify that a prime cannot divide the degree-i intersection
    polynomial of a single-stratum knot.

    The certificate holds when gamma misses lambda_i and every link degree s
    where gamma appears satisfies s < k - p(k+1); the degree i only labels
    which polynomial the certificate is about.

    >>> exclusion_single("t^2 + 1", 2, 4, Perversity.zero(6), "t - 2",
    ...                  ["t - 1", "t^2 - t + 1"])
    True
    >>> exclusion_single("t^2 - t + 1", 2, 2, Perversity.zero(6), "t - 2",
    ...                  ["t - 1", "1", "t^2 - t + 1"])
    False
    """
    rep = _require_prime(gamma, degree_cap)
    if divides(rep, lambda_i):
        return False
    cut = k - p(k + 1)
    for s, poly in enumerate(xi):
        if s >= cut and divides(rep, poly):
            return False
    return True


def allowed_primes_general(j: int, lambda_j: PolyLike, data: StratificationData,
                           use_ordinary: bool = False,
                           degree_cap: int = DEFAULT_DEGREE_CAP,
                           ) -> set[LaurentPoly]:
    """Admissible prime divisors for an arbitrary stratified singular set.

    A prime dividing the degree-j intersection polynomial divides lambda_j or
    a link polynomial xi[s] of some dimension-i stratum component with
    0 <= j - s <= i - 1 and 0 <= s < n - i - 2.  With use_ordinary the links'
    ordinary Alexander polynomials replace the intersection ones; iterating
    the window through links of links lands back inside it, which is what
    makes the ordinary variant sound.

    >>> data = StratificationData(7, [
    ...     Stratum(3, [StratumComponent(["t - 1", "t + 1", "t^2 + 1"])])])
    >>> sorted(str(q) for q in allowed_primes_general(2, "1", data))
    ['t + 1']
    """
    out = _primes_of(lambda_j, degree_cap)
    for stratum in data.strata:
        i = stratum.dim
        for comp in stratum.components:
            polys = comp.xi
            if use_ordinary:
                if comp.zeta is None:
                    raise MissingOrdinaryData(
                        f"a dimension-{i} stratum component has no ordinary "
                        "link polynomials")
                polys = comp.zeta
            for s, poly in enumerate(polys):
                if 0 <= j - s <= i - 1 and 0 <= s < data.n - i - 2:
                    out |= _link_primes(poly, degree_cap)
    return out


def max_power_bound(gamma: PolyLike, j: int, gamma_j: int, table: E2Table,
                    n: int, p: Perversity,
                    degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Cap on the multiplicity of a prime in the degree-j intersection
    polynomial.

    gamma_j is the caller-computed multiplicity of gamma in the ordinary
    Alexander polynomial lambda_j.  Each table entry (i, p', q) contributes
    its gamma-multiplicity once if p' + q = j - 1, and once more if
    p' + q = j and the cone formula keeps degree q alive over a
    dimension-i stratum (q = 0 or q < n - i - 1 - p(n - i)).

    >>> table = E2Table({(0, 2, 0): "t - 1"})
    >>> max_power_bound("t - 1", 2, 3, table, 6, Perversity.zero(6))
    4
    """
    rep = _require_prime(gamma, degree_cap)
    if gamma_j < 0:
        raise ValueError("gamma_j is a multiplicity and cannot be negative")
    total = int(gamma_j)
    for (i, pp, q), poly in table.items():
        if not 0 <= i <= n - 2:
            continue
        mult = multiplicity(rep, poly)
        if not mult:
            continue
        if pp + q == j - 1:
            total += mult
        if pp + q == j and (q == 0 or q < n - i - 1 - p(n - i)):
            total += mult
    return total


def check_result(ia_j: PolyLike, allowed: Iterable[LaurentPoly],
                 power_bounds: Optional[Mapping[PolyLike, int]] = None,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> dict:
    """Compare a computed polynomial against an admissibility set and
    optional per-prime multiplicity caps.

    Returns {"ok": True} or the first violating prime (in the canonical
    factor order) with its observed and allowed multiplicities.

    >>> check_result("t^2 - 1", {normalize("t - 1")})
    {'ok': False, 'prime': 't + 1', 'observed': 1, 'allowed': 0}
    >>> check_result("1", set())
    {'ok': True}
    """
    allowed_set = {normalize(q) for q in allowed}
    caps = {} if power_bounds is None else {
        normalize(g): int(b) for g, b in dict(power_bounds).items()}
    for prime, mult in factor(ia_j, degree_cap):
        if prime not in allowed_set:
            return {"ok": False, "prime": str(prime),
                    "observed": mult, "allowed": 0}
        cap = caps.get(prime)
        if cap is not None and mult > cap:
            return {"ok": False, "prime": str(prime),
                    "observed": mult, "allowed": cap}
    return {"ok": True}
