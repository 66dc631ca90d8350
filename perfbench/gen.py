"""Seeded case generators whose answers are known by construction.

Every generated case is a JSON case file for `ialex.cli.run_case` together
with the report it must produce.  The answers never come from ialex itself:
each polynomial is planted as a product of known irreducibles (small fixed
ones, Eisenstein polynomials and cyclotomic polynomials), kept as a multiset
of those irreducibles, and expanded with the integer helpers below.  Products,
gcds and exact quotients are then multiset sums, minima and differences, and
homology comes from closed forms for circles and tori.

A workload is an endless sequence of rounds.  Each round has a fixed
composition (the same case shapes in every round and for every seed); the
seed only changes the polynomials, the vertex labels and the order inside a
round, so the cost mix of a run does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

# -- integer polynomials, lowest coefficient first ---------------------------


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def expand(m: Counter) -> tuple:
    """The canonical coefficients of a product of canonical irreducibles."""
    out = (1,)
    for p, k in sorted(m.items()):
        for _ in range(k):
            out = mul(out, p)
    return out


def degree(m: Counter) -> int:
    return sum((len(p) - 1) * k for p, k in m.items())


def fmt(coeffs, shift: int = 0, scale=1) -> str:
    """`scale * t^shift * sum(c_i t^i)` in the library's text form."""
    items = [(i + shift, Fraction(c) * scale)
             for i, c in enumerate(coeffs) if c]
    items.sort(reverse=True)
    if not items:
        return "0"
    parts = []
    for i, (exp, coeff) in enumerate(items):
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            tpart = "t" if exp == 1 else f"t^{exp}"
            body = tpart if mag == 1 else f"{mag}*{tpart}"
        if i == 0:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)


def rep(m) -> str:
    """Canonical text of a multiset product (or of one irreducible tuple)."""
    return fmt(expand(m) if isinstance(m, Counter) else m)


def sort_key(p: tuple) -> tuple:
    return (len(p) - 1, p)


def involute(coeffs) -> tuple:
    """Canonical representative of p(t^-1)."""
    out = tuple(reversed(coeffs))
    return out if out[-1] > 0 else tuple(-c for c in out)


def remainder(a, b) -> list:
    """Remainder of a by b over Q, as a coefficient list of length len(b)-1."""
    r = [Fraction(c) for c in a]
    db = len(b) - 1
    for i in range(len(r) - 1 - db, -1, -1):
        f = r[i + db] / b[db]
        if f:
            for j in range(db + 1):
                r[i + j] -= f * b[j]
    return r[:db]


def one() -> Counter:
    return Counter()


def of(*primes) -> Counter:
    return Counter(primes)


def power(p, k: int) -> Counter:
    return Counter({p: k}) if k else Counter()


def divides(a: Counter, b: Counter) -> bool:
    return all(b[p] >= k for p, k in a.items())


def quotient(a: Counter, b: Counter) -> Counter:
    if not divides(b, a):
        raise AssertionError("planted quotient is not exact")
    return a - b


# -- irreducibles --------------------------------------------------------------

T_MINUS_1 = (-1, 1)
T_PLUS_1 = (1, 1)
# small irreducibles; the first five are of Alexander type (value +-1 at 1)
ALEX = ((1, -1, 1), (-1, 2), (-1, -1, 1), (-1, 1, 1), (1, -1, 1, -1, 1))
SMALL = ALEX + ((1, 0, 1), (1, 1, 1), (-2, 1), (-1, 3), (-3, 1),
                (-1, -1, 0, 1), (1, 1, 1, 1, 1), T_PLUS_1)
QUADRATIC = tuple(p for p in SMALL if len(p) == 3)


def cyclotomic(n: int) -> tuple:
    """Phi_n by dividing t^n - 1 by Phi_d for the proper divisors d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            q = [0] * (len(num) - len(den) + 1)
            r = list(num)
            for i in range(len(q) - 1, -1, -1):
                q[i] = r[i + len(den) - 1]
                for j, c in enumerate(den):
                    r[i + j] -= q[i] * c
            num = q
    return tuple(num)


def eisenstein(rng: random.Random, d: int) -> tuple:
    """A monic degree-d polynomial, irreducible by Eisenstein's criterion at 2.

    The coefficients are 0 or +-2 so that rational Euclid on products of
    these costs about the same for every seed."""
    low = [2 * rng.randint(-1, 1) for _ in range(1, d)]
    return (2 * rng.choice((-1, 1)),) + tuple(low) + (1,)


# cyclotomic polynomials of degree 4..40, all distinct from the small pool
CYCLO = tuple(cyclotomic(n) for n in (5, 7, 9, 11, 13, 15, 17, 19, 23, 25,
                                       29, 31, 37, 41))


class Irreducibles:
    """Distinct irreducibles drawn for one round."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def small(self, k: int) -> list:
        return self.rng.sample(SMALL, k)

    def big(self, k: int, lo: int, hi: int) -> list:
        out = []
        while len(out) < k:
            cyclo = [c for c in CYCLO if lo <= len(c) - 1 <= hi]
            if cyclo and self.rng.random() < 0.3:
                p = self.rng.choice(cyclo)
            else:
                p = eisenstein(self.rng, self.rng.randint(lo, hi))
            if p not in out:
                out.append(p)
        return out

    def split(self, total: int, parts: int) -> Counter:
        """`parts` distinct irreducibles whose degrees add up to `total`."""
        cuts = sorted(self.rng.sample(range(2, total - 1), parts - 1))
        degrees = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        out = Counter()
        for d in degrees:
            while True:
                (p,) = self.big(1, d, d)
                if p not in out:
                    out[p] = 1
                    break
        return out


# -- modules -------------------------------------------------------------------


def chain(orders) -> list:
    """Invariant-factor chain (smallest first) of a sum of cyclic modules."""
    by_prime: dict = {}
    for m in orders:
        for p, k in m.items():
            if k:
                by_prime.setdefault(p, []).append(k)
    length = max((len(v) for v in by_prime.values()), default=0)
    out = []
    for idx in range(length):
        f = Counter()
        for p, ks in by_prime.items():
            ks = sorted(ks, reverse=True)
            pos = length - 1 - idx
            if pos < len(ks):
                f[p] = ks[pos]
        out.append(f)
    return out


def module_json(free: int, orders) -> dict:
    return {"free": free, "torsion": [rep(f) for f in chain(orders)]}


def literal(free: int, orders) -> dict:
    """A module literal as a case file writes it (summands, not a chain)."""
    out = {}
    if free:
        out["free"] = free
    if orders or not free:
        out["torsion"] = [rep(m) for m in orders]
    return out


def order(orders) -> Counter:
    return sum(orders, Counter())


def tensor_cyclic(free: int, orders, ell: Counter) -> list:
    """Cyclic orders of (free + sum Gamma/orders) tensor Gamma/ell."""
    return [ell] * free + [m & ell for m in orders]


def tor_cyclic(orders, ell: Counter) -> list:
    return [m & ell for m in orders]


# -- complexes -----------------------------------------------------------------


def ngon(rng: random.Random, n: int, twisted: bool):
    """The n-gon on vertices 0..n-1; a twisted one carries t on one edge.

    Vertex labels stay fixed because they set the elimination order, and
    with it the cost; the seed picks the twisted edge and its direction."""
    simplices = [sorted([i, (i + 1) % n]) for i in range(n)]
    rng.shuffle(simplices)
    monodromy = {}
    if twisted:
        u, v = rng.choice(simplices)
        if rng.random() < 0.5:
            u, v = v, u
        monodromy[f"{u}-{v}"] = "t"
    return simplices, monodromy


def torus(rng: random.Random, m: int, twisted: bool):
    """The m x m torus triangulation; a twisted one carries t on every edge
    crossing one meridian, chosen by the seed."""
    def v(i, j):
        return (i % m) * m + (j % m)

    simplices = []
    for i in range(m):
        for j in range(m):
            simplices.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            simplices.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    rng.shuffle(simplices)
    monodromy = {}
    if twisted:
        row = rng.randrange(m)
        for j in range(m):
            monodromy[f"{v(row, j)}-{v(row + 1, j)}"] = "t"
            monodromy[f"{v(row, j)}-{v(row + 1, j + 1)}"] = "t"
    return simplices, monodromy


def homology_closed_form(dim: int, twisted: bool, free: int, orders) -> list:
    """H_*(X; M) for a circle (dim 1) or torus (dim 2) by universal
    coefficients: H(X; Gamma) is free (rank 1, 2, 1 or 1, 1) untwisted, and
    Gamma/(t-1) in degrees 0 .. dim-1 when one loop carries t."""
    if not twisted:
        ranks = (1, 1) if dim == 1 else (1, 2, 1)
        return [(free * r, [m for m in orders for _ in range(r)])
                for r in ranks]
    tens = tensor_cyclic(free, orders, of(T_MINUS_1))
    tor = tor_cyclic(orders, of(T_MINUS_1))
    if dim == 1:
        return [(0, tens), (0, tor)]
    return [(0, tens), (0, tens + tor), (0, tor)]


# -- one case: (case dict, expected outcome) -----------------------------------


def ok(kind: str, case_payload: dict, values: dict, certificates=(),
       status: str = "pass") -> tuple:
    expect = {"status": status, "values": values,
              "certificates": list(certificates),
              "exit": 0 if status == "pass" else 1}
    return {"kind": kind, "payload": case_payload}, expect


def error(case, code: str, exit_code: int, path=None, kind=None) -> tuple:
    if kind is None:
        kind = case.get("kind", "unknown") if isinstance(case, dict) else "unknown"
    return case, {"status": "error", "kind": kind, "code": code,
                  "path": path, "exit": exit_code}


def matches(report: dict, code: int, expect: dict) -> bool:
    """Whether a report and exit code are the expected outcome."""
    if code != expect["exit"] or report.get("status") != expect["status"]:
        return False
    if expect["status"] == "error":
        error = report.get("error", {})
        return (report.get("kind") == expect["kind"]
                and error.get("code") == expect["code"]
                and error.get("path") == expect["path"])
    return (report.get("values") == expect["values"]
            and report.get("certificates") == expect["certificates"])


def unit_form(rng: random.Random, coeffs) -> str:
    """The polynomial times a random unit q*t^k, so inputs are not canonical."""
    scale = Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
    return fmt(coeffs, shift=rng.randint(-3, 3), scale=scale)


def factor_case(rng, primes, max_mult: int = 1):
    m = Counter({p: rng.randint(1, max_mult) for p in primes})
    factors = [[rep(p), m[p]] for p in sorted(m, key=sort_key)]
    return ok("factor", {"poly": unit_form(rng, expand(m))},
              {"factors": factors})


def _unimodular(rng, n: int, max_deg: int, steps: int) -> list:
    """A product of `steps` elementary integer-polynomial matrices (identity
    plus one off-diagonal entry of degree <= max_deg), rows swapped at
    random: its determinant is +-1."""
    u = [[(1,) if i == j else (0,) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        e = [[(1,) if i == j else (0,) for j in range(n)] for i in range(n)]
        i, j = rng.sample(range(n), 2)
        e[i][j] = tuple(rng.randint(-2, 2)
                        for _ in range(rng.randint(1, max_deg + 1)))
        if rng.random() < 0.5:
            e[i], e[j] = e[j], e[i]
        u = _matmul(e, u)
    return u


def _matmul(a, b) -> list:
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = [0]
            for k, x in enumerate(row):
                term = mul(x, b[k][j])
                acc = [(acc[t] if t < len(acc) else 0)
                       + (term[t] if t < len(term) else 0)
                       for t in range(max(len(acc), len(term)))]
            new.append(tuple(acc))
        out.append(new)
    return out


def snf_case(rng, diag, zero_rows: int = 0, conj_deg: int = 1,
             steps: int = 1):
    """A planted chain diag (multisets, each dividing the next) plus zero_rows
    null pivots, conjugated by unimodular matrices."""
    n = len(diag) + zero_rows
    d = [[expand(diag[i]) if i == j and i < len(diag) else (0,)
          for j in range(n)] for i in range(n)]
    m = _matmul(_matmul(_unimodular(rng, n, conj_deg, steps), d),
                _unimodular(rng, n, conj_deg, steps))
    factors = [rep(f) for f in diag]
    return ok("snf", {"matrix": [[fmt(e) for e in row] for row in m]}, {
        "factors": factors,
        "rank": len(diag),
        "cokernel": {"free": zero_rows,
                     "torsion": [rep(f) for f in diag if f]},
    })


def planted_deltas(rng, pool_draw, length: int) -> list:
    return [one()] + [pool_draw() for _ in range(length - 1)] + [one()]


def seq_case(rng, op: str, deltas: list, broken=None):
    polys = [deltas[i] + deltas[i + 1] for i in range(len(deltas) - 1)]
    texts = [unit_form(rng, expand(p)) for p in polys]
    if op == "check":
        if broken is not None:
            # the products of the even and odd entries now differ by `broken`
            j = rng.randrange(len(texts))
            texts[j] = unit_form(rng, expand(polys[j] + broken))
            return ok("seq", {"op": "check", "polys": texts}, {"exact": False},
                      [{"reason": "alternating product of the orders is not "
                                  "a unit"}], status="fail")
        return ok("seq", {"op": "check", "polys": texts}, {"exact": True})
    if op == "subpolynomials":
        return ok("seq", {"op": "subpolynomials", "polys": texts},
                  {"deltas": [rep(d) for d in deltas]})
    # solve: blank every third entry from a random offset, give the junction
    # to the right of each blank
    n = len(polys)
    offset = rng.randrange(min(3, n))
    unknown = list(range(offset, n, 3))
    entries = [None if i in unknown else texts[i] for i in range(n)]
    junctions = {str(i + 1): rep(deltas[i + 1]) for i in unknown if i + 1 < n}
    return ok("seq", {"op": "solve", "polys": entries, "junctions": junctions},
              {"polys": [rep(p) for p in polys],
               "splittings": [rep(d) for d in deltas]})


def split_case(p: tuple, q: Counter):
    """0 -> Gamma/p -> Gamma/pq -> Gamma/q -> 0, restricted to the prime p;
    q must be coprime to p."""
    pq = q + of(p)
    rem = remainder(expand(q), p)
    reduced = fmt(rem)
    payload = {"op": "split",
               "modules": [literal(0, [of(p)]), literal(0, [pq]),
                           literal(0, [q])],
               "maps": [[[rep(q)]], [["1"]]],
               "prime": rep(p)}
    return ok("seq", payload, {
        "modules": [module_json(0, [of(p)]), module_json(0, [of(p)]),
                    module_json(0, [])],
        "maps": [[[reduced]], [[]]],
        "orders": [rep(p), rep(p), "1"],
    })


def perversity(rng, length: int) -> list:
    values = [0]
    for _ in range(length - 1):
        values.append(values[-1] + rng.randint(0, 1))
    return values


def point_data(rng, draw, n: int):
    """(a, b, c) subpolynomial data of a point singularity in S^n."""
    top = n - 3
    a = [one()] + [draw() for _ in range(top - 1)] + [one()]
    b = [of(T_MINUS_1)] + [draw() for _ in range(top)]
    c = [one()] + [draw() for _ in range(top)]
    return a, b, c


def ia_point_values(n, a, b, c, perv) -> list:
    def at(seq, i):
        return seq[i] if 0 <= i < len(seq) else one()

    cut = n - 1 - perv[n - 2]
    out = []
    for i in range(max(len(a), n - 1)):
        if i < cut:
            out.append(at(b, i) + at(c, i))
        elif i == cut:
            out.append(at(c, i))
        else:
            out.append(at(c, i) + at(a, i - 1))
    return out, cut


def ia_point_case(rng, draw, n: int):
    a, b, c = point_data(rng, draw, n)
    perv = perversity(rng, n - 1)
    ia, cut = ia_point_values(n, a, b, c, perv)
    table = [{"degree": i, "branch": "lambda" if i < cut else
              ("c" if i == cut else "mu"), "value": rep(q)}
             for i, q in enumerate(ia)]
    payload = {"n": n, "a": [rep(x) for x in a], "b": [rep(x) for x in b],
               "c": [rep(x) for x in c], "perversity": perv}
    return ok("ia-point", payload, {"cut": cut, "ia": [rep(q) for q in ia],
                                    "table": table})


def verify_case(rng, draw, count: int):
    instances, checked = [], 0
    for _ in range(count):
        n = rng.randint(4, 6)
        a, b, c = point_data(rng, draw, n)
        ia, _ = ia_point_values(n, a, b, c, perversity(rng, n - 1))
        instances.append({"ia": [unit_form(rng, expand(q)) for q in ia],
                          "n": n})
        checked += len(ia)
    return ok("verify", {"instances": instances},
              {"instances": count, "checked": checked, "failures": 0})


def dual_case(rng, polys: list, n: int):
    out = []
    for i in range(n):
        j = n - 1 - i
        out.append(fmt(involute(expand(polys[j]))) if 0 <= j < len(polys)
                   else "1")
    return ok("ia-dual", {"ia": [unit_form(rng, expand(p)) for p in polys],
                          "n": n}, {"dual": out})


def _sorted_primes(primes) -> list:
    return [rep(p) for p in sorted(primes, key=sort_key)]


def allowed_single_case(rng, i, n, k, c: Counter, xi: list):
    allowed = set(c)
    for s, poly in enumerate(xi):
        if 0 < s < k - 1 and 0 <= i - s <= n - k:
            allowed |= {p for p in poly if p != T_MINUS_1}
    payload = {"op": "allowed", "i": i, "n": n, "k": k, "c": rep(c),
               "xi": [unit_form(rng, expand(x)) for x in xi]}
    return ok("bounds", payload, {"allowed": _sorted_primes(allowed)})


def allowed_general_case(j, lam: Counter, n: int, strata: list):
    """strata: [(dim, [xi list per component])]"""
    allowed = set(lam)
    for dim, comps in strata:
        for xi in comps:
            for s, poly in enumerate(xi):
                if 0 <= j - s <= dim - 1 and 0 <= s < n - dim - 2:
                    allowed |= {p for p in poly if p != T_MINUS_1}
    payload = {"op": "allowed", "j": j, "lambda": rep(lam),
               "stratification": {"n": n, "strata": [
                   {"dim": dim, "components": [
                       {"xi": [rep(x) for x in xi]} for xi in comps]}
                   for dim, comps in strata]}}
    return ok("bounds", payload, {"allowed": _sorted_primes(allowed)})


def exclude_case(rng, gamma, i, k, perv, lam: Counter, xi: list):
    cut = k - perv[k - 1]
    excluded = not lam[gamma] and not any(
        poly[gamma] for s, poly in enumerate(xi) if s >= cut)
    payload = {"op": "exclude", "gamma": unit_form(rng, gamma), "i": i,
               "k": k, "perversity": perv, "lambda": rep(lam),
               "xi": [rep(x) for x in xi]}
    if excluded:
        return ok("bounds", payload, {"excluded": True})
    return ok("bounds", payload, {"excluded": False}, [{
        "reason": "the prime divides lambda or a link polynomial at or "
                  "above the perversity cut"}], status="fail")


def maxpower_case(rng, gamma, j, gamma_j, n, perv, entries: dict):
    total = gamma_j
    for (i, pp, q), poly in sorted(entries.items()):
        mult = poly[gamma]
        if not 0 <= i <= n - 2 or not mult:
            continue
        if pp + q == j - 1:
            total += mult
        if pp + q == j and (q == 0 or q < n - i - 1 - perv[n - i - 2]):
            total += mult
    payload = {"op": "maxpower", "gamma": rep(gamma), "j": j,
               "gamma_j": gamma_j, "n": n, "perversity": perv,
               "table": {"entries": [
                   {"i": i, "p": pp, "q": q, "poly": unit_form(rng, expand(m))}
                   for (i, pp, q), m in sorted(entries.items())]}}
    return ok("bounds", payload, {"bound": total})


def check_case(rng, ia: Counter, allowed: list, powers: dict):
    result = {"ok": True}
    for p in sorted(ia, key=sort_key):
        if p not in allowed:
            result = {"ok": False, "prime": rep(p), "observed": ia[p],
                      "allowed": 0}
            break
        if p in powers and ia[p] > powers[p]:
            result = {"ok": False, "prime": rep(p), "observed": ia[p],
                      "allowed": powers[p]}
            break
    payload = {"op": "check", "ia": unit_form(rng, expand(ia)),
               "allowed": [rep(p) for p in allowed],
               "powers": {rep(p): k for p, k in powers.items()}}
    if result["ok"]:
        return ok("bounds", payload, result)
    return ok("bounds", payload, result, [dict(result)], status="fail")


def ia_product_case(rng, n, k, perv, sigma: list, links: list, c: list,
                    a_high_pick: float = 0.0):
    """sigma: [(free, orders)], links: [ell] with links[0] = t - 1.

    a_high_i is a random sub-multiset of the high Kunneth order (so every
    divisibility the engine checks holds), and a defaults to a_high."""
    s_min = k - perv[k - 1]

    def kunneth_order(i, window):
        total = one()
        for r, (free, orders) in enumerate(sigma):
            for s, ell in enumerate(links):
                if window and (s == 0 or s < s_min):
                    continue
                if r + s == i:
                    total += order(tensor_cyclic(free, orders, ell))
                elif r + s == i - 1:
                    total += order(tor_cyclic(orders, ell))
        return total

    nus, highs = [], []
    for i in range(n - 1):
        nus.append(kunneth_order(i, False))
        highs.append(kunneth_order(i, True))
    a_high = [Counter({p: rng.randint(0, e) for p, e in h.items()})
              if rng.random() < a_high_pick else one() for h in highs]
    while a_high and not a_high[-1]:
        a_high.pop()
    rows, values = [], []
    for i in range(n - 1):
        ah = a_high[i] if i < len(a_high) else one()
        ah_prev = a_high[i - 1] if 0 < i <= len(a_high) else one()
        b_high = quotient(highs[i], ah)
        b_low = quotient(quotient(nus[i], ah), b_high)
        value = ah_prev + b_low + (c[i] if i < len(c) else one())
        values.append(rep(value))
        rows.append({"degree": i, "nu": rep(nus[i]), "b_high": rep(b_high),
                     "b_low": rep(b_low), "value": rep(value)})
    payload = {"n": n, "k": k, "perversity": perv,
               "sigma": [literal(f, o) for f, o in sigma],
               "links": [literal(0, [ell]) for ell in links],
               "c": [rep(x) for x in c],
               "a_high": [rep(x) for x in a_high]}
    return ok("ia-product", payload, {"ia": values, "report": rows})


def homology_case(rng, shape: str, size: int, twisted: bool, stalk: list):
    """stalk: [] for Gamma, else the cyclic orders of a torsion stalk."""
    build = ngon if shape == "ngon" else torus
    simplices, monodromy = build(rng, size, twisted)
    free = 0 if stalk else 1
    payload = {"simplices": simplices}
    if monodromy:
        payload["monodromy"] = monodromy
    if stalk:
        payload["stalk"] = literal(0, stalk)
    dim = 1 if shape == "ngon" else 2
    homology = homology_closed_form(dim, twisted, free, stalk)
    return ok("homology", payload,
              {"homology": [module_json(f, o) for f, o in homology]})


def e2_page(shape: str, twists: list, links: list, cone=None,
            stratum_dim: int = 0) -> dict:
    """Closed-form second-page entries {(i, p, q): order}.  links: one list
    of cyclic orders per coefficient degree; twists: one flag (shared base)
    or one flag per degree (a family of bases); cone: (codim, perversity)
    truncates the links first."""
    coned = list(links)
    if cone is not None:
        codim, perv = cone
        cutoff = codim - 1 - perv[codim - 2]
        coned = [m if i == 0 or i < cutoff else [] for i, m in enumerate(links)]
    entries = {}
    for q, orders in enumerate(coned):
        twisted = twists[q] if len(twists) > 1 else twists[0]
        if shape == "point":
            homology = [(0, orders)]
        else:
            homology = homology_closed_form(1 if shape == "ngon" else 2,
                                            twisted, 0, orders)
        for p, (_, o) in enumerate(homology):
            if degree(order(o)):
                entries[(stratum_dim, p, q)] = order(o)
    return entries


def e2_case(rng, shape: str, size: int, twists: list, links: list,
            cone=None, stratum_dim: int = 0):
    if shape == "point":
        bases = [([[0]], {}) for _ in twists]
        dim = 0
    else:
        build = ngon if shape == "ngon" else torus
        state = rng.getstate()
        bases = []
        for tw in twists:
            rng.setstate(state)  # the same labels for every member
            bases.append(build(rng, size, tw))
        dim = 1 if shape == "ngon" else 2
    entries = e2_page(shape, twists, links, cone, stratum_dim)
    bounds_rows = []
    for j in range(dim + len(links)):
        prod = order([m for (_, p, q), m in entries.items() if p + q == j])
        bounds_rows.append({"j": j, "bound": rep(prod)})

    def complex_json(b):
        out = {"simplices": b[0]}
        if b[1]:
            out["monodromy"] = b[1]
        return out

    payload = {"base": complex_json(bases[0]) if len(twists) == 1
               else [complex_json(b) for b in bases],
               "links": [literal(0, o) for o in links]}
    if stratum_dim:
        payload["stratum_dim"] = stratum_dim
    if cone is not None:
        payload["cone"] = {"codim": cone[0], "perversity": cone[1]}
    return ok("e2", payload, {
        "entries": [{"i": i, "p": p, "q": q, "poly": rep(m)}
                    for (i, p, q), m in sorted(entries.items())],
        "bounds": bounds_rows})


# -- invalid inputs ----------------------------------------------------------


def invalid_case(rng, draw):
    """An input every handler must turn into a typed error report."""
    choice = rng.randrange(7)
    if choice == 0:
        return error({"kind": "factor", "payload": {}}, "schema", 1,
                     "payload.poly")
    if choice == 1:
        return error({"kind": "snf", "payload": {"matrix": [["t", 3]]}},
                     "schema", 1, "payload.matrix[0][1]")
    if choice == 2:
        return error({"kind": "knot", "payload": {}}, "schema", 1,
                     "case.kind", kind="unknown")
    if choice == 3:
        # degree above the default factorization cap of 64
        big = expand(of(*Irreducibles(rng).big(2, 33, 40)))
        return error({"kind": "factor", "payload": {"poly": fmt(big)}},
                     "degree-cap", 2)
    if choice == 4:
        # a_high that divides neither a nor the high Kunneth polynomial
        case, _ = ia_product_case(rng, 6, 5, [0, 0, 1, 1, 2],
                                  [(1, [])], [of(T_MINUS_1), draw()], [])
        case["payload"]["a_high"] = [rep(of((-3, 1), (1, 0, 1)))]
        return error(case, "validation", 1)
    if choice == 5:
        # a junction that does not divide its neighbour entry
        deltas = planted_deltas(rng, draw, 4)
        case, _ = seq_case(rng, "solve", deltas)
        case["payload"]["junctions"] = {"1": rep(of((-5, 1)))}
        return error(case, "validation", 1)
    # one twisted edge on a triangle breaks the cocycle condition
    return error({"kind": "homology", "payload": {
        "simplices": [[0, 1, 2]], "monodromy": {"0-1": "t"}}},
        "validation", 1)


# zero-denominator input: ROADMAP item 5 (ZeroDivisionError escapes run_case)
ZERO_DENOMINATOR = error({"kind": "factor", "payload": {"poly": "1/0*t"}},
                         "validation", 1, kind="factor")


# -- workloads -----------------------------------------------------------------


def _case_mix(rng):
    irr = Irreducibles(rng)

    def draw(max_factors=2):
        return of(*[rng.choice(SMALL)
                    for _ in range(rng.randint(1, max_factors))])

    def alex():
        return of(*[rng.choice(ALEX) for _ in range(rng.randint(0, 1))])

    cases = []
    for _ in range(3):
        cases.append(factor_case(rng, irr.small(rng.randint(1, 3)), 2))
    for _ in range(2):
        a, b = draw(1), draw(1)
        cases.append(snf_case(rng, [a, a + b], zero_rows=rng.randint(0, 1)))
    a = draw(1)
    cases.append(snf_case(rng, [one(), a, a + draw(1)]))
    for op in ("check", "subpolynomials", "solve"):
        cases.append(seq_case(rng, op, planted_deltas(
            rng, lambda: draw(1), rng.randint(3, 5))))
    cases.append(seq_case(rng, "check", planted_deltas(
        rng, lambda: draw(1), 4), broken=of(rng.choice(SMALL))))
    p, q = irr.small(2)
    cases.append(split_case(p, of(q)))
    cases.append(ia_point_case(rng, alex, rng.randint(4, 7)))
    cases.append(verify_case(rng, alex, 4))
    cases.append(dual_case(rng, [of(T_MINUS_1)] + [draw(2) for _ in range(2)],
                           rng.randint(3, 5)))
    ell = draw(2)
    cases.append(ia_product_case(
        rng, 7, 5, [0, 0, 1, 1, 2], [(1, []), (1, [])],
        [of(T_MINUS_1), draw(2), draw(1), ell], [one(), draw(1)], 0.5))
    cases.append(ia_product_case(
        rng, 7, 5, [0, 0, 1, 1, 2], [(0, [of(T_MINUS_1), ell]), (1, [])],
        [of(T_MINUS_1), draw(1), ell + draw(1), ell], [one(), draw(1)], 0.5))
    lam, xi1, xi2 = draw(2), draw(2), draw(2)
    cases.append(allowed_single_case(rng, 2, 7, 4, lam,
                                     [of(T_MINUS_1), xi1, xi2]))
    cases.append(allowed_general_case(2, lam, 7,
                                      [(3, [[of(T_MINUS_1), xi1, xi2]])]))
    gamma = rng.choice([x for x in SMALL if x != T_MINUS_1])
    cases.append(exclude_case(rng, gamma, 2, 2, perversity(rng, 5), draw(2),
                              [of(T_MINUS_1), draw(2), draw(1) + of(gamma)
                               if rng.random() < 0.5 else draw(1)]))
    cases.append(maxpower_case(rng, gamma, 2, rng.randint(0, 3), 6,
                               [0, 0, 1, 1, 2],
                               {(0, 2, 0): of(gamma, T_MINUS_1),
                                (1, 1, 0): power(gamma, 2),
                                (0, 1, 1): of(gamma) + draw(1)}))
    ia = draw(2)
    primes = sorted(ia, key=sort_key)
    allowed = primes if rng.random() < 0.7 else primes[1:]
    cases.append(check_case(rng, ia, allowed,
                            {p: rng.randint(1, 3) for p in allowed}))
    cases.append(homology_case(rng, "ngon", 3, rng.random() < 0.5,
                               rng.choice(([], [of(T_MINUS_1)]))))
    cases.append(e2_case(rng, "point", 0, [False],
                         [[draw(2)], [draw(1), draw(1)]],
                         cone=(3, [0, rng.randint(0, 1)])))
    for _ in range(2):
        cases.append(invalid_case(rng, lambda: draw(1)))
    return cases


STALKS = {"G": [], "G/(t-1)": [of(T_MINUS_1)],
          "G/(t-1)+G/(t^2-1)": [of(T_MINUS_1), of(T_MINUS_1, T_PLUS_1)]}
SIMPLEX_COUNTS = {"ngon": lambda n: (n, n), "torus": lambda m: (m * m, 3 * m * m,
                                                                 2 * m * m)}


def euler_case(rng, shape: str, size: int, stalk: list, homology: list):
    """The Euler characteristic identity for torsion coefficients: the
    alternating products of the chain and homology orders agree, so
    [C_0, C_1, (C_2,) H_0.. arranged by parity] passes `seq check`."""
    o = order(stalk)
    chains = [Counter({p: k * c for p, k in o.items()})
              for c in SIMPLEX_COUNTS[shape](size)]
    orders = [order(h) for _, h in homology]
    polys = chains + (orders[::-1] if len(chains) == 2 else orders)
    return ok("seq", {"op": "check",
                      "polys": [unit_form(rng, expand(p)) for p in polys]},
              {"exact": True})


def _twisted_torus(rng):
    """Homology of n-gon circles and 3x3 / 4x4 tori with the three stalks,
    trivial or meridian monodromy, and second-page tables over them; a few
    cheap cases consume the results (Euler check, multiplicity cap, a
    product stratum whose singular set is a circle).

    Shapes, stalks and twists are fixed, so every round costs about the same,
    and the costs come in blocks: 9 cheap cases, 13 of about 80 ms holding
    the median, 6 of about 150 ms holding the tail percentile (the 25th of
    35), then 7 heavy ones.  The two middle blocks repeat one untwisted
    shape, whose cost does not depend on the seed, so the median and the
    percentile do not jump between neighbouring cases of unlike cost."""
    def quad():
        return of(rng.choice(QUADRATIC))

    twisted = (False, True)
    shapes = [("ngon", 6, "G", tw) for tw in twisted]
    shapes += [("ngon", 8, "G", tw) for tw in twisted * 2]
    shapes += [("ngon", 12, "G/(t-1)", False)] * 12
    shapes += [("torus", 3, "G", False)] * 6
    shapes += [("ngon", 16, "G/(t-1)+G/(t^2-1)", True),
               ("ngon", 24, "G/(t-1)", False),
               ("torus", 3, "G/(t-1)", True),
               ("torus", 3, "G/(t-1)+G/(t^2-1)", False),
               ("torus", 4, "G", False),
               ("torus", 4, "G", True)]
    cases = [homology_case(rng, shape, size, tw, STALKS[stalk])
             for shape, size, stalk, tw in shapes]
    torsion = STALKS["G/(t-1)+G/(t^2-1)"]
    cases.append(euler_case(rng, "torus", 3, torsion, homology_closed_form(
        2, False, 0, torsion)))

    # coefficient degrees whose bases share complex and monodromy repeat a
    # homology computation
    cases.append(e2_case(rng, "ngon", 6, [True, False, False],
                         [[quad()], [of(T_MINUS_1)], [quad()]],
                         cone=(4, [0, 1, 1])))
    twists, links = [False], [[quad()]]
    cases.append(e2_case(rng, "torus", 3, twists, links))
    cases.append(maxpower_case(rng, links[0][0].most_common(1)[0][0],
                               rng.randint(1, 3), rng.randint(0, 2), 5,
                               perversity(rng, 4),
                               e2_page("torus", twists, links)))
    cases.append(ia_product_case(rng, 5, 3, perversity(rng, 3),
                                 [(0, [of(T_MINUS_1)]), (0, [])],
                                 [of(T_MINUS_1), quad() + of(T_MINUS_1)],
                                 [one(), quad()]))
    return cases


# cyclotomic polynomials by degree
CYCLO_BY_DEGREE = {len(p) - 1: p for p in CYCLO}


def _ring_highdeg(rng):
    """Polynomials up to the degree cap of 64 with planted common factors:
    rational Euclid (gcd, division) and dense small SNF do the work.

    The other cases cost 5 ms to 0.7 s and their costs vary with the seed;
    the ia-product cases stop at degree 56, because at 64 their cost swings
    by a quarter with the seed and their 1.5 s would be half of a round.
    Eight factorizations of one fixed degree-38 cyclotomic product, which
    cost about the median, hold the median of the case times in place."""
    irr = Irreducibles(rng)

    def quad():
        return of(*irr.big(1, 2, 2))

    cases = []
    for total, parts in ((32, 2), (48, 3), (64, 3)):
        cases.append(factor_case(rng, list(irr.split(total, parts))))
    a = quad()
    cases.append(snf_case(rng, [a, a + irr.split(24, 2)], conj_deg=2, steps=3))
    cases.append(snf_case(rng, [one(), irr.split(32, 2)], conj_deg=3, steps=3))
    a = quad()
    b = a + of(*irr.big(1, 8, 8))
    cases.append(snf_case(rng, [a, b, b + of(*irr.big(1, 8, 8))], steps=3))

    for op in ("check", "subpolynomials", "solve"):
        deltas = [one()] + [irr.split(32, 2) for _ in range(4)] + [one()]
        cases.append(seq_case(rng, op, deltas))
    p = irr.big(1, 16, 16)[0]
    q = irr.split(48, 2)
    while p in q:  # the split case needs p and q coprime
        q = irr.split(48, 2)
    cases.append(split_case(p, q))

    link = [of(T_MINUS_1), irr.split(48, 3), irr.split(64, 3)]
    lam = irr.split(32, 2)
    cases.append(allowed_single_case(rng, 2, 7, 4, lam, link))
    cases.append(allowed_general_case(2, irr.split(48, 2), 7,
                                      [(3, [link])]))
    (gamma,) = irr.big(1, 8, 8)
    hit = rng.random() < 0.5
    cases.append(exclude_case(rng, gamma, 2, 2, perversity(rng, 5),
                              irr.split(56, 2) + (of(gamma) if hit else one()),
                              [of(T_MINUS_1), irr.split(48, 2),
                               irr.split(56, 2)]))
    cases.append(maxpower_case(rng, gamma, 2, rng.randint(0, 3), 6,
                               perversity(rng, 5),
                               {(0, 2, 0): of(gamma) + irr.split(48, 2),
                                (1, 1, 0): power(gamma, 2) + irr.split(40, 2),
                                (0, 1, 1): of(gamma) + irr.split(56, 2)}))
    ia = irr.split(64, 3)
    primes = sorted(ia, key=sort_key)
    allowed = primes[1:] if rng.random() < 0.3 else primes
    cases.append(check_case(rng, ia, allowed, {q: 1 for q in primes}))

    for total in (40, 56):
        common = quad()
        left = common + irr.split(total - 2, 2)
        right = common + irr.split(total - 2, 2)
        cases.append(ia_product_case(rng, 5, 3, [0, 0, 1],
                                     [(0, [right]), (1, [])],
                                     [of(T_MINUS_1), left], [one(), quad()]))
    cases.append(e2_case(rng, "point", 0, [False],
                         [[irr.split(48, 2)], [irr.split(64, 2)]]))
    fixed = [CYCLO_BY_DEGREE[16], CYCLO_BY_DEGREE[22]]
    cases += [factor_case(rng, fixed) for _ in range(8)]
    return cases


WORKLOADS = {
    "case-mix": _case_mix,
    "twisted-torus": _twisted_torus,
    "ring-highdeg": _ring_highdeg,
}


def round_cases(workload: str, seed: int, index: int) -> list:
    """Round `index` of a workload: [(case text, expected outcome)], shuffled."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return [(json.dumps(case, sort_keys=True), expect) for case, expect in cases]
