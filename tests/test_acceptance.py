"""End-to-end acceptance runs: one test per shipped guarantee.

Each test here covers one numbered guarantee, generates its own seeded
instances, and enforces the stated instance counts and time budgets, so a
verbose run prints exactly one pass/fail line per guarantee.  Everything is
exact arithmetic; there are no numeric tolerances, only wall-clock caps.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from ialex.bounds import (
    allowed_primes_single,
    check_result,
    exclusion_single,
    max_power_bound,
)
from ialex.engine import (
    DiskKnotData,
    Perversity,
    ProductSingularityInput,
    ia_point,
    ia_product,
    superdual_polynomials,
    validate_normalization,
)
from ialex.exactseq import (
    ModuleSequence,
    NotExactCompatible,
    check_alternating_product,
    solve_missing_third,
    split_primary,
    subpolynomials,
)
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    order_polynomial,
    smith_normal_form,
)
from ialex.laurent import (
    LaurentPoly,
    divides,
    exact_quotient,
    factor,
    gcd,
    multiplicity,
    normalize,
    similar,
)
from ialex.twisted import TwistedComplex, e2_link_page, twisted_homology

import pytest

from conftest import ALEX_POOL, MIXED_POOL, seeded_eisenstein
from oracles import (
    determinantal_invariant_factors,
    kronecker_factor,
    kunneth_order,
    sympy_cyclotomic,
    sympy_swinnerton_dyer,
)

REPO = Path(__file__).resolve().parent.parent
ONE = LaurentPoly.one()
T1 = normalize("t - 1")

IRREDUCIBLES = [normalize(s) for s in (
    "t - 1", "t + 1", "2*t - 1", "t - 2", "t^2 + 1", "t^2 - t + 1",
    "t^2 + t + 1", "t^2 - t - 1", "t^2 + 2", "3*t - 2")]
PROBES = MIXED_POOL + [normalize("t^2 + 1")]


# -- seeded instance generators ------------------------------------------------------


def rand_pool_product(rng, pool=ALEX_POOL, max_factors=2, min_factors=0):
    out = ONE
    for _ in range(rng.randint(min_factors, max_factors)):
        out = out * rng.choice(pool)
    return out


def rand_perversity(rng, max_codim):
    values = [0]
    for _ in range(3, max_codim + 1):
        values.append(values[-1] + rng.randint(0, 1))
    return Perversity(values)


def rand_disk_knot(rng, n=None):
    if n is None:
        n = rng.randint(4, 7)
    top = n - 3
    a = [ONE] + [rand_pool_product(rng) for _ in range(top - 1)] + [ONE]
    b = [T1] + [rand_pool_product(rng) for _ in range(top)]
    c = [ONE] + [rand_pool_product(rng) for _ in range(top)]
    return DiskKnotData(n, a[: top + 1], b[: top + 1], c[: top + 1])


def rand_torsion_module(rng, pool, max_summands=2):
    orders = []
    for _ in range(rng.randint(0, max_summands)):
        orders.append(rand_pool_product(rng, pool, max_factors=2,
                                        min_factors=1))
    return FgGammaModule.from_summands(0, orders)


def rand_divisor(rng, rep):
    out = ONE
    for prime, mult in factor(rep):
        out = out * prime ** rng.randint(0, mult)
    return out


def rand_product_input(rng, realizable=False, alexander=False):
    """Random product-neighborhood data whose divisibility constraints hold.

    realizable draws link data of Alexander type above degree zero and makes
    the kernel absorb every t - 1 of the unwindowed Kunneth orders, the way
    geometric instances do; alexander additionally pins c_0 = t - 1 and keeps
    the remaining c_i of Alexander type, so the output is normalized.
    """
    link_pool = ALEX_POOL if (realizable or alexander) else MIXED_POOL
    n = rng.randint(5, 7)
    k = rng.randint(2, n - 2)
    p = rand_perversity(rng, n)
    sigma_dim = n - k - 1

    sigma = []
    for r in range(sigma_dim + 1):
        free = rng.randint(0, 2)
        tors = (FgGammaModule.zero() if r == sigma_dim
                else rand_torsion_module(rng, MIXED_POOL))
        sigma.append(FgGammaModule(free + tors.free_rank, tors.torsion))

    links = [FgGammaModule.cyclic("t - 1")]
    for _ in range(1, k - 1):
        links.append(rand_torsion_module(rng, link_pool))

    if alexander:
        c = [T1] + [rand_pool_product(rng, ALEX_POOL) for _ in range(n - 2)]
    else:
        c = [rand_pool_product(rng, MIXED_POOL) for _ in range(n - 1)]

    s_min = k - p(k + 1)
    a_high, a_full = [], []
    for i in range(n - 1):
        low, high = kunneth_order(sigma, links, i, s_min)
        ah = rand_divisor(rng, high)
        al = rand_divisor(rng, low)
        if realizable or alexander:
            al = al * T1 ** (multiplicity(T1, low) - multiplicity(T1, al))
        a_high.append(ah)
        a_full.append(ah * al)
    return ProductSingularityInput(n, k, p, sigma, links, c, a_high, a_full)


def rand_matrix(rng, max_size=4, max_degree=2):
    rows = rng.randint(0, max_size)
    cols = rng.randint(0, max_size)
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for e in range(max_degree + 1):
                if rng.random() < 0.5:
                    coeff = rng.randint(-3, 3)
                    if coeff:
                        terms[e] = Fraction(coeff)
            row.append(LaurentPoly(terms))
        grid.append(row)
    return GammaMatrix(grid, cols=cols)


def torus_complex(m, twisted):
    """The m x m torus; a twisted one carries t on every edge crossing the
    meridian between rows m - 1 and 0."""
    def v(i, j):
        return (i % m) * m + (j % m)

    tris, mono = [], {}
    for i in range(m):
        for j in range(m):
            tris.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            tris.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
            if twisted and i == m - 1:
                mono[(v(i, j), v(i + 1, j))] = "t"
                mono[(v(i, j), v(i + 1, j + 1))] = "t"
    return TwistedComplex(tris, mono)


# -- the guarantees ------------------------------------------------------------------


def test_criterion_01_twisted_circle():
    """H(S^1, monodromy t) = (Gamma/(t-1), 0), computed in under 10 ms."""
    circle = TwistedComplex([[0, 1], [1, 2], [0, 2]], {"0-1": "t"})
    twisted_homology(circle)  # warm-up
    start = time.perf_counter()
    h0, h1 = twisted_homology(circle)
    elapsed = time.perf_counter() - start
    assert h0 == FgGammaModule.cyclic("t - 1")
    assert h1 == FgGammaModule.zero()
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_02_point_formula():
    """200 random point singularities: branch table and the independent
    sequence-completion route, in under 10 s."""
    rng = random.Random(1202)
    start = time.perf_counter()
    for _ in range(200):
        data = rand_disk_knot(rng)
        p = rand_perversity(rng, data.n)
        out = ia_point(data, p)
        cut = data.n - 1 - p(data.n)

        for i, q in enumerate(out):
            if i < cut:
                assert q == data.b_at(i) * data.c_at(i)
            elif i == cut:
                assert q == data.c_at(i)
            else:
                assert q == data.c_at(i) * data.a_at(i - 1)

        # second route: null the mu column of the interleaved sequence and
        # recover it from the a-junctions alone
        entries, junctions = [], {}
        for pos, i in enumerate(range(data.top, -1, -1)):
            entries.extend([data.nu(i), data.lam(i), None])
            junctions[3 * pos] = data.a_at(i)
        polys, _ = solve_missing_third(entries, junctions)
        for pos, i in enumerate(range(data.top, -1, -1)):
            mu_hat = polys[3 * pos + 2]
            assert mu_hat == data.mu(i)
            if i > cut:
                assert out[i] == mu_hat
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_03_product_consistency():
    """Product formula: point reduction, simple-coefficient Kunneth orders,
    and both stable ranges, in under 30 s."""
    rng = random.Random(1303)
    start = time.perf_counter()

    # a point singular set reproduces the point formula
    for _ in range(60):
        data = rand_disk_knot(rng)
        p = rand_perversity(rng, data.n)
        n, k = data.n, data.n - 1
        cut = n - 1 - p(n)
        links = [FgGammaModule.cyclic(data.nu(i))
                 for i in range(min(data.top + 1, k - 1))]
        inp = ProductSingularityInput(
            n, k, p, [FgGammaModule.free(1)], links,
            c=[data.c_at(i) for i in range(n - 1)],
            a_high=[ONE if i < cut else data.a_at(i) for i in range(n - 1)],
            a=[data.a_at(i) for i in range(n - 1)])
        got, _ = ia_product(inp)
        assert got == ia_point(data, p)

    # all-free sigma homology: nu_i is the product of xi_s to the Betti numbers
    for _ in range(60):
        n = rng.randint(6, 8)
        k = rng.randint(2, n - 2)
        p = rand_perversity(rng, n)
        betas = [rng.randint(0, 3) for _ in range(n - k)]
        sigma = [FgGammaModule.free(b) for b in betas]
        links = [FgGammaModule.cyclic("t - 1")]
        for _ in range(1, k - 1):
            links.append(rand_torsion_module(rng, MIXED_POOL))
        xi = [order_polynomial(m) for m in links]
        _, report = ia_product(ProductSingularityInput(
            n, k, p, sigma, links, c=[], a_high=[]))
        for i, row in enumerate(report):
            expected = ONE
            for r, beta in enumerate(betas):
                s = i - r
                if 0 <= s < len(xi):
                    expected = expected * xi[s] ** beta
            assert normalize(row["nu"]) == expected

    # stable ranges on generic instances
    for _ in range(60):
        inp = rand_product_input(rng)
        out, report = ia_product(inp)
        p = inp.perversity
        for i, q in enumerate(out):
            nu = normalize(report[i]["nu"])
            lam = exact_quotient(nu, inp.a_at(i)) * inp.c_at(i)
            if i < inp.k - p(inp.k + 1):
                assert q == lam
            if i >= inp.n - p(inp.k + 1) + 1:
                assert q == inp.c_at(i) * inp.a_at(i - 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_04_superduality():
    """Duals of generated outputs satisfy the superperverse normalization;
    dualizing twice is the identity up to similarity."""
    rng = random.Random(1404)

    def check(ia, n):
        dual = superdual_polynomials(ia, n)
        assert all(row["ok"]
                   for row in validate_normalization(dual, n, True))
        twice = superdual_polynomials(dual, n)
        for i, q in enumerate(ia):
            assert similar(twice[i], q)

    for _ in range(100):
        data = rand_disk_knot(rng)
        p = rand_perversity(rng, data.n)
        check(ia_point(data, p), data.n)
    for _ in range(40):
        inp = rand_product_input(rng, alexander=True)
        out, _ = ia_product(inp)
        check(out, inp.n)


def test_criterion_05_normalization_closure():
    """Alexander-type generators keep every engine output normalized."""
    rng = random.Random(1505)
    for _ in range(100):
        data = rand_disk_knot(rng)
        p = rand_perversity(rng, data.n)
        report = validate_normalization(ia_point(data, p), data.n)
        assert all(row["ok"] for row in report)
    for _ in range(40):
        inp = rand_product_input(rng, alexander=True)
        out, _ = ia_product(inp)
        assert all(row["ok"] for row in validate_normalization(out, inp.n))


def test_criterion_06_snf_oracle():
    """100 random matrices match the determinantal-divisor oracle, under 5 s."""
    rng = random.Random(1606)
    start = time.perf_counter()
    for _ in range(100):
        m = rand_matrix(rng)
        factors, rank = smith_normal_form(m)
        oracle = determinantal_invariant_factors(
            [list(row) for row in m.entries])
        assert list(factors) == oracle
        assert rank == len(oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_07_factor_oracle():
    """100 random prime products re-factor to the generating multiset and
    agree with the Kronecker oracle, under 10 s."""
    rng = random.Random(1707)
    start = time.perf_counter()
    for _ in range(100):
        chosen = []
        degree = 0
        while True:
            q = rng.choice(IRREDUCIBLES)
            if degree + q.degree > 6:
                break
            chosen.append(q)
            degree += q.degree
            if degree >= 6 or rng.random() < 0.3:
                break
        product = ONE
        for q in chosen:
            product = product * q
        pairs = factor(product)
        assert dict(pairs) == dict(Counter(chosen))
        assert pairs == kronecker_factor(product)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_08_sequence_calculus():
    """500 exact sequences accepted and round-tripped, 500 perturbed ones
    rejected, primary splitting reassembled, under 10 s."""
    rng = random.Random(1808)
    start = time.perf_counter()

    def exact_sequence():
        m = rng.randint(2, 6)
        deltas = [ONE] + [rand_pool_product(rng, MIXED_POOL)
                          for _ in range(m - 1)] + [ONE]
        return [deltas[i] * deltas[i + 1] for i in range(m)], deltas

    for _ in range(500):
        polys, deltas = exact_sequence()
        assert check_alternating_product(polys)
        assert list(subpolynomials(polys)) == deltas

    for _ in range(500):
        polys, _ = exact_sequence()
        polys[rng.randrange(len(polys))] *= rng.choice(MIXED_POOL)
        assert not check_alternating_product(polys)
        with pytest.raises(NotExactCompatible):
            subpolynomials(polys)

    # CRT: primary pieces of a short cyclic sequence reassemble to it
    for _ in range(150):
        alpha = rand_pool_product(rng, MIXED_POOL, min_factors=1)
        beta = rand_pool_product(rng, MIXED_POOL, min_factors=1)
        modules = [FgGammaModule.cyclic(alpha),
                   FgGammaModule.cyclic(alpha * beta),
                   FgGammaModule.cyclic(beta)]
        seq = ModuleSequence(modules, [GammaMatrix([[beta]]),
                                       GammaMatrix([[LaurentPoly({0: 1})]])])
        primes = [q for q, _ in factor(alpha * beta)]
        rebuilt = [FgGammaModule.zero()] * 3
        for prime in primes:
            part = split_primary(seq, prime)
            assert check_alternating_product(part.order_polynomials())
            rebuilt = [acc.direct_sum(m)
                       for acc, m in zip(rebuilt, part.modules)]
        assert rebuilt == modules

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_09_bound_soundness():
    """Engine outputs stay inside the admissibility window, respect every
    exclusion certificate, and obey the E2-derived multiplicity caps."""
    rng = random.Random(1909)

    for _ in range(50):
        data = rand_disk_knot(rng)
        p = rand_perversity(rng, data.n)
        n, k = data.n, data.n - 1
        out = ia_point(data, p)
        xi = [data.nu(i) for i in range(data.top + 1)]

        for i in range(1, n - 1):
            allowed = allowed_primes_single(i, n, k, data.c_at(i), xi)
            assert check_result(out[i], allowed)["ok"]
            for gamma in PROBES:
                if exclusion_single(gamma, i, k, p, data.lam(i), xi):
                    assert not divides(gamma, out[i])

        # multiplicity caps from the trivial-base E2 page
        point_base = TwistedComplex([[0]])
        link_mods = [FgGammaModule.cyclic(data.nu(i))
                     for i in range(min(data.top + 1, k - 1))]
        page = e2_link_page(point_base, link_mods, 0)
        for j, q in enumerate(out):
            for prime, mult in factor(q):
                gamma_j = multiplicity(prime, data.lam(j))
                assert mult <= max_power_bound(prime, j, gamma_j, page, n, p)

    for _ in range(30):
        inp = rand_product_input(rng, realizable=True)
        out, report = ia_product(inp)
        xi = [order_polynomial(m) for m in inp.link_modules]
        for i in range(1, inp.n - 1):
            allowed = allowed_primes_single(i, inp.n, inp.k,
                                            inp.c_at(i), xi)
            assert check_result(out[i], allowed)["ok"]
            nu = normalize(report[i]["nu"])
            lam = exact_quotient(nu, inp.a_at(i)) * inp.c_at(i)
            for gamma in PROBES:
                if exclusion_single(gamma, i, inp.k, inp.perversity,
                                    lam, xi):
                    assert not divides(gamma, out[i])


def test_criterion_10_cli_determinism():
    """Two runs over the shipped corpus agree byte for byte, under 60 s."""
    corpus = REPO / "fixtures" / "corpus"
    assert sorted(corpus.glob("*.json")), "shipped corpus is missing"
    start = time.perf_counter()
    runs = [subprocess.run(
        [sys.executable, "-m", "ialex", "corpus", str(corpus)],
        capture_output=True, cwd=REPO) for _ in range(2)]
    elapsed = time.perf_counter() - start
    for proc in runs:
        assert proc.returncode == 0, proc.stdout.decode()
    assert runs[0].stdout == runs[1].stdout
    report = json.loads(runs[0].stdout)
    assert report["status"] == "pass"
    assert report["values"]["total"] == len(list(corpus.glob("*.json")))
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


TORUS_STALK = FgGammaModule.from_summands(0, ["t - 1", "t^2 - 1"])
# H(T^2; Gamma/(t-1) + Gamma/(t^2-1)) by universal coefficients: untwisted,
# H(T; Gamma) is free of ranks 1, 2, 1, so H_p = stalk^b_p; twisted by t
# around one loop, H(T; Gamma_t) = (Gamma/(t-1), Gamma/(t-1), 0), and tensor
# and Tor with the stalk both give (Gamma/(t-1))^2
TORUS_STALK_HOMOLOGY = {
    False: (["t - 1", "t^2 - 1"], ["t - 1", "t^2 - 1"] * 2, ["t - 1", "t^2 - 1"]),
    True: (["t - 1"] * 2, ["t - 1"] * 4, ["t - 1"] * 2),
}


def _torus_stalk_homology(m: int, twisted: bool) -> float:
    """Check the m x m torus with TORUS_STALK against the closed form;
    returns the seconds twisted_homology took."""
    tc = torus_complex(m, twisted)
    tc = TwistedComplex(tc.simplices, tc.monodromy, TORUS_STALK)
    assert len(tc.simplices) == 6 * m * m
    start = time.perf_counter()
    homology = twisted_homology(tc)
    elapsed = time.perf_counter() - start
    assert homology == tuple(FgGammaModule.from_summands(0, d)
                             for d in TORUS_STALK_HOMOLOGY[twisted])
    return elapsed


def test_criterion_11_torus_torsion_stalk():
    """H(T^2; Gamma/(t-1) + Gamma/(t^2-1)) on the 4x4 torus, untwisted and
    twisted by t around one loop, matches the universal-coefficient closed
    form, each in under 0.5 s."""
    for twisted in (False, True):
        elapsed = _torus_stalk_homology(4, twisted)
        assert elapsed < 0.5, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("m", [8, 12])
@pytest.mark.parametrize("twisted", [False, True])
def test_large_torus_torsion_stalk(m, twisted):
    """The same closed form on the 8x8 and 12x12 tori, whose boundary
    matrices reach 288 x 432 (rows of 3 entries) through sparse rows."""
    _torus_stalk_homology(m, twisted)


def test_criterion_12_highdeg_gcd():
    """The gcd of two degree-56 polynomials with a planted quadratic factor
    comes out exactly, in under 0.05 s."""
    rng = random.Random(0)
    planted = normalize("2*t^2 - 3*t + 5")
    polys = [LaurentPoly(enumerate(
        [rng.randint(-9, 9) for _ in range(54)] + [rng.randint(1, 9)]))
        * planted for _ in range(2)]
    gcd(polys[0], planted)  # warm-up
    start = time.perf_counter()
    g = gcd(*polys)
    elapsed = time.perf_counter() - start
    assert g == planted
    assert elapsed < 0.05, f"took {elapsed:.3f} s"


def test_criterion_13_cyclotomic_factor():
    """Products of cyclotomic polynomials, up to Phi_240 at the default
    degree cap, factor to their planted multisets in under 5 ms each."""
    for planted in ({17: 1, 23: 1}, {7: 2, 9: 1, 11: 1, 15: 1}, {240: 1}):
        expected = Counter({sympy_cyclotomic(n): mult
                            for n, mult in planted.items()})
        product = ONE
        for q, mult in expected.items():
            product = product * q**mult
        factor(product)  # warm-up
        start = time.perf_counter()
        pairs = factor(product)
        elapsed = time.perf_counter() - start
        assert pairs == tuple(sorted(expected.items(),
                                     key=lambda kv: kv[0].sort_key()))
        assert elapsed < 0.005, f"{sorted(planted)} took {elapsed:.4f} s"


def test_criterion_14_highdeg_factor():
    """Three seeded products of Eisenstein polynomials of degrees 13, 21 and
    30 factor to their planted multisets, and the Swinnerton-Dyer polynomial
    S_5 (degree 32, 16 factors mod every prime keeping it square-free)
    comes out irreducible, each in under 0.5 s."""
    cases = []
    for seed in range(3):
        rng = random.Random(seed)
        planted = [seeded_eisenstein(rng, d) for d in (13, 21, 30)]
        cases.append((planted[0] * planted[1] * planted[2], planted))
    s5 = sympy_swinnerton_dyer(5)
    cases.append((s5, [s5]))
    factor(cases[0][0])  # warm-up
    for product, planted in cases:
        start = time.perf_counter()
        pairs = factor(product)
        elapsed = time.perf_counter() - start
        assert pairs == tuple((q, 1) for q in sorted(planted,
                                                     key=LaurentPoly.sort_key))
        assert elapsed < 0.5, f"degree {product.degree} took {elapsed:.3f} s"
