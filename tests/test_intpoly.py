"""Integer-coefficient kernel: Sturm chains, isolation, interval helpers."""

import math
from fractions import Fraction as F

import pytest

from meshpoly import intpoly as ip
from meshpoly.fixtures import derive_rng
from meshpoly.poly import Polynomial
from test_nodes import RefRoot, probed, ref_simplest_in
from test_poly_kernels import ref_shift
from test_real_roots import (ref_content, ref_count_distinct_in, ref_gcd,
                             ref_primitive, ref_remainder_sequence,
                             ref_squarefree_part, ref_variations_at,
                             ref_yun, translate)


def test_primitive_of_numerators_clears_denominators():
    assert ip.primitive(Polynomial([F(-2), F(0), F(1)]).nums) == [-2, 0, 1]
    # primitive part only: x + 1/2 scales to 2x + 1
    assert ip.primitive(Polynomial([F(1, 2), F(1)]).nums) == [1, 2]
    assert ip.primitive(Polynomial([F(-4, 3), F(2, 3)]).nums) == [-2, 1]


def test_eval_and_degree():
    f = [-2, 0, 1]  # x^2 - 2, ascending
    assert len(ip.trim(f + [0, 0])) - 1 == 2  # trimmed, so len - 1
    assert ip.sign_at(f, F(3, 2)) == 1
    assert ip.sign_at(f, F(7, 5)) == -1
    assert ip.sign_at_inf(f, -1) == 1
    assert ip.sign_at_inf([0, 1], -1) == -1


def test_cauchy_bound():
    assert ip.cauchy_bound([-2, 0, 1]) == 3


def test_sturm_chain_and_counting():
    f = [-2, 0, 1]
    ch = ip.sturm_chain(f)
    assert ch[0] == f
    assert ref_variations_at(ch, None, -1) - ref_variations_at(ch, None, 1) == 2
    assert ref_count_distinct_in(ch, None, None) == 2
    assert ref_count_distinct_in(ch, F(0), None) == 1
    # half-open (lo, hi]: root at hi counts, root at lo does not
    g = [0, -1, 1]  # x(x - 1)
    chg = ip.sturm_chain(g)
    assert ref_count_distinct_in(chg, F(0), F(1)) == 1
    assert ref_count_distinct_in(chg, F(-1), F(1)) == 2


def test_squarefree_and_yun():
    f = [-2, 0, 1]
    f2 = ip.mul(f, f)
    assert ref_squarefree_part(f2) == f
    assert ip.yun(f2) == [(f, 2)]
    g = ip.mul([0, 1], ip.mul([0, 1], [-1, 1]))  # x^2 (x - 1)
    assert ip.yun(g) == [([-1, 1], 1), ([0, 1], 2)]


def test_isolate_irrational_pair():
    rts = ip.isolate([-2, 0, 1])
    assert len(rts) == 2
    lo_root, hi_root = rts
    # disjoint open intervals, ordered; unprobed, the two share the end 0
    assert lo_root.hi <= hi_root.lo
    width = hi_root.hi - hi_root.lo
    hi_root.refine()
    hi_root.refine()
    # sqrt(2) stays bracketed and the bracket shrinks
    assert hi_root.lo ** 2 < 2 < hi_root.hi ** 2
    assert hi_root.hi - hi_root.lo < width
    assert lo_root.lo ** 2 > 2 > lo_root.hi ** 2


def test_isolate_hits_rational_roots_exactly():
    rts = ip.isolate([-1, 0, 0, 1])  # x^3 - 1
    assert len(rts) == 1
    r = rts[0]
    assert r.exact is None  # isolation alone does not probe
    assert r.try_rational() == 1
    assert r.lo == r.hi == 1
    assert r.exact


def _simplest(lo, hi):
    """intpoly.simplest_in on Fraction ends, as a Fraction."""
    den = lo.denominator * hi.denominator
    num, d = ip.simplest_in(lo.numerator * hi.denominator,
                            hi.numerator * lo.denominator, den)
    return F(num, d)


def test_simplest_in_prefers_small_denominator():
    assert _simplest(F(-1, 3), F(1, 7)) == 0
    assert _simplest(F(5, 3), F(9, 5)) == F(5, 3)
    assert _simplest(F(13, 10), F(29, 20)) == F(4, 3)


CAP = 1 << 16


def _simplest_interval(rng, t):
    """The t-th seeded (a, b, den) interval, a <= b, den > 0.  Deep
    expansions (exact points, narrow intervals, the cap) cost the
    reference most, so they are one in ten."""
    kind = t % 50
    if kind == 0:
        # an exact point or a narrow interval around p/q with q at the
        # probing cap: the simplest rational there is p/q, unless the
        # interval holds a simpler one
        q = CAP + rng.randint(-2, 2)
        m = rng.randint(1, 3)
        c = rng.randint(-3 * q, 3 * q) * m
        w = rng.choice((0, 0, 1, m))
        return c - rng.randint(0, w), c + rng.randint(0, w), q * m
    # 0 draws a denominator up to 10**3 or 10**9
    den = rng.choice((1, 2, 3, 12, CAP, CAP + 1, 0, 0)) or \
        rng.randint(1, 10 ** rng.choice((3, 9)))
    scale = rng.choice((1, 10, 10**3, den))
    a = rng.randint(-4 * scale, 4 * scale)
    if kind <= 2:
        width = 0                           # an exact point
    elif kind <= 4:
        width = rng.randint(0, 3)           # narrow, deep expansions
    elif kind % 3 == 0:
        width = rng.randint(0, den)         # width at most 1
    elif kind % 3 == 1:
        a = rng.randint(-den, 0)            # contains 0 or ends at it
        width = -a + rng.randint(0, den)
    else:
        width = rng.randint(0, 3 * den)     # often holds an integer
    return a, a + width, den


def test_simplest_in_matches_reference():
    """Seeded intervals against the Fraction continued-fraction
    reference: negative ones, ones holding 0 or an integer, exact points,
    denominators up to 10**9 and around the 2**16 probing cap."""
    seen = {"negative": 0, "zero inside": 0, "integer inside": 0,
            "exact point": 0, "den > 10**8": 0, "at cap": 0,
            "above cap": 0, "deep": 0}
    rng = derive_rng(7, "simplest")
    for t in range(100_000):
        a, b, den = _simplest_interval(rng, t)
        want = ref_simplest_in(F(a, den), F(b, den))
        num, d = ip.simplest_in(a, b, den)
        assert (num, d) == (want.numerator, want.denominator), (a, b, den)
        seen["negative"] += b < 0
        seen["zero inside"] += a <= 0 <= b
        seen["integer inside"] += d == 1 and a < num * den < b
        seen["exact point"] += a == b
        seen["den > 10**8"] += den > 10**8
        seen["at cap"] += d == CAP
        seen["above cap"] += d == CAP + 1
        seen["deep"] += d > 10**4
    assert min(seen.values()) >= 300, seen


def test_try_rational_matches_reference_at_the_cap():
    """Probing with integer ends against the Fraction reference node, on
    roots whose denominators sit at, below and above the 2**16 cap and at
    the leading coefficient."""
    outcomes = set()
    for q in (CAP - 1, CAP, CAP + 1, 3 * CAP):
        for p in (1, -7, 5 * q + 3):
            for extra in ([1], [-2, 0, 1], [-3, 5]):
                f = ip.mul([-p, q], extra)
                for node in ip.isolate(f):
                    ref = RefRoot(node.poly, node.lo, node.hi, node.slo)
                    got = node.try_rational()
                    assert got == ref.try_rational(), (f, node.lo)
                    assert (node.lo, node.hi, node.slo) == \
                        (ref.lo, ref.hi, ref.slo)
                    outcomes.add((got is not None, got == F(p, q)))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_gcd_and_divexact():
    f = ip.mul([-1, 1], [1, 1])
    assert ip.gcd(f, [-1, 1]) == [-1, 1]
    assert ip.divexact(f, [-1, 1]) == [1, 1]
    assert ip.content([2, 4, 6]) == 2
    assert ip.primitive([2, 4, 6]) == [1, 2, 3]


# -- differential tests of the isolation kernel --------------------------

def _node(f, lo, hi, slo):
    """The IsolatedRoot (lo, hi) of f, ends over their common denominator."""
    den = lo.denominator * hi.denominator // math.gcd(lo.denominator,
                                                      hi.denominator)
    return ip.IsolatedRoot.from_ints(f, lo.numerator * (den // lo.denominator),
                                     hi.numerator * (den // hi.denominator),
                                     den, slo)


def _reference_isolate(f, probe, stats=None):
    """Plain Sturm bisection in Fractions: the whole chain is evaluated at
    both ends of every split, and each leaf evaluates f at its ends.
    stats["moved"] collects the midpoints that were roots."""
    f = ip.primitive(list(f))
    if len(f) <= 1:
        return []
    chain = ip.sturm_chain(f)
    bound = ip.cauchy_bound(f)
    out = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            slo = ip.sign_at(f, lo)
            if ip.sign_at(f, hi) == 0:
                out.append(_node(f, hi, hi, 0))
            else:
                out.append(_node(f, lo, hi, slo))
            return
        mid = (lo + hi) / 2
        while ip.sign_at(f, mid) == 0:
            if stats is not None:
                stats.setdefault("moved", []).append(mid)
            mid = (mid + hi) / 2
        nl = ref_variations_at(chain, lo) - ref_variations_at(chain, mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    split(-bound, bound, ref_variations_at(chain, -bound)
          - ref_variations_at(chain, bound))
    return probed(out, probe)


def _key(nodes):
    return [(n.lo, n.hi, n.slo) for n in nodes]


def _from_roots(roots, extra=(1,)):
    f = list(extra)
    for r in roots:
        f = ip.mul(f, [-r.numerator, r.denominator])
    return f


def _isolation_corpus():
    """Seeded squarefree inputs plus hand-picked ones: roots at 0 (the first
    midpoint), dyadic roots at later split points, degree 1, and large
    coefficients."""
    polys = [
        [0, 1], [3, 2], [-7, 1],                   # degree 1, one at 0
        [0, -1, 0, 1],                     # x^3 - x: midpoints 0, then 1
        _from_roots([F(-3, 2), F(-1, 2)]),  # bound 3: second split -3/2
        _from_roots([F(2), F(3), F(5)]),    # bound 32: splits 2, then 3
        _from_roots([F(k, 4) for k in range(-6, 7, 3)]),
        [-2, 0, 1],                                # irrational pair
        [10**40 + 1, -(10**30), 7, 10**20],        # large coefficients
    ]
    for t in range(160):
        rng = derive_rng(7, "isolate", t)
        if t % 2:
            dens = (1, 2, 4, 8) if t % 4 == 1 else (1, 2, 3, 5, 7, 12)
            roots = {F(rng.randint(-24, 24), rng.choice(dens))
                     for _ in range(rng.randint(1, 7))}
            extra = (1,) if t % 8 != 7 else (rng.randint(1, 9), 0, 1)
            polys.append(_from_roots(sorted(roots), extra))
        else:
            big = 10 ** rng.choice((1, 3, 12, 30))
            deg = rng.randint(1, 8)
            f = [rng.randint(-big, big) for _ in range(deg)]
            polys.append(f + [rng.choice((-1, 1)) * rng.randint(1, big)])
    return [ref_squarefree_part(f) for f in polys]


@pytest.mark.parametrize("probe", [False, True])
def test_isolate_matches_reference_bisection(probe):
    stats: dict = {}
    corpus = _isolation_corpus()
    for f in corpus:
        assert _key(probed(ip.isolate(f), probe)) == \
            _key(_reference_isolate(f, probe, stats)), f
    # the corpus reaches the zero-avoiding step at 0 and at later split points
    assert {F(0), F(1), F(-3, 2), F(2), F(3)} <= set(stats["moved"])
    assert any(len(f) == 2 for f in corpus)
    assert any(max(map(abs, f)) > 10**25 for f in corpus)


def test_isolate_interval_ends_are_never_roots():
    # exact nodes come only from rational probing: bisection never splits
    # at a root, and no root reaches the Cauchy bound
    exact_after_probe = 0
    for f in _isolation_corpus():
        for node in ip.isolate(f):
            assert node.lo < node.hi
            assert ip.sign_at(f, node.lo) == node.slo != 0
            assert ip.sign_at(f, node.hi) == -node.slo
        exact_after_probe += sum(n.try_rational() is not None
                                 for n in ip.isolate(f))
    assert exact_after_probe > 0


def test_variations_at_matches_signs():
    for f in _isolation_corpus()[:40]:
        chain = ip.sturm_chain(f)
        for x in (F(0), F(1, 3), F(-5, 2), F(7), ip.cauchy_bound(f)):
            num, den = x.numerator, x.denominator
            assert ip._chain_at(chain, num, den) == \
                (ip.sign_at(f, x), ref_variations_at(chain, x)), (f, x)


def _shift_corpus():
    """f of degree -1 to 8: zero, constants and lines first, then seeded
    coefficients up to 10**20."""
    fs = [[], [5], [-3], [0, 2], [7, -4], [-10**20, 3 * 10**20 + 1]]
    for t in range(40):
        rng = derive_rng(7, "translate", t)
        big = 10 ** rng.choice((1, 4, 20))
        fs.append(ip.trim([rng.randint(-big, big)
                           for _ in range(rng.randint(1, 9))]))
    return fs


@pytest.mark.parametrize("alpha", [F(0), F(1), F(-3), F(1, 2), F(-7, 3),
                                   F(22, 7), F(5, 8), F(7, 10**6 + 3)])
def test_translate_matches_polynomial_shift(alpha):
    """The tests' translate, the primitive part of taylor_shift, against
    the Fraction Taylor shift."""
    for f in _shift_corpus():
        expected = ip.primitive(ref_shift(Polynomial(f), alpha).nums)
        assert translate(f, alpha) == expected, (f, alpha)


# (p, q) as taylor_shift reads them: p = 0, negative p, and pairs that
# are not reduced
SHIFT_PAIRS = [(0, 1), (0, 6), (3, 1), (-4, 1), (6, 4), (-9, 6), (10, 5),
               (-14, 21), (5, 8), (-7, 10**6 + 3), (10**20 + 1, 3)]


@pytest.mark.parametrize("p, q", SHIFT_PAIRS)
def test_taylor_shift_matches_fraction_shift(p, q):
    """taylor_shift(f, p, q) is q**n f(x - p/q), n = deg f, unreduced:
    the same list of ints as the Fraction Taylor shift times q**n."""
    for f in _shift_corpus():
        scale = q ** max(len(f) - 1, 0)
        want = [c * scale for c in
                ref_shift(Polynomial(f), F(p, q)).monomial_coeffs()]
        got = ip.taylor_shift(f, p, q)
        assert got == want and all(type(c) is int for c in got), (f, p, q)


@pytest.mark.parametrize("p, q", SHIFT_PAIRS)
def test_polynomial_shift_matches_fraction_shift(p, q):
    for f in _shift_corpus():
        for den in (1, 7, -12):
            poly = Polynomial._from_ints(f, den)
            got, want = poly.shift(F(p, q)), ref_shift(poly, F(p, q))
            assert (got.nums, got.den) == (want.nums, want.den), (f, den, p, q)


# -- the remainder kernel against the full-lead reference -----------------

def _rand_zpoly(rng, degree, mag):
    """Coefficients in [-mag, mag], a nonzero lead of either sign."""
    return [rng.randint(-mag, mag) for _ in range(degree)] + \
        [rng.choice((-1, 1)) * rng.randint(1, mag)]


def _kernel_pair(t):
    """(a, b) of degrees 0-12 with coefficients up to 10**40, by kind:
    generic, constant b, b led by +-1 (its lead divides every remainder
    lead), a scaled by b's lead, a prime lead of b (gcd 1 with most
    remainder leads), a shared factor (squared in a), and b = a' with a
    content in a."""
    rng = derive_rng(7, "remainder-kernel", t)
    kind = t % 7
    mag = 10 ** rng.choice((1, 1, 3, 3, 12, 40))
    a = _rand_zpoly(rng, rng.randint(0, rng.choice((3, 6, 12))), mag)
    b = _rand_zpoly(rng, rng.randint(0, rng.choice((3, 6, 12))), mag)
    if kind == 1:
        b = b[-1:]
    elif kind == 2:
        b[-1] = rng.choice((-1, 1))
    elif kind == 3:
        a = [b[-1] * c for c in a]
    elif kind == 4:
        b[-1] = rng.choice((-1, 1)) * rng.choice((7, 13, 101, 10**9 + 7))
    elif kind == 5:
        h = _rand_zpoly(rng, rng.randint(1, 3), rng.choice((3, 10**6)))
        a = ip.mul(ip.mul(h, h), a[:rng.randint(1, 6)] + [a[-1]])
        b = ip.mul(h, b[:rng.randint(1, 8)] + [b[-1]])
    elif kind == 6:
        a = [rng.randint(2, 10**6) * c for c in a]
        b = ip.deriv(a)
    return a, b


def test_remainder_kernel_matches_full_lead_reference():
    """remainder_sequence, gcd, content and primitive on 30,100 seeded
    pairs, sturm_chain on the pairs (a, a') and yun on the a with a
    squared factor, against the full-lead reference kernel of
    test_real_roots, list for list.  Besides the kinds of (a, b), the
    kinds of the steps of each sequence are counted, so that both paths
    of _sturm_next are covered: a unit degree drop (the one-pass
    pseudo-remainder) with a negative lead of b, a unit drop whose
    remainder is 0, and, for the lead-by-lead loop, equal degrees and a
    drop of two or more."""
    seen = {"b constant": 0, "b lead negative": 0, "b lead +-1": 0,
            "b lead divides a's": 0, "leads coprime": 0,
            "shared factor": 0, "content > 1": 0, "degree 12": 0,
            "coefficient > 10**39": 0, "b zero": 0}
    steps = {"unit drop, lb < 0": 0, "unit drop, b divides a": 0,
             "equal degrees": 0, "drop >= 2": 0}
    for t in range(30100):
        a, b = _kernel_pair(t)
        for f in (a, b):
            assert ip.content(f) == ref_content(f), f
            assert ip.primitive(f) == ref_primitive(f), f
        ref = ref_remainder_sequence(a, b)
        assert ip.remainder_sequence(a, b) == ref, (a, b)
        g = ip.gcd(a, b)
        if len(a) >= len(b):
            # ref_gcd(a, b): the last element, made positive
            last = ref[-1]
            assert g == ([-c for c in last] if last[-1] < 0 else last), (a, b)
        else:
            assert g == ref_gcd(a, b), (a, b)
        if t % 7 == 6:
            # b = a', so ref is test_real_roots.ref_sturm_chain(a)
            assert ip.sturm_chain(a) == ref, a
        elif t % 7 == 5:
            assert ip.yun(a) == ref_yun(a), a
        for i in range(1, len(ref)):
            drop = len(ref[i - 1]) - len(ref[i])
            if drop == 1 and len(ref[i]) > 1:
                steps["unit drop, lb < 0"] += ref[i][-1] < 0
                steps["unit drop, b divides a"] += i == len(ref) - 1
            steps["equal degrees"] += drop == 0
            steps["drop >= 2"] += drop >= 2
        if not b:
            seen["b zero"] += 1
            continue
        lb = b[-1]
        seen["b constant"] += len(b) == 1
        seen["b lead negative"] += lb < 0
        seen["b lead +-1"] += abs(lb) == 1 and len(b) > 1
        seen["b lead divides a's"] += a[-1] % lb == 0 and abs(lb) > 1
        seen["leads coprime"] += math.gcd(a[-1], lb) == 1 and abs(lb) > 1
        seen["shared factor"] += len(g) > 1
        seen["content > 1"] += ip.content(a) > 1
        seen["degree 12"] += len(a) == 13 or len(b) == 13
        seen["coefficient > 10**39"] += max(map(abs, a + b)) > 10**39
    assert seen.pop("b zero") >= 100, seen
    assert min(seen.values()) >= 1000, seen
    assert min(steps.values()) >= 100, steps
