"""Real-root questions against Sturm counts of the squarefree part.

roots.root_data, the cached isolation, answers every real-root question:
is_hyperbolic, count_real_roots, nonneg_on_reals and negativity_point.
The reference below is the earlier, independent procedure: a Sturm
chain of the squarefree part counts distinct roots, and w >= 0 is
decided by counting the real roots of the odd-multiplicity part.  Other
test modules import these references as their Sturm-count oracle.
"""

from fractions import Fraction as F

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.fixtures import derive_rng
from meshpoly.interlace import negativity_point, nonneg_on_reals
from meshpoly.poly import Polynomial


# -- the Sturm-count reference ------------------------------------------

def ref_squarefree_part(f):
    f = ip.primitive(list(f))
    if len(f) <= 1:
        return f
    g = ip.gcd(f, ip.deriv(f))
    if len(g) == 1:
        return f
    return ip.primitive(ip.divexact(f, g))


def ref_variations_at(chain, x, direction=0):
    """Sign variations of the chain at rational x, or at +/-infinity
    (direction +1/-1) when x is None, from one sign per element."""
    if x is None:
        signs = [ip.sign_at_inf(g, direction) for g in chain]
    else:
        signs = [ip.sign_at(g, x) for g in chain]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_count_distinct_in(chain, lo, hi):
    """Distinct real roots in (lo, hi]; None means infinity."""
    return ref_variations_at(chain, lo, -1) - ref_variations_at(chain, hi, +1)


def ref_root_counter(p):
    """count(lo, hi): distinct real roots of p in (lo, hi], from one Sturm
    chain of the squarefree part."""
    sq = ref_squarefree_part(p.nums)
    chain = ip.sturm_chain(sq)

    def count(lo=None, hi=None):
        if len(sq) <= 1 or (lo is not None and hi is not None and lo >= hi):
            return 0
        return ref_count_distinct_in(chain, lo, hi)
    return count


def ref_is_hyperbolic(p):
    if p.degree <= 0:
        return True
    sq = ref_squarefree_part(p.nums)
    return ref_count_distinct_in(ip.sturm_chain(sq), None, None) == len(sq) - 1


def ref_odd_multiplicity_part(f):
    out = [1]
    for fac, mult in ip.yun(f):
        if mult % 2 == 1:
            out = ip.mul(out, fac)
    return out


def ref_nonneg_on_reals(w):
    if w.is_zero:
        return True
    if w.leading_coefficient < 0 or int(w.degree) % 2 == 1:
        return False
    if w.degree == 0:
        return True
    f = ip.primitive(w.nums)
    chain = ip.sturm_chain(f)
    if ref_count_distinct_in(chain, None, None) == 0:
        return True
    if len(chain[-1]) == 1:
        # squarefree: every real root is simple, hence of odd multiplicity
        return False
    odd = ref_odd_multiplicity_part(f)
    if len(odd) <= 1:
        return True
    return ref_count_distinct_in(ip.sturm_chain(odd), None, None) == 0


def ref_negativity_point(w):
    """The probe the earlier negativity_point returned: midpoints between
    the probed isolating intervals of the squarefree part."""
    if ref_nonneg_on_reals(w):
        return None
    f = ip.primitive(w.nums)
    bound = ip.cauchy_bound(f)
    isos = ip.isolate(ref_squarefree_part(f))
    for n in isos:
        n.try_rational()
    probes = ([-bound] + [(a.hi + b.lo) / 2 for a, b in zip(isos, isos[1:])]
              + [bound])
    for x in probes:
        if ip.sign_at(f, x) < 0:
            return x
    raise AssertionError("negative value exists but was not located")


# -- the seeded corpus ---------------------------------------------------

GRID = sorted({F(k, d) for d in (1, 2, 3) for k in range(-6, 7)})
BIG = 10**31


def _linear_power(r, m):
    out = [1]
    for _ in range(m):
        out = ip.mul(out, [-r.numerator, r.denominator])
    return out


def _extra_factor(rng, big):
    """A random linear or quadratic factor, some with no real root; big
    gives coefficients above 10**30."""
    c = BIG if big else 9
    if rng.random() < 0.5:
        return [rng.randint(-c, c), rng.randint(1, c)]
    return [rng.randint(-c, c), rng.randint(-c, c), rng.randint(1, c)]


def _corpus(n=6000):
    """(polynomial, its rational roots) pairs.  Every third one is a
    positive multiple of a square times at most one factor, so that
    nonneg_on_reals reaches its multiplicity test on both verdicts."""
    out = [
        (Polynomial([3]), []), (Polynomial([-2]), []),
        (Polynomial([1, 0, 1]), []),                      # no real root
        (Polynomial(_linear_power(F(0), 2)), [F(0)]),
        # < 0 only between 2**(1/3) and 9/7; isolation leaves 9/7 exact at
        # the end of 2**(1/3)'s interval, so their plain midpoint is 9/7
        (Polynomial(ip.mul([-9, 7], ip.mul([-2, 0, 0, 1], ip.mul(
            [-2, 0, 0, 1], [-2, 0, 0, 1])))), [F(9, 7)]),
    ]
    for t in range(n - len(out)):
        rng = derive_rng(7, "real-roots", t)
        big = rng.random() < 0.1
        lead = rng.randint(10**30, BIG) if big else rng.randint(1, 5)
        square = t % 3 == 0
        if not square:
            lead *= rng.choice((-1, 1))
        f = [lead]
        rts = sorted({rng.choice(GRID) for _ in range(rng.randint(0, 3))})
        for r in rts:
            m = rng.choice((1, 1, 1, 2)) if square else rng.choice((1, 1, 2, 3))
            f = ip.mul(f, _linear_power(r, 2 * m if square else m))
        for _ in range(rng.randint(big, 2 - square)):
            g = _extra_factor(rng, big)
            f = ip.mul(f, ip.mul(g, g) if square or rng.random() < 0.3 else g)
        if square and rng.random() < 0.5:
            f = ip.mul(f, _extra_factor(rng, big))
        out.append((Polynomial(f), rts))
    return out


def _intervals(rng, rts):
    """Five (lo, hi) pairs, None for infinity; ends are often roots."""
    pts = rts + [rng.choice(GRID) for _ in range(2)]
    a, b = sorted(rng.sample(pts, 2))
    c, d = rng.choice(pts), rng.choice(pts)
    return [(None, None), (None, a), (a, None), (a, b), (c, d)]


def test_root_questions_match_sturm_reference():
    seen = {"hyperbolic": 0, "not hyperbolic": 0, "nonneg with roots": 0,
            "odd root": 0, "repeated root": 0, "end is root": 0,
            "not squarefree, negative": 0}
    corpus = _corpus()
    assert len(corpus) >= 6000
    assert any(max(map(abs, ip.primitive(p.nums))) > 10**30 for p, _ in corpus)
    assert any(p.leading_coefficient < 0 for p, _ in corpus)
    for t, (p, rts) in enumerate(corpus):
        count = ref_root_counter(p)
        hyp = ref_is_hyperbolic(p)
        assert roots.is_hyperbolic(p) == hyp, p
        seen["hyperbolic" if hyp else "not hyperbolic"] += 1
        rng = derive_rng(7, "real-roots-intervals", t)
        for lo, hi in _intervals(rng, rts):
            assert roots.count_real_roots(p, lo, hi) == count(lo, hi), (p, lo, hi)
            seen["end is root"] += lo in rts or hi in rts
        f = ip.primitive(p.nums)
        squarefree = ref_squarefree_part(f) == f
        seen["repeated root"] += not squarefree and count() > 0
        nonneg = ref_nonneg_on_reals(p)
        assert nonneg_on_reals(p) == nonneg, p
        if p.leading_coefficient > 0 and int(p.degree) % 2 == 0 and rts:
            seen["nonneg with roots" if nonneg else "odd root"] += 1
        x = negativity_point(p)
        assert (x is not None and ip.sign_at(f, x) < 0) == (not nonneg), p
        if squarefree:
            assert x == ref_negativity_point(p), p
        elif not nonneg:
            seen["not squarefree, negative"] += 1
    assert min(seen.values()) >= 300, seen
