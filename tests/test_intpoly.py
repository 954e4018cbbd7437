"""Integer-coefficient kernel: Sturm chains, isolation, interval helpers."""

from fractions import Fraction as F

import pytest

from meshpoly import intpoly as ip
from meshpoly.fixtures import derive_rng
from meshpoly.poly import Polynomial


def test_from_fractions_clears_denominators():
    assert ip.from_fractions([F(-2), F(0), F(1)]) == [-2, 0, 1]
    # primitive part only: x + 1/2 scales to 2x + 1
    assert ip.from_fractions([F(1, 2), F(1)]) == [1, 2]


def test_eval_and_degree():
    f = [-2, 0, 1]  # x^2 - 2, ascending
    assert ip.degree(f) == 2
    assert ip.eval_at(f, F(2)) == 2
    assert ip.eval_at(f, F(0)) == -2
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
    assert ip.variations_at(ch, None, -1) - ip.variations_at(ch, None, 1) == 2
    assert ip.count_distinct_in(ch, None, None) == 2
    assert ip.count_distinct_in(ch, F(0), None) == 1
    # half-open (lo, hi]: root at hi counts, root at lo does not
    g = [0, -1, 1]  # x(x - 1)
    chg = ip.sturm_chain(g)
    assert ip.count_distinct_in(chg, F(0), F(1)) == 1
    assert ip.count_distinct_in(chg, F(-1), F(1)) == 2


def test_squarefree_and_yun():
    f = [-2, 0, 1]
    f2 = ip.mul(f, f)
    assert ip.squarefree_part(f2) == f
    assert ip.yun(f2) == [(f, 2)]
    g = ip.mul([0, 1], ip.mul([0, 1], [-1, 1]))  # x^2 (x - 1)
    assert ip.yun(g) == [([-1, 1], 1), ([0, 1], 2)]


def test_isolate_irrational_pair():
    rts = ip.isolate([-2, 0, 1])
    assert len(rts) == 2
    lo_root, hi_root = rts
    assert lo_root.hi < hi_root.lo  # disjoint, ordered
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
    assert r.lo == r.hi == 1
    assert r.exact


def test_simplest_in_prefers_small_denominator():
    assert ip.simplest_in(F(-1, 3), F(1, 7)) == 0
    assert ip.simplest_in(F(5, 3), F(9, 5)) == F(5, 3)
    assert ip.simplest_in(F(13, 10), F(29, 20)) == F(4, 3)


def test_gcd_and_divexact():
    f = ip.mul([-1, 1], [1, 1])
    assert ip.gcd(f, [-1, 1]) == [-1, 1]
    assert ip.divexact(f, [-1, 1]) == [1, 1]
    assert ip.content([2, 4, 6]) == 2
    assert ip.primitive([2, 4, 6]) == [1, 2, 3]


# -- differential tests of the isolation kernel --------------------------

def _reference_variations(chain, x):
    signs = [s for s in (ip.sign_at(g, x) for g in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_isolate(f, probe_rationals, stats=None):
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
                out.append(ip.IsolatedRoot(f, hi, hi))
            else:
                out.append(ip.IsolatedRoot(f, lo, hi, slo))
            return
        mid = (lo + hi) / 2
        while ip.sign_at(f, mid) == 0:
            if stats is not None:
                stats.setdefault("moved", []).append(mid)
            mid = (mid + hi) / 2
        nl = _reference_variations(chain, lo) - _reference_variations(chain, mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    split(-bound, bound, _reference_variations(chain, -bound)
          - _reference_variations(chain, bound))
    if probe_rationals:
        for node in out:
            node.try_rational()
    return out


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
    return [ip.squarefree_part(f) for f in polys]


@pytest.mark.parametrize("probe", [False, True])
def test_isolate_matches_reference_bisection(probe):
    stats: dict = {}
    corpus = _isolation_corpus()
    for f in corpus:
        assert _key(ip.isolate(f, probe)) == \
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
        for node in ip.isolate(f, probe_rationals=False):
            assert node.lo < node.hi
            assert ip.sign_at(f, node.lo) == node.slo != 0
            assert ip.sign_at(f, node.hi) == -node.slo
        exact_after_probe += sum(n.exact is not None
                                 for n in ip.isolate(f, probe_rationals=True))
    assert exact_after_probe > 0


def test_variations_at_matches_signs():
    for f in _isolation_corpus()[:40]:
        chain = ip.sturm_chain(f)
        for x in (F(0), F(1, 3), F(-5, 2), F(7), ip.cauchy_bound(f)):
            assert ip.variations_at(chain, x) == _reference_variations(chain, x)


@pytest.mark.parametrize("alpha", [F(0), F(1), F(-3), F(1, 2), F(-7, 3),
                                   F(22, 7)])
def test_translate_matches_polynomial_shift(alpha):
    for t in range(40):
        rng = derive_rng(7, "translate", t)
        big = 10 ** rng.choice((1, 4, 20))
        f = ip.trim([rng.randint(-big, big) for _ in range(rng.randint(1, 9))])
        expected = ip.from_fractions(Polynomial(f).shift(alpha).coeffs)
        assert ip.translate(f, alpha) == expected, (f, alpha)
