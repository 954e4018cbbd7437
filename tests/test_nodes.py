"""Differential tests of the root-node layer against Fraction endpoints.

IsolatedRoot keeps its ends as integer numerators over one denominator,
and the node helpers in roots compare them by integer cross products.
The reference below is the earlier form of the same algorithms, with
Fraction ends and Fraction comparisons.  Both must leave every node with
the same (lo, hi, slo) after every step, and give the same verdicts.

int_common_root and int_precedes are the integer forms of the node
comparisons that roots once used to merge two root lists (proper
position) and to test adjacent gaps (the mesh): proper position and the
mesh are now decided by counts, and the tests keep these two as part of
their references (ref_mesh_at_least here, the merge in test_interlace).
Where two nodes hold distinct roots, both separate them with
ref_separate, which takes Fraction and integer nodes alike.

root_data isolates once, on the square-free part of the polynomial;
ref_root_data_by_factor keeps the path it replaced, one isolation per
Yun factor and a separation across factors, as the reference for the
roots and multiplicities of the nodes and for the displayed roots.
"""

from fractions import Fraction as F

import pytest

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.fixtures import derive_rng, gen_rooted
from meshpoly.interlace import ClassSpec
from meshpoly.poly import Polynomial
from test_real_roots import (ref_count_distinct_in, ref_squarefree_part,
                             ref_yun, translate)

ALPHAS = (F(1, 2), F(1), F(3, 2), F(2))
INF = roots.INF


# -- the Fraction reference ---------------------------------------------

def ref_simplest_in(lo, hi):
    """Smallest-denominator rational in the closed interval [lo, hi], by
    continued fractions on Fractions: the reference for intpoly.simplest_in."""
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return F(0)
    if hi < 0:
        return -ref_simplest_in(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if fl + 1 <= hi:
        # an integer lies inside
        return F(fl if fl >= lo else fl + 1)
    if lo == fl:
        return lo
    frac = ref_simplest_in(1 / (hi - fl), 1 / (lo - fl))
    return fl + 1 / frac


class RefRoot:
    """IsolatedRoot with Fraction ends."""

    def __init__(self, poly, lo, hi, slo):
        self.poly, self.lo, self.hi, self.slo = poly, lo, hi, slo
        self.multiplicity = 1

    @property
    def exact(self):
        return self.lo if self.lo == self.hi else None

    def _take(self, point):
        s = ip.sign_at(self.poly, point)
        if s == 0:
            self.lo = self.hi = point
            self.slo = 0
            return True
        if s == self.slo:
            self.lo = point
        else:
            self.hi = point
        return False

    def refine(self):
        if self.lo != self.hi:
            self._take((self.lo + self.hi) / 2)

    def refine_below(self, width):
        while self.lo != self.hi and self.hi - self.lo > width:
            self.refine()

    def exclude(self, point):
        if self.lo != self.hi and self.lo < point < self.hi:
            self._take(point)

    def try_rational(self, max_probes=24, den_cap=1 << 16):
        if self.lo == self.hi:
            return self.lo
        cap = min(abs(self.poly[-1]), den_cap)
        for k in range(max_probes):
            if self.lo == self.hi:
                return self.lo
            if k % 2:
                c = (self.lo + self.hi) / 2
            else:
                c = ref_simplest_in(self.lo, self.hi)
                if c.denominator > cap:
                    return None
                if c == self.lo or c == self.hi:
                    c = (self.lo + self.hi) / 2
            if self._take(c):
                return self.lo
        return None


def _exclude(node, x):
    """node.exclude at the Fraction x, for a RefRoot or an IsolatedRoot."""
    if isinstance(node, RefRoot):
        node.exclude(x)
    else:
        node.exclude(x.numerator, x.denominator)


def ref_separate(a, b):
    """Narrow two nodes (both RefRoots or both IsolatedRoots) with
    distinct roots until the open intervals do not overlap and neither
    exact value lies inside the other's open interval."""
    while True:
        if a.exact is not None and b.exact is not None:
            if a.exact == b.exact:
                raise AssertionError("distinct roots expected")
            return
        if a.exact is not None:
            _exclude(b, a.exact)
            if not (b.lo < a.exact < b.hi):
                return
            continue
        if b.exact is not None:
            _exclude(a, b.exact)
            if not (a.lo < b.exact < a.hi):
                return
            continue
        if a.hi <= b.lo or b.hi <= a.lo:
            return
        if a.hi - a.lo >= b.hi - b.lo:
            a.refine()
        else:
            b.refine()


def ref_precedes(x, y):
    xe, ye = x.exact, y.exact
    if xe is not None and ye is not None:
        return xe < ye
    if x.hi <= y.lo:
        return True
    if y.hi <= x.lo:
        return False
    if xe is not None:
        return xe <= y.lo
    if ye is not None:
        return ye >= x.hi
    raise AssertionError("nodes not separated")


def ref_common_root(a, b, gcd_cache):
    while True:
        ea, eb = a.exact, b.exact
        if ea is not None and eb is not None:
            return ea == eb
        if ea is not None:
            if not (b.lo < ea < b.hi):
                return False
            if ip.sign_at(b.poly, ea) == 0:
                b.lo = b.hi = ea
                b.slo = 0
                return True
            b.exclude(ea)
            return False
        if eb is not None:
            if not (a.lo < eb < a.hi):
                return False
            if ip.sign_at(a.poly, eb) == 0:
                a.lo = a.hi = eb
                a.slo = 0
                return True
            a.exclude(eb)
            return False
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo >= hi:
            return False
        key = (id(a.poly), id(b.poly))
        if key not in gcd_cache:
            gcd_cache[key] = ip.gcd(a.poly, b.poly)
        g = gcd_cache[key]
        if len(g) <= 1:
            ref_separate(a, b)
            return False
        gchain_key = ("chain", key)
        if gchain_key not in gcd_cache:
            gcd_cache[gchain_key] = ip.sturm_chain(g)
        if ref_count_distinct_in(gcd_cache[gchain_key], lo, hi) == 1:
            return True
        ref_separate(a, b)
        return False


# -- the integer node comparisons, once in roots ------------------------

def int_precedes(x, y):
    """Whether x's root lies left of y's; the roots are distinct and the
    nodes separated, as ref_separate and int_common_root leave them."""
    xa, xb, xd = x.a, x.b, x.den
    ya, yb, yd = y.a, y.b, y.den
    if xa == xb and ya == yb:
        return xa * yd < ya * xd
    if xb * yd <= ya * xd:
        return True
    if yb * xd <= xa * yd:
        return False
    if xa == xb:
        return xa * yd <= ya * xd
    if ya == yb:
        return ya * xd >= xb * yd
    raise AssertionError("nodes not separated")


def int_common_root(x, y, gcd_cache):
    """Certify whether two IsolatedRoot nodes hold the same real number.

    Afterwards, unequal nodes are fully separated so that endpoint
    comparison (int_precedes) decides their order.
    """
    xa, xb, xd = x.a, x.b, x.den
    ya, yb, yd = y.a, y.b, y.den
    if xa == xb:
        if ya == yb:
            return xa * yd == ya * xd
        # an exact value inside y's open interval is y's root or splits it
        y.exclude(xa, xd)
        return y.a == y.b
    if ya == yb:
        x.exclude(ya, yd)
        return x.a == x.b
    # the overlap (lo, hi) of the two open intervals, as (num, den) pairs
    lo = (xa, xd) if xa * yd >= ya * xd else (ya, yd)
    hi = (xb, xd) if xb * yd <= yb * xd else (yb, yd)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return False
    key = (id(x.poly), id(y.poly))
    if key not in gcd_cache:
        gcd_cache[key] = ip.gcd(x.poly, y.poly)
    g = gcd_cache[key]
    if len(g) <= 1:
        ref_separate(x, y)
        return False
    gchain_key = ("chain", key)
    if gchain_key not in gcd_cache:
        gcd_cache[gchain_key] = ip.sturm_chain(g)
    chain = gcd_cache[gchain_key]
    # interval endpoints are never roots of the factors, hence not of g,
    # so the variation difference counts g's roots in the open overlap
    if ip._chain_at(chain, *lo)[1] - ip._chain_at(chain, *hi)[1] == 1:
        return True
    # no shared root inside the overlap: the roots differ
    ref_separate(x, y)
    return False


def ref_nonneg(nodes):
    for n in nodes:
        if n.exact is not None:
            if n.exact < 0:
                return False
            continue
        n.exclude(F(0))
        if n.exact is not None:
            if n.exact < 0:
                return False
        elif n.hi <= 0:
            return False
    return True


def ref_mesh_numeric(f, tol):
    """mesh_numeric of primitive f on probed Fraction nodes, as (lower,
    upper, exact), or None when f is not real-rooted."""
    deg = len(f) - 1
    if deg <= 1:
        return (INF, INF, INF)
    nodes = ref_root_data(f, True)
    if sum(n.multiplicity for n in nodes) != deg:
        return None
    if any(n.multiplicity > 1 for n in nodes):
        return (F(0), F(0), F(0))
    if len(nodes) == 1:
        return (INF, INF, INF)
    if all(n.exact is not None for n in nodes):
        vals = sorted(n.exact for n in nodes)
        m = min(b - a for a, b in zip(vals, vals[1:]))
        return (m, m, m)
    while True:
        lo_gap = min(max(F(0), b.lo - a.hi) for a, b in zip(nodes, nodes[1:]))
        hi_gap = min(b.hi - a.lo for a, b in zip(nodes, nodes[1:]))
        if hi_gap - lo_gap <= tol:
            return (lo_gap, hi_gap, None)
        for n in nodes:
            if n.exact is None:
                n.refine_below(max(tol / 4, (n.hi - n.lo) / 2))


def ref_translate(nodes, alpha):
    out = []
    shifted = {}
    for n in nodes:
        if id(n.poly) not in shifted:
            shifted[id(n.poly)] = translate(n.poly, alpha)
        m = RefRoot(shifted[id(n.poly)], n.lo + alpha, n.hi + alpha, n.slo)
        m.multiplicity = n.multiplicity
        out.append(m)
    return out


def translate_nodes(nodes, alpha):
    """Integer nodes for the roots r + alpha, that is for p(x - alpha),
    built from p's nodes: each factor is shifted once, and for alpha =
    p/q the ends a/den, b/den move to (a q + p den)/(den q),
    (b q + p den)/(den q).  The gap test's helper, once in roots."""
    p, q = alpha.numerator, alpha.denominator
    out = []
    shifted_factors = {}
    for n in nodes:
        fid = id(n.poly)
        if fid not in shifted_factors:
            shifted_factors[fid] = translate(n.poly, alpha)
        move = p * n.den
        out.append(ip.IsolatedRoot.from_ints(
            shifted_factors[fid], n.a * q + move, n.b * q + move,
            n.den * q, n.slo, n.multiplicity))
    return out


def ref_mesh_at_least(nodes, alpha):
    """The adjacent-gap decision of mesh(p) >= alpha, the procedure that
    roots.mesh_at_least once ran, for real-rooted nonzero p given by its
    root_data nodes: each root is placed against the translate by alpha
    of the root before it, equality certified by a gcd root count
    (int_common_root), order by separated endpoints (int_precedes).
    The nodes may have been narrowed by an earlier call; they are
    narrowed further in place."""
    alpha = F(alpha)
    if alpha <= 0:
        return True
    if any(n.multiplicity > 1 for n in nodes):
        return False
    gcd_cache = {}
    for shifted, nxt in zip(translate_nodes(nodes[:-1], alpha), nodes[1:]):
        if (not int_common_root(nxt, shifted, gcd_cache)
                and int_precedes(nxt, shifted)):
            return False
    return True


def ref_root_data(f, probe):
    """root_data with Fraction nodes: one isolation of the square-free
    part s of the primitive f (the reference kernel's, with a positive
    lead), each node's multiplicity the index of the reference Yun
    factor that changes sign across it, then, with probe, the reference
    probing of every node, as a caller that reads exact values does."""
    s = ref_squarefree_part(f)
    if len(s) <= 1:
        return []
    if s[-1] < 0:
        s = ip.neg(s)
    factors = ref_yun(f)
    nodes = []
    for iso in ip.isolate(s):
        node = RefRoot(iso.poly, iso.lo, iso.hi, iso.slo)
        node.multiplicity, = [m for g, m in factors if ip.sign_at(g, node.lo)
                              != ip.sign_at(g, node.hi)]
        nodes.append(node)
    return probed(nodes, probe)


def ref_root_data_by_factor(f, probe_first=False):
    """root_data as it was before it isolated the square-free part, with
    Fraction nodes: one isolation per Yun factor, separation across
    factors and the sort.  probe_first probes each node right after
    isolation, before separation: the order of the probing path that
    root_data once had."""
    groups = []
    for factor, mult in ip.yun(f):
        group = []
        for iso in ip.isolate(factor):
            node = RefRoot(iso.poly, iso.lo, iso.hi, iso.slo)
            node.multiplicity = mult
            if probe_first:
                node.try_rational()
            group.append(node)
        groups.append(group)
    for k, group in enumerate(groups):
        later = [b for other in groups[k + 1:] for b in other]
        for a in group:
            for b in later:
                ref_separate(a, b)
    nodes = [n for group in groups for n in group]
    nodes.sort(key=lambda n: (n.lo, n.hi))
    return nodes


def probed(nodes, probe):
    """The nodes, each probed for an exact rational root when probe."""
    if probe:
        for n in nodes:
            n.try_rational()
    return nodes


# -- corpus and comparison ----------------------------------------------

def _linear(r):
    return [-r.numerator, r.denominator]


def _node_corpus():
    """Integer polynomials: rational roots with repeats and roots at 0,
    sqrt(2) and sqrt(3) pairs (also repeated), gaps equal to each alpha,
    coefficients up to 10**40, and every fourth random one also negated
    (a negative lead, and with a repeated root a Sturm chain that ends
    in a negative lead)."""
    out = [
        ip.mul([0, 1], [-2, 0, 1]),                        # 0, +-sqrt 2
        ip.mul(ip.mul([0, 1], [0, 1]), [-1, 1]),           # 0, 0, 1
        ip.mul([-2, 0, 1], [-3, 0, 1]),                    # +-sqrt 2, +-sqrt 3
        ip.mul([-2, 0, 1], [-2, 0, 1]),                    # repeated pair
        ip.mul([-2, 0, 1], translate([-2, 0, 1], F(1))),  # gap 1 exactly
        ip.mul([-(10**20 + 1), 10**20], [-(10**20 - 1), 10**20]),
        ip.mul([10**40 - 7, -(10**13), 3 * 10**26], [-5, 2]),
    ]
    for t in range(120):
        rng = derive_rng(7, "nodes", t)
        f = [rng.choice((1, 2, 3))]
        roots_ = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))
                  for _ in range(rng.randint(1, 5))]
        if t % 3 == 0:
            roots_.append(F(0))
        if t % 4 == 0:
            # a gap equal to one of the alphas
            roots_.append(roots_[0] + ALPHAS[t // 4 % 4])
        for r in roots_:
            f = ip.mul(f, _linear(r))
            if rng.random() < 0.25:
                f = ip.mul(f, _linear(r))          # repeated Yun factor
        for _ in range(rng.randint(0, 2)):
            c = F(rng.randint(-4, 4), rng.choice((1, 2)))
            k = rng.choice((2, 3))
            quad = ip.primitive(Polynomial([c * c - k, -2 * c, F(1)]).nums)
            f = ip.mul(f, quad)
            if rng.random() < 0.2:
                f = ip.mul(f, quad)
        if t % 10 == 9:
            big = 10 ** rng.choice((20, 30, 40))
            f = ip.mul(f, [rng.randint(-big, big), rng.randint(1, big)])
        out.append(f)
    return out + [ip.neg(f) for f in out[7::4]]


def _state(nodes):
    """(lo, hi, slo, multiplicity) of IsolatedRoots or RefRoots."""
    return [(n.lo, n.hi, n.slo, n.multiplicity) for n in nodes]


@pytest.mark.parametrize("probe", [False, True])
def test_root_data_and_gap_pass_match_reference(probe):
    """root_data, then the adjacent-gap pass of ref_mesh_at_least (run
    over every pair, without stopping at the first failure), for each
    alpha."""
    seen = {"exact_next": 0, "exact_moved": 0, "equal": 0,
            "shared_factor": 0, "big": 0}
    for f in _node_corpus():
        new = probed(roots.root_data(Polynomial(f)), probe)
        ref = ref_root_data(ip.primitive(f), probe)
        assert _state(new) == _state(ref), f
        seen["big"] += max(map(abs, f)) > 10**35
        for alpha in ALPHAS:
            new_moved = translate_nodes(new[:-1], alpha)
            ref_moved = ref_translate(ref[:-1], alpha)
            assert _state(new_moved) == _state(ref_moved)
            new_cache: dict = {}
            ref_cache: dict = {}
            for (nm, nn), (rm, rn) in zip(zip(new_moved, new[1:]),
                                          zip(ref_moved, ref[1:])):
                seen["exact_next"] += nn.exact is not None
                seen["exact_moved"] += nm.exact is not None
                same = int_common_root(nn, nm, new_cache)
                assert same == ref_common_root(rn, rm, ref_cache)
                assert _state([nn, nm]) == _state([rn, rm])
                if same:
                    seen["equal"] += 1
                else:
                    assert int_precedes(nn, nm) == ref_precedes(rn, rm)
                    assert int_precedes(nm, nn) == ref_precedes(rm, rn)
            seen["shared_factor"] += any(len(g) > 1 for k, g in
                                         new_cache.items() if k[0] != "chain")
        assert _state(new) == _state(ref)
    assert all(seen.values()), seen


def test_nonneg_from_nodes_matches_reference():
    hits_at_zero = 0
    for f in _node_corpus():
        for shift in (F(0), F(-1, 2), F(1)):
            g = translate(f, shift)
            for probe in (False, True):
                new = probed(roots.root_data(Polynomial(g)), probe)
                ref = ref_root_data(ip.primitive(g), probe)
                assert all(n.side(0, 1) >= 0 for n in new) == ref_nonneg(ref)
                assert _state(new) == _state(ref)
                hits_at_zero += any(n.exact == 0 for n in new)
    assert hits_at_zero > 0


def ref_side(node, x):
    """Sign of root - x, after the reference exclude(x)."""
    node.exclude(x)
    if node.exact is not None:
        return (node.exact > x) - (node.exact < x)
    assert x <= node.lo or x >= node.hi
    return 1 if x <= node.lo else -1


def test_refine_exclude_and_refine_below_match_reference():
    """Random sequences of the narrowing operations on single nodes,
    including exclusion (exclude, or side, which also reports the root's
    side of the point) at the node's own rational root and at points
    outside the interval."""
    rounds = 0
    for t, f in enumerate(_node_corpus()):
        rng = derive_rng(7, "node-ops", t)
        for factor, _ in ip.yun(f):
            for iso in ip.isolate(factor):
                ref = RefRoot(iso.poly, iso.lo, iso.hi, iso.slo)
                for _ in range(12):
                    op = rng.randrange(4)
                    if op == 0:
                        iso.refine()
                        ref.refine()
                    elif op == 1:
                        w = F(rng.randint(1, 9), 2 ** rng.randint(0, 12))
                        iso.refine_below(w.numerator, w.denominator)
                        ref.refine_below(w)
                    else:
                        # a point inside, at a simple rational near the
                        # root (often the root itself), or just outside
                        lo, hi = ref.lo, ref.hi
                        if op == 2:
                            x = ref_simplest_in(lo, hi)
                        else:
                            x = lo + (hi - lo) * F(rng.randint(-2, 12), 10)
                        num, den = x.numerator, x.denominator
                        if rng.random() < 0.5:
                            num, den = 3 * num, 3 * den  # unreduced pair
                        if op == 2:
                            assert iso.side(num, den) == ref_side(ref, x)
                        else:
                            iso.exclude(num, den)
                            ref.exclude(x)
                    assert (iso.lo, iso.hi, iso.slo) == \
                        (ref.lo, ref.hi, ref.slo), (f, t)
                    assert iso.exact == ref.exact
                    rounds += 1
    assert rounds > 1000


def test_root_data_isolates_once_on_the_square_free_part(monkeypatch):
    """One isolate call per root_data call, on the square-free part s,
    also for polynomials with two or more Yun factors.  Every node is an
    open interval on s, and the nodes hold the roots of the per-factor
    path (ref_root_data_by_factor), in order and with its
    multiplicities: a reference node's exact root lies inside the node,
    or its factor changes sign across the overlap of the two intervals,
    whose ends are no roots of it."""
    isolated = []
    isolate = ip.isolate

    def counting(f, chain=None):
        isolated.append(f)
        return isolate(f, chain)

    corpus = [ip.primitive(f) for f in _node_corpus()]
    refs = [ref_root_data_by_factor(f) for f in corpus]
    monkeypatch.setattr(ip, "isolate", counting)
    seen = {"squarefree": 0, "two factors": 0, "three factors or more": 0}
    for f, ref in zip(corpus, refs):
        isolated.clear()
        nodes = roots.root_data(Polynomial(f))
        assert len(isolated) == 1, f
        factors = len(ip.yun(f))
        seen["squarefree" if factors == 1 else "two factors" if factors == 2
             else "three factors or more"] += 1
        s = ref_squarefree_part(f)
        s = ip.neg(s) if s[-1] < 0 else s
        assert all(n.poly == s and n.exact is None for n in nodes), f
        assert all(a.hi <= b.lo for a, b in zip(nodes, nodes[1:])), f
        assert [n.multiplicity for n in nodes] == \
            [n.multiplicity for n in ref], f
        for n, r in zip(nodes, ref):
            if r.exact is not None:
                assert n.lo < r.exact < n.hi, f
                continue
            lo, hi = max(n.lo, r.lo), min(n.hi, r.hi)
            assert lo < hi, f
            assert ip.sign_at(r.poly, lo) == -ip.sign_at(r.poly, hi) != 0, f
    assert min(seen.values()) >= 5, seen


def test_isolated_root_constructor_keeps_values():
    node = ip.IsolatedRoot.from_ints([-2, 0, 1], 5, 6, 4, -1)
    assert (node.lo, node.hi, node.slo) == (F(5, 4), F(3, 2), -1)
    assert node.multiplicity == 1 and node.exact is None
    exact = ip.IsolatedRoot.from_ints([-1, 2], 2, 2, 4, 0, 3)
    assert exact.exact == F(1, 2) and exact.multiplicity == 3


def test_mesh_numeric_matches_probing_before_separation():
    """mesh_numeric probes the nodes it gets from root_data, against
    the same on probed Fraction nodes.  It reads intervals only when
    every root is simple, where the square-free part is the polynomial
    itself, so its reports are also those of the old order: probe each
    Yun factor's nodes, then separate."""
    corpus = [ip.primitive(f) for f in _node_corpus()]
    specs = (ClassSpec.hyperbolic(), ClassSpec.hp_ge(1),
             ClassSpec.hp_plus_ge(F(1, 2)))
    for t in range(150):
        rng = derive_rng(7, "mesh-order", t)
        fx = gen_rooted(specs[t % 3], rng.randint(2, 8), rng)
        corpus.append(ip.primitive(fx.poly.nums))
    kinds = set()
    for f in corpus:
        for tol in (roots.DEFAULT_TOL, F(1, 10**3)):
            want = ref_mesh_numeric(f, tol)
            try:
                rep = roots.mesh_numeric(Polynomial(f), tol)
            except roots.NonHyperbolicInput:
                assert want is None, f
                continue
            got = (rep.mesh_lower, rep.mesh_upper, rep.exact_value)
            assert got == want, (f, tol)
            kinds.add("enclosed" if got[2] is None else
                      "repeated" if got[2] == 0 else
                      "infinite" if got[2] == INF else "exact")
    assert kinds == {"enclosed", "repeated", "infinite", "exact"}


def test_root_approximations_match_probing_before_separation():
    """root_approximations probes the nodes of the square-free part, as
    the Fraction reference does, and matches it float for float.  An
    earlier path isolated each Yun factor and probed before separating
    them (and then placed 0 against the roots of a real-rooted input).
    With one Yun factor of multiplicity 1 it isolated the same nodes and
    probing leaves 0 outside every open interval, so the floats are the
    same; otherwise each is within tol of that path's."""
    tol = roots.DEFAULT_TOL
    moved = 0
    for f in map(ip.primitive, _node_corpus()):
        got = roots.root_approximations(Polynomial(f), tol)
        new = ref_root_data(f, True)
        for n in new:
            n.refine_below(tol)
        assert got == [float((n.lo + n.hi) / 2) for n in new], f
        old = ref_root_data_by_factor(f, probe_first=True)
        if sum(n.multiplicity for n in old) == len(f) - 1:
            ref_nonneg(old)
        want = []
        for n in old:
            n.refine_below(tol)
            want.append(float((n.lo + n.hi) / 2))
        if [m for _, m in ip.yun(f)] == [1]:
            assert got == want, f
        else:
            assert len(got) == len(want), f
            assert all(abs(g - w) <= tol for g, w in zip(got, want)), f
            moved += got != want
    assert 0 < moved
