"""Real-root questions against three independent references.

The yes/no questions (is_hyperbolic, root_profile's flags,
count_real_roots, mesh_at_least and class_membership) go by Sturm
counts on the square-free part and by one Cauchy index for the mesh;
nonneg_on_reals is negativity_point finding no point, and that reads an
isolation of the square-free part (roots.root_data); its point is
checked by its sign only.  The references:

* the Sturm-count procedure below: a Sturm chain of the squarefree part
  counts distinct roots, and w >= 0 is decided by counting the real
  roots of the odd-multiplicity part.  It runs on its own remainder
  kernel (ref_sturm_next, which multiplies by the full lead of the
  divisor at every step, a Python gcd loop for the content, and a
  textbook Yun decomposition), not on intpoly's.  Other test modules
  import these references as their Sturm-count oracle;
* the places of the root_data nodes, and their multiplicities, which
  the nodes do not carry, from the reference Yun factors
  (ref_multiplicities);
* the adjacent-gap test on root_data nodes, test_nodes.ref_mesh_at_least,
  for the mesh.  Each test isolates a corpus polynomial once and reuses
  its nodes, which stay sound however far they are narrowed.

The 6,000-polynomial corpus and the mesh corpus are built once per
module (module-scoped fixtures) and shared by the tests here.
"""

import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.fixtures import derive_rng
from meshpoly.interlace import (ClassSpec, class_membership, negativity_point,
                                nonneg_on_reals)
from meshpoly.poly import Polynomial


# -- the reference remainder kernel --------------------------------------

def ref_content(f):
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def ref_primitive(f):
    f = ip.trim(list(f))
    if not f:
        return f
    g = ref_content(f)
    if g > 1:
        f = [c // g for c in f]
    return f


def ref_sturm_next(a, b):
    """Primitive integer polynomial positively proportional to -(a mod b),
    by pseudo-division that multiplies the whole remainder by the full
    lead of b at every step and tracks the sign that adds."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    sgn = 1
    while len(r) - 1 >= db and r:
        r = [lb * c for c in r]
        if lb < 0:
            sgn = -sgn
        q = r[-1] // lb
        off = len(r) - 1 - db
        for j in range(db + 1):
            r[off + j] -= q * b[j]
        ip.trim(r)
    if not r:
        return []
    return ref_primitive([-c if sgn > 0 else c for c in r])


def ref_remainder_sequence(a, b):
    """a, b, -(a mod b), ... as primitive integer polynomials, for a != 0."""
    seq = [ref_primitive(a)]
    b = ref_primitive(b)
    if b:
        seq.append(b)
        while True:
            nxt = ref_sturm_next(seq[-2], seq[-1])
            if not nxt:
                break
            seq.append(nxt)
    return seq


def translate(f, alpha):
    """The primitive integer polynomial whose roots are those of f moved
    right by alpha = p/q: the primitive part of q**n f(x - p/q), n = deg
    f (test_intpoly checks it against the Fraction Taylor shift)."""
    return ip.primitive(ip.taylor_shift(f, alpha.numerator,
                                        alpha.denominator))


def ref_sturm_chain(f):
    return ref_remainder_sequence(f, ip.deriv(f))


def ref_gcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a, b = ref_primitive(a), ref_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    g = ref_remainder_sequence(a, b)[-1] if a else a
    return [-c for c in g] if g and g[-1] < 0 else g


def ref_yun(f):
    """Yun's squarefree decomposition [(g_i, i)], f ~ prod g_i^i, from
    gcd(f, f'); factors primitive with positive lead, constants dropped."""
    f = ref_primitive(f)
    if len(f) <= 1:
        return []
    g = ref_gcd(f, ip.deriv(f))
    c = ip.divexact(f, g)
    d = ip.sub(ip.divexact(ip.deriv(f), g), ip.deriv(c))
    out = []
    i = 1
    while len(c) > 1:
        a = ref_gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = ip.divexact(c, a)
        d = ip.sub(ip.divexact(d, a), ip.deriv(c))
        i += 1
    return out


def ref_multiplicities(f, nodes):
    """The multiplicity in the nonzero f of each node's root: the index
    of the one reference Yun factor of f (ref_yun) that vanishes at the
    node's exact root, or changes sign across its open interval, whose
    ends are no roots of f.  IsolatedRoots carry no multiplicity; the
    tests read it from here."""
    factors = ref_yun(f)
    out = []
    for n in nodes:
        if n.exact is not None:
            m, = [m for g, m in factors if ip.sign_at(g, n.exact) == 0]
        else:
            m, = [m for g, m in factors
                  if ip.sign_at(g, n.lo) == -ip.sign_at(g, n.hi) != 0]
        out.append(m)
    return out


# -- the Sturm-count reference ------------------------------------------

def ref_squarefree_part(f):
    f = ref_primitive(f)
    if len(f) <= 1:
        return f
    g = ref_gcd(f, ip.deriv(f))
    if len(g) == 1:
        return f
    return ref_primitive(ip.divexact(f, g))


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
    chain = ref_sturm_chain(sq)

    def count(lo=None, hi=None):
        if len(sq) <= 1 or (lo is not None and hi is not None and lo >= hi):
            return 0
        return ref_count_distinct_in(chain, lo, hi)
    return count


def ref_is_hyperbolic(p):
    if p.degree <= 0:
        return True
    sq = ref_squarefree_part(p.nums)
    return ref_count_distinct_in(ref_sturm_chain(sq), None, None) == len(sq) - 1


def ref_odd_multiplicity_part(f):
    out = [1]
    for fac, mult in ref_yun(f):
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
    f = ref_primitive(w.nums)
    chain = ref_sturm_chain(f)
    if ref_count_distinct_in(chain, None, None) == 0:
        return True
    if len(chain[-1]) == 1:
        # squarefree: every real root is simple, hence of odd multiplicity
        return False
    odd = ref_odd_multiplicity_part(f)
    if len(odd) <= 1:
        return True
    return ref_count_distinct_in(ref_sturm_chain(odd), None, None) == 0


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


@pytest.fixture(scope="module")
def corpus():
    """(p, its rational roots, ref_root_counter(p), ref_is_hyperbolic(p))."""
    return [(p, rts, ref_root_counter(p), ref_is_hyperbolic(p))
            for p, rts in _corpus()]


def ref_profile_flags(nodes, mults, degree):
    """root_profile's flags as an earlier version read them from the
    root_data nodes of a nonzero polynomial of the given degree, and
    their multiplicities (ref_multiplicities): real-rooted when the
    multiplicities sum to the degree, all roots nonnegative when,
    besides, no root lies left of 0."""
    hyp = sum(mults) == degree
    return hyp, hyp and all(n.side(0, 1) >= 0 for n in nodes)


def _node_count(nodes, lo, hi):
    """Distinct real roots in (lo, hi], by placing root_data nodes."""
    return sum(1 for n in nodes
               if (lo is None or n.side(lo.numerator, lo.denominator) > 0)
               and (hi is None or n.side(hi.numerator, hi.denominator) <= 0))


def test_root_questions_match_sturm_reference(corpus, monkeypatch):
    """Against the Sturm-count reference, and against the multiplicities
    and places of the root_data nodes, which also give root_profile's
    flags (ref_profile_flags).

    Each call of the package builds the Sturm chains of its polynomial
    and of its square-free part anew (count_real_roots five times per
    polynomial here).  A chain is a pure function of its polynomial, so
    one build serves every call on it; no caller changes a chain it
    gets."""
    chain_of = functools.lru_cache(maxsize=4)(
        lambda f, build=ip.sturm_chain: build(list(f)))
    monkeypatch.setattr(ip, "sturm_chain", lambda f: chain_of(tuple(f)))
    seen = {"hyperbolic": 0, "not hyperbolic": 0, "nonneg with roots": 0,
            "odd root": 0, "repeated root": 0, "end is root": 0,
            "not squarefree, negative": 0}
    profiles = {"all roots nonneg": 0, "a negative root": 0, "root at 0": 0,
                "constant": 0}
    assert len(corpus) >= 6000
    assert any(max(map(abs, ip.primitive(p.nums))) > 10**30 for p, *_ in corpus)
    assert any(p.leading_coefficient < 0 for p, *_ in corpus)
    for t, (p, rts, count, hyp) in enumerate(corpus):
        f = ip.primitive(p.nums)
        nodes = roots.root_data(p) if p.degree else []
        mults = ref_multiplicities(f, nodes)
        assert roots.is_hyperbolic(p) == hyp == (sum(mults) == p.degree), p
        seen["hyperbolic" if hyp else "not hyperbolic"] += 1
        prof = roots.root_profile(p)
        flags = (prof.is_hyperbolic, prof.all_roots_nonnegative)
        assert flags == ref_profile_flags(nodes, mults, p.degree), p
        if hyp:
            profiles["all roots nonneg" if flags[1]
                     else "a negative root"] += 1
            profiles["root at 0"] += F(0) in rts
            profiles["constant"] += p.degree == 0
        rng = derive_rng(7, "real-roots-intervals", t)
        for lo, hi in _intervals(rng, rts):
            got = roots.count_real_roots(p, lo, hi)
            assert got == count(lo, hi), (p, lo, hi)
            if p.degree and (lo is None or hi is None or lo < hi):
                assert got == _node_count(nodes, lo, hi), (p, lo, hi)
            seen["end is root"] += lo in rts or hi in rts
        squarefree = ref_squarefree_part(f) == f
        seen["repeated root"] += not squarefree and count() > 0
        nonneg = ref_nonneg_on_reals(p)
        assert nonneg_on_reals(p) == nonneg == (
            p.leading_coefficient > 0 and int(p.degree) % 2 == 0
            and all(m % 2 == 0 for m in mults)), p
        if p.leading_coefficient > 0 and int(p.degree) % 2 == 0 and rts:
            seen["nonneg with roots" if nonneg else "odd root"] += 1
        x = negativity_point(p)
        assert (x is not None and ip.sign_at(f, x) < 0) == (not nonneg), p
        seen["not squarefree, negative"] += not squarefree and not nonneg
    assert min(seen.values()) >= 300, seen
    assert min(profiles.values()) >= 200, profiles


# -- mesh decisions against the adjacent-gap test --------------------------

MESH_ALPHAS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
SQRT2 = [-2, 0, 1]


def _mesh_corpus(n=1200):
    """Polynomials whose gaps sit on and near each alpha: degrees 2-10,
    gaps exactly alpha (also between the irrational roots of x^2 - 2 and
    of its translate), gap 0 (repeated roots), factors x^2 - 2 and
    x^2 + 1, negative leads, and degree <= 1."""
    out = [Polynomial([5]), Polynomial([F(-7, 2)]), Polynomial([3, -2]),
           Polynomial([0, F(1, 3)]),
           Polynomial(ip.mul(SQRT2, translate(SQRT2, F(3)))),
           Polynomial(ip.mul([1, 0, 1], [1, 0, 1]))]
    for t in range(n):
        rng = derive_rng(7, "mesh-corpus", t)
        alpha = MESH_ALPHAS[t % 5]
        deg = 2 + t % 9
        f = [rng.choice((-3, -1, 1, 2))]
        if t % 6 == 0 and deg >= 4:
            s = F(rng.randint(-4, 4), 2)
            f = ip.mul(f, ip.mul(translate(SQRT2, s),
                                 translate(SQRT2, s + alpha)))
            deg -= 4
        elif t % 6 == 3:
            f = ip.mul(f, translate(SQRT2, F(rng.randint(-4, 4), 2)))
            deg -= 2
        if t % 10 == 9 and deg >= 2:
            f = ip.mul(f, [1, 0, 1])
            deg -= 2
        r = F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
        for _ in range(deg):
            f = ip.mul(f, _linear_power(r, 1))
            r += rng.choice((alpha, alpha, alpha / 2, alpha * F(3, 2),
                             F(rng.randint(0, 9), rng.choice((1, 2, 4)))))
        out.append(Polynomial(f))
    return out


@pytest.fixture(scope="module")
def mesh_corpus():
    return _mesh_corpus()


def _specs():
    out = [ClassSpec.hyperbolic(), ClassSpec(require_nonneg_roots=True)]
    for alpha in MESH_ALPHAS:
        out += [ClassSpec.hp_ge(alpha), ClassSpec.hp_plus_ge(alpha)]
    return out


def decisions(polys):
    """Every new decision on each polynomial, as JSON-ready lists."""
    out = []
    for p in polys:
        row = [roots.is_hyperbolic(p), nonneg_on_reals(p),
               roots.count_real_roots(p, None, 0)]
        row += [class_membership(p, spec) for spec in _specs()]
        for alpha in MESH_ALPHAS:
            try:
                row.append(roots.mesh_at_least(p, alpha))
            except roots.NonHyperbolicInput:
                row.append(None)
        out.append(row)
    return out


def test_mesh_decisions_match_gap_reference(corpus, mesh_corpus):
    """mesh_at_least and class_membership in HP, HP+, HP>=alpha and
    HP+>=alpha against the adjacent-gap test and the Sturm references."""
    from test_nodes import ref_mesh_at_least
    seen = {"member": 0, "not member": 0, "gap equal": 0, "repeated": 0,
            "not hyperbolic": 0, "negative lead": 0, "no negative root": 0}
    refs = [(p, ref_root_counter(p), ref_is_hyperbolic(p)) for p in mesh_corpus]
    for p, count, hyp in refs + [(p, count, hyp) for p, _, count, hyp in corpus]:
        plus = hyp and count(None, F(0)) == (p.evaluate(0) == 0)
        assert class_membership(p, ClassSpec.hyperbolic()) == hyp, p
        assert class_membership(p, ClassSpec(require_nonneg_roots=True)) == plus
        seen["not hyperbolic"] += not hyp
        seen["no negative root"] += plus
        seen["negative lead"] += hyp and p.leading_coefficient < 0
        f = ip.primitive(p.nums)
        seen["repeated"] += hyp and ref_squarefree_part(f) != f
        # one isolation serves every alpha: the gap test narrows the
        # nodes in place, and narrowed nodes stay sound
        nodes = roots.root_data(p) if hyp else None
        mults = ref_multiplicities(f, nodes) if hyp else None
        for alpha in MESH_ALPHAS:
            if not hyp:
                assert not class_membership(p, ClassSpec.hp_ge(alpha))
                if p.degree >= 2:
                    with pytest.raises(roots.NonHyperbolicInput):
                        roots.mesh_at_least(p, alpha)
                continue
            want = ref_mesh_at_least(nodes, mults, alpha)
            assert roots.mesh_at_least(p, alpha) == want, (p, alpha)
            assert class_membership(p, ClassSpec.hp_ge(alpha)) == want
            assert class_membership(p, ClassSpec.hp_plus_ge(alpha)) == \
                (want and plus), (p, alpha)
            seen["member" if want else "not member"] += 1
            seen["gap equal"] += want and len(
                ref_gcd(f, translate(f, alpha))) > 1
    assert min(seen.values()) >= 100, seen


def test_mesh_traps():
    x2 = Polynomial.from_roots([0, 0])
    hp_plus = ClassSpec(require_nonneg_roots=True)
    # at a double root every element of the whole chain vanishes: counted
    # on that chain, x^2 (x - 1) would show a negative root
    assert class_membership(x2 * Polynomial.from_roots([1]), hp_plus)
    assert not class_membership(x2 * Polynomial.from_roots([-1]), hp_plus)
    p = Polynomial.from_roots([0, 1, F(5, 2)])
    just_above = 1 + F(1, 10**9)
    for order in ((F(1), just_above), (just_above, F(1))):
        roots._records.cache_clear()
        got = [roots.mesh_at_least(p, alpha) for alpha in order]
        assert got == [alpha == 1 for alpha in order]
    assert not class_membership(p, ClassSpec.hp_ge(just_above))
    assert class_membership(p, ClassSpec.hp_plus_ge(1))


def test_record_answers_implied_bounds(monkeypatch):
    """mesh >= alpha is monotone in alpha: once 1 holds and 3/2 fails,
    every bound at most 1 or at least 3/2 is answered without a
    remainder sequence."""
    p = Polynomial.from_roots([0, 1, F(5, 2)], lead=-3)
    roots._records.cache_clear()
    assert roots.mesh_at_least(p, 1) and not roots.mesh_at_least(p, F(3, 2))

    def no_sequence(a, b):
        raise AssertionError("bound not implied by the record")

    # every Cauchy index of a mesh decision is walked by full_index
    monkeypatch.setattr(ip, "full_index", no_sequence)
    for alpha, want in ((0, True), (F(1, 2), True), (1, True),
                        (F(3, 2), False), (2, False)):
        assert roots.mesh_at_least(p, alpha) == want
        assert class_membership(p, ClassSpec.hp_ge(alpha)) == want
    info = roots._records.cache_info()
    assert info.maxsize == roots.RECORD_CACHE_SIZE and info.currsize == 1


def test_decisions_do_not_rest_on_assert(mesh_corpus):
    """The same verdicts with assert statements compiled out."""
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    code = ("import json\n"
            "assert False, 'assert statements are live'\n"
            "from test_real_roots import _mesh_corpus, decisions\n"
            "print(json.dumps(decisions(_mesh_corpus())))\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == decisions(mesh_corpus)
