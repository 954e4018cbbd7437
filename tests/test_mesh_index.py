"""Membership in HP>=alpha by the Cauchy index alone, against the earlier
three-step decision.

For alpha > 0, class_membership and mesh_at_least ask one Cauchy index
(roots.mesh_at_least has the proof that it decides real-rootedness,
squarefreeness and the mesh bound at once); for alpha = 0 the index is
the one of f'/f, on the Sturm chain of f (Sturm's theorem).  The sign
of the roots of a real-rooted polynomial is Descartes' rule of signs.
The reference here is the decision they replace: Sturm counts per Yun
factor for real-rootedness and for roots in (-inf, 0], then
squarefreeness, then the index, asked only of a squarefree real-rooted
polynomial.  It runs on intpoly's kernel, which tests/test_intpoly.py
checks against an independent one, and on the Yun factors of that
independent kernel (test_real_roots.ref_yun).

The corpus puts the index where the Sturm steps used to stop it:
repeated roots on and off alpha-progressions, such as (x - s)(x - s -
alpha)^2, complex pairs beside such progressions, roots at 0, degree
<= 1 and negative leads.
"""

from fractions import Fraction as F

import pytest

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.fixtures import derive_rng
from meshpoly.interlace import ClassSpec, class_membership
from meshpoly.poly import Polynomial
from test_real_roots import ref_yun, translate

ALPHAS = (F(1, 3), F(1, 2), F(1), F(3, 2), F(2))


# -- the earlier decision --------------------------------------------------

def ref_facts(f):
    """(real-rooted, squarefree, no negative root) of the primitive
    nonzero f by Sturm counts per Yun factor."""
    chains = [(ip.sturm_chain(g), m) for g, m in ref_yun(f)]
    real = all(ip.variation_drop(chain) == len(chain[0]) - 1
               for chain, _ in chains)
    nonneg = real and all(
        ip.variation_drop(chain, None, F(0)) == (chain[0][0] == 0)
        for chain, _ in chains)
    return real, all(m == 1 for _, m in chains), nonneg


def ref_mesh(f, facts, alpha):
    """mesh >= alpha; None for a non-real-rooted f of degree >= 2."""
    real, squarefree, _ = facts
    if len(f) <= 2:
        return True
    if not real:
        return None
    if alpha == 0:
        return True
    if not squarefree:
        return False
    q = translate(f, alpha)
    d = ip.sub([f[-1] * c for c in q], [q[-1] * c for c in f])
    seq = ip.remainder_sequence(f, d)
    return abs(ip.variation_drop(seq)) == len(f) - len(seq[-1])


def ref_membership(f, facts, spec):
    real, _, nonneg = facts
    if not real or (spec.require_nonneg_roots and not nonneg):
        return False
    return spec.mesh_bound is None or ref_mesh(f, facts, spec.mesh_bound)


# -- the corpus ------------------------------------------------------------

def _linear(r):
    return [-r.numerator, r.denominator]


def _progression(rng, alpha, size):
    """Roots on an alpha-progression, with gaps of other sizes between
    some of its stretches."""
    r = F(rng.randint(-12, 12), rng.choice((1, 2, 3, 6)))
    out = []
    for _ in range(size):
        out.append(r)
        r += rng.choice((alpha, alpha, alpha, alpha / 2, 2 * alpha,
                         F(rng.randint(1, 6), rng.choice((1, 2, 3)))))
    return out


def _poly(t):
    """The t-th corpus polynomial, as integer coefficients."""
    rng = derive_rng(7, "mesh-index", t)
    alpha = ALPHAS[t % 5]
    kind = t // 5 % 8
    rts = []
    f = [rng.choice((-4, -2, -1, 1, 1, 3))]
    if kind == 0:
        # (x - s)(x - s - alpha)^2 and its mirror, beside other roots
        s = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        rts = [s, s + alpha, s + alpha] if rng.random() < 0.5 \
            else [s, s, s + alpha]
        rts += _progression(rng, alpha, rng.randint(0, 3))
    elif kind == 1:
        # a progression with one root doubled or tripled
        rts = _progression(rng, alpha, rng.randint(2, 6))
        rts += [rng.choice(rts)] * rng.randint(1, 2)
    elif kind == 2:
        # a complex pair, or a pair of irrational real roots, beside a
        # progression
        rts = _progression(rng, alpha, rng.randint(1, 5))
        a, b = rng.randint(-6, 6), rng.randint(1, 9)
        pair = [a * a + b, -2 * a, 1] if rng.random() < 0.7 \
            else [a * a - 2 * b * b, -2 * a, 1]
        f = ip.mul(f, pair)
    elif kind == 3:
        # a root at 0, simple or not, among roots of either sign
        rts = [F(0)] * rng.choice((1, 1, 2)) + _progression(
            rng, alpha, rng.randint(1, 4))
    elif kind == 4:
        # degree <= 1
        rts = [F(rng.randint(-5, 5), rng.choice((1, 2, 3)))] * \
            rng.randint(0, 1)
    elif kind == 5:
        # random integer coefficients, mostly with complex roots
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        f.append(rng.choice((-3, -1, 1, 2)))
    elif kind == 6:
        # nonnegative progressions, simple or with a repeated root
        rts = _progression(rng, alpha, rng.randint(2, 5))
        rts = [r - rts[0] for r in rts]
        if rng.random() < 0.4:
            rts.append(rng.choice(rts))
    else:
        # a square times a progression: every root repeated or the
        # square of a complex pair
        base = _progression(rng, alpha, rng.randint(1, 3))
        rts = base + base
        if rng.random() < 0.5:
            f = ip.mul(f, ip.mul([1, 0, 1], [1, 0, 1]))
    for r in rts:
        f = ip.mul(f, _linear(r))
    return f


@pytest.fixture(scope="module")
def corpus():
    return [_poly(t) for t in range(4200)]


def _specs(alpha):
    return [ClassSpec.hp_ge(alpha), ClassSpec.hp_plus_ge(alpha)]


def test_index_decides_like_the_sturm_steps(corpus):
    """class_membership and mesh_at_least on every (f, alpha) pair, in a
    seeded shuffled order from a cleared record cache, so that earlier
    verdicts of a record answer some later ones; also HP, HP+ and
    alpha = 0, where the index is the one of f'/f."""
    refs = []
    for f in corpus:
        p = Polynomial(f)
        g = ip.primitive(f)
        refs.append((p, g, ref_facts(g)))
    pairs = [(k, alpha) for k in range(len(refs)) for alpha in ALPHAS]
    assert len(pairs) >= 20000
    derive_rng(7, "mesh-index", "order").shuffle(pairs)
    seen = {"member": 0, "not real-rooted": 0, "repeated root": 0,
            "gap equal, member": 0, "repeated on a progression": 0,
            "negative lead": 0, "nonneg member": 0, "degree <= 1": 0,
            "root at 0, member": 0, "real, mesh below": 0}
    roots._records.cache_clear()
    for k, alpha in pairs:
        p, g, facts = refs[k]
        want = ref_mesh(g, facts, alpha)
        if want is None:
            with pytest.raises(roots.NonHyperbolicInput):
                roots.mesh_at_least(p, alpha)
        else:
            assert roots.mesh_at_least(p, alpha) == want, (p, alpha)
        for spec in _specs(alpha):
            assert class_membership(p, spec) == \
                ref_membership(g, facts, spec), (p, spec)
        real, squarefree, nonneg = facts
        member = bool(want) and real
        seen["member"] += member
        seen["not real-rooted"] += not real
        seen["repeated root"] += real and not squarefree
        seen["real, mesh below"] += real and not want
        seen["gap equal, member"] += member and len(
            ip.gcd(g, translate(g, alpha))) > 1
        seen["repeated on a progression"] += not squarefree and len(
            ip.gcd(g, translate(g, alpha))) > 1
        seen["negative lead"] += member and g[-1] < 0
        seen["nonneg member"] += member and nonneg
        seen["degree <= 1"] += len(g) <= 2
        seen["root at 0, member"] += member and g[0] == 0
    assert min(seen.values()) >= 300, seen
    for p, g, facts in refs:
        for spec in (ClassSpec.hyperbolic(), ClassSpec(require_nonneg_roots=True),
                     ClassSpec.hp_ge(0), ClassSpec.hp_plus_ge(0)):
            assert class_membership(p, spec) == \
                ref_membership(g, facts, spec), (p, spec)
        if len(g) > 2:
            want = ref_mesh(g, facts, F(0))
            if want is None:
                with pytest.raises(roots.NonHyperbolicInput):
                    roots.mesh_at_least(p, 0)
            else:
                assert roots.mesh_at_least(p, 0)


def test_descartes_matches_sturm_count_at_zero(corpus):
    """For every real-rooted corpus polynomial, and for the positive and
    negative translates that move a root onto 0 or just past it."""
    checked = {True: 0, False: 0}
    for f in corpus:
        g = ip.primitive(f)
        for h in (g, translate(g, F(1, 3)), translate(g, F(-1, 2))):
            real, _, nonneg = ref_facts(h)
            if real:
                assert roots._no_negative_root(h) == nonneg, h
                assert roots.root_profile(Polynomial(h)).all_roots_nonnegative \
                    == nonneg, h
                checked[nonneg] += 1
    assert min(checked.values()) >= 1000, checked


def test_cold_mesh_numeric_builds_the_chains_once(monkeypatch):
    """The index that decides alpha = 0 is one walk of f and f'
    (full_index), which forms no chain, and the nodes are isolated on
    one Sturm chain of f (intpoly.isolate, on squarefree_chain, for a
    squarefree f).  A cold mesh_numeric makes one walk and one chain,
    and isolates once, building that chain itself; a cold
    root_profile or is_hyperbolic walks once and builds no chain; once a
    record knows of a repeated root, mesh questions on it walk nothing
    and build no chain."""
    calls, walks, chains, seqs = [], [], [], []
    isolate, full_index, sturm_chain = ip.isolate, ip.full_index, \
        ip.sturm_chain

    def counted(f):
        calls.append(f)
        built = len(chains)
        nodes = isolate(f)
        assert len(chains) == built + 1
        return nodes

    def counted_index(a, b):
        # every Cauchy index is one walk
        seqs.append(a)
        if list(b) == ip.deriv(a):
            walks.append(tuple(ip.primitive(a)))
        return full_index(a, b)

    def counted_chain(f):
        chains.append(tuple(ip.primitive(f)))
        return sturm_chain(f)

    def walks_of(p):
        return walks.count(tuple(ip.primitive(p.nums)))

    def chains_of(p):
        return chains.count(tuple(ip.primitive(p.nums)))

    monkeypatch.setattr(ip, "isolate", counted)
    monkeypatch.setattr(ip, "full_index", counted_index)
    monkeypatch.setattr(ip, "sturm_chain", counted_chain)
    p = Polynomial.from_roots([-1, 2, 5])
    r = Polynomial.from_roots([-1, 2, 2, 5])
    roots._records.cache_clear()
    assert roots.mesh_numeric(p).exact_value == 3
    # one walk and one chain
    assert len(calls) == 1 and walks_of(p) == 1 and chains_of(p) == 1
    roots._records.cache_clear()
    assert roots.root_profile(r).is_hyperbolic
    assert len(calls) == 1 and walks_of(r) == 1 and chains_of(r) == 0
    roots._records.cache_clear()
    assert class_membership(p, ClassSpec.hp_plus_ge(1)) is False
    assert class_membership(p, ClassSpec.hp_ge(3))
    assert roots.is_hyperbolic(p) and roots.mesh_numeric(p).exact_value == 3
    assert len(calls) == 2 and walks_of(p) == 1 and chains_of(p) == 2
    roots._records.cache_clear()
    walks.clear()
    assert roots.is_hyperbolic(p) and walks_of(p) == 1
    assert roots.is_hyperbolic(r) and walks_of(r) == 1
    built = len(seqs), len(chains)
    assert roots.mesh_at_least(r, F(1, 1000)) is False
    assert roots.mesh_numeric(r).exact_value == 0
    assert (len(seqs), len(chains)) == built


INDEX_ALPHAS = (F(0), F(1, 2), F(3, 7), F(1), F(2), F(5))


def _lead_difference(f, g):
    """lc(f) g - lc(g) f, trimmed."""
    return ip.trim([f[-1] * x - g[-1] * y for x, y in zip(g, f)])


def _index_pairs(f):
    """(alpha, d) for the d that roots._mesh_ok asks of f at each alpha
    in INDEX_ALPHAS, up to a positive factor, and (None, f''): f''
    drops two degrees at once, which no d of _mesh_ok does (its x^(n-1)
    coefficient is -n alpha lc(f) lc(q), and f' has degree n - 1)."""
    for alpha in INDEX_ALPHAS:
        yield alpha, (_lead_difference(f, translate(f, alpha)) if alpha
                      else ip.deriv(f))
    yield None, ip.deriv(ip.deriv(f))


def _first_break(seq):
    """The index of the first element of the remainder sequence seq that
    does not drop the degree by one, or whose lead sign relative to the
    one before differs from the first pair's; None when none does."""
    agree = (seq[0][-1] > 0) == (seq[1][-1] > 0)
    for i in range(1, len(seq)):
        a, b = seq[i - 1], seq[i]
        if len(b) != len(a) - 1 or ((a[-1] > 0) == (b[-1] > 0)) != agree:
            return i
    return None


# (a, b) beside the corpus: b with content > 1 and negative leads; a
# drop of two after a unit drop (x^3 + x + 1 = x (x^2 + 1) + 1); a gcd
# of degree 2 at alpha = 0; equal-degree proper-position pairs
EXTRA_PAIRS = [
    ([1, 1, 0, 1], [1, 0, 1]), ([1, 1, 0, 1], [-6, 0, -6]),
    ([-1, -1, 0, -1], [3, 0, 3]), ([0, -6, 0, 1], [-12, 0, 6]),
    ([-2, 0, 1], [0, 10]), ([2, 0, -1], [0, -10]),
    ([1, 0, -2, 0, 1], [0, -4, 0, 4]), ([0, 0, 1, -2, 1], [0, 2, -6, 4]),
    ([-6, 11, -6, 1], _lead_difference([-6, 11, -6, 1], [-24, 26, -9, 1])),
    ([6, 11, 6, 1], _lead_difference([6, 11, 6, 1], [-24, 26, -9, 1])),
    ([-6, 11, -6, 1], _lead_difference([-6, 11, -6, 1], [12, -14, 3, 2])),
]


def test_full_index_matches_variation_drop(corpus, monkeypatch):
    """intpoly.full_index(a, b) against remainder_sequence(a, b) = seq:
    the equation |variation_drop(seq)| = deg a - deg s_k, and s_k as the
    last element, on about 30,000 pairs: the d of _index_pairs for
    2,000 corpus polynomials f, the same d times -6 (content > 1, the
    other sign), equal-degree pairs as proper_position forms them
    (lc(f) q - lc(q) f for q = f + c f', which interlaces a real-rooted
    f, and for the corpus polynomial q after f, when it has f's
    degree), (x f + 1, f), whose second remainder drops two degrees,
    and EXTRA_PAIRS.  The walk forms the elements of seq up to
    the first that breaks a unit drop or the sign ratio (_first_break),
    and none after it: one remainder per element from s_2 on, none when
    s_1 breaks."""
    seen = {"true, gcd constant": 0, "true, gcd nonconstant": 0,
            "true, negative lead": 0, "false at b": 0,
            "false by the lead signs": 0, "false after a division": 0,
            "drop of two after a unit drop": 0, "content > 1": 0,
            "repeated root at 0": 0, "not real-rooted at 0": 0,
            "equal degrees, true": 0, "equal degrees, false": 0}
    formed = []
    unit_prem = ip._unit_prem

    def counted(a, b):
        formed.append(a)
        return unit_prem(a, b)

    monkeypatch.setattr(ip, "_unit_prem", counted)
    pairs = []
    fs = [ip.primitive(f) for f in corpus[:2000]]
    for f, nxt in zip(fs, fs[1:]):
        if len(f) < 2:
            continue
        for alpha, d in _index_pairs(f):
            pairs += [(f, d, alpha), (f, [-6 * c for c in d], alpha)]
        for c in (1, -2):
            q = ip.sub(f, [-c * x for x in ip.deriv(f)])
            pairs.append((f, _lead_difference(f, q), "equal"))
        if len(nxt) == len(f):
            pairs.append((f, _lead_difference(f, nxt), "equal"))
        if len(f) > 2:
            pairs.append((ip.primitive([1, *f]), f, "x f + 1"))
    pairs += [(a, b, "extra") for a, b in EXTRA_PAIRS]
    for f, d, kind in pairs:
        if not d:
            continue
        seq = ip.remainder_sequence(f, d)
        want = abs(ip.variation_drop(seq)) == len(f) - len(seq[-1])
        brk = _first_break(seq)
        assert want == (brk is None), (f, d)
        formed.clear()
        last = ip.full_index(f, d)
        assert (last is not None) == want, (f, d)
        if want:
            assert last == seq[-1], (f, d)
            assert len(formed) == len(seq) - 2 + (len(last) > 1), (f, d)
            seen["true, gcd constant"] += len(last) == 1
            seen["true, gcd nonconstant"] += len(last) > 1
            seen["true, negative lead"] += f[-1] < 0
            seen["repeated root at 0"] += kind == 0 and len(last) > 1
        else:
            assert len(formed) == brk - 1, (f, d)
            seen["false at b"] += brk == 1
            seen["false after a division"] += brk > 2
            seen["false by the lead signs"] += len(seq[brk]) == \
                len(seq[brk - 1]) - 1
            seen["drop of two after a unit drop"] += brk > 1 and \
                len(seq[brk]) < len(seq[brk - 1]) - 1
            seen["not real-rooted at 0"] += kind == 0
        seen["content > 1"] += ip.content(d) > 1
        if kind == "equal":
            seen["equal degrees, true" if want
                 else "equal degrees, false"] += 1
    assert min(seen.values()) >= 200, seen


def test_mesh_ok_divisor_is_the_lead_difference(corpus, monkeypatch):
    """The divisor _mesh_ok forms from one Taylor shift is, made
    primitive, the one of lc(f) q - lc(q) f for q = f(x - alpha), so the
    walk is over that sequence element for element; at alpha = 0 it is
    f'."""
    asked = []
    full_index = ip.full_index

    def recorded(a, b):
        asked.append((a, b))
        return full_index(a, b)

    monkeypatch.setattr(ip, "full_index", recorded)
    negative = 0
    for f in corpus[:1500]:
        f = ip.primitive(f)
        if len(f) <= 2:
            continue
        for alpha in INDEX_ALPHAS:
            asked.clear()
            roots._mesh_ok(roots._records.__wrapped__(tuple(f)), alpha)
            (a, b), = asked
            want = _lead_difference(f, translate(f, alpha)) if alpha \
                else ip.deriv(f)
            assert list(a) == f and ip.primitive(b) == ip.primitive(want), \
                (f, alpha)
            negative += f[-1] < 0
    assert negative >= 500
