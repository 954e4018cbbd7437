"""Dense integer-coefficient polynomial kernel.

Everything root-related (Sturm chains, Yun decomposition, isolation)
runs on plain int coefficient lists for speed: a polynomial is a list of
ints, ascending by degree, normalized so the list is empty (zero) or has
a non-zero last entry.  Rational inputs are cleared to a primitive
integer representative first; all the predicates used downstream (signs,
root locations, divisibility) are invariant under positive scaling.
A remainder step that drops the degree by one is the pseudo-remainder
lc(b)**2 (a mod b) in one pass (_unit_prem); other steps scale by the
least positive multiplier that cancels a lead.  Each element is then the
one primitive polynomial positively proportional to the exact remainder
(_sturm_next).  A Cauchy index that decides an interlacing (full_index)
forms unit-drop steps only, and stops at the first element that is not
one.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZPoly = list  # list[int]


def trim(f: ZPoly) -> ZPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def neg(f: ZPoly) -> ZPoly:
    return [-c for c in f]


def sub(f: ZPoly, g: ZPoly) -> ZPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] -= c
    return trim(out)


def mul(f: ZPoly, g: ZPoly) -> ZPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


def deriv(f: ZPoly) -> ZPoly:
    return [i * f[i] for i in range(1, len(f))]


def content(f: ZPoly) -> int:
    """gcd of the coefficients, >= 0; 0 for the zero polynomial."""
    return math.gcd(*f)


def primitive(f: ZPoly) -> ZPoly:
    """Divide out the (positive) content; the sign pattern is preserved."""
    f = trim(list(f))
    g = content(f)
    return [c // g for c in f] if g > 1 else f


def taylor_shift(f: ZPoly, p: int, q: int) -> ZPoly:
    """q**n * f(x - p/q) for n = deg f and q > 0, not reduced: (p, q)
    need not be coprime, and no content is divided out.

    With y = q x, q**n f(x - p/q) = sum k_i (y - p)**i for k_i = c_i
    q**(n - i): the k_i are shifted by p in place (the Taylor shift's
    n (n + 1) / 2 steps k_j -= p k_(j+1)), and the coefficient of y**j
    then gains q**j.  q = 1 scales nothing and p = 0 takes no step."""
    n = len(f) - 1
    if q == 1:
        k = list(f)
    else:
        pw = [1]
        for _ in range(n):
            pw.append(pw[-1] * q)
        k = [c * w for c, w in zip(f, reversed(pw))]
    if p:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                k[j] -= p * k[j + 1]
    if q != 1:
        k = [c * w for c, w in zip(k, pw)]
    return k


def _sign_at(f: ZPoly, num: int, den: int) -> int:
    """Sign of f at num/den for den > 0, via homogeneous integer Horner:
    den**k * f(num/den), k = deg f, has the sign of f(num/den), so the
    pair need not be reduced."""
    if not f:
        return 0
    acc = f[-1]
    if den == 1:
        for i in range(len(f) - 2, -1, -1):
            acc = acc * num + f[i]
    else:
        dp = 1
        for i in range(len(f) - 2, -1, -1):
            dp *= den
            acc = acc * num + f[i] * dp
    return (acc > 0) - (acc < 0)


def sign_at(f: ZPoly, x: Fraction) -> int:
    """Sign of f at a rational point."""
    return _sign_at(f, x.numerator, x.denominator)


def sign_at_inf(f: ZPoly, direction: int) -> int:
    """Sign of f at +infinity (direction=+1) or -infinity (direction=-1)."""
    if not f:
        return 0
    s = 1 if f[-1] > 0 else -1
    if direction < 0 and (len(f) - 1) % 2 == 1:
        s = -s
    return s


def _unit_prem(a: ZPoly, b: ZPoly) -> ZPoly:
    """The pseudo-remainder prem(a, b) = lb**2 (a mod b), lb = lc(b), for
    deg a = n and deg b = n - 1 >= 1, in one pass, as its coefficients
    of x**0, ..., x**(n-1), untrimmed: with c = lb a_(n-1) - a_n b_(n-2)
    and b_(-1) = 0, its coefficient of x**i is lb**2 a_i - lb a_n b_(i-1)
    - c b_i (the last of them, at i = n - 1, is 0)."""
    lb, an = b[-1], a[-1]
    c = lb * a[-2] - an * b[-2]
    l2, la = lb * lb, lb * an
    return [l2 * x - la * y - c * z for x, y, z in zip(a, [0, *b], b)]


def _sturm_next(a: ZPoly, b: ZPoly) -> ZPoly:
    """The primitive integer polynomial positively proportional to
    -(a mod b), unique as such; [] when b divides a.

    A unit degree drop, deg b = deg a - 1 >= 1, is _unit_prem.
    Otherwise each step cancels the lead c of r by s r - q x^k b, with
    s = lb / g, q = c / g and g = gcd(c, lb), both negated when s < 0,
    and pops it.  Either way the last r is a positive multiple of a mod
    b.
    """
    db = len(b) - 1
    lb = b[-1]
    if len(a) == db + 2 and db:
        r = _unit_prem(a, b)
    else:
        r = list(a)
        while len(r) > db:
            c = r.pop()
            if c:
                g = math.gcd(c, lb)
                s, q = lb // g, c // g
                if s < 0:
                    s, q = -s, -q
                if s != 1:
                    r = [s * x for x in r]
                off = len(r) - db
                for j in range(db):
                    r[off + j] -= q * b[j]
    trim(r)
    g = math.gcd(*r)
    return [-c // g for c in r]


def remainder_sequence(a: ZPoly, b: ZPoly) -> list[ZPoly]:
    """Signed remainder sequence of (a, b) for nonzero a, up to positive
    factors: a, b, -(a mod b), ..., ending in the last nonzero element,
    which is proportional to gcd(a, b).  Each element is primitive;
    a positive factor changes no sign, so sign variations of this
    sequence are those of the exact sequence.

    Read by sturm_chain (b = a'), gcd and Yun's first step (through the
    Sturm chain); the Cauchy indices behind roots._mesh_ok and
    interlace.proper_position walk it in full_index.
    """
    seq = [primitive(a)]
    cur = primitive(b)
    while cur:
        seq.append(cur)
        cur = _sturm_next(seq[-2], cur)
    return seq


def full_index(a: ZPoly, b: ZPoly) -> ZPoly | None:
    """The last element of remainder_sequence(a, b) = s_0, ..., s_k,
    proportional to gcd(a, b), when |Ind(b/a)| = deg a - deg s_k, else
    None, for a primitive nonconstant a and a nonzero b of lower degree:
    exactly when every element has degree one less than the one before
    it and sign(lc s_(i+1)) / sign(lc s_i) is the same at every step
    (roots._mesh_ok has the proof).

    Only such steps are formed: b is made primitive, and each later
    element is -_unit_prem(s_(i-1), s_i) made primitive, which is
    _sturm_next's element when the remainder drops one degree; a zero
    lead of the remainder shows a larger drop.  The walk returns None at
    the first element that breaks either condition, and the last element
    when a remainder is 0 or a constant is reached.
    """
    b = primitive(b)
    if len(b) != len(a) - 1:
        return None
    agree = (a[-1] > 0) == (b[-1] > 0)
    while len(b) > 1:
        r = _unit_prem(a, b)
        r.pop()
        if not r[-1]:
            return None if any(r) else b
        # the next element is -r / g, with the lead sign opposite to r's
        if ((r[-1] < 0) == (b[-1] > 0)) != agree:
            return None
        g = math.gcd(*r)
        a, b = b, [-c // g for c in r]
    return b


def sturm_chain(f: ZPoly) -> list[ZPoly]:
    """Signed remainder sequence of (f, f').

    The last chain element is proportional to gcd(f, f'), and the
    variation drop from -inf to +inf is the number of distinct real
    roots (roots._mesh_ok reads it).  Every element vanishes at a
    multiple root, so counts in an interval are taken on the chain of
    the square-free part f / gcd(f, f').
    """
    return remainder_sequence(f, deriv(f))


def _variations(signs) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _chain_at(chain: list[ZPoly], num: int, den: int) -> tuple[int, int]:
    """(sign of chain[0], sign variation count of the chain) at num/den.

    den must be positive.  An element g of degree k is evaluated as
    den**k * g(num/den) by homogeneous integer Horner, which has the sign
    of g(num/den), so the pair need not be reduced.
    """
    dp = [1]
    for _ in range(len(chain[0]) - 1):
        dp.append(dp[-1] * den)
    signs = []
    for g in chain:
        k = len(g) - 1
        acc = g[k]
        for i in range(k - 1, -1, -1):
            acc = acc * num + g[i] * dp[k - i]
        signs.append((acc > 0) - (acc < 0))
    return signs[0], _variations(signs)


def gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd with positive leading coefficient."""
    if len(a) < len(b):
        a, b = b, a
    g = remainder_sequence(a, b)[-1] if a else []
    return neg(g) if g and g[-1] < 0 else g


def divexact(a: ZPoly, b: ZPoly) -> ZPoly:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[db + k]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        q[k] = c
        if c:
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return trim(q)


def yun(f: ZPoly, chain: list[ZPoly] | None = None,
        s: ZPoly | None = None) -> list[tuple[ZPoly, int]]:
    """Yun's squarefree decomposition: [(g_i, i)] with f ~ prod g_i^i.

    Factors are primitive with positive leading coefficient; constant
    factors are dropped, so the list is empty for constant f.  The first
    step's gcd(f, f') is g = the last element of f's Sturm chain; a
    caller that has sturm_chain(f) passes it as chain, and f / g as s
    (g's sign kept: negating it negates f / g and f' / g, which no gcd
    sees).  At most deg f steps run, one per multiplicity.
    """
    f = primitive(list(f))
    if len(f) <= 1:
        return []
    if chain is None:
        chain = sturm_chain(f)
    g = chain[-1]
    if len(g) == 1:
        return [(neg(f) if f[-1] < 0 else f, 1)]
    c = divexact(f, g) if s is None else s
    d = sub(divexact(deriv(f), g), deriv(c))
    out: list[tuple[ZPoly, int]] = []
    i = 1
    while len(c) > 1 and i < len(f):
        a = gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = divexact(c, a)
        d = sub(divexact(d, a), deriv(c))
        i += 1
    return out


def _variations_at(seq: list[ZPoly], x: Fraction | None,
                   direction: int) -> int:
    """Sign variations of seq at the rational x, or at direction * infinity
    when x is None."""
    if x is None:
        return _variations([sign_at_inf(g, direction) for g in seq])
    return _chain_at(seq, x.numerator, x.denominator)[1]


def variation_drop(seq: list[ZPoly], lo: Fraction | None = None,
                   hi: Fraction | None = None) -> int:
    """Sign variations of seq at lo minus those at hi, for rationals
    lo < hi; None means -infinity for lo and +infinity for hi.

    Over the Sturm chain of a squarefree g this counts g's roots in
    (lo, hi], ends that are roots included: at a root of g the count is
    the one just right of it.  Over remainder_sequence(a, b), from -inf
    to +inf, it is the Cauchy index of b / a (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 2).
    """
    return _variations_at(seq, lo, -1) - _variations_at(seq, hi, +1)


def cauchy_bound(f: ZPoly) -> Fraction:
    """All real roots of f lie in (-B, B]."""
    lc = abs(f[-1])
    m = max(abs(c) for c in f[:-1]) if len(f) > 1 else 0
    return Fraction(m, lc) + 1


def simplest_in(a: int, b: int, den: int) -> tuple[int, int]:
    """The smallest-denominator rational in the closed interval
    [a/den, b/den], for a <= b and den > 0, as a reduced (num, den).

    Continued fractions in integers: for 0 < lo and fl = floor(lo), the
    answer is lo if lo is an integer, else fl + 1 if that is <= hi, else
    fl + 1/t with t the simplest rational in [1/(hi - fl), 1/(lo - fl)].
    The ends stay unreduced pairs, and the answer is carried as the
    convergent (h1 t + h0) / (k1 t + k0) of the partial quotients so
    far; h1 k0 - h0 k1 = +-1 makes it reduced.
    """
    if a <= 0 <= b:
        return 0, 1
    if b < 0:
        num, d = simplest_in(-b, -a, den)
        return -num, d
    pl, ql, ph, qh = a, den, b, den
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        fl, r = divmod(pl, ql)
        if r == 0:
            t = fl
            break
        if (fl + 1) * qh <= ph:
            # an integer lies inside
            t = fl + 1
            break
        pl, ql, ph, qh = qh, ph - fl * qh, ql, r
        h0, h1 = h1, h1 * fl + h0
        k0, k1 = k1, k1 * fl + k0
    return h1 * t + h0, k1 * t + k0


class IsolatedRoot:
    """One real root of a squarefree integer polynomial (poly), with its
    multiplicity in the polynomial it was isolated for (poly is then
    that polynomial's square-free part, roots._nodes).

    Either an exact rational (lo == hi == value) or an open interval
    (lo, hi) with sign(f(lo)) * sign(f(hi)) < 0 containing exactly one
    root.  refine() narrows the interval in place; all narrowing keeps
    the invariant, so consumers may refine freely.

    The ends are integer numerators a <= b over one positive integer
    den: lo = a/den, hi = b/den, and a == b means exact.  Narrowing
    works on these integers; lo, hi and exact are Fractions for
    callers that read values.  A point is passed as a (num, den) pair
    with den > 0, and need not be reduced.
    """

    __slots__ = ("poly", "a", "b", "den", "slo", "multiplicity")

    @classmethod
    def from_ints(cls, poly: ZPoly, a: int, b: int, den: int, slo: int,
                  multiplicity: int = 1) -> "IsolatedRoot":
        """The node (a/den, b/den) with f's sign slo at a/den, unchecked."""
        node = cls.__new__(cls)
        node.poly, node.a, node.b, node.den, node.slo = poly, a, b, den, slo
        node.multiplicity = multiplicity
        return node

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.den)

    @property
    def exact(self) -> Fraction | None:
        return Fraction(self.a, self.den) if self.a == self.b else None

    def _set_exact(self, num: int) -> None:
        """The root is num/den (over the node's own den)."""
        self.a = self.b = num
        self.slo = 0

    def _take(self, num: int, den: int) -> bool:
        """Split at num/den, strictly inside the open interval; returns
        True if it is the root.  The ends are brought to a common
        denominator with the point first."""
        s = _sign_at(self.poly, num, den)
        own = self.den
        if den != own:
            g = math.gcd(own, den)
            self.a *= den // g
            self.b *= den // g
            num *= own // g
            self.den = own // g * den
        if s == 0:
            self._set_exact(num)
            return True
        if s == self.slo:
            self.a = num
        else:
            self.b = num
        return False

    def refine(self) -> None:
        a, b = self.a, self.b
        if a != b:
            self.a, self.b, self.den = 2 * a, 2 * b, 2 * self.den
            self._take(a + b, self.den)

    def refine_below(self, num: int, den: int) -> None:
        """Refine until the width is at most num/den."""
        while self.a != self.b and (self.b - self.a) * den > num * self.den:
            self.refine()

    def exclude(self, num: int, den: int) -> None:
        """Decide the root's position relative to the point num/den.

        Afterwards either the node is exactly the point, or the point lies
        outside the open interval (lo, hi), so the ordering root-vs-point
        is known (the root is always strictly interior).
        """
        own = self.den
        if self.a != self.b and self.a * den < num * own < self.b * den:
            self._take(num, den)

    def side(self, num: int, den: int) -> int:
        """Sign of root - num/den, narrowing as exclude does."""
        self.exclude(num, den)
        d = self.a * den - num * self.den
        if self.a == self.b:
            return (d > 0) - (d < 0)
        # the point is outside (lo, hi), and the root strictly inside
        return 1 if d >= 0 else -1

    def try_rational(self, max_probes: int = 24,
                     den_cap: int = 1 << 16) -> Fraction | None:
        """Probe for an exact rational root by simplest-rational search.

        A rational root of a primitive integer polynomial has denominator
        dividing the leading coefficient, and the simplest rational in an
        interval has the smallest denominator of any rational inside it, so
        once that denominator exceeds min(|lc|, den_cap) no rational root
        can be present and probing stops.  Misses are harmless: the root is
        then treated as irrational and only interval bounds are used.
        Even probes are at the simplest rational (unless it is an end),
        odd ones at the midpoint; all of it runs on the integer ends.
        """
        if self.a == self.b:
            return self.lo
        cap = min(abs(self.poly[-1]), den_cap)
        for k in range(max_probes):
            a, b, own = self.a, self.b, self.den
            num, den = a + b, 2 * own
            if not k % 2:
                c, d = simplest_in(a, b, own)
                if d > cap:
                    return None
                if c * own != a * d and c * own != b * d:
                    num, den = c, d
            if self._take(num, den):
                return self.lo
        return None


def isolate(f: ZPoly, chain: list[ZPoly] | None = None) -> list[IsolatedRoot]:
    """Isolating structures for every real root of squarefree f, sorted,
    each of multiplicity 1.  No rational root is probed for: every node
    is an open interval until a caller narrows it (try_rational).

    Sturm bisection of (-B, B], B = cauchy_bound(f): an interval holding
    more than one root is split at its midpoint, or, when that is a root,
    at the midpoint of the midpoint and the right end, and so on.  Every
    interval end is therefore a non-root, and a leaf holds one root in
    its open interval.  Points are integer numerators over the shared
    positive denominator of their interval, which doubles with each
    halving; each point's chain signs are evaluated once, and the
    variation count and sign of f at an interval's ends are carried to
    its halves.  Each leaf keeps its integer ends.  A caller that has
    sturm_chain(f) passes it as chain.
    """
    if chain is None:
        chain = sturm_chain(f)
    f = chain[0]
    if len(f) <= 1:
        return []
    bound = cauchy_bound(f)
    # no root lies outside (-B, B) and the variation count changes only
    # at roots, so the values at -B and B are those at -inf and +inf
    vlo = _variations_at(chain, None, -1)
    vhi = _variations_at(chain, None, +1)
    out: list[IsolatedRoot] = []
    # (lo, hi, den, roots in (lo/den, hi/den], vlo, vhi, sign of f at lo/den);
    # the right half is pushed first so that leaves come out sorted
    stack = []
    if vlo > vhi:
        stack.append((-bound.numerator, bound.numerator, bound.denominator,
                      vlo - vhi, vlo, vhi, sign_at_inf(f, -1)))
    while stack:
        lo, hi, den, n, vlo, vhi, slo = stack.pop()
        if n == 1:
            out.append(IsolatedRoot.from_ints(f, lo, hi, den, slo))
            continue
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        smid, vmid = _chain_at(chain, mid, den)
        while smid == 0:
            # never split at a root: move towards hi
            lo, hi, mid, den = 2 * lo, 2 * hi, mid + hi, 2 * den
            smid, vmid = _chain_at(chain, mid, den)
        nl = vlo - vmid
        if n - nl:
            stack.append((mid, hi, den, n - nl, vmid, vhi, smid))
        if nl:
            stack.append((lo, mid, den, nl, vlo, vmid, slo))
    return out
