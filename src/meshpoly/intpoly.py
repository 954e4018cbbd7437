"""Dense integer-coefficient polynomial kernel.

Everything root-related (Sturm chains, Yun decomposition, isolation)
runs on plain int coefficient lists for speed: a polynomial is a list of
ints, ascending by degree, normalized so the list is empty (zero) or has
a non-zero last entry.  Rational inputs are cleared to a primitive
integer representative first; all the predicates used downstream (signs,
root locations, divisibility) are invariant under positive scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

ZPoly = list  # list[int]


def trim(f: ZPoly) -> ZPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: ZPoly) -> int:
    # only meaningful for non-zero f
    return len(f) - 1


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
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def primitive(f: ZPoly) -> ZPoly:
    """Divide out the (positive) content; the sign pattern is preserved."""
    f = trim(list(f))
    if not f:
        return f
    g = content(f)
    if g > 1:
        f = [c // g for c in f]
    return f


def from_fractions(coeffs: Sequence[Fraction]) -> ZPoly:
    """Primitive integer representative of a rational-coefficient polynomial."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return primitive([int(c * den) for c in cs])


def translate(f: ZPoly, a: Fraction) -> ZPoly:
    """primitive(q**d * f(x - p/q)) for a = p/q and d = deg f: the integer
    representative whose roots are those of f moved right by a."""
    p, q = a.numerator, a.denominator
    out: ZPoly = []
    qk = 1
    for c in reversed(f):
        # Horner in (q x - p): after the step for c_i, out = sum_{j >= i}
        # c_j (q x - p)**(j - i) q**(d - j)
        nxt = [0] * (len(out) + 1)
        nxt[0] = c * qk
        for j, v in enumerate(out):
            nxt[j] -= p * v
            nxt[j + 1] += q * v
        out = nxt
        qk *= q
    return primitive(out)


def eval_at(f: ZPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def sign_at(f: ZPoly, x: Fraction) -> int:
    """Sign of f at a rational point, via homogeneous integer Horner."""
    if not f:
        return 0
    num, den = x.numerator, x.denominator
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


def sign_at_inf(f: ZPoly, direction: int) -> int:
    """Sign of f at +infinity (direction=+1) or -infinity (direction=-1)."""
    if not f:
        return 0
    s = 1 if f[-1] > 0 else -1
    if direction < 0 and (len(f) - 1) % 2 == 1:
        s = -s
    return s


def _sturm_next(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive integer polynomial positively proportional to -(a mod b)."""
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
        trim(r)
    if not r:
        return []
    out = [-c if sgn > 0 else c for c in r]
    return primitive(out)


def sturm_chain(f: ZPoly) -> list[ZPoly]:
    """Signed remainder chain of (f, f').

    For squarefree f the classical Sturm theorem applies; in general the
    variation difference still counts distinct real roots, and the last
    chain element is proportional to gcd(f, f').
    """
    f = primitive(list(f))
    chain = [f]
    if len(f) > 1:
        chain.append(primitive(deriv(f)))
        while chain[-1]:
            nxt = _sturm_next(chain[-2], chain[-1])
            if not nxt:
                break
            chain.append(nxt)
    return chain


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


def variations_at(chain: list[ZPoly], x: Optional[Fraction], direction: int = 0) -> int:
    """Sign variation count at rational x, or at +/-infinity when x is None."""
    if x is None:
        return _variations(sign_at_inf(f, direction) for f in chain)
    return _chain_at(chain, x.numerator, x.denominator)[1]


def count_distinct_in(chain: list[ZPoly],
                      lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    """Distinct real roots in the half-open interval (lo, hi]; None means infinity."""
    vlo = variations_at(chain, lo, -1)
    vhi = variations_at(chain, hi, +1)
    return vlo - vhi


def gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd with positive leading coefficient."""
    a = primitive(list(a))
    b = primitive(list(b))
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _sturm_next(a, b)
        g = a
    if g and g[-1] < 0:
        g = neg(g)
    return g


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


def squarefree_part(f: ZPoly) -> ZPoly:
    f = primitive(list(f))
    if len(f) <= 1:
        return f
    g = gcd(f, deriv(f))
    if len(g) == 1:
        return f
    return primitive(divexact(f, g))


def yun(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's squarefree decomposition: [(g_i, i)] with f ~ prod g_i^i.

    Factors are primitive with positive leading coefficient; constant
    factors are dropped, so the list is empty for constant f.
    """
    f = primitive(list(f))
    if len(f) <= 1:
        return []
    fp = deriv(f)
    g = gcd(f, fp)
    if len(g) == 1:
        h = list(f)
        if h[-1] < 0:
            h = neg(h)
        return [(primitive(h), 1)]
    c = divexact(f, g)
    d = sub(divexact(fp, g), deriv(c))
    out: list[tuple[ZPoly, int]] = []
    i = 1
    while len(c) > 1:
        a = gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = divexact(c, a)
        d = sub(divexact(d, a), deriv(c))
        i += 1
    return out


def cauchy_bound(f: ZPoly) -> Fraction:
    """All real roots of f lie in (-B, B]."""
    lc = abs(f[-1])
    m = max(abs(c) for c in f[:-1]) if len(f) > 1 else 0
    return Fraction(m, lc) + 1


def simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational in the closed interval [lo, hi]."""
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if fl + 1 <= hi:
        # an integer lies inside
        return Fraction(fl if fl >= lo else fl + 1)
    if lo == fl:
        return lo
    frac = simplest_in(1 / (hi - fl), 1 / (lo - fl))
    return fl + 1 / frac


class IsolatedRoot:
    """One real root of a squarefree integer polynomial.

    Either an exact rational (lo == hi == value) or an open interval
    (lo, hi) with sign(f(lo)) * sign(f(hi)) < 0 containing exactly one
    root.  refine() narrows the interval in place; all narrowing keeps
    the invariant, so consumers may refine freely.
    """

    __slots__ = ("poly", "lo", "hi", "slo")

    def __init__(self, poly: ZPoly, lo: Fraction, hi: Fraction, slo: int = 0):
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.slo = slo or (sign_at(poly, lo) if lo != hi else 0)

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.lo == self.hi else None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def _take(self, point: Fraction) -> bool:
        """Split at an interior non-endpoint; returns True if root found exactly."""
        s = sign_at(self.poly, point)
        if s == 0:
            self.lo = self.hi = point
            self.slo = 0
            return True
        if s == self.slo:
            self.lo = point
        else:
            self.hi = point
        return False

    def refine(self) -> None:
        if self.lo != self.hi:
            self._take((self.lo + self.hi) / 2)

    def refine_below(self, width: Fraction) -> None:
        while self.lo != self.hi and self.hi - self.lo > width:
            self.refine()

    def exclude(self, point: Fraction) -> None:
        """Decide the root's position relative to a rational point.

        Afterwards either the node is exactly point, or point lies outside
        the open interval (lo, hi), so the ordering root-vs-point is known
        (the root is always strictly interior).
        """
        if self.lo != self.hi and self.lo < point < self.hi:
            self._take(point)

    def try_rational(self, max_probes: int = 24,
                     den_cap: int = 1 << 16) -> Optional[Fraction]:
        """Probe for an exact rational root by simplest-rational search.

        A rational root of a primitive integer polynomial has denominator
        dividing the leading coefficient, and the simplest rational in an
        interval has the smallest denominator of any rational inside it, so
        once that denominator exceeds min(|lc|, den_cap) no rational root
        can be present and probing stops.  Misses are harmless: the root is
        then treated as irrational and only interval bounds are used.
        """
        if self.lo == self.hi:
            return self.lo
        cap = min(abs(self.poly[-1]), den_cap)
        for k in range(max_probes):
            if self.lo == self.hi:
                return self.lo
            if k % 2:
                c = (self.lo + self.hi) / 2
            else:
                c = simplest_in(self.lo, self.hi)
                if c.denominator > cap:
                    return None
                if c == self.lo or c == self.hi:
                    c = (self.lo + self.hi) / 2
            if self._take(c):
                return self.lo
        return None


def isolate(f: ZPoly, probe_rationals: bool = True) -> list[IsolatedRoot]:
    """Isolating structures for every real root of squarefree f, sorted.

    Sturm bisection of (-B, B], B = cauchy_bound(f): an interval holding
    more than one root is split at its midpoint, or, when that is a root,
    at the midpoint of the midpoint and the right end, and so on.  Every
    interval end is therefore a non-root, and a leaf holds one root in
    its open interval.  Points are integer numerators over the shared
    positive denominator of their interval, which doubles with each
    halving; each point's chain signs are evaluated once, and the
    variation count and sign of f at an interval's ends are carried to
    its halves.  Fractions are built only for the leaves.
    """
    f = primitive(list(f))
    if len(f) <= 1:
        return []
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    # no root lies outside (-B, B) and the variation count changes only
    # at roots, so the values at -B and B are those at -inf and +inf
    vlo = variations_at(chain, None, -1)
    vhi = variations_at(chain, None, +1)
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
            out.append(IsolatedRoot(f, Fraction(lo, den), Fraction(hi, den), slo))
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
    if probe_rationals:
        for node in out:
            node.try_rational()
    return out
