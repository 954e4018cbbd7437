"""What roots keeps, and what it does not.

root_data isolates on each call and keeps nothing, so repeated reads
and equal polynomials (positive rational multiples, or the other basis)
give equal nodes in distinct node objects, and no caller's in-place
narrowing reaches the nodes of a later call.  The decided facts of each
polynomial are kept in a bounded LRU cache of records (roots._records),
keyed by the primitive integer representative of the polynomial.
"""

from fractions import Fraction as F

import pytest

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.interlace import ClassSpec, class_membership
from meshpoly.poly import POCHHAMMER, Polynomial
from test_nodes import (ALPHAS, _node_corpus, _state, int_common_root,
                        int_precedes, translate_nodes)


def _flags(prof):
    return (prof.is_hyperbolic, prof.all_roots_nonnegative)


def _first(f):
    """(root_data state, root_profile state and flags) of a first read."""
    data = _state(roots.root_data(Polynomial(f)))
    prof = roots.root_profile(Polynomial(f))
    return data, _state(prof.nodes), _flags(prof)


def test_warm_reads_match_cold():
    """Each call gets a new Polynomial, so anything keyed by object
    identity would see reused ids of freed polynomials."""
    corpus = _node_corpus()
    first = [_first(f) for f in corpus]
    for _ in range(2):
        for f, want in zip(corpus, first):
            prof = roots.root_profile(Polynomial(f))
            data = roots.root_data(Polynomial(f))
            assert (_state(data), _state(prof.nodes), _flags(prof)) == want, f
            assert not {id(n) for n in data} & {id(n) for n in prof.nodes}


def test_narrowing_one_calls_nodes_leaves_the_next_call_cold():
    """Refine, exclude, probe, separate and translate the nodes of one
    call, as the membership decision, mesh_numeric and the display code
    do, then call again."""
    narrowed = 0
    for f in _node_corpus():
        p = Polynomial(f)
        cold = _state(roots.root_data(p))
        nodes = roots.root_data(p)
        for n in nodes:
            n.side(0, 1)
        for alpha in ALPHAS:
            moved = translate_nodes(nodes[:-1], alpha)
            gcd_cache: dict = {}
            for shifted, nxt in zip(moved, nodes[1:]):
                if not int_common_root(nxt, shifted, gcd_cache):
                    int_precedes(nxt, shifted)
        for n in nodes:
            n.refine()
            n.try_rational()
        roots.approximations(nodes, F(1, 10**6))
        narrowed += _state(nodes) != cold
        assert _state(roots.root_data(p)) == cold, f
    assert narrowed > 100


def test_equal_polynomials_share_one_entry():
    """One record for p, its multiples and its other basis, and equal
    nodes in distinct objects."""
    p = Polynomial.from_roots([F(-1, 2), 1, 3, 3], lead=F(2, 5))
    equal = (p, p * F(7, 3), p.to_basis(POCHHAMMER))
    roots._records.cache_clear()
    assert all(roots.is_hyperbolic(q) for q in equal)
    info = roots._records.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    first, scaled, other_basis = (roots.root_data(q) for q in equal)
    assert _state(first) == _state(scaled) == _state(other_basis)
    assert first[0] is not scaled[0] and first[0] is not other_basis[0]


def test_cache_is_bounded():
    size = roots.RECORD_CACHE_SIZE
    roots._records.cache_clear()
    for k in range(size + 10):
        roots.is_hyperbolic(Polynomial([-k, 1]))
    info = roots._records.cache_info()
    assert info.maxsize == size and info.currsize == size
    # the least recently used entries were dropped
    roots.is_hyperbolic(Polynomial([0, 1]))
    assert roots._records.cache_info().misses == size + 11


BIG = 10**40
# (numerator, denominator) pairs with a positive denominator, as records
# keep them: negative, zero and 10^40-sized parts, some unreduced
PAIRS = [(-1, 1), (0, 1), (0, 7), (1, 1), (2, 2), (-3, 2), (5, 7), (10, 14),
         (BIG, 1), (1, BIG), (-BIG, BIG + 1), (BIG + 1, BIG),
         (BIG - 1, BIG), (-1, BIG), (BIG * BIG, BIG - 1)]
BOUNDS = [0, 1, 2, -1, *(F(n, d) for n, d in PAIRS)]


class _Undecided(Exception):
    pass


def ref_record_answer(yes, no, alpha):
    """What a record with these bounds answers for alpha, in Fraction
    comparisons: True, False, or None when it decides nothing."""
    if alpha <= F(*yes):
        return True
    if no is not None and alpha >= F(*no):
        return False
    return None


def test_record_bounds_match_fraction_comparisons(monkeypatch):
    """_mesh_ok answers from a record's integer pairs by cross products
    exactly as Fraction comparisons do, and leaves the record as it was;
    class_membership and mesh_at_least read the sign of a bound as
    Fraction comparison does."""
    def undecided(a, b):
        raise _Undecided

    monkeypatch.setattr(ip, "remainder_steps", undecided)
    decided = 0
    for yes in PAIRS:
        for no in [None, *PAIRS]:
            for alpha in BOUNDS:
                rec = roots._Record()
                rec.f, rec.yes, rec.no = (-1, 0, 1), yes, no
                try:
                    got = roots._mesh_ok(rec, alpha)
                except _Undecided:
                    got = None
                assert got == ref_record_answer(yes, no, alpha), \
                    (yes, no, alpha)
                assert (rec.yes, rec.no) == (yes, no)
                decided += got is not None
    assert decided > 1000
    monkeypatch.undo()
    p = Polynomial.from_roots([0, 1, 3], lead=-2)
    for bound in [None, *BOUNDS]:
        # p has mesh 1; a bound below 0 asks for mesh >= 0
        want = bound is None or bound <= 1
        assert class_membership(p, ClassSpec(mesh_bound=bound)) == want
        assert class_membership(p, ClassSpec(mesh_bound=bound,
                                             require_nonneg_roots=True)) == want
        if bound is not None and bound < 0:
            with pytest.raises(ValueError):
                roots.mesh_at_least(p, bound)
        elif bound is not None:
            assert roots.mesh_at_least(p, bound) == (bound <= 1)
    assert not class_membership(Polynomial([1, 0, 1]), ClassSpec(F(-1, BIG)))
