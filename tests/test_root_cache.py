"""What roots keeps, and what it does not.

root_data isolates on each call and keeps nothing, so repeated reads
and equal polynomials (positive rational multiples, or the other basis)
give equal nodes in distinct node objects, and no caller's in-place
narrowing reaches the nodes of a later call.  The decided facts of each
polynomial are kept in a bounded LRU cache of records (roots._records),
keyed by the primitive integer representative of the polynomial.
"""

from fractions import Fraction as F

from meshpoly import roots
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
