"""The cache of root isolations behind roots.root_data.

root_data reads each polynomial's isolation from a bounded LRU cache (roots._isolation), keyed by the primitive integer
representative of the polynomial, and builds fresh nodes from it.  A
warm read must give exactly what a cold computation gives, and no
caller's in-place narrowing may reach the nodes of a later call.
"""

from fractions import Fraction as F

from meshpoly import intpoly as ip
from meshpoly import roots
from meshpoly.poly import POCHHAMMER, Polynomial
from test_nodes import ALPHAS, _node_corpus, _state, translate_nodes


def _flags(prof):
    return (prof.is_hyperbolic, prof.all_roots_nonnegative,
            prof.has_multiple_root)


def _cold(f):
    """(root_data state, root_profile state and flags), each computed
    on an empty cache."""
    roots._isolation.cache_clear()
    data = _state(roots.root_data(Polynomial(f)))
    roots._isolation.cache_clear()
    prof = roots.root_profile(Polynomial(f))
    return data, _state(prof.nodes), _flags(prof)


def test_warm_reads_match_cold():
    """Each call gets a new Polynomial, so a cache keyed by object
    identity would see reused ids of freed polynomials."""
    corpus = _node_corpus()
    cold = [_cold(f) for f in corpus]
    roots._isolation.cache_clear()
    for _ in range(2):
        for f, want in zip(corpus, cold):
            prof = roots.root_profile(Polynomial(f))
            data = _state(roots.root_data(Polynomial(f)))
            assert (data, _state(prof.nodes), _flags(prof)) == want, f
    info = roots._isolation.cache_info()
    distinct = len({tuple(ip.primitive(f)) for f in corpus})
    assert (info.misses, info.currsize) == (distinct, distinct)
    assert info.hits == 4 * len(corpus) - distinct


def test_narrowing_one_calls_nodes_leaves_the_next_call_cold():
    """Refine, exclude, probe, separate and translate the nodes of one
    call, as the membership decision, mesh_numeric and the display code
    do, then call again."""
    narrowed = 0
    for f in _node_corpus():
        p = Polynomial(f)
        cold = _cold(f)[0]
        nodes = roots.root_data(p)
        for n in nodes:
            n.side(0, 1)
        for alpha in ALPHAS:
            moved = translate_nodes(nodes[:-1], alpha)
            gcd_cache: dict = {}
            for shifted, nxt in zip(moved, nodes[1:]):
                if not roots._common_root(nxt, shifted, gcd_cache):
                    roots._precedes(nxt, shifted)
        for n in nodes:
            n.refine()
            n.try_rational()
        roots.approximations(nodes, F(1, 10**6))
        narrowed += _state(nodes) != cold
        assert _state(roots.root_data(p)) == cold, f
    assert narrowed > 100


def test_equal_polynomials_share_one_entry():
    p = Polynomial.from_roots([F(-1, 2), 1, 3, 3], lead=F(2, 5))
    roots._isolation.cache_clear()
    first = roots.root_data(p)
    scaled = roots.root_data(p * F(7, 3))
    other_basis = roots.root_data(p.to_basis(POCHHAMMER))
    info = roots._isolation.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert _state(first) == _state(scaled) == _state(other_basis)
    assert first[0] is not scaled[0]


def test_cache_is_bounded():
    size = roots.ISOLATION_CACHE_SIZE
    roots._isolation.cache_clear()
    for k in range(size + 10):
        roots.root_data(Polynomial([-k, 1]))
    info = roots._isolation.cache_info()
    assert info.maxsize == size and info.currsize == size
    # the least recently used entries were dropped
    roots.root_data(Polynomial([0, 1]))
    assert roots._isolation.cache_info().misses == size + 11
