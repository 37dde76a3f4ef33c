import random
from fractions import Fraction

import pytest

from cherednik.algebra import CherednikAlgebra, CherednikParameter
from cherednik.groups import load_group
from cherednik.modules import _coinvariant_operator, \
    _ring_pencil, _verma_character_rows, _verma_pencil, x_tables
from cherednik.multipoly import MultiPoly
from cherednik.restricted import (
    RestrictedAlgebra,
    bad_primes,
    is_potentially_integral,
)
from cherednik.scalars import PolyRing, reduce_mod_prime


def make_restricted(name):
    G = load_group(name)
    ring = PolyRing(G.spec, [f"c{i+1}" for i in
                             range(G.num_reflection_classes)])
    c = [ring.var(f"c{i+1}") for i in range(G.num_reflection_classes)]
    par = CherednikParameter(G, ring, 0, c)
    return RestrictedAlgebra(G, par)


def test_dimension_formula():
    for name in ("C2", "S3", "B2"):
        H = make_restricted(name)
        assert H.dimension == H.group.order ** 3


def test_g4_dimension():
    H = make_restricted("G4")
    assert H.dimension == 24 ** 3


def test_hilbert_ideal_elements_die():
    H = make_restricted("B2")
    # x1^2 + x2^2 generates the Hilbert ideal in degree 2
    f = H.x(0) * H.x(0) + H.x(1) * H.x(1)
    assert H.reduce(f).is_zero()
    assert H.product(f, H.y(0)).is_zero()


def test_relation_three_survives_quotient():
    H = make_restricted("B2")
    A = H.base
    G = H.group
    for i in range(2):
        for j in range(2):
            lhs = H.product(A.y(i), A.x(j)) - H.product(A.x(j), A.y(i))
            expect = A.zero()
            for s in G.reflections:
                term = A.g(s.element).scale(
                    A.ring.embed(s.pairing(i, j)) * A.par.c_of(s))
                expect = expect + term
            assert lhs == expect


def test_restricted_product_agrees_with_reduce_after_product():
    H = make_restricted("B2")
    A = H.base
    rng = random.Random(31)
    from cherednik.algebra import PBWElement
    for _ in range(50):
        parts = {}
        for _ in range(2):
            g = rng.randrange(A.group.order)
            e = [0] * A.nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(A.nvars)] += 1
            poly = MultiPoly(A.ring, A.nvars,
                             {tuple(e): A.ring.scalar(rng.randint(-2, 2))})
            parts[g] = parts.get(g, MultiPoly.zero(A.ring, A.nvars)) + poly
        a = PBWElement(A, parts)
        b = PBWElement(A, dict(parts))
        ra, rb = H.reduce(a), H.reduce(b)
        assert H.product(ra, rb) == H.reduce(A.product(a, b))


def test_restricted_product_associative():
    H = make_restricted("S3")
    A = H.base
    xs = [H.reduce(v) for v in (A.x(0), A.y(1) * A.x(0), A.y(0))]
    a, b, c = xs
    assert H.product(H.product(a, b), c) == H.product(a, H.product(b, c))


def test_bad_primes_c2():
    G = load_group("C2")
    primes = bad_primes(G)
    # integer one-dimensional data: reductions must succeed away from it
    co = G.coinvariant_algebra("V")
    for c in co.structure_constants():
        for p in (3, 5, 7):
            if p not in primes:
                reduce_mod_prime(c, p)


def test_bad_primes_g4():
    G = load_group("G4")
    primes = bad_primes(G)
    assert 3 in primes  # generator matrices have denominator 3
    assert 2 in primes
    for p in (13, 31, 37):
        assert p not in primes


@pytest.mark.parametrize("compute", [
    pytest.param(bad_primes, id="bad_primes"),
    pytest.param(x_tables, id="x_tables"),
    pytest.param(lambda G: _coinvariant_operator(G, "g", 1),
                 id="coinvariant_operator_g"),
    pytest.param(lambda G: _coinvariant_operator(G, "x", 0),
                 id="coinvariant_operator_x"),
    pytest.param(lambda G: _coinvariant_operator(G, "q", G.reflections[0]
                                                 .element),
                 id="coinvariant_operator_q"),
    pytest.param(lambda G: _verma_pencil(G, G.irreps[4]), id="verma_pencil"),
    pytest.param(lambda G: _ring_pencil(G, G.irreps[4], G.spec),
                 id="ring_pencil"),
    pytest.param(lambda G: _verma_character_rows(G, G.irreps[4]),
                 id="verma_character_rows"),
    pytest.param(lambda G: G.coinvariant_algebra("V"),
                 id="coinvariant_algebra"),
    pytest.param(lambda G: G.graded_coinvariant_characters(),
                 id="graded_coinvariant_characters"),
    pytest.param(lambda G: G.fundamental_invariants("V"),
                 id="fundamental_invariants"),
    pytest.param(lambda G: load_group(G.name), id="load_group"),
])
def test_computed_once_per_group(compute):
    G = load_group("B2")
    assert compute(G) is compute(G)


def test_potentially_integral():
    G = load_group("C2")
    par0 = CherednikParameter(G, G.spec, 0, [0])
    assert is_potentially_integral(G, par0, 2)
    assert is_potentially_integral(G, par0, 7)
    par_half = CherednikParameter(G, G.spec, 0, [Fraction(1, 2)])
    assert not is_potentially_integral(G, par_half, 2)
    assert is_potentially_integral(G, par_half, 7)


def test_integral_structure_constants_reduce():
    # structure constants of the coinvariant algebras reduce mod good primes
    G = load_group("G4")
    primes = bad_primes(G)
    from cherednik.scalars import minpoly_roots_mod_p
    p = 13
    assert p not in primes
    root = minpoly_roots_mod_p(G.spec, p)[0]
    for side in ("V", "V*"):
        co = G.coinvariant_algebra(side)
        for c in co.structure_constants():
            reduce_mod_prime(c, p, root)
