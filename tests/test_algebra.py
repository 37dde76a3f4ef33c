import itertools
import random

import pytest

from cherednik.algebra import (
    CherednikAlgebra,
    CherednikParameter,
    ParameterError,
    euler_families,
    euler_family_scalar,
    generic_ggor,
    ggor_from_values,
    poisson_bracket,
    restrict_to_hyperplane,
)
from cherednik.groups import load_group
from cherednik.multipoly import MultiPoly
from cherednik.scalars import PolyRing, parse_scalar


def make_algebra(name, t=0, c=None, ring=None):
    G = load_group(name)
    if ring is None:
        ring = PolyRing(G.spec, [f"c{i+1}" for i in
                                 range(G.num_reflection_classes)])
        c = [ring.var(f"c{i+1}") for i in range(G.num_reflection_classes)]
    par = CherednikParameter(G, ring, t, c)
    return CherednikAlgebra(G, par)


def test_g4_parameter_map_matches_printed_values():
    G = load_group("G4")
    k = generic_ggor(G)
    par = k.to_cherednik()
    R = k.ring
    c1 = parse_scalar("(-z3+1)*k1_1 + (2*z3+1)*k1_2", R)
    c2 = parse_scalar("(z3+2)*k1_1 + (-2*z3-1)*k1_2", R)
    assert par.c[0] == c1
    assert par.c[1] == c2


def test_ggor_zero_gives_zero():
    G = load_group("G4")
    k = ggor_from_values(G, G.spec, {})
    par = k.to_cherednik()
    assert all(v.is_zero() for v in par.c)


def test_b2_ggor_two_term_sum():
    # e = 2 per orbit, det(s) = -1: c(s) = 2 k_{orbit,1}
    G = load_group("B2")
    k = generic_ggor(G)
    par = k.to_cherednik()
    R = k.ring
    assert par.c[0] == 2 * R.var("k1_1")
    assert par.c[1] == 2 * R.var("k2_1")


def test_sharp_involution():
    G4 = load_group("G4")
    k = generic_ggor(G4)
    ks = k.sharp()
    # e = 3 and k_{1,0} = 0: sharp swaps k_{1,1} and k_{1,2}
    assert ks.k[(0, 1)] == k.k[(0, 2)]
    assert ks.k[(0, 2)] == k.k[(0, 1)]
    assert ks.sharp().k == k.k
    B2 = load_group("B2")
    k2 = generic_ggor(B2)
    assert k2.sharp().k == k2.k


def test_hyperplane_restriction():
    G = load_group("G4")
    k = restrict_to_hyperplane(G, "k1_1-k1_2")
    par = k.to_cherednik()
    R = k.ring
    assert par.c[0] == parse_scalar("(z3+2)*k", R)
    assert par.c[1] == parse_scalar("(-z3+1)*k", R)
    k2 = restrict_to_hyperplane(G, "k1_1-2*k1_2")
    assert k2.k[(0, 1)] == 2 * k2.ring.var()
    assert k2.k[(0, 2)] == k2.ring.var()


@pytest.mark.parametrize("form", ["k1_1-", "k1_3", "k1_1/0"])
def test_unreadable_hyperplane_equation_is_a_parameter_error(form):
    # a truncated form, an index G4 does not have, a division by zero
    with pytest.raises(ParameterError, match=form):
        restrict_to_hyperplane(load_group("G4"), form)


def test_ggor_values_outside_the_orbit_data_are_rejected():
    # B2's orbits are 0 and 1; a value at (5, 1) would be dropped unseen
    G = load_group("B2")
    with pytest.raises(ParameterError, match="stray"):
        ggor_from_values(G, G.spec, {(5, 1): 1})


def test_c_value_outside_the_ring_is_a_parameter_error():
    # z3 lives in G4's field, not in S3's Q
    S3, G4 = load_group("S3"), load_group("G4")
    with pytest.raises(ParameterError, match="z3"):
        CherednikParameter(S3, S3.spec, 0, [G4.spec.gen()])


def test_float_ggor_value_is_a_parameter_error():
    G = load_group("G4")
    with pytest.raises(ParameterError, match="0.5"):
        ggor_from_values(G, G.spec, {(0, 1): 0.5})


def test_float_t_is_a_parameter_error():
    G = load_group("S3")
    with pytest.raises(ParameterError, match="0.5"):
        CherednikParameter(G, G.spec, 0.5, [1])


def test_product_xs_commute():
    A = make_algebra("B2", t=0)
    x1, x2 = A.x(0), A.x(1)
    assert x1 * x2 == x2 * x1
    assert (x1 * x2).parts.keys() == {A.group.identity}


def test_commutator_mu_zero():
    A = make_algebra("B2")
    assert A.commutator_y_xpow(0, (0, 0)).is_zero()


def test_relation_three_from_commutator():
    # [y_i, x_j] = t <y_i, x_j> + sum_s (y_i, x_j)_s c(s) s
    A = make_algebra("B2", t=1, c=None)
    for i in range(2):
        for j in range(2):
            lhs = A.y(i) * A.x(j) - A.x(j) * A.y(i)
            mu = tuple(1 if a == j else 0 for a in range(2))
            rhs = A.commutator_y_xpow(i, mu)
            assert lhs == rhs


def test_c2_y_x_squared_by_hand():
    # expanding the defining relation twice: [y, x^2] = 2tx (the reflection
    # part telescopes to zero on the line)
    G = load_group("C2")
    ring = PolyRing(G.spec, ["c1", "t"])
    par = CherednikParameter(G, ring, ring.var("t"), [ring.var("c1")])
    A = CherednikAlgebra(G, par)
    comm = A.y(0) * (A.x(0) ** 2) - (A.x(0) ** 2) * A.y(0)
    expect = A.x(0).scale(ring.var("t")).scale(2)
    assert comm == expect


def test_product_against_rewrite_oracle_basics():
    A = make_algebra("C2", t=1)
    lhs = A.product(A.y(0), A.x(0))
    rhs = A.naive_rewrite_product(A.y(0), A.x(0))
    assert lhs == rhs


def random_pbw(A, rng, maxdeg=2):
    parts = {}
    for _ in range(rng.randint(1, 3)):
        g = rng.randrange(A.group.order)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * A.nvars
            for _ in range(rng.randint(0, maxdeg)):
                e[rng.randrange(A.nvars)] += 1
            terms[tuple(e)] = A.ring.scalar(rng.randint(-3, 3))
        poly = MultiPoly(A.ring, A.nvars, terms)
        if g in parts:
            parts[g] = parts[g] + poly
        else:
            parts[g] = poly
    return PBW(A, parts)


def PBW(A, parts):
    from cherednik.algebra import PBWElement
    return PBWElement(A, parts)


@pytest.mark.parametrize("name,count", [("C2", 40), ("S3", 30), ("B2", 30)])
def test_product_equals_rewrite_oracle(name, count):
    A = make_algebra(name, t=1)
    rng = random.Random(hash(name) % 1000)
    for _ in range(count):
        a = random_pbw(A, rng)
        b = random_pbw(A, rng)
        assert A.product(a, b) == A.naive_rewrite_product(a, b)


@pytest.mark.parametrize("name", ["S3", "B2"])
def test_commutator_formula_against_rewrite_oracle(name):
    # [y_i, x^mu] by the Leibniz-rule formula against the rewriting oracle,
    # for every mu of total degree at most 6
    A = make_algebra(name, t=1)
    n = A.n
    ident = A.group.identity
    for mu in itertools.product(range(7), repeat=n):
        if sum(mu) > 6:
            continue
        x_mu = PBW(A, {ident: MultiPoly(A.ring, A.nvars,
                                        {mu + (0,) * n: A.ring.one()})})
        for i in range(n):
            y_i = A.y(i)
            comm = A.naive_rewrite_product(y_i, x_mu) \
                - A.naive_rewrite_product(x_mu, y_i)
            assert A.commutator_y_xpow(i, mu) == comm


def test_product_associative():
    A = make_algebra("B2", t=1)
    rng = random.Random(77)
    for _ in range(8):
        a, b, c = (random_pbw(A, rng, 1) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_euler_element_b2_br_form():
    # with the stored BR reparametrization the reflection coefficients of
    # the Euler element are -C1, -C2, -C2, -C1
    G = load_group("B2")
    varnames, exprs = G.param_types["BR"]
    ring = PolyRing(G.spec, varnames)
    c = [parse_scalar(exprs[i + 1], ring)
         for i in range(G.num_reflection_classes)]
    par = CherednikParameter(G, ring, 0, c)
    A = CherednikAlgebra(G, par)
    eu = A.euler_element()
    ident = A.group.identity
    # identity part is x1 y1 + x2 y2
    id_poly = eu.parts[ident]
    assert set(id_poly.terms) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    coeffs = []
    for s in G.reflections:
        coeffs.append(eu.parts[s.element].terms[(0, 0, 0, 0)])
    C1, C2 = ring.var("C1"), ring.var("C2")
    assert sorted(map(repr, coeffs)) == sorted(
        map(repr, [-C1, -C1, -C2, -C2]))


def test_euler_element_central():
    A = make_algebra("B2", t=0)
    eu = A.euler_element()
    assert A.commutes_with_generators(eu)


def test_euler_element_czero():
    G = load_group("B2")
    par = CherednikParameter(G, G.spec, 0, [0, 0])
    A = CherednikAlgebra(G, par)
    eu = A.euler_element()
    assert list(eu.parts) == [G.identity]
    assert set(eu.parts[G.identity].terms) == {(1, 0, 1, 0), (0, 1, 0, 1)}


def test_g4_euler_families_on_hyperplane():
    G = load_group("G4")
    k = restrict_to_hyperplane(G, "k1_1-k1_2")
    par = k.to_cherednik()
    fams = euler_families(G, par)
    R = k.ring
    kv = R.var()
    by_members = {m: v for m, v in fams}
    assert set(by_members) == {(1,), (2, 3, 4), (5, 6), (7,)}
    assert by_members[(1,)] == 8 * kv
    assert by_members[(2, 3, 4)] == -4 * kv
    assert by_members[(5, 6)] == 2 * kv
    assert by_members[(7,)].is_zero()


def test_euler_families_zero_parameter():
    G = load_group("G4")
    par = CherednikParameter(G, G.spec, 0, [0, 0])
    fams = euler_families(G, par)
    assert len(fams) == 1
    assert fams[0][0] == tuple(range(1, 8))
    assert fams[0][1].is_zero()


def euler_cases():
    """id -> (group, parameter) for the Euler-form check."""
    S3, B2, G4 = load_group("S3"), load_group("B2"), load_group("G4")
    return {
        "S3_c1": (S3, CherednikParameter(S3, S3.spec, 0, [1])),
        "S3_c0": (S3, CherednikParameter(S3, S3.spec, 0, [0])),
        "B2_c12": (B2, CherednikParameter(B2, B2.spec, 0, [1, 2])),
        "B2_c0": (B2, CherednikParameter(B2, B2.spec, 0, [0, 0])),
        "B2_hyp": (B2, restrict_to_hyperplane(B2, "k1_1-k2_1")
                   .to_cherednik()),
        "G4_k13": (G4, ggor_from_values(G4, G4.spec, {(0, 1): 1, (0, 2): 3})
                   .to_cherednik()),
        "G4_hyp": (G4, restrict_to_hyperplane(G4, "k1_1-2*k1_2")
                   .to_cherednik()),
    }


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13", "G4_hyp"])
def test_euler_scalar_is_the_per_reflection_sum(case):
    # the Euler element's eps_s/(eps_s - 1) c(s) s terms acting on the
    # lowest-degree rho, summed reflection by reflection
    G, par = euler_cases()[case]
    ring, K = par.ring, G.spec
    for rho in G.irreps:
        chi = rho.character()
        total = ring.zero()
        for s in G.reflections:
            w = s.eps / (s.eps - K.one())
            total = total + ring.embed(w) * par.c_of(s) \
                * ring.embed(chi[G.class_of[s.element]])
        want = total / ring.scalar(rho.dim)
        got = euler_family_scalar(G, par, rho)
        assert got == want
        assert repr(got) == repr(want)


def test_poisson_antisymmetry_and_self():
    G = load_group("B2")
    ring = PolyRing(G.spec, ["A", "B"])
    par = CherednikParameter(
        G, ring, 0, [ring.var("A") * (-2), ring.var("B") * (-2)])
    A = CherednikAlgebra(G, par)
    sigma = A.y(0) * A.y(0) + A.y(1) * A.y(1)
    Sigma = A.x(0) * A.x(0) + A.x(1) * A.x(1)
    br = poisson_bracket(sigma, Sigma)
    assert poisson_bracket(sigma, sigma).is_zero()
    assert poisson_bracket(Sigma, sigma) == -br
    assert not br.is_zero()


def test_poisson_rejects_noncentral():
    A = make_algebra("B2", t=0)
    with pytest.raises(ParameterError):
        poisson_bracket(A.x(0), A.x(1))
