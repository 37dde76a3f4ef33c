import random
from fractions import Fraction

import pytest

from cherednik.groups import cartan_pairing, load_group
from cherednik.multipoly import MultiPoly
from cherednik.scalars import QQ


def test_c2_single_reflection():
    G = load_group("C2")
    assert G.order == 2
    assert len(G.reflections) == 1
    assert G.num_reflection_classes == 1
    assert len(G.hyperplane_orbits) == 1
    assert G.hyperplane_orbits[0].e == 2


def test_b2_reflection_library():
    G = load_group("B2")
    assert G.order == 8
    assert len(G.reflections) == 4
    assert len(G.hyperplane_orbits) == 2
    for orbit in G.hyperplane_orbits:
        assert orbit.e == 2
        assert len(orbit.hyperplanes) == 2
    assert G.num_reflection_classes == 2
    # one reflection per hyperplane
    triples = [r.triple for r in G.reflections]
    assert all(t[2] == 1 for t in triples)


def test_s3_brute_force_reflection_count():
    G = load_group("S3")
    assert G.order == 6
    assert len(G.reflections) == 3
    assert G.num_reflection_classes == 1
    assert len(G.hyperplane_orbits) == 1


def test_g4_reflection_library():
    G = load_group("G4")
    assert G.order == 24
    assert len(G.reflections) == 8
    assert len(G.hyperplane_orbits) == 1
    orbit = G.hyperplane_orbits[0]
    assert orbit.e == 3
    assert len(orbit.hyperplanes) == 4
    assert G.num_reflection_classes == 2
    # two reflections per hyperplane
    per_h = {}
    for r in G.reflections:
        per_h[r.triple[1]] = per_h.get(r.triple[1], 0) + 1
    assert set(per_h.values()) == {2}


def test_cartan_pairing_c2():
    # the pairing is scale-invariant in root and coroot; on a line it is
    # <y, x> itself regardless of the sign flip's matrix
    G = load_group("C2")
    s = G.reflections[0]
    one = QQ.one()
    assert cartan_pairing((one,), (one,), s) == 1
    assert cartan_pairing((QQ.scalar(3),), (one,), s) == 3


def test_cartan_pairing_vanishing_and_rescaling():
    G = load_group("B2")
    s = G.reflections[0]
    spec = G.spec
    # a covector vanishing on the root pairs to zero
    root = s.root
    x = (root[1], -root[0])
    y = (spec.one(), spec.scalar(2))
    assert (root[0] * x[0] + root[1] * x[1]).is_zero()
    assert cartan_pairing(y, x, s).is_zero()
    # rescaling the root by c cancels between numerator and denominator
    x2 = (spec.one(), spec.one())
    v1 = cartan_pairing(y, x2, s)
    c = spec.scalar(Fraction(3, 5))
    scaled_root = tuple(v * c for v in s.root)
    num = (sum((cv * yv for cv, yv in zip(s.coroot, y)), spec.zero())
           * sum((rv * xv for rv, xv in zip(scaled_root, x2)), spec.zero()))
    den = sum((cv * rv for cv, rv in zip(s.coroot, scaled_root)), spec.zero())
    assert num / den == v1


def test_fundamental_invariants_degrees():
    G = load_group("B2")
    invs = G.fundamental_invariants("V")
    assert sorted(f.total_degree() for f in invs) == [2, 4]
    G2 = load_group("C2")
    invs2 = G2.fundamental_invariants("V")
    assert [f.total_degree() for f in invs2] == [2]
    G4 = load_group("G4")
    invs4 = G4.fundamental_invariants("V")
    assert sorted(f.total_degree() for f in invs4) == [4, 6]


def test_coinvariant_dimensions():
    for name in ("C2", "S3", "B2", "G4"):
        G = load_group(name)
        co = G.coinvariant_algebra("V")
        assert co.dim == G.order
        co2 = G.coinvariant_algebra("V*")
        assert co2.dim == G.order


def test_g4_coinvariant_series():
    G = load_group("G4")
    co = G.coinvariant_algebra("V")
    series = {}
    for d in co.degrees:
        series[d] = series.get(d, 0) + 1
    # (1 + t + t^2 + t^3)(1 + t + ... + t^5)
    expect = {}
    for a in range(4):
        for b in range(6):
            expect[a + b] = expect.get(a + b, 0) + 1
    assert series == expect


def test_variables_are_standard_monomials():
    for name in ("C2", "S3", "B2", "G4"):
        G = load_group(name)
        co = G.coinvariant_algebra("V")
        for i in range(G.n):
            e = tuple(1 if j == i else 0 for j in range(G.n))
            assert e in co.index


def test_character_table_sanity():
    for name in ("S3", "B2", "G4"):
        G = load_group(name)
        assert sum(rho.dim ** 2 for rho in G.irreps) == G.order


def test_g4_character_labels_in_printed_order():
    G = load_group("G4")
    assert [rho.label for rho in G.irreps] == [
        "phi_{1,0}", "phi_{1,4}", "phi_{1,8}", "phi_{2,5}", "phi_{2,3}",
        "phi_{2,1}", "phi_{3,2}"]


def test_trivial_character_fake_degree():
    for name in ("C2", "S3", "B2", "G4"):
        G = load_group(name)
        triv = G.irreps[0]
        assert triv.fake_degree == [1]
        assert triv.b_invariant == 0


def test_fake_degree_sum_is_poincare_series():
    G = load_group("G4")
    co = G.coinvariant_algebra("V")
    series = [0] * (max(co.degrees) + 1)
    for d in co.degrees:
        series[d] += 1
    total = [0] * len(series)
    for rho in G.irreps:
        for d, c in enumerate(rho.fake_degree):
            total[d] += c * rho.dim
    assert total == series


def test_coinvariant_action_preserves_degree():
    G = load_group("B2")
    co = G.coinvariant_algebra("V")
    for g in range(G.order):
        for idx, mono in enumerate(co.monomials):
            img = co.act(g, mono)
            for j in img:
                assert co.degrees[j] == co.degrees[idx]


def test_g4_reflection_class_order_det():
    G = load_group("G4")
    z = G.spec.gen()
    # the first reflection class consists of determinant-z3 reflections
    first = [r for r in G.reflections if r.refl_class == 0]
    assert all(r.det == z for r in first)
    second = [r for r in G.reflections if r.refl_class == 1]
    assert all(r.det == z * z for r in second)


@pytest.mark.parametrize("name", ["S3", "C2", "B2"])
def test_coinvariant_groebner_basis_matches_sympy(name):
    # sympy's reduced lex basis of the fundamental invariants is an
    # independent oracle for the coinvariant algebra's Buchberger basis
    sympy = pytest.importorskip("sympy")
    G = load_group(name)
    co = G.coinvariant_algebra("V")
    xs = sympy.symbols(f"x1:{G.n + 1}")

    def to_sympy(f):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.payload.numerator, c.payload.denominator)
             for e, c in f.terms.items()}, *xs, domain="QQ")

    def as_set(polys):
        return {tuple(sorted(p.monic().as_dict().items())) for p in polys}

    want = sympy.groebner([to_sympy(f) for f in co.invariants], *xs,
                          order="lex", domain="QQ")
    assert as_set(to_sympy(g) for g in co.groebner) == as_set(want.polys)
    assert co.dim == len(co.monomials) == G.order
