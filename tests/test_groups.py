import math
import random
import re
import shutil
from fractions import Fraction

import pytest

from cherednik import groups
from cherednik.groups import (GroupDataError, cartan_pairing, data_directory,
                              load_group, mat_mul)
from cherednik.multipoly import MultiPoly
from cherednik.scalars import QQ, FieldError


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


PUBLISHED_DEGREES = {"S3": (2, 3), "C2": (2,), "B2": (2, 4), "G4": (4, 6)}


@pytest.mark.parametrize("name", sorted(PUBLISHED_DEGREES))
def test_degrees_match_the_published_degrees(name):
    # Shephard-Todd: prod d_i = |G| and sum (d_i - 1) counts the reflections
    G = load_group(name)
    degrees = G.degrees()
    assert degrees == PUBLISHED_DEGREES[name]
    assert math.prod(degrees) == G.order
    assert sum(d - 1 for d in degrees) == len(G.reflections)
    for side in ("V", "V*"):
        assert [f.total_degree() for f in G.fundamental_invariants(side)] \
            == list(degrees)


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


def test_multiplicities_of_a_non_character_raise():
    # the identity indicator pairs with chi to chi(1)/6, not an integer
    G = load_group("S3")
    values = [G.spec.one() if cls[0] == G.identity else G.spec.zero()
              for cls in G.conj_classes]
    assert values == [1, 0, 0]
    with pytest.raises(FieldError, match="not an integer"):
        G.multiplicities({0: values})


G4_LABELS = ["phi_{1,0}", "phi_{1,4}", "phi_{1,8}", "phi_{2,5}",
             "phi_{2,3}", "phi_{2,1}", "phi_{3,2}"]


def test_g4_character_labels_in_printed_order():
    G = load_group("G4")
    assert [rho.label for rho in G.irreps] == G4_LABELS


def test_trivial_character_fake_degree():
    for name in ("C2", "S3", "B2", "G4"):
        G = load_group(name)
        triv = G.irreps[0]
        assert triv.fake_degree == [1]
        assert triv.b_invariant == 0


# fake degrees of the published character tables, as coefficient lists from
# degree 0, in the order of the group files
PUBLISHED_FAKE_DEGREES = {
    "S3": [[1], [0, 0, 0, 1], [0, 1, 1]],
    "C2": [[1], [0, 1]],
    "B2": [[1], [0, 0, 0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1, 0, 1]],
    "G4": [[1], [0, 0, 0, 0, 1], [0] * 8 + [1], [0, 0, 0, 0, 0, 1, 0, 1],
           [0, 0, 0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0, 1, 0, 1]],
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_FAKE_DEGREES))
def test_fake_degrees_match_the_published_tables(name):
    G = load_group(name)
    assert [rho.fake_degree for rho in G.irreps] == \
        PUBLISHED_FAKE_DEGREES[name]


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


@pytest.mark.parametrize("name", ["S3", "C2", "B2", "G4"])
def test_graded_coinvariant_characters_are_the_traces(name):
    # oracle: the trace of each class representative on each degree, summed
    # over that degree's standard monomials of the coinvariant action
    G = load_group(name)
    co = G.coinvariant_algebra("V")
    zero = G.spec.zero()
    want = []
    for d in range(max(co.degrees) + 1):
        idxs = [i for i, e in enumerate(co.monomials) if sum(e) == d]
        want.append(tuple(
            sum((co.act(cls[0], co.monomials[i]).get(i, zero)
                 for i in idxs), zero)
            for cls in G.conj_classes))
    assert G.graded_coinvariant_characters() == tuple(want)


def test_graded_coinvariant_characters_are_immutable():
    # the cached value is shared by every caller
    chars = load_group("B2").graded_coinvariant_characters()
    assert isinstance(chars, tuple)
    assert all(isinstance(row, tuple) for row in chars)


@pytest.mark.parametrize("side", ["V", "V*"])
@pytest.mark.parametrize("name", ["S3", "B2", "G4"])
def test_coinvariant_action_is_the_substitution(name, side):
    # co.act builds g . x^mu from g . x^(mu - e_j) and the products of the
    # algebra; the oracle substitutes the variable images into x^mu and
    # reduces the result to normal form
    G = load_group(name)
    co = G.coinvariant_algebra(side)
    for g in range(G.order):
        imgs = G.variable_images(g, side)
        for mono in co.monomials:
            p = MultiPoly(G.spec, G.n, {mono: G.spec.one()})
            assert co.act(g, mono) == co.nf_coeffs(p.substitute(imgs))


def test_loading_builds_no_coinvariant_algebra(tmp_path, monkeypatch):
    # the labels and fake degrees come from the closed form of the graded
    # coinvariant characters: no coinvariant algebra, Groebner basis or
    # invariant is computed on loading
    def refuse(*args, **kwargs):
        raise AssertionError("computed on loading")

    monkeypatch.setattr(groups.CoinvariantAlgebra, "__init__", refuse)
    monkeypatch.setattr(groups, "buchberger", refuse)
    monkeypatch.setattr(groups.ReflectionGroup, "fundamental_invariants",
                        refuse)
    for name in ("S3", "G4"):
        shutil.copy(f"{data_directory()}/{name}.grp", tmp_path)
    monkeypatch.setenv("CHEREDNIK_GROUP_DB", str(tmp_path))
    S3, G4 = load_group("S3"), load_group("G4")
    assert [rho.label for rho in S3.irreps] == [
        "phi_{1,0}", "phi_{1,3}", "phi_{2,1}"]
    assert [rho.label for rho in G4.irreps] == G4_LABELS
    for name, G in (("S3", S3), ("G4", G4)):
        assert [rho.fake_degree for rho in G.irreps] == \
            PUBLISHED_FAKE_DEGREES[name]


def test_g4_reflection_class_order_det():
    G = load_group("G4")
    z = G.spec.gen()

    def det(r):
        (a, b), (c, d) = r.matrix
        return a * d - b * c

    # the first reflection class consists of determinant-z3 reflections;
    # a reflection's determinant is its non-unit eigenvalue eps
    first = [r for r in G.reflections if r.refl_class == 0]
    assert all(r.eps == z and det(r) == z for r in first)
    second = [r for r in G.reflections if r.refl_class == 1]
    assert all(r.eps == z * z and det(r) == z * z for r in second)


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


@pytest.mark.parametrize("name", ["S3", "C2", "B2", "G4"])
def test_group_table_is_the_matrix_product(name):
    G = load_group(name)
    for a in range(G.order):
        for b in range(G.order):
            m = mat_mul(G.spec, G.elements[a], G.elements[b])
            assert G.mult[a][b] == G.element_index[m]
        assert G.mult[a][G.inverse[a]] == G.identity


# fundamental_invariants("V") as printed before the ideal-membership test
# replaced the Jacobian test
PINNED_INVARIANTS = {
    "S3": "[x1^2 - x1*x2 + x2^2, x1^2*x2 - x1*x2^2]",
    "B2": "[x1^2 + x2^2, x1^4 + x2^4]",
    "G4": "[x1^4 - x1*x2^3, x1^6 + 5/2*x1^3*x2^3 - 1/8*x2^6]",
}


@pytest.mark.parametrize("name", sorted(PINNED_INVARIANTS))
def test_fundamental_invariants_pinned(name):
    G = load_group(name)
    assert repr(G.fundamental_invariants("V")) == PINNED_INVARIANTS[name]


@pytest.mark.parametrize("side", ["V", "V*"])
@pytest.mark.parametrize("name", ["S3", "C2", "B2"])
def test_fundamental_invariants_against_sympy(name, side):
    # each invariant is fixed by every generator, x -> M x on side V and
    # y -> M^T y on side V*, and the Jacobian determinant of a set of basic
    # invariants is a nonzero product of one linear form per reflection
    sympy = pytest.importorskip("sympy")
    G = load_group(name)
    xs = sympy.symbols(f"x1:{G.n + 1}")
    invs = [sympy.Add(*(sympy.Rational(c.payload.numerator,
                                       c.payload.denominator)
                        * sympy.Mul(*(x ** k for x, k in zip(xs, e)))
                        for e, c in f.terms.items()))
            for f in G.fundamental_invariants(side)]
    assert len(invs) == G.n
    for gen in G.gens:
        m = sympy.Matrix([[sympy.Rational(v.payload.numerator,
                                          v.payload.denominator)
                           for v in row] for row in gen])
        if side == "V*":
            m = m.T
        moved = dict(zip(xs, m * sympy.Matrix(xs)))
        for f in invs:
            assert sympy.expand(f.subs(moved, simultaneous=True) - f) == 0
    jac = sympy.expand(sympy.Matrix(
        [[sympy.diff(f, x) for x in xs] for f in invs]).det())
    assert jac != 0
    assert sympy.Poly(jac, *xs).total_degree() == len(G.reflections)


@pytest.mark.parametrize("side", ["V", "V*"])
def test_g4_fundamental_invariants_are_invariant(side):
    G = load_group("G4")
    invs = G.fundamental_invariants(side)
    assert [f.total_degree() for f in invs] == [4, 6]
    for gen in G.gens:
        imgs = G.variable_images(G.element_index[gen], side)
        for f in invs:
            assert f.substitute(imgs) == f


MALFORMED_GROUP_FILES = {
    "generator before dim": (
        "group X\nfield rationals\ngenerator\n -1\ndim 1\n",
        "before the dim line"),
    "no field line": (
        "group X\ndim 1\ngenerator\n -1\n", "before the field line"),
    "too few matrix rows": (
        "group X\nfield rationals\ndim 2\ngenerator\n -1 0\n",
        "ends before its 2 rows"),
    "short row": (
        "group X\nfield rationals\ndim 2\ngenerator\n -1 0\n 1\n",
        "has 1 entries, expected 2"),
    "no generator": (
        "group X\nfield rationals\ndim 1\n", "no generator"),
    "dim two": (
        "group X\nfield rationals\ndim two\ngenerator\n -1\n",
        "dim must be a positive integer, got 'two'"),
    "a broken non-tree relation": (
        # the group {1, -1}: rho(-1) rho(-1) = 4 is not rho(1) = 1, and the
        # edge (-1) * (-1) = 1 is not an edge of the enumeration tree
        "group X\nfield rationals\ndim 1\ngenerator\n -1\n"
        "irrep a\nmatrix 1\n 2\n",
        "matrices violate the multiplication table"),
    "two equal irreps": (
        "group X\nfield rationals\ndim 1\ngenerator\n -1\n"
        "irrep a\nmatrix 1\n -1\nirrep b\nmatrix 1\n -1\n",
        "shipped irreps fail character orthogonality"),
    "unknown symbol": (
        "group X\nfield rationals\ndim 1\ngenerator\n x\n",
        "generator 1: row 'x': unknown symbol 'x'"),
    "division by zero": (
        "group X\nfield rationals\ndim 1\ngenerator\n 1/0\n",
        "generator 1: row '1/0': division by zero"),
    "unshipped cyclotomic field": (
        "group X\nfield cyclotomic 7\ndim 1\ngenerator\n -1\n",
        "field line: cyclotomic field of order 7 is not shipped"),
    "zero generator": (
        "group X\nfield rationals\ndim 1\ngenerator\n 0\n",
        "a generator matrix is not invertible"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GROUP_FILES))
def test_malformed_group_file_raises_group_data_error(case, tmp_path,
                                                     monkeypatch):
    text, message = MALFORMED_GROUP_FILES[case]
    (tmp_path / "X.grp").write_text(text)
    monkeypatch.setenv("CHEREDNIK_GROUP_DB", str(tmp_path))
    with pytest.raises(GroupDataError, match=re.escape(message)):
        load_group("X")
