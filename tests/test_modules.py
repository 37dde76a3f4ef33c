import random

import pytest

from cherednik.algebra import CherednikAlgebra, CherednikParameter, \
    generic_ggor, ggor_from_values, restrict_to_hyperplane
from cherednik.groups import load_group
from cherednik.linalg import ExactMatrix
from cherednik.modules import (
    GradedModule,
    ModuleError,
    check_module_relations,
    graded_character,
    graded_spin,
    module_from_text,
    module_to_text,
    quotient_module,
    spec_from_text,
    spec_to_text,
    verma_character,
    verma_module,
    x_tables,
)
from cherednik.multipoly import MultiPoly
from cherednik.scalars import PolyRing, RationalFunctionField


def hyperplane_par(name="G4", form="k1_1-k1_2"):
    G = load_group(name)
    k = restrict_to_hyperplane(G, form)
    return G, k.to_cherednik()


def generic_par(name):
    G = load_group(name)
    k = generic_ggor(G, rational=(sum(o.e - 1 for o in
                                      G.hyperplane_orbits) == 1))
    return G, k.to_cherednik()


def numeric_par(name, values=None):
    G = load_group(name)
    vals = values or list(range(1, G.num_reflection_classes + 1))
    from cherednik.scalars import QQ
    return G, CherednikParameter(G, QQ if G.spec.kind == "rationals"
                                 else G.spec, 0, vals)


def test_x_table_zero_row_for_constant():
    G = load_group("B2")
    tables = x_tables(G)
    co = G.coinvariant_algebra("V")
    zero_idx = co.index[(0, 0)]
    for key, rows in tables.items():
        assert zero_idx not in rows


def test_x_table_c2_single_entry():
    G = load_group("C2")
    tables = x_tables(G)
    s = G.reflections[0]
    rows = tables[(0, s.element)]
    co = G.coinvariant_algebra("V")
    mu = co.index[(1,)]
    # one-term telescope: (y,x)_s * 1 at the constant monomial
    assert rows[mu] == {co.index[(0,)]: s.pairing(0, 0)}


def test_x_table_reconstruction_against_commutator():
    # the table rows match the group part of [y_i, x^mu] reduced into the
    # coinvariant algebra, for every reflection separately
    G = load_group("B2")
    ring = PolyRing(G.spec, ["c1", "c2"])
    par = CherednikParameter(G, ring, 0,
                             [ring.var("c1"), ring.var("c2")])
    A = CherednikAlgebra(G, par)
    co = G.coinvariant_algebra("V")
    tables = x_tables(G)
    rng = random.Random(3)
    for _ in range(20):
        i = rng.randrange(2)
        mu_idx = rng.randrange(co.dim)
        mu = co.monomials[mu_idx]
        comm = A.commutator_group_part(i, mu)
        for s in G.reflections:
            row = tables[(i, s.element)].get(mu_idx, {})
            expect = MultiPoly.zero(ring, 2)
            for eta_idx, c in row.items():
                eta = co.monomials[eta_idx]
                expect = expect + MultiPoly(
                    ring, 2, {eta: ring.embed(c) * par.c_of(s)})
            got = comm.get(s.element, MultiPoly.zero(ring, 4))
            # reduce the 2n-variable x-polynomial into the coinvariant basis
            got2 = MultiPoly(ring, 2,
                             {e[:2]: c for e, c in got.terms.items()})
            gotnf = MultiPoly.zero(ring, 2)
            for e, c in got2.terms.items():
                red = co.nf(MultiPoly(G.spec, 2, {e: G.spec.one()}))
                for ee, cc in red.terms.items():
                    gotnf = gotnf + MultiPoly(ring, 2,
                                              {ee: ring.embed(cc) * c})
            assert gotnf == expect


def test_g4_verma_dimension_and_degrees():
    G, par = hyperplane_par()
    rho = G.irrep_by_label("phi_{1,4}")
    V = verma_module(G, par, rho)
    assert V.dim == 24
    assert V.gen_degrees == [-1, -1, 0, 0, 1, 1]
    assert min(V.degrees) == 0 and max(V.degrees) == 8


def test_g4_verma_phi32_dimension():
    G, par = hyperplane_par()
    rho = G.irrep_by_label("phi_{3,2}")
    V = verma_module(G, par, rho)
    assert V.dim == 72


def test_b2_verma_dims():
    G, par = generic_par("B2")
    for rho in G.irreps:
        if rho.dim == 1:
            V = verma_module(G, par, rho)
            assert V.dim == 8


def test_verma_satisfies_relations():
    for name in ("C2", "S3", "B2"):
        G, par = generic_par(name)
        for rho in G.irreps[:2]:
            V = verma_module(G, par, rho)
            ok, why = check_module_relations(G, par, V)
            assert ok, why


def test_g4_verma_relations():
    G, par = hyperplane_par()
    V = verma_module(G, par, G.irrep_by_label("phi_{1,4}"))
    ok, why = check_module_relations(G, par, V)
    assert ok, why


def test_perturbed_module_fails_relations():
    G, par = generic_par("B2")
    V = verma_module(G, par, G.irreps[0])
    V.mats[0] = V.mats[0] + ExactMatrix(
        V.spec, V.dim, V.dim,
        {(0, next(i for i, d in enumerate(V.degrees) if d == 1)):
         V.spec.one()})
    ok, why = check_module_relations(G, par, V)
    assert not ok


def test_verma_generated_in_lowest_degree():
    G, par = numeric_par("B2")
    V = verma_module(G, par, G.irreps[4])  # the 2-dimensional irrep
    seeds = [{i: V.spec.one()} for i, d in enumerate(V.degrees) if d == 0]
    span = graded_spin(V, seeds)
    assert span.ncols == V.dim


def test_graded_spin_matches_matrix_closure():
    # oracle: close the seed's span under whole-matrix products until the
    # canonical basis stops growing
    G, par = numeric_par("B2")
    V = verma_module(G, par, G.irreps[4])
    rng = random.Random(5)
    for degree in (1, 2, 3):
        rows = [i for i, d in enumerate(V.degrees) if d == degree]
        seed = {i: V.spec.scalar(rng.randint(1, 5)) for i in rows}
        want = ExactMatrix.from_columns(V.spec, V.dim, [seed])
        while True:
            cols = want.columns()
            for m in V.mats:
                cols += (m * want).columns()
            grown = ExactMatrix.from_columns(V.spec, V.dim, cols).rcef()
            grown = ExactMatrix.from_columns(
                V.spec, V.dim, [c for c in grown.columns() if c])
            if grown.ncols == want.ncols:
                break
            want = grown
        assert graded_spin(V, [seed]) == grown


def test_graded_spin_zero_seed():
    G, par = numeric_par("B2")
    V = verma_module(G, par, G.irreps[0])
    assert graded_spin(V, [{}]).ncols == 0


def test_graded_spin_rejects_inhomogeneous():
    G, par = numeric_par("B2")
    V = verma_module(G, par, G.irreps[0])
    i0 = V.degrees.index(0)
    i1 = V.degrees.index(1)
    with pytest.raises(ModuleError):
        graded_spin(V, [{i0: V.spec.one(), i1: V.spec.one()}])


def test_quotient_trivial_cases():
    G, par = numeric_par("B2")
    V = verma_module(G, par, G.irreps[0])
    q0 = quotient_module(V, ExactMatrix(V.spec, V.dim, 0))
    assert q0.module.dim == V.dim
    whole = graded_spin(V, [{i: V.spec.one()} for i in range(V.dim)])
    qall = quotient_module(V, whole)
    assert qall.module.dim == 0


def test_degree_zero_piece_is_the_irrep():
    G, par = hyperplane_par()
    rho = G.irrep_by_label("phi_{2,3}")
    V = verma_module(G, par, rho)
    chars = graded_character(G, V)
    idx = G.irreps.index(rho)
    assert chars[idx].get(0) == 1
    for other, row in enumerate(chars):
        if other != idx:
            assert 0 not in row


def test_graded_character_poincare_consistency():
    G, par = hyperplane_par()
    V = verma_module(G, par, G.irrep_by_label("phi_{1,8}"))
    chars = graded_character(G, V)
    series = {}
    for rho, row in zip(G.irreps, chars):
        for d, m in row.items():
            series[d] = series.get(d, 0) + m * rho.dim
    assert series == V.poincare_series()


@pytest.mark.parametrize("name", ["S3", "B2", "G4"])
def test_verma_character_closed_form(name):
    # the closed form against the traces of the assembled Verma module, at
    # c = 0 and at a nonzero point
    G = load_group(name)
    zero = CherednikParameter(G, G.spec, 0, [0] * G.num_reflection_classes)
    if name == "G4":
        point = ggor_from_values(G, G.spec, {(0, 1): 1, (0, 2): 3}) \
            .to_cherednik()
    else:
        point = CherednikParameter(G, G.spec, 0, [1, 2][:len(zero.c)])
    for par in (zero, point):
        for rho in G.irreps:
            assert verma_character(G, rho) \
                == graded_character(G, verma_module(G, par, rho))


def test_module_serialization_roundtrip():
    G, par = generic_par("C2")
    V = verma_module(G, par, G.irreps[1])
    text = module_to_text(V)
    W = module_from_text(text)
    assert W.dim == V.dim
    assert W.degrees == V.degrees
    assert W.gen_degrees == V.gen_degrees
    assert all(a == b for a, b in zip(W.mats, V.mats))


def test_spec_text_roundtrip():
    G = load_group("G4")
    specs = [G.spec,
             RationalFunctionField(G.spec, "k"),
             PolyRing(G.spec, ["a", "b"])]
    for s in specs:
        assert spec_from_text(spec_to_text(s)) == s
