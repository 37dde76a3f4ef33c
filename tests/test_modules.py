import os
import random

import pytest

from cases import build
from cherednik.algebra import CherednikParameter, generic_ggor, \
    restrict_to_hyperplane
from cherednik.groups import data_directory, load_group, load_group_file
from cherednik.linalg import ExactMatrix
from cherednik.modules import (
    GradedModule,
    ModuleError,
    _class_columns,
    _verma_pencil,
    check_module_relations,
    graded_character,
    graded_spin,
    quotient_module,
    verma_character,
    verma_module,
    x_tables,
)
from cherednik.multipoly import MultiPoly
from cherednik.scalars import Scalar


# a pinned point of each group with every c value nonzero
POINT = {"S3": "S3_c1", "B2": "B2_c12", "G4": "G4_k13"}


def hyperplane_par():
    G = load_group("G4")
    return G, restrict_to_hyperplane(G, "k1_1-k1_2").to_cherednik()


def generic_par(name):
    G = load_group(name)
    k = generic_ggor(G, rational=(sum(o.e - 1 for o in
                                      G.hyperplane_orbits) == 1))
    return G, k.to_cherednik()


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
    rows = tables[s.element]
    co = G.coinvariant_algebra("V")
    mu = co.index[(1,)]
    # one-term telescope: Q_s(x) = root / <coroot, root> at the constant
    # monomial, and coroot * Q_s(x) = (y, x)_s
    assert rows[mu] == {co.index[(0,)]: s.scaled_root[0]}
    assert s.coroot[0] * rows[mu][co.index[(0,)]] == s.pairing(0, 0)


def _group_part(G, s, i, mu):
    """P_s(i, mu), the group part of [y_i, x^mu] at s, by the Leibniz rule
    P_s(i, x^nu x_j) = P_s(i, x^nu) (s x_j) + (y_i, x_j)_s x^nu."""
    imgs = G.variable_images(s.element, "V")
    total = MultiPoly.zero(G.spec, G.n)
    nu = [0] * G.n
    for j in range(G.n):
        for _ in range(mu[j]):
            total = total * imgs[j] + MultiPoly(G.spec, G.n,
                                                {tuple(nu): s.pairing(i, j)})
            nu[j] += 1
    return total


def test_x_table_reconstruction_against_commutator():
    # P_s(i, mu) = coroot_s[i] Q_s(mu): the per-reflection table row, scaled
    # by the coroot, is the group part of [y_i, x^mu] reduced into the
    # coinvariant algebra, for every i, s and mu
    for name in ("B2", "G4"):
        G = load_group(name)
        co = G.coinvariant_algebra("V")
        tables = x_tables(G)
        for s in G.reflections:
            for i in range(G.n):
                for mu_idx, mu in enumerate(co.monomials):
                    row = tables[s.element].get(mu_idx, {})
                    scaled = {eta: s.coroot[i] * c for eta, c in row.items()
                              if not s.coroot[i].is_zero()}
                    assert scaled == co.nf_coeffs(_group_part(G, s, i, mu))


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
        for rho in G.irreps:
            V = verma_module(G, par, rho)
            ok, why = check_module_relations(G, par, V)
            assert ok, why


@pytest.mark.parametrize("name,where", [("S3", "point"), ("B2", "point"),
                                        ("B2", "k1_1-k2_1")])
def test_every_verma_satisfies_relations(name, where):
    # every irrep, so the d x d blocks of the 2-dimensional irreps enter the
    # y-matrices, both at a point and at the generic point of a hyperplane
    G, par, _ = build(POINT[name] if where == "point" else "B2_hyp")
    assert any(rho.dim > 1 for rho in G.irreps)
    for rho in G.irreps:
        V = verma_module(G, par, rho)
        ok, why = check_module_relations(G, par, V)
        assert ok, (rho.label, why)


def test_g4_verma_relations():
    G, par = hyperplane_par()
    V = verma_module(G, par, G.irrep_by_label("phi_{1,4}"))
    ok, why = check_module_relations(G, par, V)
    assert ok, why


def test_g4_two_dimensional_verma_relations():
    G, par, _ = build("G4_k13")
    rho = G.irrep_by_label("phi_{2,3}")
    assert rho.dim == 2
    V = verma_module(G, par, rho)
    ok, why = check_module_relations(G, par, V)
    assert ok, why


@pytest.mark.parametrize("case", ["B2_c12", "B2_hyp"])
def test_verma_cache_does_not_leak_between_calls(case):
    # B2_hyp runs over Q(k), so the pencil embedded per ring is cached for
    # a ring other than the group's field
    G, par_a, _ = build(case)
    ring = par_a.ring
    rho = G.irreps[4]  # the 2-dimensional irrep
    par_b = CherednikParameter(G, ring, 0, [3, -1])
    first = verma_module(G, par_a, rho)
    kept = (list(first.degrees), [dict(m.entries) for m in first.mats])
    one = G.spec.one()
    for m in first.mats:
        for key in list(m.entries):
            m.entries[key] = m.entries[key] + one
        m.entries[(0, 0)] = one
    first.degrees[0] = 99
    at_b = verma_module(G, par_b, rho)
    again = verma_module(G, par_a, rho)
    assert (again.degrees, [m.entries for m in again.mats]) == kept
    # a group loaded afresh has an empty cache
    fresh = load_group_file(os.path.join(data_directory(), "B2.grp"))
    assert fresh is not G
    built = verma_module(fresh, CherednikParameter(fresh, ring, 0, [3, -1]),
                         fresh.irreps[4])
    assert built.degrees == at_b.degrees
    assert [m.entries for m in built.mats] == [m.entries for m in at_b.mats]
    chars = verma_character(G, rho)
    chars[0][0] = 99
    assert verma_character(G, rho) == verma_character(fresh, fresh.irreps[4])


@pytest.mark.parametrize("case", ["S3_c1", "B2_c12", "B2_hyp", "G4_k13",
                                  "G4_hyp"])
def test_verma_y_matrices_are_the_pencil_evaluated(case):
    # each entry of y_i against sum_j c_j embed(Y_i^(j)) formed by Scalar
    # arithmetic from the cached pencil's payloads
    G, par, _ = build(case)
    ring = par.ring
    for rho in G.irreps:
        V = verma_module(G, par, rho)
        for i, classes in enumerate(_verma_pencil(G, rho)[1]):
            want = {}
            for cj, pencil in zip(par.c, classes):
                for key, v in pencil.items():
                    want[key] = want.get(key, ring.zero()) \
                        + cj * ring.embed(Scalar(G.spec, v))
            assert V.mats[i].entries == {key: v for key, v in want.items()
                                         if not v.is_zero()}


@pytest.mark.parametrize("name,irreps", [("S3", None), ("B2", None),
                                          ("G4", (4, 7))])
def test_class_columns_match_the_verma_element_matrices(name, irreps):
    # the cached columns of each non-identity class representative against
    # its matrix on verma_module, multiplied out from the generator matrices
    # along the enumeration words
    G, par, _ = build(POINT[name])
    reps = {cls[0]: ci for ci, cls in enumerate(G.conj_classes)
            if cls[0] != G.identity}
    for rho in [G.irreps[i - 1] for i in irreps] if irreps else G.irreps:
        V = verma_module(G, par, rho)
        gmats = V.mats[G.n:G.n + len(G.gens)]
        mats = {G.identity: ExactMatrix.identity(V.spec, V.dim)}

        def matrix(idx):
            if idx not in mats:
                parent, gi = G.parent_edge[idx]
                mats[idx] = matrix(parent) * gmats[gi]
            return mats[idx]

        built = {ci: {} for ci in reps.values()}
        for p, pairs in enumerate(_class_columns(G, rho, par.ring)):
            for ci, col in pairs:
                built[ci].update(((i, p), Scalar(par.ring, v))
                                 for i, v in col.items())
        for g, ci in reps.items():
            assert built[ci] == matrix(g).entries


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
    G, par, _ = build("B2_c12")
    V = verma_module(G, par, G.irreps[4])  # the 2-dimensional irrep
    seeds = [{i: V.spec.one()} for i, d in enumerate(V.degrees) if d == 0]
    span = graded_spin(V, seeds)
    assert span.ncols == V.dim


def test_graded_spin_matches_matrix_closure():
    # oracle: close the seed's span under whole-matrix products until the
    # canonical basis stops growing
    G, par, _ = build("B2_c12")
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
    G, par, _ = build("B2_c12")
    V = verma_module(G, par, G.irreps[0])
    assert graded_spin(V, [{}]).ncols == 0


def test_graded_spin_rejects_inhomogeneous():
    G, par, _ = build("B2_c12")
    V = verma_module(G, par, G.irreps[0])
    i0 = V.degrees.index(0)
    i1 = V.degrees.index(1)
    with pytest.raises(ModuleError):
        graded_spin(V, [{i0: V.spec.one(), i1: V.spec.one()}])


def test_quotient_trivial_cases():
    G, par, _ = build("B2_c12")
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
    # c = 0 and at a pinned nonzero point
    G, point, _ = build(POINT[name])
    zero = CherednikParameter(G, G.spec, 0, [0] * G.num_reflection_classes)
    for par in (zero, point):
        for rho in G.irreps:
            assert verma_character(G, rho) \
                == graded_character(G, verma_module(G, par, rho))
