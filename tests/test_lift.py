import random

import numpy as np
import pytest

from cherednik.algebra import CherednikParameter, ParameterError, \
    euler_families, generic_ggor, ggor_from_values, restrict_to_hyperplane
from cherednik.groups import load_group
from cherednik.lift import (
    FiniteFieldSpec,
    LiftFailure,
    abstract_structure,
    concretize,
    decompose_family,
    draw_specialization,
    evaluate_scalar,
    find_submodule,
    gordon,
    head_and_radical,
    peel,
    specialize_module,
    verma_families,
)
from cherednik.linalg import ExactMatrix
from cherednik.meataxe import chop, is_isomorphic
from cherednik.modules import GradedModule, graded_spin, quotient_module, \
    verma_character, verma_module
from cherednik.scalars import QQ, FieldError, RationalFunctionField


def test_worked_structure_example():
    # columns (1,0,2,1) and (0,1,1,4): complexity 3 with the value 2
    # labeled first, then 1, then 4
    M = ExactMatrix.from_rows(QQ, [[1, 0], [0, 1], [2, 1], [1, 4]])
    A = abstract_structure(M)
    assert A.pivots == [0, 1]
    assert A.complexity == 3
    assert A.fine == {(2, 0): 1, (3, 0): 2, (2, 1): 2, (3, 1): 3}


def test_identity_structure():
    A = abstract_structure(ExactMatrix.identity(QQ, 3))
    assert A.complexity == 0
    assert A.fine == {}


def test_structure_invariant_under_value_relabeling():
    rng = random.Random(8)
    for _ in range(20):
        n, m = 6, 3
        piv = sorted(rng.sample(range(4), m))
        vals = [1, 2, 3, 7, -5]
        M = ExactMatrix(QQ, n, m)
        for j, p in enumerate(piv):
            M.entries[(p, j)] = QQ.one()
        for j in range(m):
            for i in range(max(piv) + 1, n):
                if rng.random() < 0.6:
                    v = QQ.scalar(rng.choice(vals))
                    if not v.is_zero():
                        M.entries[(i, j)] = v
        A = abstract_structure(M)
        # apply an injective value map: x -> 3x + 1 on the distinct values
        M2 = ExactMatrix(QQ, n, m)
        for (i, j), v in M.entries.items():
            if i == piv[j]:
                M2.entries[(i, j)] = v
            else:
                M2.entries[(i, j)] = v * 3 + 1
        assert abstract_structure(M2) == A


def test_concretize_roundtrip():
    M = ExactMatrix.from_rows(QQ, [[1, 0], [0, 1], [2, 1], [1, 4]])
    A = abstract_structure(M)
    theta = {1: QQ.scalar(2), 2: QQ.one(), 3: QQ.scalar(4)}
    assert concretize(A, theta, QQ) == M
    assert abstract_structure(concretize(A, theta, QQ)) == A
    with pytest.raises(FieldError):
        concretize(A, {1: 1, 2: 1, 3: 4}, QQ)
    with pytest.raises(FieldError):
        concretize(A, {1: 0, 2: 1, 3: 4}, QQ)


def test_concretize_complexity_zero():
    A = abstract_structure(ExactMatrix.identity(QQ, 2))
    assert concretize(A, {}, QQ) == ExactMatrix.identity(QQ, 2)


def test_specialize_scalar_paths():
    K = load_group("G4").spec
    F = RationalFunctionField(K, "k")
    z = F.embed(K.gen())
    kv = F.var()
    s = (z * kv + 3) / (kv + 1)
    val = evaluate_scalar(s, {"k": K.scalar(2)})
    assert val == (K.gen() * 2 + 3) / 3


def test_specialize_module_dims_preserved():
    G = load_group("B2")
    par = CherednikParameter(G, QQ, 0, [1, 2])
    V = verma_module(G, par, G.irreps[0])
    ff = FiniteFieldSpec(11, 0, {})
    M = specialize_module(V, ff)
    assert M.dim == V.dim
    assert M.degrees == V.degrees


def plant_instance(rng, nvalues):
    """Graded module (trivial grading) with a planted invariant subspace in
    canonical form using at most ``nvalues`` distinct fine values.

    The last rows stay outside every column support, mirroring how a
    radical misses the top of a module; the resulting homogeneous
    equations are what makes the linear cascade start."""
    n = rng.randint(7, 9)
    m = rng.randint(2, 3)
    piv = sorted(rng.sample(range(3), m))
    pool = [1, 2, 3, -1, 5][:nvalues]
    U = ExactMatrix(QQ, n, m)
    for j, p in enumerate(piv):
        U.entries[(p, j)] = QQ.one()
    nonpiv = [i for i in range(n) if i not in piv]
    band_top = n - 2  # keep two zero rows
    for j in range(m):
        for i in nonpiv:
            if piv[j] < i < band_top and rng.random() < 0.7:
                v = QQ.scalar(rng.choice(pool))
                U.entries[(i, j)] = v
    # adapted basis: U columns then the complement coordinate lines
    cols = U.columns() + [{i: QQ.one()} for i in nonpiv]
    B = ExactMatrix.from_columns(QQ, n, cols)
    Binv_cols = []
    for i in range(n):
        sol = B.solve({i: QQ.one()})
        col = sol[0]
        Binv_cols.append(col)
    Binv = ExactMatrix.from_columns(QQ, n, Binv_cols)
    mats = []
    for _ in range(3):
        X = ExactMatrix(QQ, n, n)
        for i in range(n):
            for j in range(n):
                if j < m and i >= m:
                    continue  # keep span(U) invariant in adapted coords
                if rng.random() < 0.7:
                    X.entries[(i, j)] = QQ.scalar(rng.randint(-3, 3))
        X.entries = {k: v for k, v in X.entries.items() if not v.is_zero()}
        mats.append(B * X * Binv)
    module = GradedModule(QQ, [0] * n, [f"a{t}" for t in range(3)],
                          [0, 0, 0], mats)
    return module, U.rcef()


def test_find_submodule_recovers_planted():
    rng = random.Random(424242)
    found = 0
    for trial in range(50):
        module, U = plant_instance(rng, nvalues=5)
        struct = abstract_structure(U)
        assert struct.complexity <= 5
        got = find_submodule(module, struct,
                             gen_names=[f"a{t}" for t in range(3)])
        assert not isinstance(got, str), f"trial {trial}: {got}"
        assert got == U
        found += 1
    assert found == 50


def test_find_submodule_never_returns_a_non_submodule():
    # corrupting the prescribed shape may make the search fail, but any
    # returned matrix is still a genuine invariant subspace
    from cherednik.modules import is_invariant_subspace
    rng = random.Random(7)
    module, U = plant_instance(rng, nvalues=3)
    struct = abstract_structure(U)
    zero_rows = [i for i in range(module.dim)
                 if all((i, j) not in U.entries for j in range(U.ncols))
                 and i not in struct.pivots]
    struct.fine[(zero_rows[0], 0)] = struct.complexity + 1
    struct.complexity += 1
    got = find_submodule(module, struct,
                         gen_names=[f"a{t}" for t in range(3)])
    if not isinstance(got, str):
        assert is_invariant_subspace(module, got)


def test_complexity_zero_stable_structure():
    # a generator-stable coordinate subspace returns after the spin check
    mats = [ExactMatrix.from_rows(QQ, [[1, 0, 0], [0, 2, 1], [0, 0, 3]]),
            ExactMatrix.from_rows(QQ, [[2, 0, 0], [0, 1, 0], [0, 1, 1]])]
    module = GradedModule(QQ, [0, 0, 0], ["a0", "a1"], [0, 0], mats)
    U = ExactMatrix(QQ, 3, 2)
    U.entries[(1, 0)] = QQ.one()
    U.entries[(2, 1)] = QQ.one()
    struct = abstract_structure(U)
    got = find_submodule(module, struct, gen_names=["a0", "a1"])
    assert got == U


def test_verma_families_trivial_and_blocked():
    diag = {(i, j): (1 if i == j else 0) for i in (1, 2, 3)
            for j in (1, 2, 3)}
    assert verma_families(diag) == [(1,), (2,), (3,)]
    mixed = dict(diag)
    mixed[(1, 2)] = 2
    assert verma_families(mixed) == [(1, 2), (3,)]


def test_gordon_s3_generic_point():
    # at c = 1 every simple has dimension |W| = 6, the CM families are
    # singletons, and the reflection representation (3) occurs twice in its
    # own Verma module: dim 12 = 2 * 6
    G = load_group("S3")
    rec = gordon(G, CherednikParameter(G, QQ, 0, [1]), seed=0)
    assert rec.simple_dims == {1: 6, 2: 6, 3: 6}
    assert rec.verma_decomposition[(3, 3)] == 2
    assert rec.cm_families == [(1,), (2,), (3,)]


def test_gordon_s3_at_c_zero():
    # at c = 0 the heads are the irreducibles in degree 0, and the Verma
    # module of lam is K[V]_W (x) lam, whose composition factors count
    # [Delta(lam) : L(mu)] = dim lam * dim mu
    G = load_group("S3")
    rec = gordon(G, CherednikParameter(G, QQ, 0, [0]), seed=0)
    dims = {i + 1: rho.dim for i, rho in enumerate(G.irreps)}
    assert rec.simple_dims == dims == {1: 1, 2: 1, 3: 2}
    for (lam, mu), mult in rec.verma_decomposition.items():
        assert mult == dims[lam] * dims[mu]
    assert rec.cm_families == [(1, 2, 3)]


def test_gordon_b2_hyperplane_family():
    G = load_group("B2")
    par = restrict_to_hyperplane(G, "k1_1-k2_1").to_cherednik()
    rec = gordon(G, par, "k1_1-k2_1", seed=0)
    assert (3, 4, 5) in rec.cm_families
    assert [rec.simple_dims[i] for i in (3, 4, 5)] == [1, 1, 6]


def test_gordon_rejects_parameters_outside_a_field():
    # the generic S3 parameter lives in a polynomial ring, where the
    # submodule search cannot divide
    G = load_group("S3")
    with pytest.raises(ParameterError):
        gordon(G, generic_ggor(G).to_cherednik())


def oracle_cases():
    """id -> (group, parameter, families) for the MeatAxe cross-check;
    families None means every Euler family."""
    S3, B2, G4 = load_group("S3"), load_group("B2"), load_group("G4")
    return {
        "S3_c1": (S3, CherednikParameter(S3, QQ, 0, [1]), None),
        "B2_c12": (B2, CherednikParameter(B2, QQ, 0, [1, 2]), None),
        "B2_hyp": (B2, restrict_to_hyperplane(B2, "k1_1-k2_1").to_cherednik(),
                   [(3, 4, 5)]),
        "G4_k13": (G4, ggor_from_values(G4, G4.spec, {(0, 1): 1, (0, 2): 3})
                   .to_cherednik(), [(4,), (7,)]),
    }


@pytest.mark.parametrize("case", ["S3_c1", "B2_c12", "B2_hyp", "G4_k13"])
def test_peeled_rows_match_meataxe_oracle(case):
    # the MeatAxe counts the composition factors of each Verma mod p by
    # chopping it and matching every factor with the specialized heads; the
    # count must equal the row peeled from graded characters
    G, par, families = oracle_cases()[case]
    if families is None:
        families = [m for m, _ in euler_families(G, par)]
    for members in families:
        vermas = {}
        fam = decompose_family(G, par, members, random.Random(0), vermas)
        heads = {mu: specialize_module(fam.heads[mu].head, fam.spec)
                 for mu in members}
        for lam in members:
            vbar = specialize_module(vermas[lam], fam.spec)
            row = dict.fromkeys(members, 0)
            for simple, mult in chop(vbar, random.Random(1)):
                matches = [mu for mu in members
                           if is_isomorphic(simple, heads[mu])]
                assert len(matches) == 1
                row[matches[0]] += mult
            assert row == {mu: fam.matrix[(lam, mu)] for mu in members}


def test_peel_needs_every_member_head():
    # at c = 0 the simples are the irreps in degree 0, and the Verma of the
    # 2-dimensional irrep of S3 contains all three of them
    G = load_group("S3")
    simples = {mu: [{0: 1} if nu == mu else {} for nu in (1, 2, 3)]
               for mu in (1, 2, 3)}
    chi = verma_character(G, G.irreps[2])
    assert peel(chi, simples) == {1: 2, 2: 2, 3: 4}
    del simples[2]
    with pytest.raises(LiftFailure):
        peel(chi, simples)


def test_peel_rejects_a_character_that_does_not_peel():
    # the trivial irrep in degree 0 plus the reflection irrep in degree 2 is
    # no sum of shifted simples when the trivial simple is the whole trivial
    # Verma module: taking it off leaves a negative multiplicity in degree
    # 1, or, when the simple's extra part lies above the character's top
    # degree, a remainder there
    G = load_group("S3")
    chi = [{0: 1}, {}, {2: 1}]
    simples = {mu: [{0: 1} if nu == mu else {} for nu in (1, 2, 3)]
               for mu in (1, 2, 3)}
    assert peel(chi, simples) == {1: 1, 2: 0, 3: 1}
    simples[1] = verma_character(G, G.irreps[0])
    with pytest.raises(LiftFailure, match="irrep 3 in degree 1"):
        peel(chi, simples)
    simples[1] = [{0: 1, 5: 1}, {}, {}]
    with pytest.raises(LiftFailure, match="to zero"):
        peel(chi, simples)
