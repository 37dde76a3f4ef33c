import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cherednik import modules
from cherednik.algebra import CherednikParameter, ParameterError, \
    euler_families, generic_ggor, ggor_from_values, restrict_to_hyperplane
from cherednik.groups import data_directory, load_group, load_group_file
from cherednik.lift import (
    NO_SUBMODULE,
    NOT_LINEARLY_SOLVABLE,
    FiniteFieldSpec,
    LiftFailure,
    abstract_structure,
    decompose_family,
    draw_specialization,
    dual_spin,
    find_submodule,
    gordon,
    head_and_radical,
    peel,
    specialize_module,
    verma_families,
)
from cherednik.linalg import ExactMatrix
from cherednik.meataxe import chop, is_isomorphic, radical
from cherednik.modules import GradedModule, dual_character, \
    graded_character, graded_spin, verma_character, verma_module
from cherednik.scalars import QQ, PrimeField, RationalFunctionField, \
    evaluate, reduce_mod_prime

DATA = Path(__file__).parent / "data"


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


def test_specialize_scalar_paths():
    K = load_group("G4").spec
    F = RationalFunctionField(K, "k")
    z = F.embed(K.gen())
    kv = F.var()
    s = (z * kv + 3) / (kv + 1)
    val = evaluate(s, {"k": K.scalar(2)})
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
    # radical's nullspace cannot divide
    G = load_group("S3")
    with pytest.raises(ParameterError):
        gordon(G, generic_ggor(G).to_cherednik())


def g4_k13():
    G = load_group("G4")
    return G, ggor_from_values(G, G.spec, {(0, 1): 1, (0, 2): 3}) \
        .to_cherednik()


def test_gordon_rejects_a_family_that_is_not_an_euler_family():
    # at c = 1 every S3 family is a singleton
    G = load_group("S3")
    with pytest.raises(ParameterError, match="not an Euler family"):
        gordon(G, CherednikParameter(G, QQ, 0, [1]), families=(1, 2))


@pytest.mark.parametrize("build", [
    pytest.param(lambda G, par: gordon(G, par), id="gordon"),
    pytest.param(lambda G, par: verma_module(G, par, G.irreps[0]),
                 id="verma_module"),
])
def test_nonzero_t_is_rejected(build):
    # the restricted algebra and its baby Verma modules live at t = 0; a
    # record built at t = 1 would be the t = 0 one under the wrong name
    G = load_group("S3")
    with pytest.raises(ParameterError, match="t = 0"):
        build(G, CherednikParameter(G, QQ, 1, [1]))


@pytest.mark.parametrize("group,other", [("S3", "B2"), ("B2", "G4"),
                                         ("G4", "B2")])
def test_gordon_rejects_a_parameter_of_another_group(group, other):
    # B2's two class values would be cut to S3's one, or read as G4's
    G, H = load_group(group), load_group(other)
    with pytest.raises(ParameterError, match="different group"):
        gordon(G, CherednikParameter(H, H.spec, 0, [1, 2]))


def test_parameter_ring_must_contain_the_group_field():
    # Q does not contain Q(z3), the field of G4's reflections
    G = load_group("G4")
    with pytest.raises(ParameterError, match="do not contain"):
        CherednikParameter(G, QQ, 0, [1, 2])


@pytest.mark.parametrize("p", [2, 7])
def test_prime_field_parameters_are_rejected_for_a_group_over_q(p):
    # Q's integers map into F_p, but F_p does not contain Q: a parameter
    # over it used to pass here and fail inside the decomposition
    G = load_group("S3")
    with pytest.raises(ParameterError, match="do not contain"):
        CherednikParameter(G, PrimeField(p), 0, [1])


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13", "G4_hyp"])
def test_full_gordon_record_is_pinned(case):
    # every family at once: the full decomposition matrix, the CM families
    # and the Euler values, over Q(z3)(k) on G4_hyp
    if case == "G4_hyp":
        G, hyperplane = load_group("G4"), "k1_1-2*k1_2"
        par = restrict_to_hyperplane(G, hyperplane).to_cherednik()
    else:
        G, par, _ = oracle_cases()[case]
        hyperplane = "k1_1-k2_1" if case == "B2_hyp" else ""
    want = (DATA / f"{case}.txt").read_text()
    assert gordon(G, par, hyperplane).to_text() == want


WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None     # any import of numpy now fails
import cherednik
from cherednik import algebra, groups, lift
S3, G4 = groups.load_group("S3"), groups.load_group("G4")
records = [
    lift.gordon(S3, algebra.CherednikParameter(S3, S3.spec, 0, [1]),
                families=(1,)).to_text(),
    lift.gordon(G4, algebra.ggor_from_values(
        G4, G4.spec, {(0, 1): 1, (0, 2): 3}).to_cherednik(),
                families=(4,)).to_text(),
]
print(json.dumps({"meataxe": "cherednik.meataxe" in sys.modules,
                  "records": records}))
"""


def test_gordon_runs_without_numpy():
    # only the F_p oracle needs numpy and the MeatAxe
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    got = json.loads(out)
    assert not got["meataxe"]
    S3, (G4, par) = load_group("S3"), g4_k13()
    assert got["records"] == [
        gordon(S3, CherednikParameter(S3, QQ, 0, [1]), families=(1,))
        .to_text(),
        gordon(G4, par, families=(4,)).to_text()]


LIFT_WITHOUT_NUMPY = """
import random, sys
sys.modules["numpy"] = None     # any import of numpy now fails
from cherednik import algebra, groups, lift, modules
G = groups.load_group("B2")
par = algebra.restrict_to_hyperplane(G, "k1_1-k2_1").to_cherednik()
V = modules.verma_module(G, par, G.irreps[2])
ff = lift.draw_specialization(G, par, V.dim, random.Random(0))
rad = lift.head_and_radical(V).radical_basis
found = lift.find_submodule(V, lift.abstract_structure(rad))
assert "cherednik.meataxe" not in sys.modules
assert rad.ncols == 7 and found == rad, (ff, rad.ncols)
"""


def test_lift_round_trip_runs_without_numpy():
    # the draw, the shape of the exact radical of a Verma module with a
    # radical (dim 8, head of dim 1 on B2's equal-parameter hyperplane)
    # and the search that lifts the shape back need no numpy
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", LIFT_WITHOUT_NUMPY], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_find_submodule_fails_where_the_radical_collides_mod_p():
    # the radical of the Verma module of irrep 7 at k = (1,3) has 20 distinct
    # values; mod 157 two of them coincide, so its shape there has no lift,
    # while mod 241 the lift is the exact radical, of codimension |W| = 24
    G, par = g4_k13()
    V = verma_module(G, par, G.irreps[6])

    def lifted(p, root):
        rad = radical(specialize_module(V, FiniteFieldSpec(p, root, {})))
        return find_submodule(V, abstract_structure(rad))

    assert lifted(157, 12) == NO_SUBMODULE
    found = lifted(241, 15)
    assert found == head_and_radical(V).radical_basis
    assert found.ncols == 48


def test_find_submodule_rejects_a_candidate_that_is_not_invariant():
    # at k = 17 the parameter vanishes mod 17: the y's fix every value of
    # the radical's shape there, but the candidate they give is not a
    # submodule, and the failure is a typed one
    G = load_group("B2")
    par = restrict_to_hyperplane(G, "k1_1-k2_1").to_cherednik()
    V = verma_module(G, par, G.irreps[1])
    ff = FiniteFieldSpec(17, 0, {"k": G.spec.scalar(17)})
    struct = abstract_structure(radical(specialize_module(V, ff)))
    assert find_submodule(V, struct) == NOT_LINEARLY_SOLVABLE


def test_draws_keep_every_nonzero_parameter_value_nonzero_mod_p():
    # a value that vanishes mod p would make the draw a specialization of
    # another parameter (B2 on k1_1-k2_1 at p = 17, k = 17, say)
    G = load_group("B2")
    par = restrict_to_hyperplane(G, "k1_1-k2_1").to_cherednik()
    for seed in range(300):
        ff = draw_specialization(G, par, 8, random.Random(seed))
        for v in par.c:
            if not v.is_zero():
                value = evaluate(v, ff.u)
                assert not reduce_mod_prime(value, ff.p, ff.root).is_zero()


def oracle_cases():
    """id -> (group, parameter, families) for the cross-checks against the
    paper's lift, the MeatAxe and the quotient heads; families None means
    every Euler family."""
    S3, B2, G4 = load_group("S3"), load_group("B2"), load_group("G4")
    return {
        "S3_c1": (S3, CherednikParameter(S3, QQ, 0, [1]), None),
        "S3_c0": (S3, CherednikParameter(S3, QQ, 0, [0]), None),
        "B2_c12": (B2, CherednikParameter(B2, QQ, 0, [1, 2]), None),
        "B2_c0": (B2, CherednikParameter(B2, QQ, 0, [0, 0]), None),
        "B2_hyp": (B2, restrict_to_hyperplane(B2, "k1_1-k2_1").to_cherednik(),
                   [(3, 4, 5)]),
        "G4_k13": (*g4_k13(), [(4,), (7,)]),
        "G4_hyp": (G4, restrict_to_hyperplane(G4, "k1_1-2*k1_2")
                   .to_cherednik(), [(2, 5, 7)]),
    }


@pytest.mark.parametrize("case", ["S3_c1", "B2_c12", "B2_hyp", "G4_k13"])
def test_las_vegas_lift_matches_exact_radical(case):
    # the paper's algorithm: reduce mod a drawn prime, take the radical
    # there, and lift its shape back; a draw whose shape does not lift is
    # thrown away.  The lift must equal the exact dual-spin radical.
    G, par, _ = oracle_cases()[case]
    for rho in G.irreps:
        V = verma_module(G, par, rho)
        rng = random.Random(0)
        for _ in range(12):
            ff = draw_specialization(G, par, V.dim, rng)
            found = find_submodule(
                V, abstract_structure(radical(specialize_module(V, ff))))
            if not isinstance(found, str):
                break
        else:
            pytest.fail(f"irrep {rho}: no lift within 12 draws")
        assert found == head_and_radical(V).radical_basis


@pytest.mark.parametrize("case", ["S3_c1", "B2_c12", "B2_hyp", "G4_k13"])
def test_peeled_rows_match_meataxe_oracle(case):
    # the MeatAxe counts the composition factors of each Verma mod p by
    # chopping it and matching every factor with the specialized heads, which
    # stay simple there (zero radical); the count must equal the row peeled
    # from graded characters
    G, par, families = oracle_cases()[case]
    if families is None:
        families = [m for m, _ in euler_families(G, par)]
    for members in families:
        vermas = {lam: verma_module(G, par, G.irreps[lam - 1])
                  for lam in members}
        fam = decompose_family(G, par, members)
        ff = draw_specialization(G, par, max(V.dim for V in vermas.values()),
                                 random.Random(0))
        heads = {mu: specialize_module(head_and_radical(vermas[mu]).head, ff)
                 for mu in members}
        assert all(radical(h).shape[1] == 0 for h in heads.values())
        for lam in members:
            vbar = specialize_module(vermas[lam], ff)
            row = dict.fromkeys(members, 0)
            for simple, mult in chop(vbar, random.Random(1)):
                matches = [mu for mu in members
                           if is_isomorphic(simple, heads[mu])]
                assert len(matches) == 1
                row[matches[0]] += mult
            assert row == {mu: fam.matrix[(lam, mu)] for mu in members}


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13", "G4_hyp"])
def test_dual_spin_character_matches_the_quotient_head(case):
    # the trace formula on the dual spin against the head formed as the
    # quotient module by the exact radical, with its traces taken from
    # products of its g-blocks
    G, par, _ = oracle_cases()[case]
    for rho in G.irreps:
        V = verma_module(G, par, rho)
        head = head_and_radical(V).head
        pseries, character = dual_character(G, rho, dual_spin(V))
        assert character == graded_character(G, head)
        assert pseries == head.poincare_series()
        assert sum(pseries.values()) == head.dim


def test_dual_character_builds_class_columns_once(monkeypatch):
    # a freshly loaded group has no cached columns: the first call builds
    # them with _add_tensor, a second call on the same irrep reads them
    G = load_group_file(os.path.join(data_directory(), "B2.grp"))
    par = CherednikParameter(G, G.spec, 0, [1, 2])
    rho = G.irreps[4]
    dual = dual_spin(verma_module(G, par, rho))
    calls = []
    add_tensor = modules._add_tensor

    def counted(*args):
        calls.append(args)
        return add_tensor(*args)

    monkeypatch.setattr(modules, "_add_tensor", counted)
    first = dual_character(G, rho, dual)
    assert calls
    calls.clear()
    assert dual_character(G, rho, dual) == first
    assert not calls


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13"])
def test_dual_spin_over_the_ys_is_the_full_spin(case):
    # dual_spin spins the degree-0 functionals under the transposed y's
    # alone; the spin under every transposed generator is the oracle
    G, par, _ = oracle_cases()[case]
    for rho in G.irreps:
        V = verma_module(G, par, rho)
        seeds = [{i: V.spec.one()} for i, d in enumerate(V.degrees) if d == 0]
        assert dual_spin(V) == graded_spin(V.transpose(), seeds)


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
