import random

import numpy as np
import pytest

from cherednik.algebra import CherednikParameter, ggor_from_values, \
    restrict_to_hyperplane
from cherednik.groups import load_group
from cherednik.lift import draw_specialization, specialize_module
from cherednik.meataxe import (
    FpModule,
    chop,
    factor_squarefree_part,
    hom_space,
    is_irreducible,
    is_isomorphic,
    minimal_polynomial,
    nullspace_mod,
    quotient_by_submodule,
    radical,
    rcef_mod,
    restrict_to_submodule,
    rref_mod,
    spin,
)
from cherednik.modules import verma_module


def s3_matrices(p):
    # permutation representation of S3 on three points
    s = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    t = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    return FpModule(p, [s, t])


def s3_standard(p):
    s = np.array([[-1, 1], [0, 1]])
    t = np.array([[1, 0], [1, -1]])
    return FpModule(p, [s, t])


def test_rref_and_nullspace():
    p = 7
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, piv = rref_mod(a, p)
    assert piv == [0, 1]
    ns = nullspace_mod(a, p)
    assert ns.shape[1] == 1
    assert not np.any((a @ ns) % p)


def test_minimal_polynomial():
    p = 11
    a = np.array([[0, 1], [1, 0]])
    m = minimal_polynomial(a, p)
    assert m == [p - 1, 0, 1]  # x^2 - 1


def test_factorization():
    p = 11
    # x^2 - 1 = (x-1)(x+1)
    fs = factor_squarefree_part([p - 1, 0, 1], p)
    assert sorted(len(f) for f in fs) == [2, 2]
    # x^2 + 1 is irreducible mod 11 (11 = 3 mod 4)
    fs2 = factor_squarefree_part([1, 0, 1], p)
    assert [len(f) for f in fs2] == [3]


def test_one_dimensional_is_irreducible():
    M = FpModule(7, [np.array([[3]]), np.array([[2]])])
    ok, wit = is_irreducible(M, random.Random(1))
    assert ok


def test_direct_sum_is_reducible():
    p = 7
    M = s3_standard(p)
    # block diagonal sum of two copies
    mats = [np.block([[m, np.zeros((2, 2), dtype=np.int64)],
                      [np.zeros((2, 2), dtype=np.int64), m]])
            for m in M.mats]
    MM = FpModule(p, mats)
    ok, wit = is_irreducible(MM, random.Random(5))
    assert not ok
    assert 0 < wit.shape[1] < 4


def test_s3_permutation_module_chops():
    # trivial + standard over F7 (7 does not divide 6)
    M = s3_matrices(7)
    factors = chop(M, random.Random(2))
    dims = sorted(f.dim for f, m in factors)
    mults = [m for f, m in sorted(factors, key=lambda t: t[0].dim)]
    assert dims == [1, 2]
    assert mults == [1, 1]
    assert sum(f.dim * m for f, m in factors) == 3


def test_hom_space_endos_of_absolutely_simple():
    M = s3_standard(7)
    endos = hom_space(M, M)
    assert len(endos) == 1
    # identity is present in the span
    assert np.array_equal(endos[0] % 7,
                          (endos[0][0, 0] * np.eye(2, dtype=np.int64)) % 7)


def test_hom_space_distinct_simples_zero():
    p = 7
    triv = FpModule(p, [np.array([[1]]), np.array([[1]])])
    sign = FpModule(p, [np.array([[p - 1]]), np.array([[p - 1]])])
    assert hom_space(triv, sign) == []
    assert is_isomorphic(triv, triv)
    assert not is_isomorphic(triv, sign)


def test_isomorphic_conjugates():
    p = 11
    M = s3_standard(p)
    rng = random.Random(9)
    for _ in range(5):
        while True:
            b = np.array([[rng.randrange(p) for _ in range(2)]
                          for _ in range(2)])
            try:
                N = M.conjugate(b)
                break
            except ValueError:
                continue
        assert is_isomorphic(M, N)


def test_semisimple_radical_zero():
    # semisimple: 7 is coprime to |S3|.  Placed in one degree, the whole
    # module is its lowest-degree part, so the dual spin finds no radical
    M = s3_matrices(7)
    factors = chop(M, random.Random(3))
    assert sorted((f.dim, m) for f, m in factors) == [(1, 1), (2, 1)]
    graded = FpModule(7, M.mats, degrees=[0, 0, 0])
    assert radical(graded).shape[1] == 0


def plant_block_module(rng, p, blocks):
    """Block lower-triangular module: diagonal simple blocks with random
    connecting entries below."""
    mats_blocks = []
    # simple blocks: 1-dim (scalars) and the S3 standard rep
    defs = []
    for b in blocks:
        if b == 1:
            defs.append([np.array([[rng.randrange(1, p)]]) for _ in range(2)])
        else:
            defs.append(list(s3_standard(p).mats))
    n = sum(b for b in blocks)
    mats = []
    for k in range(2):
        m = np.zeros((n, n), dtype=np.int64)
        ofs = 0
        offsets = []
        for bi, b in enumerate(blocks):
            offsets.append(ofs)
            m[ofs:ofs + b, ofs:ofs + b] = defs[bi][k] % p
            ofs += b
        # strictly-lower connecting blocks
        for bi in range(1, len(blocks)):
            for bj in range(bi):
                r0, c0 = offsets[bi], offsets[bj]
                blk = np.array([[rng.randrange(p)
                                 for _ in range(blocks[bj])]
                                for _ in range(blocks[bi])])
                m[r0:r0 + blocks[bi], c0:c0 + blocks[bj]] = blk
        mats.append(m)
    return FpModule(p, mats)


def oracle_radical(module):
    """Independent dense solve: stack all homomorphisms to all chop factors
    computed by brute-force linear algebra over the full commutation
    system."""
    p = module.p
    factors = chop(module, random.Random(101))
    rows = []
    for simple, _ in factors:
        nN, nM = simple.dim, module.dim
        # unknowns: phi (nN x nM); equations: phi X_M - X_N phi = 0
        sys_rows = []
        for XM, XN in zip(module.mats, simple.mats):
            # row for each (a, b): sum_c phi[a,c] XM[c,b] - XN[a,c] phi[c,b]
            block = np.zeros((nN * nM, nN * nM), dtype=np.int64)
            for a in range(nN):
                for b in range(nM):
                    r = a * nM + b
                    for c in range(nM):
                        block[r, a * nM + c] = \
                            (block[r, a * nM + c] + XM[c, b]) % p
                    for c in range(nN):
                        block[r, c * nM + b] = \
                            (block[r, c * nM + b] - XN[a, c]) % p
            sys_rows.append(block)
        sols = nullspace_mod(np.concatenate(sys_rows, axis=0), p)
        for j in range(sols.shape[1]):
            rows.append(sols[:, j].reshape(nN, nM))
    if not rows:
        return rcef_mod(np.eye(module.dim, dtype=np.int64), p)
    return nullspace_mod(np.concatenate(rows, axis=0), p)


def test_planted_radicals_recovered():
    rng = random.Random(12345)
    for trial in range(50):
        p = rng.choice([7, 11, 13])
        nblocks = rng.randint(2, 4)
        blocks = [rng.choice([1, 1, 2]) for _ in range(nblocks)]
        M = plant_block_module(rng, p, blocks)
        factors = chop(M, random.Random(trial + 1))
        assert sum(f.dim * m for f, m in factors) == M.dim
        # the composition factors are the planted diagonal blocks
        assert sorted(f.dim for f, m in factors for _ in range(m)) \
            == sorted(blocks)


def test_chop_invariant_under_conjugation():
    rng = random.Random(55)
    p = 11
    M = plant_block_module(rng, p, [1, 2, 1])
    while True:
        b = np.array([[rng.randrange(p) for _ in range(M.dim)]
                      for _ in range(M.dim)])
        try:
            N = M.conjugate(b)
            break
        except ValueError:
            continue
    fm = sorted((f.dim, m) for f, m in chop(M, random.Random(7)))
    fn = sorted((f.dim, m) for f, m in chop(N, random.Random(8)))
    assert fm == fn


def fp_vermas(G, par, seed=0):
    """Every Verma module of G at par, specialized at one drawn prime (and
    a drawn point of the parameter's free variable, if it has one)."""
    vermas = [verma_module(G, par, rho) for rho in G.irreps]
    ff = draw_specialization(G, par, max(V.dim for V in vermas),
                             random.Random(seed))
    return [specialize_module(V, ff) for V in vermas]


def small_parameters():
    S3, B2 = load_group("S3"), load_group("B2")
    yield S3, CherednikParameter(S3, S3.spec, 0, [1])
    yield B2, CherednikParameter(B2, B2.spec, 0, [1, 2])
    yield B2, CherednikParameter(B2, B2.spec, 0, [0, 0])
    yield B2, restrict_to_hyperplane(B2, "k1_1-k2_1").to_cherednik()


def test_verma_radical_matches_oracle():
    for G, par in small_parameters():
        for M in fp_vermas(G, par):
            want = oracle_radical(M)
            assert np.array_equal(radical(M), want)


def test_g4_verma_heads_have_dimension_24():
    # G4 at k = (1,3) is a smooth point: every simple has dim |W| = 24
    G = load_group("G4")
    par = ggor_from_values(G, G.spec, {(0, 1): 1, (0, 2): 3}).to_cherednik()
    for M in fp_vermas(G, par):
        assert M.dim - radical(M).shape[1] == 24


def test_radical_of_quotient_is_zero():
    for G, par in small_parameters():
        for M in fp_vermas(G, par, seed=1):
            quo, _ = quotient_by_submodule(M, radical(M))
            assert radical(quo).shape[1] == 0
            assert is_irreducible(quo, random.Random(5))[0]


def test_radical_needs_a_lowest_degree_generator():
    with pytest.raises(ValueError):
        radical(s3_matrices(7))
    # standard + trivial: the degree-0 standard part spans a submodule
    p = 7
    mats = [np.block([[m, np.zeros((2, 1), dtype=np.int64)],
                      [np.zeros((1, 2), dtype=np.int64), np.ones((1, 1))]])
            for m in s3_standard(p).mats]
    with pytest.raises(ValueError):
        radical(FpModule(p, mats, degrees=[0, 0, 1]))


def test_determinism_same_seed():
    rng = random.Random(321)
    M = plant_block_module(rng, 13, [1, 2, 2])
    c1 = [(f.dim, m) for f, m in chop(M, random.Random(78))]
    c2 = [(f.dim, m) for f, m in chop(M, random.Random(78))]
    assert c1 == c2


def test_spin_and_restrict():
    p = 7
    M = s3_matrices(p)
    # the all-ones vector spans the trivial submodule
    v = np.array([1, 1, 1])
    sub = spin(M, [v])
    assert sub.shape[1] == 1
    S = restrict_to_submodule(M, sub)
    assert S.dim == 1
    assert all(int(m[0, 0]) % p == 1 for m in S.mats)
