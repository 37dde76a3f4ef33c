import random
from fractions import Fraction

from cherednik.linalg import ExactMatrix
from cherednik.scalars import QQ, RationalFunctionField


def rand_matrix(spec, rng, n, m, density=0.7):
    out = ExactMatrix(spec, n, m)
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                v = spec.scalar(rng.randint(-5, 5))
                if not v.is_zero():
                    out.entries[(i, j)] = v
    return out


def test_rcef_identity_fixed():
    I = ExactMatrix.identity(QQ, 4)
    assert I.rcef() == I


def test_rcef_scaling_columns():
    M = ExactMatrix.from_rows(QQ, [[2, 0], [0, 3]])
    assert M.rcef() == ExactMatrix.identity(QQ, 2)


def test_rcef_pivot_layout():
    # pivots sit at the topmost rows, pivot rows are unit rows
    M = ExactMatrix.from_rows(QQ, [[1, 0], [0, 1], [2, 1], [1, 4]])
    R = M.rcef()
    assert R == M  # already canonical
    M2 = ExactMatrix.from_rows(QQ, [[1, 1], [1, 2], [3, 5], [5, 9]])
    R2 = M2.rcef()
    assert R2.entries[(0, 0)] == 1 and R2.entries[(1, 1)] == 1
    assert (0, 1) not in R2.entries and (1, 0) not in R2.entries


def test_rcef_invariant_under_column_operations():
    rng = random.Random(3)
    for _ in range(25):
        n, m = rng.randint(2, 5), rng.randint(1, 4)
        M = rand_matrix(QQ, rng, n, m)
        # invertible C: build as product of elementary column operations
        C = ExactMatrix.identity(QQ, m)
        for _ in range(4):
            a, b = rng.randrange(m), rng.randrange(m)
            if a != b:
                E = ExactMatrix.identity(QQ, m)
                E.entries[(a, b)] = QQ.scalar(rng.randint(-3, 3))
                if E.entries[(a, b)].is_zero():
                    del E.entries[(a, b)]
                C = C * E
            E = ExactMatrix.identity(QQ, m)
            E.entries[(a, a)] = QQ.scalar(rng.choice([1, -1, 2, 3]))
            C = C * E
        assert (M * C).rcef() == M.rcef()


def test_rcef_idempotent():
    rng = random.Random(4)
    for _ in range(20):
        M = rand_matrix(QQ, rng, 5, 3)
        R = M.rcef()
        assert R.rcef() == R


def test_nullspace():
    M = ExactMatrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6]])
    N = M.nullspace()
    assert N.ncols == 2
    assert (M * N).is_zero()


def gauss_jordan(rows):
    """Reference reduced row echelon form of a list of Fraction rows:
    (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        top = len(pivots)
        hit = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots


def rank_deficient(rng, n, m, rank, scalar):
    """An n x m list of rows that is a product (n x rank)(rank x m)."""
    a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rank)]
    return [[scalar(sum(a[i][t] * b[t][j] for t in range(rank)))
             for j in range(m)] for i in range(n)]


def test_rref_matches_reference_gauss_jordan():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = rank_deficient(rng, n, m, rng.randint(0, min(n, m)),
                              lambda v: Fraction(v, rng.choice([1, 2, 3])))
        want, want_pivots = gauss_jordan(rows)
        got, pivots = ExactMatrix.from_rows(QQ, rows).rref()
        assert pivots == want_pivots
        assert got == ExactMatrix.from_rows(QQ, want)


def test_nullspace_over_function_field():
    F = RationalFunctionField(QQ, "k")
    k = F.var()
    rng = random.Random(12)
    for _ in range(8):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        rows = rank_deficient(rng, n, m, rng.randint(1, min(n, m) - 1),
                              lambda v: F.scalar(v))
        M = ExactMatrix.from_rows(F, rows)
        # scale each column by a unit of Q(k)
        M = M * ExactMatrix(F, m, m, {(j, j): k + rng.randint(1, 3)
                                      for j in range(m)})
        N = M.nullspace()
        assert (M * N).is_zero()
        assert N.rank() == N.ncols
        assert M.rank() + N.ncols == m


def test_solve_inconsistent():
    M = ExactMatrix.from_rows(QQ, [[1, 0], [1, 0]])
    assert M.solve({0: QQ.one(), 1: QQ.scalar(2)}) is None


def test_solve_over_function_field_by_substitution():
    F = RationalFunctionField(QQ, "k")
    k = F.var()
    rng = random.Random(9)
    for _ in range(6):
        M = ExactMatrix(F, 6, 6)
        for i in range(6):
            for j in range(6):
                c = rng.randint(-2, 2)
                d = rng.randint(0, 1)
                v = F.scalar(c) + k * d if rng.random() < 0.6 else F.scalar(c)
                if not v.is_zero():
                    M.entries[(i, j)] = v
        x = {i: F.scalar(rng.randint(-3, 3)) + k * rng.randint(0, 1)
             for i in range(6)}
        b = (M * ExactMatrix.from_columns(F, 6, [x])).column(0)
        sol = M.solve(b)
        assert sol is not None
        particular, _ = sol
        assert (M * ExactMatrix.from_columns(F, 6, [particular])).column(0) \
            == b


def test_matrix_product_and_apply():
    A = ExactMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    B = ExactMatrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert A * B == ExactMatrix.from_rows(QQ, [[2, 1], [4, 3]])
    col = {0: QQ.one(), 1: QQ.scalar(Fraction(1, 2))}
    assert (A * ExactMatrix.from_columns(QQ, 2, [col])).column(0) \
        == {0: QQ.scalar(2), 1: QQ.scalar(5)}
