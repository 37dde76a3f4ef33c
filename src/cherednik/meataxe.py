"""Module arithmetic over prime fields, the tests' independent oracles for
what ``lift`` computes exactly in characteristic zero: the radical of a
module generated by a simple lowest-degree part (one dual spin), whose
shape the paper's Las Vegas lift carries back up and compares with the
exact radical, and the MeatAxe (Norton's irreducibility test with minimal
polynomials, composition series, homomorphism spaces via spinning
relations, isomorphism testing), which checks the decomposition numbers
that ``lift`` peels from graded characters.  No ``gordon`` run calls this
module.

All matrices are dense numpy int64 arrays reduced mod p.  Every random draw
comes from an explicitly seeded generator, so identical seeds reproduce
identical certificates.  The tests never return a wrong answer; exhausted
random search raises ``MeatAxeRetry``."""

from __future__ import annotations

import random

import numpy as np

from .scalars import PrimeField, _poly_divmod, _poly_gcd, _poly_monic, \
    _poly_mul, _poly_powmod, _poly_sub, _poly_trim


class MeatAxeRetry(Exception):
    """Random search exhausted; retry with a fresh seed or prime."""


class FpModule:
    """A list of generator matrices over F_p (grading carried along for the
    callers that track it; the arithmetic here runs ungraded)."""

    __slots__ = ("p", "mats", "dim", "degrees", "gen_degrees")

    def __init__(self, p, mats, degrees=None, gen_degrees=None):
        self.p = p
        self.mats = [np.asarray(m, dtype=np.int64) % p for m in mats]
        self.dim = self.mats[0].shape[0] if self.mats else 0
        for m in self.mats:
            if m.shape != (self.dim, self.dim):
                raise ValueError("generator matrices must be square and "
                                 "of equal size")
        self.degrees = list(degrees) if degrees is not None else None
        self.gen_degrees = list(gen_degrees) if gen_degrees is not None \
            else None

    def transpose(self):
        return FpModule(self.p, [m.T.copy() for m in self.mats],
                        None, self.gen_degrees)

    def conjugate(self, basis):
        """Module in a new basis; basis columns are the new basis."""
        p = self.p
        binv = inverse_mod(basis, p)
        return FpModule(p, [(binv @ m @ basis) % p for m in self.mats],
                        None, self.gen_degrees)


# ---------------------------------------------------------------------------
# linear algebra mod p: one incremental echelon, ``_FpEchelon``, is the only
# elimination.  ``rref_mod`` and ``rcef_mod`` read their unique forms off
# it, the way ``linalg.ExactMatrix.rref`` and ``rcef`` read theirs off
# ``linalg.Echelon``; ``nullspace_mod``, ``inverse_mod`` and ``solve_mod``
# sit on ``rref_mod``, and the spins and ``hom_space`` fill echelons.

def columns(a):
    """The columns of an F_p array as {row: value} dicts of its nonzero
    entries, the layout of ``ExactMatrix.columns``."""
    return [{int(i): int(a[i, j]) for i in np.nonzero(a[:, j])[0]}
            for j in range(a.shape[1])]


class _FpEchelon:
    """Incremental reduced echelon of vectors mod p.  ``cols`` maps each
    pivot to a stored vector whose topmost nonzero entry is that pivot, a 1
    there and a 0 at every other pivot: sorted by pivot, the unique reduced
    echelon basis of the span."""

    __slots__ = ("p", "cols")

    def __init__(self, p):
        self.p = p
        self.cols = {}

    def reduce(self, v):
        """v with every pivot coordinate cleared, or None when v lies in
        the span.  Each stored vector is 0 at every other pivot, so one
        subtraction per pivot that v hits is enough."""
        v = np.asarray(v, dtype=np.int64) % self.p
        for q, r in self.cols.items():
            if v[q]:
                v = (v - v[q] * r) % self.p
        return v if v.any() else None

    def insert(self, v):
        """Add v to the span.  Returns the new stored vector, or None when
        v already lies in the span."""
        v = self.reduce(v)
        if v is None:
            return None
        piv = int(np.flatnonzero(v)[0])
        v = (v * pow(int(v[piv]), -1, self.p)) % self.p
        for q, r in self.cols.items():
            if r[piv]:
                self.cols[q] = (r - r[piv] * v) % self.p
        self.cols[piv] = v
        return v

    def matrix(self, n):
        if not self.cols:
            return np.zeros((n, 0), dtype=np.int64)
        return np.stack([self.cols[k] for k in sorted(self.cols)], axis=1)

    def rank(self):
        return len(self.cols)


def rref_mod(a, p):
    """(reduced row echelon form, pivot columns), read off the echelon of
    the rows; the zero rows come last."""
    a = np.asarray(a, dtype=np.int64)
    ech = _FpEchelon(p)
    for row in a:
        if ech.rank() == a.shape[1]:
            break
        ech.insert(row)
    out = np.zeros(a.shape, dtype=np.int64)
    out[:ech.rank()] = ech.matrix(a.shape[1]).T
    return out, sorted(ech.cols)


def nullspace_mod(a, p):
    """Columns spanning {v : a v = 0}, in canonical echelon form."""
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    r, pivots = rref_mod(a, p)
    free = [j for j in range(cols) if j not in pivots]
    if not free:
        return np.zeros((cols, 0), dtype=np.int64)
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, f])) % p
    return rcef_mod(basis, p)


def rcef_mod(a, p):
    """Unique column form, read off the echelon of the columns: pivot of
    each column topmost, pivot rows unit, no zero column."""
    a = np.asarray(a, dtype=np.int64)
    ech = _FpEchelon(p)
    for col in a.T:
        ech.insert(col)
    return ech.matrix(a.shape[0])


def inverse_mod(a, p):
    n = a.shape[0]
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref_mod(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def solve_mod(a, b, p):
    """One solution of a x = b, or None."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    aug = np.concatenate([a % p, b % p], axis=1)
    r, pivots = rref_mod(aug, p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, a.shape[1]]
    return x


# ---------------------------------------------------------------------------
# polynomials mod p, on the univariate kernel of scalars over PrimeField(p)

def _pderiv(fp, f):
    return _poly_trim(fp, [(i * c) % fp.p for i, c in enumerate(f)][1:])


def factor_squarefree_part(f, p):
    """Distinct irreducible factors of f (monic), by squarefree reduction,
    distinct-degree splitting, and equal-degree splitting (p odd)."""
    if p == 2:
        raise MeatAxeRetry("factorization over F_2 is not supported; "
                           "choose an odd prime")
    fp = PrimeField(p)
    f = _poly_monic(fp, tuple(f))
    d = _pderiv(fp, f)
    if d:
        f = _poly_divmod(fp, f, _poly_gcd(fp, f, d))[0]
    else:
        # perfect p-th power: take p-th roots of the exponents
        return factor_squarefree_part(f[::p], p)
    out = []
    x = (0, 1)
    h = x
    rest = f
    deg = 1
    while len(rest) - 1 >= 2 * deg:
        h = _poly_powmod(fp, h, p, rest)
        g = _poly_gcd(fp, rest, _poly_sub(fp, h, x))
        if len(g) > 1:
            out.extend(_equal_degree_split(fp, g, deg))
            rest = _poly_divmod(fp, rest, g)[0]
            h = _poly_divmod(fp, h, rest)[1]
        deg += 1
    if len(rest) > 1:
        out.append(rest)
    out.sort(key=lambda q: (len(q), q))
    return out


def _equal_degree_split(fp, f, d, rng=None):
    n, p = len(f) - 1, fp.p
    if n == d:
        return [f]
    rng = rng or random.Random(0xC0FFEE ^ n ^ d ^ p)
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        g = _poly_gcd(fp, f, r)
        if 1 < len(g) < len(f):
            return _equal_degree_split(fp, g, d, rng) \
                + _equal_degree_split(fp, _poly_divmod(fp, f, g)[0], d, rng)
        e = (p ** d - 1) // 2
        g = _poly_gcd(fp, f, _poly_sub(fp, _poly_powmod(fp, r, e, f), (1,)))
        if 1 < len(g) < len(f):
            return _equal_degree_split(fp, g, d, rng) \
                + _equal_degree_split(fp, _poly_divmod(fp, f, g)[0], d, rng)


def poly_eval_matrix(f, a, p):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(f):
        out = (out @ a) % p
        out[np.diag_indices(n)] = (out[np.diag_indices(n)] + c) % p
    return out


def minimal_polynomial(a, p):
    """Monic minimal polynomial via Krylov chains on basis vectors."""
    n = a.shape[0]
    fp = PrimeField(p)
    m = [1]
    for start in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[start] = 1
        # quotient out what the current m already kills
        v = poly_eval_matrix(m, a, p) @ v % p if len(m) > 1 else v
        if not np.any(v):
            continue
        local = _local_minpoly(a, v, p)
        m = list(_plcm(fp, m, local))
        if not np.any(poly_eval_matrix(m, a, p)):
            return m
    return m


def _local_minpoly(a, v, p):
    n = a.shape[0]
    cols = [v % p]
    while True:
        k = len(cols)
        mat = np.stack(cols, axis=1)
        w = (a @ cols[-1]) % p
        sol = solve_mod(mat, w, p)
        if sol is not None:
            # x^k - sum sol_j x^j
            f = [(-int(c)) % p for c in sol] + [1]
            return f
        cols.append(w)
        if k > n:
            raise MeatAxeRetry("Krylov chain exceeded the dimension")


def _plcm(fp, f, g):
    if len(f) <= 1:
        return g
    if len(g) <= 1:
        return f
    return _poly_mul(fp, _poly_divmod(fp, f, _poly_gcd(fp, f, g))[0], g)


# ---------------------------------------------------------------------------
# spinning

def _spin_into(ech, module: FpModule, vectors):
    """Close the echelon's span under the module's generators after adding
    the vectors: each new vector's images go in until none is new."""
    work = [ech.insert(v) for v in vectors]
    while work:
        v = work.pop()
        if v is not None:
            work += [ech.insert((m @ v) % module.p) for m in module.mats]


def spin(module: FpModule, vectors) -> np.ndarray:
    """Canonical basis matrix of the submodule generated by the vectors."""
    ech = _FpEchelon(module.p)
    _spin_into(ech, module, vectors)
    return ech.matrix(module.dim)


def restrict_to_submodule(module: FpModule, basis) -> FpModule:
    """basis: canonical columns (pivot rows unit); induced action."""
    p = module.p
    pivots = [int(np.nonzero(basis[:, j])[0][0])
              for j in range(basis.shape[1])]
    mats = []
    for m in module.mats:
        img = (m @ basis) % p
        coords = img[pivots, :]
        if np.any((basis @ coords - img) % p):
            raise ValueError("basis does not span an invariant subspace")
        mats.append(coords)
    degrees = None
    if module.degrees is not None:
        degrees = [module.degrees[r] for r in pivots]
    return FpModule(p, mats, degrees, module.gen_degrees)


def quotient_by_submodule(module: FpModule, basis):
    """(quotient module, kept row indices).

    Pivot rows of the canonical basis are removed; the basis columns are
    ordered by pivot row, so column j clears pivot row j."""
    p = module.p
    piv_sorted = [int(np.nonzero(basis[:, j])[0][0])
                  for j in range(basis.shape[1])]
    kept = [i for i in range(module.dim) if i not in set(piv_sorted)]
    mats = []
    for m in module.mats:
        red = m[:, kept] % p
        for j, prow in enumerate(piv_sorted):
            red = (red - np.outer(basis[:, j], red[prow])) % p
        mats.append(red[kept, :])
    degrees = None
    if module.degrees is not None:
        degrees = [module.degrees[i] for i in kept]
    return FpModule(p, mats, degrees, module.gen_degrees), kept


# ---------------------------------------------------------------------------
# irreducibility and composition factors

def _random_algebra_element(module: FpModule, rng):
    p = module.p
    n = module.dim
    gens = module.mats
    out = np.zeros((n, n), dtype=np.int64)
    for _ in range(rng.randint(1, 3)):
        term = np.eye(n, dtype=np.int64)
        for _ in range(rng.randint(1, 3)):
            term = (term @ gens[rng.randrange(len(gens))]) % p
        out = (out + rng.randrange(1, p) * term) % p
    return out


def is_irreducible(module: FpModule, rng=None):
    """(True, None) with an irreducibility certificate implicit, or
    (False, basis of a proper nonzero submodule)."""
    rng = rng or random.Random(0)
    p = module.p
    n = module.dim
    if n == 0:
        raise ValueError("zero module")
    if n == 1:
        return True, None
    for _ in range(60):
        a = _random_algebra_element(module, rng)
        m = minimal_polynomial(a, p)
        if len(m) <= 1:
            continue
        for f in factor_squarefree_part(m, p):
            b = poly_eval_matrix(f, a, p)
            ns = nullspace_mod(b, p)
            if ns.shape[1] == 0:
                continue
            for j in range(ns.shape[1]):
                sub = spin(module, [ns[:, j]])
                if 0 < sub.shape[1] < n:
                    return False, sub
            if ns.shape[1] == len(f) - 1:
                # Norton: the kernel is one-dimensional over the factor's
                # residue field, so one dual spin decides
                nst = nullspace_mod(b.T, p)
                dual = module.transpose()
                t = spin(dual, [nst[:, 0]])
                if t.shape[1] < n:
                    comp = nullspace_mod(t.T, p)
                    sub = spin(module, [comp[:, j]
                                        for j in range(comp.shape[1])])
                    if not 0 < sub.shape[1] < n:
                        raise MeatAxeRetry("dual witness did not produce a "
                                           "proper submodule")
                    return False, sub
                return True, None
    raise MeatAxeRetry("no decision within the retry budget; rerun with a "
                       "new seed")


def chop(module: FpModule, rng=None):
    """Composition factors with multiplicities: [(simple FpModule, mult)]."""
    rng = rng or random.Random(0)
    if module.dim == 0:
        return []
    irr, witness = is_irreducible(module, rng)
    if irr:
        return [(module, 1)]
    sub = restrict_to_submodule(module, witness)
    quo, _ = quotient_by_submodule(module, witness)
    factors = chop(sub, rng) + chop(quo, rng)
    merged = []
    for s, m in factors:
        for idx, (t, mt) in enumerate(merged):
            if is_isomorphic(s, t):
                merged[idx] = (t, mt + m)
                break
        else:
            merged.append((s, m))
    return merged


# ---------------------------------------------------------------------------
# homomorphisms

def _generating_seeds(module: FpModule):
    n = module.dim
    ech = _FpEchelon(module.p)
    seeds = []
    for i in range(n):
        if ech.rank() == n:
            break
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        if ech.reduce(v) is None:
            continue
        seeds.append(i)
        _spin_into(ech, module, [v])
    return seeds


def hom_space(M: FpModule, N: FpModule):
    """Basis of {phi : phi X_M = X_N phi}, as a list of dim(N) x dim(M)
    matrices, found by spinning a generating set of M and imposing every
    linear relation of the spin basis on the images."""
    if len(M.mats) != len(N.mats):
        raise ValueError("generator lists differ")
    p = M.p
    seeds = _generating_seeds(M)
    g = len(seeds)
    nN = N.dim

    # spin basis with provenance: ('seed', t) or (k, parent)
    basis_vecs = []
    prov = []
    index_in_span = _FpEchelon(p)
    pending = []
    for t, srow in enumerate(seeds):
        v = np.zeros(M.dim, dtype=np.int64)
        v[srow] = 1
        basis_vecs.append(v)
        prov.append(("seed", t))
        index_in_span.insert(v)
        pending.append(len(basis_vecs) - 1)
    relations = []  # (k, parent index, coords over basis list)
    pos = 0
    while pos < len(pending):
        bi = pending[pos]
        pos += 1
        for k, m in enumerate(M.mats):
            w = (m @ basis_vecs[bi]) % p
            if index_in_span.reduce(w) is None:
                relations.append((k, bi, w))
            else:
                index_in_span.insert(w)
                basis_vecs.append(w)
                prov.append((k, bi))
                pending.append(len(basis_vecs) - 1)

    # a dependent w's coordinates against the spin basis so far are its
    # coordinates in the full basis
    B = np.stack(basis_vecs, axis=1) % p
    Binv = inverse_mod(B, p)

    # symbolic images: Phi[t] (nN x g*nN) with phi(b_t) = Phi[t] @ unknowns
    Phi = [None] * len(basis_vecs)
    for t, pv in enumerate(prov):
        if pv[0] == "seed":
            block = np.zeros((nN, g * nN), dtype=np.int64)
            block[:, pv[1] * nN:(pv[1] + 1) * nN] = np.eye(nN,
                                                           dtype=np.int64)
            Phi[t] = block
        else:
            k, parent = pv
            Phi[t] = (N.mats[k] @ Phi[parent]) % p
    rows = []
    for k, parent, w in relations:
        lhs = (N.mats[k] @ Phi[parent]) % p
        for t, c in enumerate((Binv @ w) % p):
            if c:
                lhs = (lhs - int(c) * Phi[t]) % p
        rows.append(lhs)
    if rows:
        system = np.concatenate(rows, axis=0)
        sols = nullspace_mod(system, p)
    else:
        sols = np.eye(g * nN, dtype=np.int64)

    # convert each solution to a matrix on the standard basis of M
    out = []
    for j in range(sols.shape[1]):
        w = sols[:, j]
        images = np.zeros((nN, len(basis_vecs)), dtype=np.int64)
        for t in range(len(basis_vecs)):
            images[:, t] = (Phi[t] @ w) % p
        out.append((images @ Binv) % p)
    return out


def is_isomorphic(M: FpModule, N: FpModule) -> bool:
    """For simple modules: equal dimension plus a nonzero homomorphism."""
    if M.dim != N.dim or M.p != N.p:
        return False
    return len(hom_space(M, N)) > 0


def radical(module: FpModule):
    """Canonical basis of the radical of a graded module generated by a
    simple lowest-degree part, such as a baby Verma module mod a good prime.
    Every proper submodule then has zero lowest-degree part, so the radical
    is the largest such submodule: the common kernel of the lowest-degree
    coordinate functionals spun under the transposed action.  Raises
    ValueError when the module has no degrees or its lowest-degree part does
    not generate it; simplicity of that part is the caller's premise."""
    if not module.degrees:
        raise ValueError("the radical needs a graded module")
    low = min(module.degrees)
    unit = np.eye(module.dim, dtype=np.int64)
    seeds = [unit[:, i] for i, d in enumerate(module.degrees) if d == low]
    if spin(module, seeds).shape[1] != module.dim:
        raise ValueError("the lowest-degree part does not generate the "
                         "module")
    dual = spin(module.transpose(), seeds)
    return nullspace_mod(dual.T, module.p)
