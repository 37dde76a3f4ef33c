"""Module arithmetic over prime fields: irreducibility (Norton's test with
minimal polynomials), composition series, homomorphism spaces via spinning
relations, isomorphism testing, and radicals.

All matrices are dense numpy int64 arrays reduced mod p.  Every random draw
comes from an explicitly seeded generator, so identical seeds reproduce
identical certificates.  The tests never return a wrong answer; exhausted
random search raises ``MeatAxeRetry``."""

from __future__ import annotations

import random

import numpy as np

from .scalars import _pdivmod, _pgcd, _pmod, _pmul, _ppowmod, _psub, _ptrim


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
# linear algebra mod p

def rref_mod(a, p):
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


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
    """Unique column form: pivot of each column topmost, pivot rows unit."""
    r, _ = rref_mod(np.asarray(a).T, p)
    r = r.T
    keep = [j for j in range(r.shape[1]) if np.any(r[:, j])]
    return r[:, keep]


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
# polynomials mod p (the kernel lives in scalars)

def _pderiv(f, p):
    return _ptrim([(i * c) % p for i, c in enumerate(f)][1:])


def factor_squarefree_part(f, p):
    """Distinct irreducible factors of f (monic), by squarefree reduction,
    distinct-degree splitting, and equal-degree splitting (p odd)."""
    if p == 2:
        raise MeatAxeRetry("factorization over F_2 is not supported; "
                           "choose an odd prime")
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    d = _pderiv(f, p)
    if d:
        f = _pdivmod(f, _pgcd(f, d, p), p)[0]
    else:
        # perfect p-th power: take p-th roots of the exponents
        g = [f[i] for i in range(0, len(f), p)]
        return factor_squarefree_part(g, p)
    out = []
    x = [0, 1]
    h = list(x)
    rest = list(f)
    deg = 1
    while len(rest) - 1 >= 2 * deg:
        h = _ppowmod(h, p, rest, p)
        g = _pgcd(rest, _psub(h, x, p), p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, deg, p))
            rest = _pdivmod(rest, g, p)[0]
            h = _pmod(h, rest, p)
        deg += 1
    if len(rest) > 1:
        out.append(rest)
    out.sort(key=lambda q: (len(q), q))
    return out


def _equal_degree_split(f, d, p, rng=None):
    n = len(f) - 1
    if n == d:
        return [f]
    rng = rng or random.Random(0xC0FFEE ^ n ^ d ^ p)
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        g = _pgcd(f, r, p)
        if 1 < len(g) < len(f):
            return _equal_degree_split(g, d, p, rng) \
                + _equal_degree_split(_pdivmod(f, g, p)[0], d, p, rng)
        e = (p ** d - 1) // 2
        g = _pgcd(f, _psub(_ppowmod(r, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree_split(g, d, p, rng) \
                + _equal_degree_split(_pdivmod(f, g, p)[0], d, p, rng)


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
    m = [1]
    for start in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[start] = 1
        # quotient out what the current m already kills
        v = poly_eval_matrix(m, a, p) @ v % p if len(m) > 1 else v
        if not np.any(v):
            continue
        local = _local_minpoly(a, v, p)
        m = _plcm(m, local, p)
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


def _plcm(f, g, p):
    if len(f) <= 1:
        return g
    if len(g) <= 1:
        return f
    gc = _pgcd(f, g, p)
    return _pmul(_pdivmod(f, gc, p)[0], g, p)


# ---------------------------------------------------------------------------
# spinning

class _FpEchelon:
    __slots__ = ("p", "cols")

    def __init__(self, p):
        self.p = p
        self.cols = {}

    def reduce(self, v):
        v = v % self.p
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return None
            piv = int(nz[0])
            r = self.cols.get(piv)
            if r is None:
                return v, piv
            v = (v - v[piv] * r) % self.p

    def insert(self, v):
        red = self.reduce(v)
        if red is None:
            return None
        v, piv = red
        v = (v * pow(int(v[piv]), -1, self.p)) % self.p
        # clear the other pivot rows from the new column (they all lie
        # strictly below piv, since each column's support starts at its
        # own pivot)
        for q in sorted(self.cols):
            if q > piv and v[q]:
                v = (v - v[q] * self.cols[q]) % self.p
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


def spin(module: FpModule, vectors) -> np.ndarray:
    """Canonical basis matrix of the submodule generated by the vectors."""
    ech = _FpEchelon(module.p)
    work = []
    for v in vectors:
        r = ech.insert(np.asarray(v, dtype=np.int64))
        if r is not None:
            work.append(r)
    while work:
        v = work.pop()
        for m in module.mats:
            r = ech.insert((m @ v) % module.p)
            if r is not None:
                work.append(r)
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
        # spin the new seed into the echelon
        work = [ech.insert(v)]
        while work:
            w = work.pop()
            if w is None:
                continue
            for m in module.mats:
                r = ech.insert((m @ w) % module.p)
                if r is not None:
                    work.append(r)
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
                # dependent: record w = sum coords * basis
                coords = _coords_against(basis_vecs, w, p)
                relations.append((k, bi, coords))
            else:
                index_in_span.insert(w)
                basis_vecs.append(w)
                prov.append((k, bi))
                pending.append(len(basis_vecs) - 1)

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
    for k, parent, coords in relations:
        lhs = (N.mats[k] @ Phi[parent]) % p
        for t, c in enumerate(coords):
            if c:
                lhs = (lhs - c * Phi[t]) % p
        rows.append(lhs)
    if rows:
        system = np.concatenate(rows, axis=0)
        sols = nullspace_mod(system, p)
    else:
        sols = np.eye(g * nN, dtype=np.int64)

    # convert each solution to a matrix on the standard basis of M
    B = np.stack(basis_vecs, axis=1) % p
    Binv = inverse_mod(B, p)
    out = []
    for j in range(sols.shape[1]):
        w = sols[:, j]
        images = np.zeros((nN, len(basis_vecs)), dtype=np.int64)
        for t in range(len(basis_vecs)):
            images[:, t] = (Phi[t] @ w) % p
        out.append((images @ Binv) % p)
    return out


def _coords_against(basis_vecs, w, p):
    mat = np.stack(basis_vecs, axis=1)
    sol = solve_mod(mat, w, p)
    if sol is None:
        raise ValueError("vector not in span")
    return [int(c) for c in sol]


def is_isomorphic(M: FpModule, N: FpModule) -> bool:
    """For simple modules: equal dimension plus a nonzero homomorphism."""
    if M.dim != N.dim or M.p != N.p:
        return False
    return len(hom_space(M, N)) > 0


def radical(module: FpModule, rng=None, verify=True):
    """Canonical basis of the intersection of the kernels of all
    homomorphisms onto the composition factors: the radical."""
    rng = rng or random.Random(0)
    if module.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    factors = chop(module, rng)
    p = module.p
    homrows = []
    for simple, _ in factors:
        for phi in hom_space(module, simple):
            homrows.append(phi)
    if homrows:
        stack = np.concatenate(homrows, axis=0)
        rad = nullspace_mod(stack, p)
    else:
        rad = rcef_mod(np.eye(module.dim, dtype=np.int64), p)
    if verify and rad.shape[1] > 0:
        quo, _ = quotient_by_submodule(module, rad)
        again = radical(quo, rng, verify=False)
        if again.shape[1] != 0:
            raise MeatAxeRetry("radical verification failed")
    return rad
