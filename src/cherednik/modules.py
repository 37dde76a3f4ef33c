"""Graded modules over generator-presented algebras, and the Verma modules
of the restricted rational Cherednik algebra.

A module stores one sparse action matrix per generator together with basis
and generator degrees; every construction checks that nonzero entries
connect degrees compatibly.

A Verma module is Delta(rho) = C[h]^coW (x) rho, so each of its operators
is a sum of Kronecker products (coinvariant operator) (x) (matrix of rho),
and ``_add_tensor`` is the one place that forms them.  The coinvariant
operators are kept once per group by ``functools.cache`` on
``_coinvariant_operator``, as payload matrices over the group's field: A_g,
the action of g (``co.act``), X_i, multiplication by x_i (``co.multiply``),
and Q_s, the lowering table of a reflection s.  The group part of
[y_i, x^mu] at s is coroot_s[i] Q_s(mu), because (y_i, x_j)_s is rank one
in i, so ``x_tables`` keeps one table per reflection: row mu holds Q_s(mu)
(``algebra.commutator_telescope``, the Leibniz rule of a twisted
derivation) reduced into the coinvariant algebra.

At t = 0 the y's act linearly in c, so a Verma module is a pencil: one
matrix Y_i^(j) = sum_{s in j} coroot_s[i] Q_s (x) rho(s) per coordinate i
and reflection class j, with y_i = sum_j c_j Y_i^(j), g-matrices
A_g (x) rho(g) and x-matrices X_i (x) 1 that do not depend on c at all.
The pencil and the closed-form graded character of each irrep are built
on first use and kept by ``functools.cache`` on ``_verma_pencil`` and
``_verma_character_rows``, keyed by (group, irrep); ``verma_module``
evaluates the pencil at a parameter and returns new matrices on every
call.

Graded characters come from class traces per degree, which
``ReflectionGroup.multiplicities`` decomposes into irreducibles over the
group's field.  ``verma_character`` takes the traces in closed form from
the coinvariants; ``dual_character`` reads them off a dual spin of a Verma
module with one pivot entry per basis vector and class: the identity's
trace in degree d is the number of pivots of degree d, and the other
classes' representatives have their columns A_g (x) rho(g) kept by
``functools.cache`` on ``_class_columns``, keyed by (group, irrep, ring),
as payloads of the ring the traces are summed in.  ``graded_character``
multiplies out degree blocks of any module's g-matrices and serves the
tests as the oracle of both; it reads no cached column."""

from __future__ import annotations

import functools

from .algebra import CherednikParameter, ParameterError, \
    commutator_telescope
from .groups import Irrep, ReflectionGroup
from .linalg import Echelon, ExactMatrix
from .scalars import Scalar


class ModuleError(Exception):
    pass


class GradedModule:
    __slots__ = ("spec", "dim", "degrees", "gen_names", "gen_degrees",
                 "mats", "_by_degree")

    def __init__(self, spec, degrees, gen_names, gen_degrees, mats):
        self.spec = spec
        self.dim = len(degrees)
        self.degrees = list(degrees)
        self.gen_names = list(gen_names)
        self.gen_degrees = list(gen_degrees)
        self.mats = list(mats)
        self._by_degree = None
        self.check_grading()

    def check_grading(self):
        for k, m in enumerate(self.mats):
            dk = self.gen_degrees[k]
            for (l, i) in m.entries:
                if self.degrees[l] != dk + self.degrees[i]:
                    raise ModuleError(
                        f"entry ({l},{i}) of generator {self.gen_names[k]} "
                        "violates the grading")

    def by_degree(self):
        if self._by_degree is None:
            out = {}
            for i, d in enumerate(self.degrees):
                out.setdefault(d, []).append(i)
            self._by_degree = out
        return self._by_degree

    def poincare_series(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def generator_index(self, name):
        return self.gen_names.index(name)

    def transpose(self):
        """The dual action: transposed matrices, negated generator degrees
        (a functional on degree d is carried to degree d - g)."""
        return GradedModule(self.spec, self.degrees, self.gen_names,
                            [-d for d in self.gen_degrees],
                            [m.transpose() for m in self.mats])

    def __repr__(self):
        return (f"GradedModule(dim={self.dim}, generator degrees "
                f"{self.gen_degrees})")


# ---------------------------------------------------------------------------
# Verma modules: coinvariant operators (x) irrep matrices, a pencil in c

@functools.cache
def x_tables(group: ReflectionGroup):
    """Per reflection s (keyed by its element): sparse matrix over the base
    field with row mu listing the coinvariant coefficients of Q_s(mu), built
    once per group.  The group part of y_i acting on x^mu is
    P_s(i, mu) = coroot_s[i] Q_s(mu), and ``commutator_telescope`` gives
    Q_s(mu) by the Leibniz rule Q_s(x^nu x_j) = Q_s(x^nu) (s x_j) +
    Q_s(x_j) x^nu."""
    co = group.coinvariant_algebra("V")
    tables = {}
    for s in group.reflections:
        rows = {}
        for mu_idx, mu in enumerate(co.monomials):
            row = co.nf_coeffs(commutator_telescope(group, s, mu))
            if row:
                rows[mu_idx] = row
        tables[s.element] = rows
    return tables


@functools.cache
def _coinvariant_operator(group: ReflectionGroup, kind, key):
    """A linear operator on the coinvariants as {(eta, mu): payload over
    the group's field}, the coefficient of x^eta in the image of x^mu,
    built once per group: kind "g" is A_g for the element of index key
    (``co.act``), "x" is X_i, multiplication by x_key (``co.multiply``),
    and "q" is Q_s for the reflection element key (``x_tables``)."""
    co = group.coinvariant_algebra("V")
    if kind == "g":
        cols = [co.act(key, mu) for mu in co.monomials]
    elif kind == "x":
        ei = tuple(1 if a == key else 0 for a in range(group.n))
        cols = [co.multiply(ei, mu) for mu in co.monomials]
    else:
        cols = [x_tables(group)[key].get(mu, {}) for mu in range(co.dim)]
    return {(eta, mu): v.payload for mu, col in enumerate(cols)
            for eta, v in col.items()}


def _add_tensor(entries, spec, op, mat):
    """entries += op (x) mat on payloads of spec, for a coinvariant operator
    op and a d x d matrix of scalars: entry (eta*d + t, mu*d + k) of the
    Verma module gains op[eta, mu] * mat[t][k].  Returns entries."""
    mul, add = spec.payload_mul, spec.payload_add
    d = len(mat)
    nonzero = [(t, k, v.payload) for t, row in enumerate(mat)
               for k, v in enumerate(row) if not v.is_zero()]
    for (eta, mu), a in op.items():
        for t, k, b in nonzero:
            key = (eta * d + t, mu * d + k)
            term = mul(a, b)
            cur = entries.get(key)
            entries[key] = term if cur is None else add(cur, term)
    return entries


@functools.cache
def _verma_pencil(group: ReflectionGroup, rho: Irrep):
    """Everything about rho's Verma module that does not depend on c, as
    sparse entry dicts over the group's field: (basis degrees, ys, gxs).
    ys[i][j] is the matrix Y_i^(j) = sum over the reflections s of class j
    of coroot_s[i] Q_s (x) rho(s), with y_i = sum_j c_j Y_i^(j); gxs holds
    the g-matrices A_g (x) rho(g), then the x-matrices X_i (x) 1.  Built
    once per (group, irrep)."""
    co = group.coinvariant_algebra("V")
    spec = group.spec
    degrees = [dgr for dgr in co.degrees for _ in range(rho.dim)]
    ys = [[{} for _ in range(group.num_reflection_classes)]
          for _ in range(group.n)]
    for s in group.reflections:
        q = _coinvariant_operator(group, "q", s.element)
        m = rho.matrix(s.element)
        for i, ci in enumerate(s.coroot):
            _add_tensor(ys[i][s.refl_class], spec, q,
                        [[ci * v for v in row] for row in m])
    gxs = [_add_tensor({}, spec, _coinvariant_operator(group, "g", g),
                       rho.matrix(g))
           for g in (group.element_index[gmat] for gmat in group.gens)]
    gxs += [_add_tensor({}, spec, _coinvariant_operator(group, "x", i),
                        rho.matrix(group.identity)) for i in range(group.n)]

    def scalars(entries):
        return {key: Scalar(spec, v) for key, v in entries.items()
                if not spec.payload_is_zero(v)}
    return (degrees, [[scalars(e) for e in row] for row in ys],
            [scalars(e) for e in gxs])


def verma_module(group: ReflectionGroup, par: CherednikParameter,
                 rho: Irrep) -> GradedModule:
    """Standard module of the restricted algebra attached to rho.

    Basis x^mu (x) w_k ordered by (degree, monomial, k); generators are the
    y's (degree -1), the group generators (0), then the x's (+1).  At t = 0
    the y's are linear in c, so the module is the pencil of
    ``_verma_pencil`` (cached per (group, irrep), built on the first call)
    evaluated at par: each entry of y_i = sum_j c_j Y_i^(j) is summed on
    par.ring's payloads by one ``payload_dot``, and the g's and x's are
    embedded into par.ring.  Every call returns new matrices; a parameter
    with t != 0 raises ParameterError."""
    if not par.t.is_zero():
        raise ParameterError("baby Verma modules live at t = 0")
    degrees, ys, gxs = _verma_pencil(group, rho)
    ring = par.ring
    dot, is_zero = ring.payload_dot, ring.payload_is_zero
    cs = [(cj.payload, j) for j, cj in enumerate(par.c) if not cj.is_zero()]
    dim = len(degrees)
    mats = []
    for classes in ys:
        pairs = {}
        for cj, j in cs:
            for key, v in classes[j].items():
                pairs.setdefault(key, []).append(
                    (cj, ring.embed(v).payload))
        m = ExactMatrix(ring, dim, dim)
        for key, ps in pairs.items():
            s = dot(ps)
            if not is_zero(s):
                m.entries[key] = Scalar(ring, s)
        mats.append(m)
    for entries in gxs:
        m = ExactMatrix(ring, dim, dim)
        m.entries = {key: ring.embed(v) for key, v in entries.items()}
        mats.append(m)
    n = group.n
    gen_names = [f"y{i+1}" for i in range(n)] \
        + [f"g{i+1}" for i in range(len(group.gens))] \
        + [f"x{i+1}" for i in range(n)]
    gen_degrees = [-1] * n + [0] * len(group.gens) + [1] * n
    return GradedModule(ring, degrees, gen_names, gen_degrees, mats)


# ---------------------------------------------------------------------------
# spinning, submodules, quotients

def graded_spin(module: GradedModule, seeds) -> ExactMatrix:
    """Canonical basis matrix of the smallest graded submodule containing
    the given homogeneous seed vectors (sparse dicts).  Each image
    w_i = sum_j M[i, j] v_j is summed on payload columns by one
    ``payload_dot`` per coordinate before ``Echelon`` reduces it."""
    for v in seeds:
        degs = {module.degrees[i] for i, c in v.items() if not c.is_zero()}
        if len(degs) > 1:
            raise ModuleError("seed vector is not homogeneous")
    spec = module.spec
    dot = spec.payload_dot
    ech = Echelon(spec)
    work = []
    for v in seeds:
        r = ech.insert(v)
        if r is not None:
            work.append(dict(r))
    mcols = []  # per matrix, per column j: the pairs (i, payload of M[i, j])
    for m in module.mats:
        cols = [[] for _ in range(module.dim)]
        for (i, j), x in m.entries.items():
            cols[j].append((i, x.payload))
        mcols.append(cols)
    while work:
        v = [(j, c.payload) for j, c in work.pop().items()]
        for cols in mcols:
            pairs = {}
            for j, c in v:
                for i, x in cols[j]:
                    pairs.setdefault(i, []).append((x, c))
            r = ech.insert({i: Scalar(spec, dot(ps))
                            for i, ps in pairs.items()})
            if r is not None:
                work.append(dict(r))
    return ech.matrix(module.dim)


def is_invariant_subspace(module: GradedModule, basis: ExactMatrix) -> bool:
    ech = Echelon(module.spec, basis.columns())
    return all(ech.contains(c) for m in module.mats
               for c in (m * basis).columns())


class Quotient:
    """A graded quotient module together with its projection data."""

    __slots__ = ("module", "kept_rows", "_sub", "_pos")

    def __init__(self, module, kept_rows, sub_basis):
        self.module = module
        self.kept_rows = kept_rows
        self._pos = {r: i for i, r in enumerate(kept_rows)}
        self._sub = Echelon(sub_basis.spec, sub_basis.columns())

    def project(self, v):
        """Coordinates of the image of a vector of the big module."""
        return {self._pos[i]: c for i, c in self._sub.reduce(v).items()}


def quotient_module(module: GradedModule, sub: ExactMatrix) -> Quotient:
    """Quotient by an invariant subspace given as a canonical basis matrix;
    the complement basis keeps the non-pivot coordinate lines (all
    homogeneous, so the quotient grading is inherited)."""
    if sub.ncols and not is_invariant_subspace(module, sub):
        raise ModuleError("subspace is not generator-invariant")
    pivots = {min(c) for c in sub.columns() if c}
    kept = [i for i in range(module.dim) if i not in pivots]
    q = Quotient(None, kept, sub)
    degrees = [module.degrees[i] for i in kept]
    mats = []
    for m in module.mats:
        mm = ExactMatrix(module.spec, len(kept), len(kept))
        mcols = m.columns()
        for j, row in enumerate(kept):
            img = q.project(mcols[row])
            for i, c in img.items():
                mm.entries[(i, j)] = c
        mats.append(mm)
    q.module = GradedModule(module.spec, degrees, module.gen_names,
                            module.gen_degrees, mats)
    return q


# ---------------------------------------------------------------------------
# graded characters

def _element_blocks(group, module: GradedModule, degree_rows, elements):
    """Matrices of the given group elements on one degree block, built from
    the generator blocks along the enumeration words; only the elements and
    their ancestors in ``group.parent_edge`` are multiplied out."""
    spec = module.spec
    pos = {r: i for i, r in enumerate(degree_rows)}
    gen_offset = group.n  # y's first
    gblocks = []
    for gi in range(len(group.gens)):
        m = module.mats[gen_offset + gi]
        b = ExactMatrix(spec, len(degree_rows), len(degree_rows))
        for (r, c), v in m.entries.items():
            if r in pos and c in pos:
                b.entries[(pos[r], pos[c])] = v
        gblocks.append(b)
    blocks = {group.identity: ExactMatrix.identity(spec, len(degree_rows))}

    def block(idx):
        if idx not in blocks:
            parent, gi = group.parent_edge[idx]
            blocks[idx] = block(parent) * gblocks[gi]
        return blocks[idx]

    return [block(idx) for idx in elements]


def graded_character(group: ReflectionGroup, module: GradedModule):
    """Multiplicity of each irreducible in each degree: a list (one row per
    irrep, in the group's label order) of {degree: multiplicity}."""
    spec = module.spec
    reps = [cls[0] for cls in group.conj_classes]
    class_traces = {}  # degree -> list over classes
    for dgr, rows in sorted(module.by_degree().items()):
        traces = []
        for b in _element_blocks(group, module, rows, reps):
            tr = spec.zero()
            for i in range(len(rows)):
                tr = tr + b[(i, i)]
            traces.append(tr)
        class_traces[dgr] = traces
    return group.multiplicities(class_traces)


def verma_character(group: ReflectionGroup, rho: Irrep):
    """graded_character of the Verma module of rho without building it: its
    degree-d part is the degree-d coinvariants tensor rho.  Each call
    returns a copy of the rows ``_verma_character_rows`` keeps."""
    return [dict(row) for row in _verma_character_rows(group, rho)]


@functools.cache
def _verma_character_rows(group: ReflectionGroup, rho: Irrep):
    chi = rho.character()
    return group.multiplicities({
        dgr: [t * c for t, c in zip(traces, chi)]
        for dgr, traces in enumerate(group.graded_coinvariant_characters())})


@functools.cache
def _class_columns(group: ReflectionGroup, rho: Irrep, ring):
    """Per column p of rho's Verma module, the pairs (class index, column p
    of the class representative's matrix A_g (x) rho(g) as {row: payload of
    ``ring``}) over the non-identity conjugacy classes with a nonzero
    column, in class order.  Built once per (group, irrep, ring)."""
    spec = group.spec
    out = [[] for _ in _verma_pencil(group, rho)[0]]
    for ci, cls in enumerate(group.conj_classes):
        g = cls[0]
        if g == group.identity:
            continue
        op = _coinvariant_operator(group, "g", g)
        cols = {}
        for (i, p), v in _add_tensor({}, spec, op, rho.matrix(g)).items():
            cols.setdefault(p, {})[i] = ring.embed(Scalar(spec, v)).payload
        for p, col in cols.items():
            out[p].append((ci, col))
    return out


def dual_character(group: ReflectionGroup, rho: Irrep, dual: ExactMatrix):
    """Poincare series {degree: dim} and graded_character's rows of the
    quotient L = Delta/R of rho's Verma module Delta, read off the canonical
    basis matrix ``dual`` (``graded_spin`` on the transposed module) of the
    annihilator S of R, without forming L.

    S is invariant under the transposed action and dual to L, so
    tr(g | L_d) = tr(g^T | S_d).  Each column s_p of ``dual`` has a 1 at its
    pivot p (its topmost support) and 0 at every other pivot, so the
    coordinate of g^T s_p on s_p is its entry at p: tr(g | L_d) is the sum,
    over the pivots p of degree d, of sum_i G[i, p] s_p[i], with G the matrix
    of the class representative g on Delta.  The identity's trace is the
    number of pivots of degree d; the other classes' columns come from
    ``_class_columns`` (cached per (group, irrep, ring)), and each trace is
    summed on the ring's payloads by one ``payload_dot``."""
    degrees = _verma_pencil(group, rho)[0]
    ring = dual.spec
    columns = _class_columns(group, rho, ring)
    pseries = {}
    pairs = {}  # (degree, class index) -> payload pairs (G[i, p], s_p[i])
    for s in dual.columns():
        p = min(s)
        dgr = degrees[p]
        pseries[dgr] = pseries.get(dgr, 0) + 1
        for ci, col in columns[p]:
            pairs.setdefault((dgr, ci), []).extend(
                (v, s[i].payload) for i, v in col.items() if i in s)
    zero = ring.zero()
    identity = group.class_of[group.identity]
    class_traces = {}
    for dgr in sorted(pseries):
        traces = [zero] * len(group.conj_classes)
        traces[identity] = ring.scalar(pseries[dgr])
        class_traces[dgr] = traces
    for (dgr, ci), ps in pairs.items():
        class_traces[dgr][ci] = Scalar(ring, ring.payload_dot(ps))
    return dict(sorted(pseries.items())), group.multiplicities(class_traces)


# ---------------------------------------------------------------------------
# relation checking

def check_module_relations(group: ReflectionGroup, par: CherednikParameter,
                           module: GradedModule, reason=None):
    """All defining relations of the restricted algebra hold on the module:
    group multiplication, commuting x's and y's, the commutation relation
    between y's and x's at t = 0, and nilpotency of the Hilbert-ideal
    generators on both sides.  Returns (ok, failing relation or None)."""
    n = group.n
    spec = module.spec

    def fail(msg):
        return (False, msg)

    names = module.gen_names
    expect = [f"y{i+1}" for i in range(n)] \
        + [f"g{i+1}" for i in range(len(group.gens))] \
        + [f"x{i+1}" for i in range(n)]
    if names != expect:
        return fail("generator layout")

    ymats = module.mats[:n]
    gmats = module.mats[n:n + len(group.gens)]
    xmats = module.mats[n + len(group.gens):]

    # group relations along the enumeration words
    elem_mats = {group.identity: ExactMatrix.identity(spec, module.dim)}
    for idx in range(1, group.order):
        parent, gi = group.parent_edge[idx]
        elem_mats[idx] = elem_mats[parent] * gmats[gi]
    for gi, gmat in enumerate(group.gens):
        gidx = group.element_index[gmat]
        for h in range(group.order):
            if elem_mats[h] * gmats[gi] != elem_mats[group.mult[h][gidx]]:
                return fail("group multiplication")

    for i in range(n):
        for j in range(i):
            if xmats[i] * xmats[j] != xmats[j] * xmats[i]:
                return fail("x-commutativity")
            if ymats[i] * ymats[j] != ymats[j] * ymats[i]:
                return fail("y-commutativity")

    # [y_j, x_i] = sum_s (y_j, x_i)_s c(s) s at t = 0
    for j in range(n):
        for i in range(n):
            lhs = ymats[j] * xmats[i] - xmats[i] * ymats[j]
            rhs = ExactMatrix(spec, module.dim, module.dim)
            for s in group.reflections:
                cs = par.c_of(s)
                if cs.is_zero():
                    continue
                coeff = spec.embed(cs) if cs.spec != spec else cs
                w = coeff * spec.embed(s.pairing(j, i))
                rhs = rhs + elem_mats[s.element].scale(w)
            if lhs != rhs:
                return fail("commutation relation")

    # coinvariant nilpotency on both variable blocks
    for side, mats in (("V", xmats), ("V*", ymats)):
        for f in group.fundamental_invariants(side):
            acc = ExactMatrix(spec, module.dim, module.dim)
            for e, c in f.terms.items():
                term = ExactMatrix.identity(spec, module.dim)
                for v, k in enumerate(e):
                    for _ in range(k):
                        term = term * mats[v]
                acc = acc + term.scale(spec.embed(c))
            if not acc.is_zero():
                return fail(f"invariant nilpotency on {side}")
    return (True, None)
