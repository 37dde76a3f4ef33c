"""Graded modules over generator-presented algebras, and the Verma modules
of the restricted rational Cherednik algebra.

A module stores one sparse action matrix per generator together with basis
and generator degrees; every construction checks that nonzero entries
connect degrees compatibly.  Verma modules are assembled from the
coinvariant algebra on the polynomial side: multiplication for the x's, the
twisted group action for the g's, and lowering tables for the y's, which
reduce the algebra's commutator formula (``algebra.commutator_telescope``)
into the coinvariant algebra.  The table rows are independent of both the
representation and the parameter, so they are built once per group."""

from __future__ import annotations

from .algebra import CherednikParameter, commutator_telescope
from .groups import Irrep, ReflectionGroup
from .linalg import ExactMatrix
from .scalars import NumberField, PolyRing, PrimeField, QQ, \
    RationalFunctionField, as_integer, parse_scalar


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

    def __repr__(self):
        return (f"GradedModule(dim={self.dim}, generator degrees "
                f"{self.gen_degrees})")


# ---------------------------------------------------------------------------
# lowering tables

def x_tables(group: ReflectionGroup):
    """Per (coordinate i, reflection s): sparse matrix over the base field
    with row mu listing the coinvariant coefficients of the group-part
    factor of y_i acting on the monomial x^mu (``commutator_telescope``),
    built once per group."""
    if group._x_tables is None:
        co = group.coinvariant_algebra("V")
        tables = {}
        for s in group.reflections:
            for i in range(group.n):
                rows = {}
                for mu_idx, mu in enumerate(co.monomials):
                    row = co.nf_coeffs(commutator_telescope(group, s, i, mu))
                    if row:
                        rows[mu_idx] = row
                tables[(i, s.element)] = rows
        group._x_tables = tables
    return group._x_tables


# ---------------------------------------------------------------------------

def verma_module(group: ReflectionGroup, par: CherednikParameter,
                 rho: Irrep) -> GradedModule:
    """Standard module of the restricted algebra attached to rho.

    Basis x^mu (x) w_k ordered by (degree, monomial, k); generators are the
    y's (degree -1), the group generators (0), then the x's (+1)."""
    co = group.coinvariant_algebra("V")
    ring = par.ring
    n = group.n
    d = rho.dim
    dim = co.dim * d
    degrees = []
    for mu_idx in range(co.dim):
        degrees.extend([co.degrees[mu_idx]] * d)
    tables = x_tables(group)

    def idx(mu_idx, k):
        return mu_idx * d + k

    mats = []
    gen_names = []
    gen_degrees = []

    # lowering operators
    for i in range(n):
        m = ExactMatrix(ring, dim, dim)
        for s in group.reflections:
            cs = par.c_of(s)
            if cs.is_zero():
                continue
            rows = tables[(i, s.element)]
            smat = rho.matrix(s.element)
            for mu_idx, row in rows.items():
                for eta_idx, coeff in row.items():
                    base = ring.embed(coeff) * cs
                    for k in range(d):
                        for t in range(d):
                            v = smat[t][k]
                            if v.is_zero():
                                continue
                            key = (idx(eta_idx, t), idx(mu_idx, k))
                            cur = m.entries.get(key)
                            add = base * ring.embed(v)
                            cur = add if cur is None else cur + add
                            if cur.is_zero():
                                m.entries.pop(key, None)
                            else:
                                m.entries[key] = cur
        mats.append(m)
        gen_names.append(f"y{i+1}")
        gen_degrees.append(-1)

    # group generators
    for gi, gmat in enumerate(group.gens):
        g_elem = group.element_index[gmat]
        m = ExactMatrix(ring, dim, dim)
        gm = rho.matrix(g_elem)
        for mu_idx, mu in enumerate(co.monomials):
            action = co.act(g_elem, mu)
            for eta_idx, coeff in action.items():
                base = ring.embed(coeff)
                for k in range(d):
                    for t in range(d):
                        v = gm[t][k]
                        if v.is_zero():
                            continue
                        m.entries[(idx(eta_idx, t), idx(mu_idx, k))] = \
                            base * ring.embed(v)
        mats.append(m)
        gen_names.append(f"g{gi+1}")
        gen_degrees.append(0)

    # raising operators: multiplication in the coinvariant algebra
    for i in range(n):
        m = ExactMatrix(ring, dim, dim)
        ei = tuple(1 if a == i else 0 for a in range(n))
        for mu_idx, mu in enumerate(co.monomials):
            prod = co.multiply(ei, mu)
            for eta_idx, coeff in prod.items():
                base = ring.embed(coeff)
                for k in range(d):
                    m.entries[(idx(eta_idx, k), idx(mu_idx, k))] = base
        mats.append(m)
        gen_names.append(f"x{i+1}")
        gen_degrees.append(1)

    return GradedModule(ring, degrees, gen_names, gen_degrees, mats)


# ---------------------------------------------------------------------------
# spinning, submodules, quotients

def _vec_sub_scaled(v, w, c):
    """v - c*w on sparse dicts."""
    out = dict(v)
    for i, x in w.items():
        s = out.get(i)
        s = -c * x if s is None else s - c * x
        if s is None or s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


class _Echelon:
    """Incremental reduced echelon with topmost-support pivots; the final
    column set is the unique canonical basis matrix of the span."""

    def __init__(self, spec):
        self.spec = spec
        self.cols = {}  # pivot row -> sparse column with 1 at pivot

    def insert(self, v):
        v = {i: c for i, c in v.items() if not c.is_zero()}
        while v:
            p = min(v)
            r = self.cols.get(p)
            if r is None:
                break
            v = _vec_sub_scaled(v, r, v[p])
        if not v:
            return None
        p = min(v)
        inv = self.spec.one() / v[p]
        v = {i: c * inv for i, c in v.items()}
        # clear remaining pivot rows (all strictly below p) from v
        for q in sorted(self.cols):
            if q > p and q in v:
                v = _vec_sub_scaled(v, self.cols[q], v[q])
        for q, r in list(self.cols.items()):
            if p in r:
                self.cols[q] = _vec_sub_scaled(r, v, r[p])
        self.cols[p] = v
        return v

    def contains(self, v):
        v = dict(v)
        while v:
            p = min(v)
            r = self.cols.get(p)
            if r is None:
                return False
            v = _vec_sub_scaled(v, r, v[p])
        return True

    def matrix(self, nrows):
        cols = [self.cols[p] for p in sorted(self.cols)]
        return ExactMatrix.from_columns(self.spec, nrows, cols)

    def rank(self):
        return len(self.cols)


def graded_spin(module: GradedModule, seeds) -> ExactMatrix:
    """Canonical basis matrix of the smallest graded submodule containing
    the given homogeneous seed vectors (sparse dicts)."""
    for v in seeds:
        degs = {module.degrees[i] for i, c in v.items() if not c.is_zero()}
        if len(degs) > 1:
            raise ModuleError("seed vector is not homogeneous")
    ech = _Echelon(module.spec)
    work = []
    for v in seeds:
        r = ech.insert(v)
        if r is not None:
            work.append(dict(r))
    mcols = [m.columns() for m in module.mats]
    while work:
        v = work.pop()
        for cols in mcols:
            w = {}
            for j, c in v.items():
                for i, x in cols[j].items():
                    w[i] = w[i] + x * c if i in w else x * c
            r = ech.insert(w)
            if r is not None:
                work.append(dict(r))
    return ech.matrix(module.dim)


def is_invariant_subspace(module: GradedModule, basis: ExactMatrix) -> bool:
    ech = _Echelon(module.spec)
    cols = basis.columns()
    for c in cols:
        ech.insert(c)
    for m in module.mats:
        for c in (m * basis).columns():
            if not ech.contains(c):
                return False
    return True


class Quotient:
    """A graded quotient module together with its projection data."""

    __slots__ = ("module", "kept_rows", "sub_basis", "_pivot_of")

    def __init__(self, module, kept_rows, sub_basis):
        self.module = module
        self.kept_rows = kept_rows
        self.sub_basis = sub_basis
        pivots = {min(col): col for col in sub_basis.columns()}
        self._pivot_of = [(p, pivots[p]) for p in sorted(pivots)]

    def project(self, v):
        """Coordinates of the image of a vector of the big module."""
        v = dict(v)
        for p, col in self._pivot_of:
            if p in v:
                v = _vec_sub_scaled(v, col, v[p])
        pos = {r: i for i, r in enumerate(self.kept_rows)}
        return {pos[i]: c for i, c in v.items() if not c.is_zero()}

    def lift(self, subcolumns):
        """Preimage columns in the big module (one section per kept row)."""
        out = []
        for col in subcolumns:
            big = {self.kept_rows[i]: c for i, c in col.items()}
            out.append(big)
        return out


def quotient_module(module: GradedModule, sub: ExactMatrix) -> Quotient:
    """Quotient by an invariant subspace given as a canonical basis matrix;
    the complement basis keeps the non-pivot coordinate lines (all
    homogeneous, so the quotient grading is inherited)."""
    if sub.ncols and not is_invariant_subspace(module, sub):
        raise ModuleError("subspace is not generator-invariant")
    cols = sub.columns()
    pivot_rows = sorted(min(c) for c in cols) if cols else []
    pivset = set(pivot_rows)
    kept = [i for i in range(module.dim) if i not in pivset]
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

def _element_blocks(group, module: GradedModule, degree_rows):
    """Matrices of every group element on one degree block, built from the
    generator blocks along the enumeration words."""
    spec = module.spec
    pos = {r: i for i, r in enumerate(degree_rows)}
    blocks = {}
    gen_offset = group.n  # y's first
    gblocks = []
    for gi in range(len(group.gens)):
        m = module.mats[gen_offset + gi]
        b = ExactMatrix(spec, len(degree_rows), len(degree_rows))
        for (r, c), v in m.entries.items():
            if r in pos and c in pos:
                b.entries[(pos[r], pos[c])] = v
        gblocks.append(b)
    ident = ExactMatrix.identity(spec, len(degree_rows))
    blocks[group.identity] = ident
    for idx in group.bfs_order:
        if idx in blocks:
            continue
        parent, gi = group.parent_edge[idx]
        blocks[idx] = blocks[parent] * gblocks[gi]
    return blocks


def graded_character(group: ReflectionGroup, module: GradedModule):
    """Multiplicity of each irreducible in each degree: a list (one row per
    irrep, in the group's label order) of {degree: multiplicity}."""
    spec = module.spec
    by_degree = module.by_degree()
    class_traces = {}  # degree -> list over classes
    for dgr, rows in sorted(by_degree.items()):
        blocks = _element_blocks(group, module, rows)
        traces = []
        for cls in group.conj_classes:
            b = blocks[cls[0]]
            tr = spec.zero()
            for i in range(len(rows)):
                tr = tr + b[(i, i)]
            traces.append(tr)
        class_traces[dgr] = traces
    return _multiplicities(group, spec, class_traces)


def verma_character(group: ReflectionGroup, rho: Irrep):
    """graded_character of the Verma module of rho without building it: its
    degree-d part is the degree-d coinvariants tensor rho."""
    chi = rho.character()
    class_traces = {
        dgr: [t * c for t, c in zip(traces, chi)]
        for dgr, traces in enumerate(group.graded_coinvariant_characters())}
    return _multiplicities(group, group.spec, class_traces)


def _multiplicities(group, spec, class_traces):
    """graded_character's rows from class traces {degree: [per class]}."""
    sizes = [len(c) for c in group.conj_classes]
    out = []
    for rho in group.irreps:
        chi = rho.character()
        row = {}
        for dgr, traces in class_traces.items():
            s = spec.zero()
            for ci, cls in enumerate(group.conj_classes):
                inv_cls = group.class_of[group.inverse[cls[0]]]
                s = s + traces[ci] * spec.embed(chi[inv_cls]) * sizes[ci]
            m = as_integer(s, group.order)
            if m:
                row[dgr] = m
        out.append(row)
    return out


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
    for idx in group.bfs_order:
        if idx in elem_mats:
            continue
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


# ---------------------------------------------------------------------------
# serialization

def spec_to_text(spec) -> str:
    if spec.kind == "rationals":
        return "rationals"
    if spec.kind == "number-field":
        coeffs = ",".join(str(c) for c in spec.minpoly)
        return f"numberfield({spec.gen_name};{coeffs})"
    if spec.kind == "poly-ring":
        return f"polyring({spec_to_text(spec.base)};{','.join(spec.names)})"
    if spec.kind == "rational-function-field":
        return f"funfield({spec_to_text(spec.base)};{spec.name})"
    if spec.kind == "prime-field":
        return f"primefield({spec.p})"
    raise ModuleError(f"unknown spec kind {spec.kind}")


def spec_from_text(text: str):
    text = text.strip()
    if text == "rationals":
        return QQ
    if text.startswith("numberfield(") and text.endswith(")"):
        name, coeffs = text[len("numberfield("):-1].split(";")
        return NumberField(tuple(int(c) for c in coeffs.split(",")), name)
    if text.startswith("polyring(") and text.endswith(")"):
        inner = text[len("polyring("):-1]
        base, names = _split_spec_args(inner)
        return PolyRing(spec_from_text(base), names.split(","))
    if text.startswith("funfield(") and text.endswith(")"):
        inner = text[len("funfield("):-1]
        base, name = _split_spec_args(inner)
        return RationalFunctionField(spec_from_text(base), name)
    if text.startswith("primefield(") and text.endswith(")"):
        return PrimeField(int(text[len("primefield("):-1]))
    raise ModuleError(f"cannot parse spec {text!r}")


def _split_spec_args(inner: str):
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            return inner[:i], inner[i + 1:]
    raise ModuleError(f"malformed spec arguments {inner!r}")


def module_to_text(module: GradedModule) -> str:
    lines = ["gradedmodule",
             f"field {spec_to_text(module.spec)}",
             f"dim {module.dim}",
             "degrees " + " ".join(str(d) for d in module.degrees),
             "generators " + " ".join(
                 f"{n}:{d}" for n, d in zip(module.gen_names,
                                            module.gen_degrees))]
    for k, m in enumerate(module.mats):
        for (i, j) in sorted(m.entries):
            v = repr(m.entries[(i, j)]).replace(" ", "")
            lines.append(f"entry {k} {i} {j} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def module_from_text(text: str) -> GradedModule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != "gradedmodule":
        raise ModuleError("not a graded module file")
    spec = spec_from_text(lines[1].split(None, 1)[1])
    dim = int(lines[2].split()[1])
    degrees = [int(t) for t in lines[3].split()[1:]]
    gens = [t.rsplit(":", 1) for t in lines[4].split()[1:]]
    gen_names = [g[0] for g in gens]
    gen_degrees = [int(g[1]) for g in gens]
    mats = [ExactMatrix(spec, dim, dim) for _ in gen_names]
    for ln in lines[5:]:
        if ln.strip() == "end":
            break
        _, k, i, j, v = ln.split(None, 4)
        mats[int(k)].entries[(int(i), int(j))] = parse_scalar(v, spec)
    return GradedModule(spec, degrees, gen_names, gen_degrees, mats)
