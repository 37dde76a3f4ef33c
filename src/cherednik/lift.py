"""Lifting finite-field data back to characteristic zero.

The pipeline: draw a parameter point and a good prime, push a module over
to F_p, let the MeatAxe find the radical there, record only the radical's
field-independent shape (pivot skeleton plus the equality pattern of the
non-pivot entries), and re-find a submodule with that shape over the
original field by solving the linear strata of the invariance equations.
A graded spinning check makes every answer safe: failures are visible,
wrong answers impossible."""

from __future__ import annotations

import random

import numpy as np

from .algebra import CherednikParameter, ParameterError
from .groups import ReflectionGroup
from .linalg import ExactMatrix
from .meataxe import FpModule, MeatAxeRetry, chop, is_irreducible, \
    is_isomorphic, radical
from .modules import GradedModule, _Echelon, graded_spin, \
    is_invariant_subspace, quotient_module, verma_module
from .restricted import bad_primes, is_potentially_integral
from .scalars import FieldError, Scalar, minpoly_roots_mod_p, \
    reduce_mod_prime


class SpecializationError(Exception):
    def __init__(self, msg, redraw):
        super().__init__(msg)
        self.redraw = redraw  # "u" or "p"


class LiftFailure(Exception):
    """The Las Vegas run did not succeed (never a wrong answer)."""


NO_SUBMODULE = "no-submodule"
NOT_LINEARLY_SOLVABLE = "not-linearly-solvable"

# linear blocks of the submodule search with more equations than this are
# put off until nothing smaller makes progress
_BLOCK_CAP = 4000


# ---------------------------------------------------------------------------
# finite field specializations

class FiniteFieldSpec:
    """A prime p, a root of the base field's defining polynomial mod p, and
    a parameter point u (free variable name -> base field scalar)."""

    __slots__ = ("p", "root", "u")

    def __init__(self, p, root, u):
        self.p = p
        self.root = root
        self.u = dict(u)

    def __repr__(self):
        us = ", ".join(f"{k}={v!r}" for k, v in sorted(self.u.items()))
        return f"(p={self.p}, root={self.root}, u=[{us}])"


def evaluate_scalar(s: Scalar, point) -> Scalar:
    """Evaluate away the free parameters, landing in the base field."""
    spec = s.spec
    if spec.kind in ("rationals", "number-field", "prime-field"):
        return s
    if spec.kind == "poly-ring":
        base = spec.base
        total = None
        for e, payload in s.payload:
            term = evaluate_scalar(Scalar(base, payload), point)
            for name, k in zip(spec.names, e):
                if k:
                    v = point[name]
                    for _ in range(k):
                        term = term * v
            total = term if total is None else total + term
        if total is None:
            base2 = base
            while base2.kind not in ("rationals", "number-field"):
                base2 = base2.base
            return base2.zero()
        return total
    if spec.kind == "rational-function-field":
        base = spec.base
        x = point[spec.name]
        num, den = s.payload

        def horner(coeffs):
            acc = base.zero()
            for c in reversed(coeffs):
                acc = acc * x + Scalar(base, c)
            return acc

        dv = horner(den)
        if dv.is_zero():
            raise SpecializationError(
                "denominator vanishes at the parameter point", "u")
        return horner(num) / dv
    raise FieldError(f"cannot evaluate a {spec.kind} scalar")


def scalar_to_fp(s: Scalar, ff: FiniteFieldSpec) -> int:
    v = evaluate_scalar(s, ff.u)
    try:
        return reduce_mod_prime(v, ff.p, ff.root).payload
    except FieldError as exc:
        raise SpecializationError(str(exc), "p")


def specialize_module(module: GradedModule, ff: FiniteFieldSpec) -> FpModule:
    mats = []
    for m in module.mats:
        a = np.zeros((module.dim, module.dim), dtype=np.int64)
        for (i, j), v in m.entries.items():
            a[i, j] = scalar_to_fp(v, ff)
        mats.append(a)
    return FpModule(ff.p, mats, module.degrees, module.gen_degrees)


def _primes_in(lo, hi):
    sieve = np.ones(max(hi + 1, 3), dtype=bool)
    sieve[:2] = False
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return [int(p) for p in np.nonzero(sieve)[0] if lo < p < hi]


def draw_specialization(group: ReflectionGroup, par: CherednikParameter,
                        dim: int, rng: random.Random) -> FiniteFieldSpec:
    """Prime from (dim, 10 dim) splitting the base field and avoiding the
    bad set; u over small-height integers, kept potentially integral."""
    bad = bad_primes(group)
    K = group.spec
    candidates = []
    for p in _primes_in(max(dim, 3), 10 * max(dim, 3) + 20):
        if p in bad:
            continue
        if K.kind == "number-field" and not minpoly_roots_mod_p(K, p):
            continue
        candidates.append(p)
    if not candidates:
        raise LiftFailure("no admissible primes in the window")
    free = _free_parameter_names(par.ring)
    for _ in range(40):
        p = rng.choice(candidates)
        root = 0
        if K.kind == "number-field":
            root = rng.choice(minpoly_roots_mod_p(K, p))
        u = {name: K.scalar(rng.randint(1, 40)) for name in free}
        try:
            evaluated = par.map_values(
                K, lambda s: evaluate_scalar(s, u))
        except SpecializationError:
            continue
        if not is_potentially_integral(group, evaluated, p):
            continue
        return FiniteFieldSpec(p, root, u)
    raise LiftFailure("could not draw an admissible specialization")


def _free_parameter_names(ring):
    names = []
    spec = ring
    while spec is not None:
        if spec.kind == "poly-ring":
            names.extend(spec.names)
        elif spec.kind == "rational-function-field":
            names.append(spec.name)
        spec = spec.base
    return names


# ---------------------------------------------------------------------------
# abstract structures

class AbstractStructure:
    """Field-independent shape of a reduced-column-echelon matrix: the
    pivot skeleton plus non-pivot positions labeled by value equality
    (labels 1..s in column-major first-occurrence order)."""

    __slots__ = ("nrows", "ncols", "pivots", "fine", "complexity")

    def __init__(self, nrows, ncols, pivots, fine):
        self.nrows = nrows
        self.ncols = ncols
        self.pivots = list(pivots)
        self.fine = dict(fine)
        self.complexity = max(fine.values(), default=0)

    def __eq__(self, other):
        return (isinstance(other, AbstractStructure)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.pivots == other.pivots and self.fine == other.fine)

    def __repr__(self):
        return (f"AbstractStructure({self.nrows}x{self.ncols}, "
                f"complexity {self.complexity})")

    def column_support(self, j):
        rows = [self.pivots[j]]
        rows.extend(i for (i, jj) in self.fine if jj == j)
        return sorted(set(rows))


def _structure_from_columns(nrows, ncols, pivots, value_at):
    """value_at(i, j) -> hashable nonzero marker for fine positions."""
    fine = {}
    labels = {}
    for j in range(ncols):
        for i in range(nrows):
            if i == pivots[j]:
                continue
            v = value_at(i, j)
            if v is None:
                continue
            if v not in labels:
                labels[v] = len(labels) + 1
            fine[(i, j)] = labels[v]
    return AbstractStructure(nrows, ncols, pivots, fine)


def abstract_structure(matrix) -> AbstractStructure:
    """From an ExactMatrix or numpy array in reduced column echelon form."""
    if isinstance(matrix, ExactMatrix):
        cols = matrix.columns()
        pivots = []
        for j, col in enumerate(cols):
            if not col:
                raise FieldError("zero column in an echelon matrix")
            p = min(col)
            if not col[p] == 1:
                raise FieldError("pivot entry is not 1")
            pivots.append(p)
        pivset = set(pivots)
        for j, col in enumerate(cols):
            for i in col:
                if i in pivset and i != pivots[j]:
                    raise FieldError("matrix is not in reduced column "
                                     "echelon form")

        def value_at(i, j):
            v = cols[j].get(i)
            return None if v is None or v.is_zero() else v

        return _structure_from_columns(matrix.nrows, matrix.ncols, pivots,
                                       value_at)
    a = np.asarray(matrix)
    nrows, ncols = a.shape
    pivots = []
    for j in range(ncols):
        nz = np.nonzero(a[:, j])[0]
        if nz.size == 0 or a[int(nz[0]), j] != 1:
            raise FieldError("matrix is not in reduced column echelon form")
        pivots.append(int(nz[0]))
    pivset = set(pivots)
    for j in range(ncols):
        for i in np.nonzero(a[:, j])[0]:
            if int(i) in pivset and int(i) != pivots[j]:
                raise FieldError("matrix is not in reduced column echelon "
                                 "form")

    def value_at(i, j):
        v = int(a[i, j])
        return v if v else None

    return _structure_from_columns(nrows, ncols, pivots, value_at)


def concretize(struct: AbstractStructure, theta, spec) -> ExactMatrix:
    """Matrix cM + theta(fM); theta must be injective with nonzero values."""
    vals = {}
    for lab in range(1, struct.complexity + 1):
        v = theta[lab]
        if not isinstance(v, Scalar):
            v = spec.scalar(v)
        if v.is_zero():
            raise FieldError("concretization values must be nonzero")
        vals[lab] = v
    if len({repr(v) for v in vals.values()}) != len(vals):
        raise FieldError("concretization values must be pairwise distinct")
    out = ExactMatrix(spec, struct.nrows, struct.ncols)
    one = spec.one()
    for j, p in enumerate(struct.pivots):
        out.entries[(p, j)] = one
    for (i, j), lab in struct.fine.items():
        out.entries[(i, j)] = vals[lab]
    return out


# ---------------------------------------------------------------------------
# the invariance equations and their linear cascade

class _Equation:
    __slots__ = ("const", "lin", "bil")

    def __init__(self, const, lin, bil):
        self.const = const        # Scalar
        self.lin = lin            # var key -> Scalar
        self.bil = bil            # (theta label, Y key) -> Scalar

    def substituted(self, theta_val, y_val, ring):
        const = self.const
        lin = {}
        for k, c in self.lin.items():
            v = theta_val.get(k) if k[0] == "t" else y_val.get(k)
            if v is None:
                lin[k] = lin.get(k, ring.zero()) + c
            else:
                const = const + c * v
        bil = {}
        for (q, yk), c in self.bil.items():
            tv = theta_val.get(("t", q))
            yv = y_val.get(yk)
            if tv is not None and yv is not None:
                const = const + c * tv * yv
            elif tv is not None:
                lin[yk] = lin.get(yk, ring.zero()) + c * tv
            elif yv is not None:
                k = ("t", q)
                lin[k] = lin.get(k, ring.zero()) + c * yv
            else:
                bil[(q, yk)] = c
        lin = {k: v for k, v in lin.items() if not v.is_zero()}
        return const, lin, bil


class SubmoduleEquations:
    """Coefficient-matching equations for a graded submodule with a
    prescribed shape: one equation per (generator, column, row)."""

    def __init__(self, module: GradedModule, struct: AbstractStructure,
                 gen_indices):
        self.module = module
        self.struct = struct
        self.ring = module.spec
        self.equations = []
        self.built_gens = set()
        self.col_degree = []
        degs = module.degrees
        for j in range(struct.ncols):
            support = struct.column_support(j)
            dset = {degs[i] for i in support}
            if len(dset) != 1:
                raise LiftFailure(
                    "column support mixes degrees: no graded submodule "
                    "carries this shape")
            self.col_degree.append(dset.pop())
        self.add_generators(gen_indices)

    def add_generators(self, gen_indices):
        ring = self.ring
        struct = self.struct
        degs = self.module.degrees
        zero = ring.zero()
        for k in gen_indices:
            if k in self.built_gens:
                continue
            self.built_gens.add(k)
            mat = self.module.mats[k]
            cols_of = mat.columns()
            gdeg = self.module.gen_degrees[k]
            # D sets: columns of matching degree
            targets = {}
            for j in range(struct.ncols):
                targets.setdefault(self.col_degree[j], []).append(j)
            pivot_col = {p: j for j, p in enumerate(struct.pivots)}
            fine_by_row = {}
            for (i, j), lab in struct.fine.items():
                fine_by_row.setdefault(i, []).append((j, lab))
            for j in range(struct.ncols):
                dkj = targets.get(gdeg + self.col_degree[j], [])
                # w = X^(k) applied to the symbolic column j
                w = {}

                def add_col(col, key, coeff_one=True):
                    for i, v in col.items():
                        slot = w.setdefault(i, {})
                        slot[key] = slot.get(key, zero) + v

                add_col(cols_of[struct.pivots[j]], None)
                for (i2, j2), lab in struct.fine.items():
                    if j2 == j:
                        add_col(cols_of[i2], lab)
                rows = set(w)
                for l in dkj:
                    rows.add(struct.pivots[l])
                    rows.update(i for (i, jj) in struct.fine if jj == l)
                for i in sorted(rows):
                    const = zero
                    lin = {}
                    bil = {}
                    for key, v in w.get(i, {}).items():
                        if key is None:
                            const = const + v
                        else:
                            kk = ("t", key)
                            lin[kk] = lin.get(kk, zero) + v
                    for l in dkj:
                        ykey = ("Y", k, j, l)
                        if struct.pivots[l] == i:
                            lin[ykey] = lin.get(ykey, zero) - ring.one()
                        lab = struct.fine.get((i, l))
                        if lab is not None:
                            bil[(lab, ykey)] = bil.get(
                                (lab, ykey), zero) - ring.one()
                    if const.is_zero() and not lin and not bil:
                        continue
                    self.equations.append(_Equation(const, lin, bil))


def _solve_linear_block(equations, ring):
    """(inconsistent?, {var: value}) for the affine system given as
    (const, lin) pairs: rows const + sum lin = 0."""
    varlist = sorted({k for _, lin in equations for k in lin})
    vindex = {v: i for i, v in enumerate(varlist)}
    nv = len(varlist)
    m = ExactMatrix(ring, len(equations), nv + 1)
    for r, (const, lin) in enumerate(equations):
        for k, c in lin.items():
            m.entries[(r, vindex[k])] = c
        if not const.is_zero():
            m.entries[(r, nv)] = const
    r, pivots = m.rref()
    if nv in pivots:
        return True, {}
    determined = {}
    for i, pc in enumerate(pivots):
        row = r.row(i)
        if any(j not in (pc, nv) for j in row):
            continue
        val = row.get(nv)
        determined[varlist[pc]] = -val if val is not None else ring.zero()
    return False, determined


def find_submodule(module: GradedModule, struct: AbstractStructure,
                   gen_names=None):
    """Search for a graded submodule whose canonical matrix has the given
    shape, by cascading through the linear strata of the invariance
    equations.  Returns the canonical basis matrix, or one of the string
    outcomes NO_SUBMODULE / NOT_LINEARLY_SOLVABLE."""
    ring = module.spec
    all_gens = list(range(len(module.mats)))
    if gen_names:
        gset = [module.generator_index(n) for n in gen_names]
    else:
        gset = [k for k, d in enumerate(module.gen_degrees) if d == -1]
    try:
        system = SubmoduleEquations(module, struct, gset)
    except LiftFailure:
        return NO_SUBMODULE
    theta_val = {}
    y_val = {}
    s = struct.complexity
    skip = set()

    def reduced_equations():
        lin_eqs = []
        for eq in system.equations:
            const, lin, bil = eq.substituted(theta_val, y_val, ring)
            if bil:
                continue
            if not lin:
                if not const.is_zero():
                    return None  # inconsistent
                continue
            lin_eqs.append((const, lin))
        return lin_eqs

    escalated = gset == all_gens
    while len(theta_val) < s:
        lin_eqs = reduced_equations()
        if lin_eqs is None:
            return NO_SUBMODULE
        # trivial sweep: single-variable equations
        swept = False
        for const, lin in lin_eqs:
            if len(lin) == 1:
                (k, c), = lin.items()
                val = -const / c
                store = theta_val if k[0] == "t" else y_val
                if k not in store:
                    store[k] = val
                    swept = True
        if swept:
            continue
        index = {}
        for pos, (const, lin) in enumerate(lin_eqs):
            for k in lin:
                if k[0] == "t":
                    index.setdefault(k, []).append(pos)
        progress = False
        for q in range(1, s + 1):
            key = ("t", q)
            if key in theta_val or key not in index or q in skip:
                continue
            # transitive closure over shared undetermined theta variables
            chosen = set()
            frontier = {key}
            seen_t = set()
            while frontier:
                t = frontier.pop()
                seen_t.add(t)
                for pos in index.get(t, []):
                    if pos in chosen:
                        continue
                    chosen.add(pos)
                    for k in lin_eqs[pos][1]:
                        if k[0] == "t" and k not in seen_t:
                            frontier.add(k)
            if not chosen:
                continue
            if len(chosen) > _BLOCK_CAP:
                skip.add(q)
                continue
            subsystem = [lin_eqs[pos] for pos in sorted(chosen)]
            bad, determined = _solve_linear_block(subsystem, ring)
            if bad:
                return NO_SUBMODULE
            new = False
            for k, v in determined.items():
                store = theta_val if k[0] == "t" else y_val
                if k not in store:
                    store[k] = v
                    new = True
            if new:
                progress = True
                break
        if not progress:
            # fall back to solving every linear stratum jointly, in
            # components over shared undetermined variables; auxiliary
            # variables determined here feed the bilinear terms
            comp_progress = False
            adj = {}
            for pos, (const, lin) in enumerate(lin_eqs):
                for k in lin:
                    adj.setdefault(k, []).append(pos)
            seen_eq = set()
            for start in sorted(adj):
                if all(pos in seen_eq for pos in adj[start]):
                    continue
                comp_vars = {start}
                comp_eqs = set()
                frontier = [start]
                while frontier:
                    v = frontier.pop()
                    for pos in adj.get(v, []):
                        if pos in comp_eqs:
                            continue
                        comp_eqs.add(pos)
                        for k in lin_eqs[pos][1]:
                            if k not in comp_vars:
                                comp_vars.add(k)
                                frontier.append(k)
                seen_eq |= comp_eqs
                if len(comp_eqs) > _BLOCK_CAP:
                    continue
                bad, determined = _solve_linear_block(
                    [lin_eqs[pos] for pos in sorted(comp_eqs)], ring)
                if bad:
                    return NO_SUBMODULE
                for k, v in determined.items():
                    store = theta_val if k[0] == "t" else y_val
                    if k not in store:
                        store[k] = v
                        comp_progress = True
            if comp_progress:
                continue
            if skip:
                skip.clear()
                continue
            if escalated:
                return NOT_LINEARLY_SOLVABLE
            system.add_generators(all_gens)
            escalated = True

    # assemble the candidate and confirm it really is a submodule
    out = ExactMatrix(ring, struct.nrows, struct.ncols)
    one = ring.one()
    for j, p in enumerate(struct.pivots):
        out.entries[(p, j)] = one
    for (i, j), lab in struct.fine.items():
        v = theta_val[("t", lab)]
        if not v.is_zero():
            out.entries[(i, j)] = v
    ech = _Echelon(ring)
    for col in out.columns():
        ech.insert(col)
    found = ech.matrix(module.dim)
    if found.ncols != struct.ncols \
            or not is_invariant_subspace(module, found):
        return NOT_LINEARLY_SOLVABLE
    return found


# ---------------------------------------------------------------------------
# heads, radicals, decomposition matrices

class HeadResult:
    __slots__ = ("radical_basis", "head", "head_fp")

    def __init__(self, radical_basis, head, head_fp):
        self.radical_basis = radical_basis
        self.head = head
        self.head_fp = head_fp


def head_and_radical(module: GradedModule, ff: FiniteFieldSpec, rng,
                     retries=3) -> HeadResult:
    """Radical and simple head of a module expected to have simple head."""
    mbar = specialize_module(module, ff)
    try:
        irr, _ = is_irreducible(mbar, rng)
    except MeatAxeRetry as exc:
        raise LiftFailure(str(exc))
    if irr:
        zero = ExactMatrix(module.spec, module.dim, 0)
        return HeadResult(zero, module, mbar)
    try:
        rad = radical(mbar, rng)
        struct = abstract_structure(rad)
        found = find_submodule(module, struct)
        if isinstance(found, str):
            raise LiftFailure(f"submodule search: {found}")
        quo = quotient_module(module, found)
        qbar = specialize_module(quo.module, ff)
        irr2, _ = is_irreducible(qbar, rng)
        if not irr2:
            raise LiftFailure("lifted quotient is not simple downstairs")
        return HeadResult(found, quo.module, qbar)
    except (LiftFailure, MeatAxeRetry) as exc:
        if retries <= 0:
            raise LiftFailure(str(exc))
        # spin a random homogeneous vector and retry on the quotient:
        # any proper submodule sits inside the radical, so the head is
        # unchanged
        for _ in range(8):
            degree = rng.choice(sorted(set(module.degrees)))
            rows = [i for i, d in enumerate(module.degrees) if d == degree]
            v = {i: module.spec.scalar(rng.randint(-4, 4)) for i in rows}
            v = {i: c for i, c in v.items() if not c.is_zero()}
            if not v:
                continue
            sub = graded_spin(module, [v])
            if 0 < sub.ncols < module.dim:
                quo = quotient_module(module, sub)
                inner = head_and_radical(quo.module, ff, rng, retries - 1)
                lifted = quo.lift(inner.radical_basis.columns())
                total = graded_spin(module, sub.columns() + lifted)
                return HeadResult(total, inner.head, inner.head_fp)
        raise LiftFailure(str(exc))


class FamilyDecomposition:
    __slots__ = ("members", "heads", "matrix", "spec")

    def __init__(self, members, heads, matrix, spec):
        self.members = list(members)
        self.heads = heads          # {member: HeadResult}
        self.matrix = matrix        # {(row member, col member): int}
        self.spec = spec


# specializations drawn per family before decompose_family gives up
_MAX_DRAWS = 5


def decompose_family(group: ReflectionGroup, par: CherednikParameter,
                     members, rng, vermas=None) -> FamilyDecomposition:
    """Heads and the decomposition matrix of a constituent-closed family of
    standard modules (1-based irrep indices), from at most five
    specializations.  Vermas built here are added to ``vermas``; the prime
    window depends on this family's Verma dimensions only."""
    if vermas is None:
        vermas = {}
    for lam in members:
        if lam not in vermas:
            vermas[lam] = verma_module(group, par,
                                       group.irreps[lam - 1])
    maxdim = max(vermas[lam].dim for lam in members)
    last = None
    for _ in range(_MAX_DRAWS):
        ff = draw_specialization(group, par, maxdim, rng)
        try:
            heads = {}
            for lam in members:
                heads[lam] = head_and_radical(vermas[lam], ff, rng)
            # all heads must be pairwise non-isomorphic downstairs
            for a in members:
                for b in members:
                    if a < b and is_isomorphic(heads[a].head_fp,
                                               heads[b].head_fp):
                        raise LiftFailure("two heads collide downstairs")
            matrix = {}
            for lam in members:
                vbar = specialize_module(vermas[lam], ff)
                factors = chop(vbar, rng)
                row = {mu: 0 for mu in members}
                for simple, mult in factors:
                    matches = [mu for mu in members
                               if is_isomorphic(simple, heads[mu].head_fp)]
                    if len(matches) != 1:
                        raise LiftFailure(
                            "constituent matches "
                            f"{len(matches)} heads; redraw")
                    row[matches[0]] += mult
                audit = sum(row[mu] * heads[mu].head.dim for mu in members)
                if audit != vermas[lam].dim:
                    raise LiftFailure("dimension audit failed")
                for mu in members:
                    matrix[(lam, mu)] = row[mu]
            return FamilyDecomposition(members, heads, matrix, ff)
        except (LiftFailure, SpecializationError, MeatAxeRetry) as exc:
            last = exc
            continue
    raise LiftFailure(f"family {members}: no success within "
                      f"{_MAX_DRAWS} draws ({last})")


def gordon(group: ReflectionGroup, par: CherednikParameter,
           hyperplane_text="", families=None, seed=0):
    """Heads, Poincare series, graded G-structure, decomposition matrices,
    and the block partition, per Euler family.

    families: optional 1-based index tuple selecting one Euler family;
    otherwise every family is processed, and the record also carries the
    full decomposition matrix and the CM families.  Each family gets at
    most five specializations; the submodule search uses the y's first.
    Deterministic given the seed.  Raises ParameterError when the
    parameter ring is not a field, and LiftFailure naming the families
    that did not complete."""
    from .modules import graded_character
    from .records import GordonRecord, family_text, poly_in_t
    from .algebra import euler_families as _euler_families

    if not par.ring.is_field:
        raise ParameterError(f"parameters over {par.ring} are not a field; "
                             "use a point or a one-variable function field")
    rng = random.Random(seed)
    fams = sorted(_euler_families(group, par), key=lambda t: min(t[0]))
    record = GordonRecord(group.name, hyperplane_text, seed)
    record.num_irreps = len(group.irreps)
    record.euler_families = [(m, repr(s)) for m, s in fams]
    if families is not None:
        wanted = set(families)
        matches = [m for m, _ in fams if set(m) == wanted]
        if not matches:
            raise LiftFailure(
                f"{sorted(wanted)} is not an Euler family here "
                f"(families: {[m for m, _ in fams]})")
        run_list = matches
    else:
        run_list = [m for m, _ in fams]

    vermas = {}
    failures = []
    all_rows = {}
    for members in run_list:
        try:
            fam = decompose_family(group, par, members, rng, vermas=vermas)
        except (LiftFailure, SpecializationError) as exc:
            failures.append((members, str(exc)))
            continue
        u_txt = ",".join(f"{k}={v!r}" for k, v in sorted(fam.spec.u.items()))
        record.specializations.append(
            (members, fam.spec.p, fam.spec.root, u_txt))
        for lam in members:
            head = fam.heads[lam].head
            record.simple_dims[lam] = head.dim
            record.simple_pseries[lam] = poly_in_t(head.poincare_series())
            rows = graded_character(group, head)
            record.simple_graded[lam] = [poly_in_t(r) for r in rows]
            for mu in members:
                record.verma_decomposition[(lam, mu)] = \
                    fam.matrix[(lam, mu)]
                all_rows[(lam, mu)] = fam.matrix[(lam, mu)]
    if failures:
        details = "; ".join(f"{family_text(m)}: {msg}"
                            for m, msg in failures)
        raise LiftFailure(f"families failed: {details}")
    if families is None:
        # cross-family multiplicities vanish: store the full square matrix
        n = len(group.irreps)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                record.verma_decomposition.setdefault((i, j), 0)
        record.cm_families = verma_families(all_rows)
        record.validate()
        record.verma_dim_audit({lam: vermas[lam].dim for lam in vermas})
    return record


def verma_families(decomposition_rows):
    """Transitive closure of 'is a constituent of' from a full matrix
    {(lam, mu): multiplicity}; returns sorted tuples of 1-based indices."""
    nodes = sorted({lam for lam, _ in decomposition_rows}
                   | {mu for _, mu in decomposition_rows})
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (lam, mu), mult in decomposition_rows.items():
        if mult:
            union(lam, mu)
    groups = {}
    for x in nodes:
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(v)) for v in groups.values())
