"""Heads and decomposition matrices of baby Verma modules in
characteristic zero, and the paper's Las Vegas lift as their independent
check.

A baby Verma module is graded and generated by its simple degree-0 part
(Gordon 2003), so every proper submodule has zero degree-0 part and the
radical R is the common kernel of the degree-0 coordinate functionals spun
under the transposed action.  By the triangular decomposition
H = C[x] W C[y] (Etingof-Ginzburg 2002) only the y's add to that spin, so
``dual_spin`` spins under their transposes alone.  The spin, exact over the
parameter's field with no prime and no draw, spans the annihilator of R,
which is dual to the head: ``gordon`` reads each head's Poincare series and
graded character off it by a trace formula (``modules.dual_character``) and
never forms the head.  Graded characters are unitriangular, so each Verma's
decomposition row is peeled from its character against the heads'.

``head_and_radical`` spins the same functionals under every generator,
takes the nullspace and forms the head as a quotient module; it is the
tests' oracle for both the y-only spin and the trace formula.
The paper's algorithm stays here as an oracle that ``gordon`` does not
call either: draw a parameter point and a good prime, push a module over
to F_p, take its radical there, record only the radical's
field-independent shape (pivot skeleton plus the equality pattern of the
non-pivot entries), and re-find a submodule with that shape over the
original field by solving the linear strata of the invariance equations of
the y's.  Its F_p side is ``meataxe``'s, the one module that imports
numpy: ``specialize_module`` hands it plain lists of ints and
``abstract_structure`` reads an F_p radical through ``meataxe.columns``,
each importing ``meataxe`` inside the call.  The rest of the lift (the
draw of a point and a prime, the shape of an exact matrix, the search for
a submodule with that shape) needs neither, and runs where numpy is not
installed, as ``gordon`` does."""

from __future__ import annotations

import random

from .algebra import CherednikParameter, ParameterError
from .groups import ReflectionGroup
from .linalg import ExactMatrix
from .modules import GradedModule, dual_character, graded_spin, \
    is_invariant_subspace, quotient_module, verma_character, verma_module
from .restricted import bad_primes, is_potentially_integral
from .scalars import FieldError, Scalar, _prime_factors, evaluate, \
    minpoly_roots_mod_p, parameter_names, reduce_mod_prime


class LiftFailure(Exception):
    """The Las Vegas run did not succeed (never a wrong answer)."""


class SpecializationError(LiftFailure):
    """A scalar does not specialize at the drawn point or prime."""


NO_SUBMODULE = "no-submodule"
NOT_LINEARLY_SOLVABLE = "not-linearly-solvable"


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


def scalar_to_fp(s: Scalar, ff: FiniteFieldSpec) -> int:
    try:
        return reduce_mod_prime(evaluate(s, ff.u), ff.p, ff.root).payload
    except FieldError as exc:
        raise SpecializationError(str(exc))


def specialize_module(module: GradedModule, ff: FiniteFieldSpec) -> FpModule:
    from .meataxe import FpModule

    mats = []
    for m in module.mats:
        a = [[0] * module.dim for _ in range(module.dim)]
        for (i, j), v in m.entries.items():
            a[i][j] = scalar_to_fp(v, ff)
        mats.append(a)
    return FpModule(ff.p, mats, module.degrees, module.gen_degrees)


def draw_specialization(group: ReflectionGroup, par: CherednikParameter,
                        dim: int, rng: random.Random) -> FiniteFieldSpec:
    """Prime from (dim, 10 dim) splitting the base field and avoiding the
    bad set; u over small-height integers, kept potentially integral, and
    no nonzero parameter value may reduce to 0 mod p (that would be the
    specialization of another parameter)."""
    bad = bad_primes(group)
    K = group.spec
    number_field = K.kind == "number-field"
    lo = max(dim, 3)
    candidates = [p for p in range(lo + 1, 10 * lo + 20)
                  if _prime_factors(p) == [p] and p not in bad
                  and (not number_field or minpoly_roots_mod_p(K, p))]
    if not candidates:
        raise LiftFailure("no admissible primes in the window")
    free = parameter_names(par.ring)
    for _ in range(40):
        p = rng.choice(candidates)
        root = 0
        if number_field:
            root = rng.choice(minpoly_roots_mod_p(K, p))
        u = {name: K.scalar(rng.randint(1, 40)) for name in free}
        try:
            evaluated = par.map_values(K, lambda s: evaluate(s, u))
        except FieldError:
            continue
        if not is_potentially_integral(group, evaluated, p):
            continue
        if any(not v.is_zero() and reduce_mod_prime(e, p, root).is_zero()
               for v, e in zip(par.c, evaluated.c)):
            continue
        return FiniteFieldSpec(p, root, u)
    raise LiftFailure("could not draw an admissible specialization")


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


def abstract_structure(matrix) -> AbstractStructure:
    """From an ExactMatrix, or an F_p array as ``meataxe`` returns one, in
    reduced column echelon form."""
    if isinstance(matrix, ExactMatrix):
        nrows, cols = matrix.nrows, matrix.columns()
    else:
        from .meataxe import columns

        nrows, cols = len(matrix), columns(matrix)
    pivots = [min(col, default=None) for col in cols]
    pivset = set(pivots)
    if any(p is None or col[p] != 1 for p, col in zip(pivots, cols)) \
            or any(i in pivset and i != p
                   for p, col in zip(pivots, cols) for i in col):
        raise FieldError("matrix is not in reduced column echelon form")
    fine, labels = {}, {}
    for j, (p, col) in enumerate(zip(pivots, cols)):
        for i in sorted(col):
            if i != p and col[i]:
                fine[(i, j)] = labels.setdefault(col[i], len(labels) + 1)
    return AbstractStructure(nrows, len(cols), pivots, fine)


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
        ring = module.spec
        degs = module.degrees
        zero = ring.zero()
        self.equations = []
        col_degree = []
        for j in range(struct.ncols):
            dset = {degs[i] for i in struct.column_support(j)}
            if len(dset) != 1:
                raise LiftFailure(
                    "column support mixes degrees: no graded submodule "
                    "carries this shape")
            col_degree.append(dset.pop())
        # D sets: columns of matching degree
        targets = {}
        for j in range(struct.ncols):
            targets.setdefault(col_degree[j], []).append(j)
        for k in gen_indices:
            cols_of = module.mats[k].columns()
            gdeg = module.gen_degrees[k]
            for j in range(struct.ncols):
                dkj = targets.get(gdeg + col_degree[j], [])
                # w = X^(k) applied to the symbolic column j
                w = {}

                def add_col(col, key):
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

    def store(determined):
        new = False
        for k, v in determined.items():
            known = theta_val if k[0] == "t" else y_val
            if k not in known:
                known[k] = v
                new = True
        return new

    while len(theta_val) < s:
        lin_eqs = reduced_equations()
        if lin_eqs is None:
            return NO_SUBMODULE
        # trivial sweep: single-variable equations
        single = {}
        for const, lin in lin_eqs:
            if len(lin) == 1:
                (k, c), = lin.items()
                single.setdefault(k, -const / c)
        if store(single):
            continue
        index = {}
        for pos, (const, lin) in enumerate(lin_eqs):
            for k in lin:
                if k[0] == "t":
                    index.setdefault(k, []).append(pos)
        for q in range(1, s + 1):
            key = ("t", q)
            if key in theta_val or key not in index:
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
            bad, determined = _solve_linear_block(
                [lin_eqs[pos] for pos in sorted(chosen)], ring)
            if bad:
                return NO_SUBMODULE
            if store(determined):
                break
        else:
            return NOT_LINEARLY_SOLVABLE

    # the candidate is in canonical form by construction (pivots from an
    # rcef, fine entries below their pivots and off every pivot row);
    # confirm it really is a submodule
    found = ExactMatrix(ring, struct.nrows, struct.ncols)
    one = ring.one()
    for j, p in enumerate(struct.pivots):
        found.entries[(p, j)] = one
    for (i, j), lab in struct.fine.items():
        v = theta_val[("t", lab)]
        if not v.is_zero():
            found.entries[(i, j)] = v
    if not is_invariant_subspace(module, found):
        return NOT_LINEARLY_SOLVABLE
    return found


# ---------------------------------------------------------------------------
# heads, radicals, decomposition matrices

class HeadResult:
    __slots__ = ("radical_basis", "head")

    def __init__(self, radical_basis, head):
        self.radical_basis = radical_basis
        self.head = head


def _lowest_functionals(module: GradedModule):
    """The coordinate functionals of the module's lowest degree, as seeds
    for a spin under the transposed action."""
    low = min(module.degrees)
    one = module.spec.one()
    return [{i: one} for i, d in enumerate(module.degrees) if d == low]


def dual_spin(module: GradedModule) -> ExactMatrix:
    """Canonical basis matrix of the annihilator of the radical of a module
    generated by a simple lowest-degree part, such as a baby Verma module.
    Every proper submodule then has zero lowest-degree part, so the radical
    is the largest such submodule: the common kernel of the lowest-degree
    coordinate functionals f spun under the transposed action, and the head
    is simple.  The premise on the lowest-degree part is the caller's.

    Only the transposes of the negative-degree generators (the y's) are
    spun.  By the triangular decomposition H = C[x] W C[y], the spin is
    spanned by the f o (x^a w y^b); f o x^a = 0 for a != 0, as nothing lies
    below the lowest degree, and f o w is again a lowest-degree functional,
    so the spin is span{f o y^b}.  Its canonical basis is the full spin's."""
    lowering = [k for k, d in enumerate(module.gen_degrees) if d < 0]
    dual = GradedModule(module.spec, module.degrees,
                        [module.gen_names[k] for k in lowering],
                        [-module.gen_degrees[k] for k in lowering],
                        [module.mats[k].transpose() for k in lowering])
    return graded_spin(dual, _lowest_functionals(module))


def head_and_radical(module: GradedModule) -> HeadResult:
    """Radical and head (the quotient module) of a module generated by a
    simple lowest-degree part; exact over the module's field, which must be
    a field for the nullspace.  The radical is the nullspace of the
    transposed spin of the lowest-degree functionals under every generator,
    not ``dual_spin``'s y's alone, so it checks that shortcut too.
    ``gordon`` reads the heads' characters off the dual spin and never
    forms them; this is the tests' oracle for that."""
    spin = graded_spin(module.transpose(), _lowest_functionals(module))
    rad = spin.transpose().nullspace()
    if not rad.ncols:
        return HeadResult(rad, module)
    return HeadResult(rad, quotient_module(module, rad).module)


def peel(character, simples):
    """Composition multiplicities {member: count} of a module with the given
    graded character (graded_character's layout) over the simples {1-based
    irrep: graded character}, each its irrep in degree 0 plus higher
    degrees: the lowest degree left names whole simples, so take them off
    and go up.  Raises LiftFailure when the character does not peel."""
    left = {(nu, d): m for nu, row in enumerate(character, 1)
            for d, m in row.items()}
    counts = dict.fromkeys(simples, 0)
    for low in range(max((d for _, d in left), default=-1) + 1):
        for nu, m in [(nu, m) for (nu, d), m in left.items() if d == low]:
            if m < 0 or nu not in simples:
                raise LiftFailure(f"irrep {nu} in degree {low} does not peel")
            counts[nu] += m
            for mu, row in enumerate(simples[nu], 1):
                for d, k in row.items():
                    left[(mu, low + d)] = left.get((mu, low + d), 0) - m * k
        left = {key: v for key, v in left.items() if v}
    if left:
        raise LiftFailure("graded character does not peel to zero")
    return counts


class FamilyDecomposition:
    __slots__ = ("members", "pseries", "characters", "matrix")

    def __init__(self, members, pseries, characters, matrix):
        self.members = list(members)
        self.pseries = pseries        # {member: Poincare series of head}
        self.characters = characters  # {member: graded character of head}
        self.matrix = matrix          # {(row member, col member): int}


def decompose_family(group: ReflectionGroup, par: CherednikParameter,
                     members) -> FamilyDecomposition:
    """The heads' Poincare series and graded characters, and the
    decomposition matrix, of a constituent-closed family of standard
    modules (1-based irrep indices).  Each head's character is read off the
    Verma's dual spin by ``dual_character``'s trace formula; each row comes
    from peeling the Verma's graded character (closed form) against the
    heads'; a character that does not peel raises LiftFailure."""
    pseries, characters = {}, {}
    for lam in members:
        rho = group.irreps[lam - 1]
        pseries[lam], characters[lam] = dual_character(
            group, rho, dual_spin(verma_module(group, par, rho)))
    matrix = {}
    for lam in members:
        row = peel(verma_character(group, group.irreps[lam - 1]), characters)
        matrix.update(((lam, mu), row[mu]) for mu in members)
    return FamilyDecomposition(members, pseries, characters, matrix)


def gordon(group: ReflectionGroup, par: CherednikParameter,
           hyperplane_text="", families=None, seed=0):
    """Heads, Poincare series, graded G-structure, decomposition matrices,
    and the block partition, per Euler family.

    families: optional 1-based index tuple selecting one Euler family;
    otherwise every family is processed, and the record also carries the
    full decomposition matrix and the CM families.  The run is exact and
    draws nothing, so ``seed`` is accepted and ignored.  Raises
    ParameterError when the parameter belongs to another group, its t is
    nonzero, its ring is not a field or ``families`` is not an Euler family,
    and LiftFailure naming the families whose decomposition rows did not
    peel, or when a full record fails ``validate`` or the audit of each
    row against dim Delta(lam) = |W| dim lam.

    Last, every run audits the PI-degree bound on each CM family that its
    decomposition entries give: dim L(lam) <= |W|, with equality exactly
    when the family is {lam}.  Every simple H_{0,c}-module has dim at most
    |W|, with equality exactly over the smooth points of the Calogero-Moser
    space (Etingof-Ginzburg 2002, Theorem 1.7), and the smooth points over
    0 are the singleton CM families (Gordon 2003, section 5).  A family
    that breaks the bound raises LiftFailure naming it."""
    from .records import GordonRecord, family_text, poly_in_t
    from .algebra import euler_families as _euler_families

    if par.group is not group:
        raise ParameterError("parameter bound to a different group")
    if not par.t.is_zero():
        raise ParameterError("the restricted algebra lives at t = 0")
    if not par.ring.is_field:
        raise ParameterError(f"parameters over {par.ring} are not a field; "
                             "use a point or a one-variable function field")
    fams = sorted(_euler_families(group, par), key=lambda t: min(t[0]))
    record = GordonRecord(group.name, hyperplane_text)
    record.num_irreps = len(group.irreps)
    record.euler_families = [(m, repr(s)) for m, s in fams]
    if families is not None:
        wanted = set(families)
        matches = [m for m, _ in fams if set(m) == wanted]
        if not matches:
            raise ParameterError(
                f"{sorted(wanted)} is not an Euler family here "
                f"(families: {[m for m, _ in fams]})")
        run_list = matches
    else:
        run_list = [m for m, _ in fams]

    failures = []
    for members in run_list:
        try:
            fam = decompose_family(group, par, members)
        except LiftFailure as exc:
            failures.append((members, str(exc)))
            continue
        for lam in members:
            record.simple_dims[lam] = sum(fam.pseries[lam].values())
            record.simple_pseries[lam] = poly_in_t(fam.pseries[lam])
            record.simple_graded[lam] = [poly_in_t(r)
                                         for r in fam.characters[lam]]
        record.verma_decomposition.update(fam.matrix)
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
        record.cm_families = verma_families(record.verma_decomposition)
        record.validate()
        record.verma_dim_audit({lam: group.order * rho.dim for lam, rho
                                in enumerate(group.irreps, 1)})
    for fam in verma_families(record.verma_decomposition):
        dims = [record.simple_dims[lam] for lam in fam]
        if max(dims) > group.order \
                or (group.order in dims) != (len(fam) == 1):
            raise LiftFailure(f"family {family_text(fam)} fails the "
                              f"PI-degree audit: simple dims {dims}, "
                              f"|W| = {group.order}")
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
