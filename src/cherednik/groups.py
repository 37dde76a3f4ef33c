"""Finite reflection groups: element enumeration, reflections with roots and
coroots, hyperplane orbits, shipped irreducible representations, coinvariant
algebras, and the fake-degree labels used to name characters."""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction

from .linalg import ExactMatrix
from .multipoly import MultiPoly, buchberger, normal_form, standard_monomials
from .scalars import QQ, FieldError, Scalar, _poly_divmod, _poly_mul, \
    as_integer, cyclotomic_field, descend, parse_scalar


class GroupDataError(Exception):
    pass


# enumeration bound: group data read from a file that generates a bigger
# (or an infinite) matrix group is rejected
MAX_GROUP_ORDER = 20000


# -- small dense matrix helpers on tuples of tuples of Scalars --------------

def mat_mul(spec, a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    zero = spec.zero()
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = zero
            for t in range(k):
                if not a[i][t].is_zero() and not b[t][j].is_zero():
                    s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_identity(spec, n):
    one, zero = spec.one(), spec.zero()
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def mat_sub_identity(spec, a):
    """id - a"""
    n = len(a)
    one = spec.one()
    return tuple(tuple((one - a[i][j]) if i == j else -a[i][j]
                       for j in range(n)) for i in range(n))


def _fixed_codimension(spec, a):
    """rank(id - a), the codimension of the fixed space of a."""
    diff = mat_sub_identity(spec, a)
    n = len(a)
    return ExactMatrix(spec, n, n, {(i, j): diff[i][j] for i in range(n)
                                    for j in range(n)}).rank()


def _first_nonzero(vectors):
    return next(v for v in vectors if any(not x.is_zero() for x in v))


def _normalize_covector(row):
    """Scale so the first nonzero coordinate is one (canonical key)."""
    for v in row:
        if not v.is_zero():
            inv = v.spec.one() / v
            return tuple(x * inv for x in row)
    raise FieldError("zero covector")


class Reflection:
    """A group element with codimension-one fixed space."""

    __slots__ = ("element", "matrix", "root", "coroot", "scaled_root", "eps",
                 "hyperplane", "orbit", "triple", "conj_class", "refl_class")

    def __init__(self, element, matrix, spec):
        self.element = element
        self.matrix = matrix
        diff = mat_sub_identity(spec, matrix)
        # the root spans the image of id - s in V; the coroot is a covector
        # cutting out the fixed hyperplane
        root = self.root = _first_nonzero(zip(*diff))
        coroot = self.coroot = _first_nonzero(diff)
        denom = sum((c * r for c, r in zip(coroot, root)), spec.zero())
        if denom.is_zero():
            raise GroupDataError(
                "non-diagonalizable reflection: root pairs to zero with its "
                "coroot")
        # root / <coroot, root>: (y_i, x_j)_s = coroot[i] * scaled_root[j]
        scale = spec.one() / denom
        self.scaled_root = tuple(r * scale for r in root)
        # nontrivial eigenvalue, s(root) = eps * root; it is also det(s)
        i = next(i for i, v in enumerate(root) if not v.is_zero())
        self.eps = sum((a * r for a, r in zip(matrix[i], root)),
                       spec.zero()) / root[i]
        self.hyperplane = None
        self.orbit = None
        self.triple = None
        self.conj_class = None
        self.refl_class = None

    def pairing(self, i, j):
        """(y_i, x_j)_s for basis vectors."""
        return self.coroot[i] * self.scaled_root[j]


def cartan_pairing(y, x, s: Reflection) -> Scalar:
    """(y, x)_s = <y, coroot><root, x> / <root, coroot> for y in V, x in V*
    given by coordinate tuples."""
    spec = s.eps.spec
    a = sum((c * v for c, v in zip(s.coroot, y)), spec.zero())
    b = sum((r * v for r, v in zip(s.scaled_root, x)), spec.zero())
    return a * b


class HyperplaneOrbit:
    __slots__ = ("index", "e", "hyperplanes")

    def __init__(self, index, e, hyperplanes):
        self.index = index
        self.e = e
        self.hyperplanes = hyperplanes


class Irrep:
    """Shipped irreducible representation; matrices indexed by generator."""

    __slots__ = ("group", "gen_matrices", "dim", "label", "b_invariant",
                 "fake_degree")

    def __init__(self, group, gen_matrices, label=None):
        self.group = group
        self.gen_matrices = gen_matrices
        self.dim = len(gen_matrices[0])
        self.label = label
        self.b_invariant = None
        self.fake_degree = None

    @functools.cache
    def matrix(self, element_index):
        """rho(g), multiplied out along g's enumeration word.  The
        recursion is as deep as that word is long; ``_validate_irreps``
        fills the cache in index order, in which every parent comes first."""
        G = self.group
        if element_index == G.identity:
            return mat_identity(G.spec, self.dim)
        parent, gi = G.parent_edge[element_index]
        return mat_mul(G.spec, self.matrix(parent), self.gen_matrices[gi])

    @functools.cache
    def character(self):
        """Character value on each conjugacy class."""
        G = self.group
        return tuple(sum((self.matrix(cls[0])[i][i] for i in range(self.dim)),
                         G.spec.zero()) for cls in G.conj_classes)


class CoinvariantAlgebra:
    """K[V]_G (side 'V', variables x) or K[V*]_G (side 'V*', variables y)."""

    def __init__(self, group, side):
        self.group = group
        self.side = side
        self.spec = group.spec
        self.n = group.n
        invs = group.fundamental_invariants(side)
        self.invariants = invs
        self.groebner = buchberger(invs)
        self.monomials = standard_monomials(self.groebner)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self.degrees = [sum(e) for e in self.monomials]
        # images of the variables must be standard monomials
        for i in range(self.n):
            if _unit(self.n, i) not in self.index:
                raise GroupDataError(
                    "a variable is not a standard monomial of the "
                    "coinvariant algebra")

    def nf(self, poly: MultiPoly):
        return normal_form(poly, self.groebner)

    def nf_coeffs(self, poly: MultiPoly):
        """Coefficient dict monomial-index -> Scalar of the normal form."""
        nf = self.nf(poly)
        return {self.index[e]: c for e, c in nf.terms.items()}

    @functools.cache
    def multiply(self, e1, e2):
        """Structure constants: product of two basis monomials."""
        p = MultiPoly(self.spec, self.n,
                      {tuple(a + b for a, b in zip(e1, e2)): self.spec.one()})
        return self.nf_coeffs(p)

    @functools.cache
    def act(self, element_index, mono):
        """Normal form of g . monomial, as index -> Scalar: the product of
        g . x^(mono - e_j) and g . x_j, for the last variable x_j of the
        monomial, with x^eta x_t taken from ``multiply``.  A divisor of a
        standard monomial is standard, so the recursion stays on them."""
        j = max((t for t, a in enumerate(mono) if a), default=None)
        if j is None:
            return {self.index[mono]: self.spec.one()}
        rest = list(mono)
        rest[j] -= 1
        column = [(t, row[j]) for t, row in enumerate(
            self.group.variable_matrix(element_index, self.side))
            if not row[j].is_zero()]
        out = {}
        for eta_idx, a in self.act(element_index, tuple(rest)).items():
            eta = self.monomials[eta_idx]
            for t, c in column:
                ac = a * c
                for k, b in self.multiply(eta, _unit(self.n, t)).items():
                    term = ac * b
                    cur = out.get(k)
                    out[k] = term if cur is None else cur + term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def structure_constants(self):
        for e1 in self.monomials:
            for e2 in self.monomials:
                yield from self.multiply(e1, e2).values()


class ReflectionGroup:
    def __init__(self, spec, gen_matrices, name="G", irrep_data=None,
                 param_types=None):
        self.spec = spec
        self.name = name
        self.gens = [tuple(tuple(v for v in row) for row in m)
                     for m in gen_matrices]
        self.n = len(self.gens[0])
        self._enumerate()
        self._conjugacy_classes()
        self._find_reflections()
        self.param_types = param_types or {}
        self.irreps = []
        if irrep_data:
            for label, mats in irrep_data:
                self.irreps.append(Irrep(self, mats, label))
            self._validate_irreps()
            self._assign_labels()

    # -- enumeration ---------------------------------------------------------
    def _enumerate(self):
        """Number the elements in breadth-first order from the identity
        along right multiplication by the generators, so every element's
        parent comes first, and fill the group table from the edges."""
        spec = self.spec
        ident = mat_identity(spec, self.n)
        self.elements = [ident]
        index = {ident: 0}
        self.parent_edge = {0: None}
        right = []      # right[i][gi]: the index of elements[i] * gens[gi]
        while len(right) < len(self.elements):
            i = len(right)
            row = []
            for gi, g in enumerate(self.gens):
                m = mat_mul(spec, self.elements[i], g)
                j = index.get(m)
                if j is None:
                    j = len(self.elements)
                    if j >= MAX_GROUP_ORDER:
                        raise GroupDataError("group enumeration exceeded "
                                             f"{MAX_GROUP_ORDER} elements")
                    self.elements.append(m)
                    index[m] = j
                    self.parent_edge[j] = (i, gi)
                row.append(j)
            right.append(row)
        self.element_index = index
        self.order = len(self.elements)
        self.identity = 0
        # a * b = (a * parent(b)) * gens[gi(b)], and parent(b) < b
        self.mult = []
        for a in range(self.order):
            row = [a]
            for b in range(1, self.order):
                parent, gi = self.parent_edge[b]
                row.append(right[row[parent]][gi])
            self.mult.append(row)
        if any(0 not in row for row in self.mult):
            raise GroupDataError("a generator matrix is not invertible")
        self.inverse = [row.index(0) for row in self.mult]

    def _conjugacy_classes(self):
        seen = [False] * self.order
        self.conj_classes = []
        self.class_of = [None] * self.order
        for i in range(self.order):
            if seen[i]:
                continue
            cls = sorted({self.mult[self.mult[g][i]][self.inverse[g]]
                          for g in range(self.order)})
            ci = len(self.conj_classes)
            for h in cls:
                seen[h] = True
                self.class_of[h] = ci
            self.conj_classes.append(cls)

    # -- reflections ---------------------------------------------------------
    def _find_reflections(self):
        spec = self.spec
        refs = []
        for i in range(1, self.order):
            m = self.elements[i]
            if _fixed_codimension(spec, m) == 1:
                refs.append(Reflection(i, m, spec))
        if not refs:
            raise GroupDataError("group has no reflections")

        # hyperplanes keyed by normalized coroot
        hyper_keys = []
        hyper_index = {}
        for r in refs:
            key = _normalize_covector(r.coroot)
            if key not in hyper_index:
                hyper_index[key] = len(hyper_keys)
                hyper_keys.append(key)
            r.hyperplane = hyper_index[key]

        # orbits of hyperplanes under the dual action, numbered in order of
        # first appearance of a reflection, as the hyperplanes are
        orbit_of = [None] * len(hyper_keys)
        num_orbits = 0
        for h, key in enumerate(hyper_keys):
            if orbit_of[h] is not None:
                continue
            for g in range(self.order):
                ginv = self.elements[self.inverse[g]]
                moved = _normalize_covector(
                    tuple(sum((key[a] * ginv[a][b] for a in range(self.n)),
                              self.spec.zero()) for b in range(self.n)))
                hh = hyper_index.get(moved)
                if hh is not None:
                    orbit_of[hh] = num_orbits
            num_orbits += 1

        # nested library: orbit > hyperplane > reflection, in appearance order
        self.reflections = []
        self.hyperplane_orbits = []
        refl_class_order = []
        for new_oi in range(num_orbits):
            hyper_in_orbit = [h for h in range(len(hyper_keys))
                              if orbit_of[h] == new_oi]
            e_orders = set()
            for jj, h in enumerate(hyper_in_orbit):
                members = [r for r in refs if r.hyperplane == h]
                e_orders.add(len(members) + 1)
                for kk, r in enumerate(members):
                    r.orbit = new_oi
                    r.triple = (new_oi + 1, jj + 1, kk + 1)
                    r.conj_class = self.class_of[r.element]
                    if r.conj_class not in refl_class_order:
                        refl_class_order.append(r.conj_class)
                    r.refl_class = refl_class_order.index(r.conj_class)
                    self.reflections.append(r)
            if len(e_orders) != 1:
                raise GroupDataError("stabilizer order is not constant "
                                     "along a hyperplane orbit")
            self.hyperplane_orbits.append(
                HyperplaneOrbit(new_oi, e_orders.pop(), hyper_in_orbit))
        self.reflection_classes = refl_class_order
        self.num_reflection_classes = len(refl_class_order)

        # the group must be generated by its reflections
        reached = {self.identity}
        frontier = [self.identity]
        for a in frontier:
            for r in self.reflections:
                c = self.mult[a][r.element]
                if c not in reached:
                    reached.add(c)
                    frontier.append(c)
        if len(reached) != self.order:
            raise GroupDataError("group is not generated by its reflections")

    # -- actions ---------------------------------------------------------------
    @functools.cache
    def dual_matrix(self, element_index):
        """Action on V* in the dual basis: inverse transpose."""
        return tuple(zip(*self.elements[self.inverse[element_index]]))

    def variable_matrix(self, element_index, side):
        """The matrix of g on the coordinate variables, column i holding the
        image of variable i.

        side 'V': variables x_i spanning V* (so the dual action applies);
        side 'V*': variables y_i spanning V.
        """
        if side == "V":
            return self.dual_matrix(element_index)
        return self.elements[element_index]

    def variable_images(self, element_index, side):
        """Images of the coordinate variables under g as MultiPolys."""
        m = self.variable_matrix(element_index, side)
        return [MultiPoly(self.spec, self.n,
                          {_unit(self.n, j): m[j][i] for j in range(self.n)
                           if not m[j][i].is_zero()})
                for i in range(self.n)]

    # -- invariant theory --------------------------------------------------------
    def reynolds(self, poly: MultiPoly, side) -> MultiPoly:
        total = MultiPoly.zero(self.spec, self.n)
        for g in range(self.order):
            total = total + poly.substitute(self.variable_images(g, side))
        return total.scale(Fraction(1, self.order))

    @functools.cache
    def degrees(self):
        """The degrees d_1 <= ... <= d_n of the basic invariants.

        The group is generated by its reflections (checked on
        construction), so the sum over g of q^(dim V^g) is the product of
        the q + d_i - 1 (Shephard-Todd 1954): the d_i are read off its
        integer roots -(d - 1), divided out with multiplicity, where
        dim V^g = n - rank(g - 1)."""
        counts = [0] * (self.n + 1)     # counts[k]: elements with dim V^g = k
        for m in self.elements:
            counts[self.n - _fixed_codimension(self.spec, m)] += 1
        degrees = []
        for d in range(1, self.order + 1):
            while len(counts) > 1:
                quotient, remainder = _poly_divmod(
                    QQ, counts, (Fraction(d - 1), Fraction(1)))
                if remainder:
                    break
                degrees.append(d)
                counts = quotient
        return tuple(degrees)

    @functools.cache
    def fundamental_invariants(self, side):
        """Basic invariants: the Reynolds images of the monomials in each of
        the group's degrees, keeping each one outside the ideal that those
        kept so far generate.  The test is exact: the kept ones are minimal
        homogeneous generators of the ideal of positive-degree invariants,
        and those are basic invariants (Chevalley 1955), of the degrees in
        ``degrees()``; no other degree can give a kept one."""
        chosen = []
        groebner = buchberger(chosen)
        for degree in sorted(set(self.degrees())):
            for mono in _monomials_of_degree(self.n, degree):
                p = MultiPoly(self.spec, self.n, {mono: self.spec.one()})
                inv = self.reynolds(p, side)
                if not normal_form(inv, groebner).is_zero():
                    chosen.append(inv.monic())
                    if len(chosen) == self.n:
                        break
                    groebner = buchberger(chosen)
        kept = tuple(f.total_degree() for f in chosen)
        if kept != self.degrees():
            raise GroupDataError(
                f"fundamental invariants of degrees {kept}, expected the "
                f"group's degrees {self.degrees()}")
        prod = math.prod(kept)
        if prod != self.order:
            raise GroupDataError(
                f"fundamental invariant degrees multiply to {prod}, "
                f"expected the group order {self.order}")
        return chosen

    @functools.cache
    def coinvariant_algebra(self, side) -> CoinvariantAlgebra:
        return CoinvariantAlgebra(self, side)

    # -- characters and labels ---------------------------------------------------
    def _validate_irreps(self):
        spec = self.spec
        gens = [self.element_index[g] for g in self.gens]
        for rho in self.irreps:
            # homomorphism property against the multiplication table, in
            # index order: rho(h) rho(g_i) = rho(h g_i).  On a tree edge,
            # parent_edge[h g_i] == (h, i), the right side is the left by
            # definition of rho.matrix, so only the other edges are checked.
            for h in range(self.order):
                rho_h = rho.matrix(h)
                for gi, gmat in enumerate(rho.gen_matrices):
                    hg = self.mult[h][gens[gi]]
                    if self.parent_edge[hg] != (h, gi) and \
                            mat_mul(spec, rho_h, gmat) != rho.matrix(hg):
                        raise GroupDataError(
                            f"irrep {rho.label}: matrices violate the "
                            "multiplication table")
        # character orthonormality: each character decomposes as its own
        # irrep, once (the matrices are representations by now, so every
        # multiplicity is an integer)
        for rho in self.irreps:
            if self.multiplicities({0: rho.character()}) != [
                    {0: 1} if other is rho else {} for other in self.irreps]:
                raise GroupDataError(
                    "shipped irreps fail character orthogonality")
        if sum(rho.dim ** 2 for rho in self.irreps) != self.order:
            raise GroupDataError("irrep dimensions do not sum to |G|")

    @functools.cache
    def graded_coinvariant_characters(self):
        """Character of each graded piece of K[V]_G (the coinvariants in the
        variables x spanning V*): one tuple per degree 0, 1, ..., N, holding
        one value per conjugacy class.

        K[V] = K[V]^G (x) K[V]_G as graded G-modules (Chevalley 1955), and
        K[V]^G is a polynomial ring on invariants of the degrees d_i of
        ``degrees()``, so
            sum_d tr(g | K[V]_G,d) q^d = prod_i (1 - q^d_i) / det(1 - q D(g))
        with D(g) = ``dual_matrix(g)``.  The coefficients of det(1 - q D(g))
        come from the power sums tr D(g)^k = tr D(g^k), with g^k read off
        the group table, by Newton's identities.  The division is exact; a
        remainder means the group data is inconsistent."""
        spec, n = self.spec, self.n
        one, zero = spec.payload_one(), spec.payload_zero()
        numerator = (one,)
        for d in self.degrees():
            numerator = _poly_mul(spec, numerator, (one,) + (zero,) * (d - 1)
                                  + (spec.payload_neg(one),))
        columns = []
        for cls in self.conj_classes:
            g = h = cls[0]
            power_sums = []
            for _ in range(n):
                m = self.dual_matrix(h)
                power_sums.append(sum((m[i][i] for i in range(n)),
                                      spec.zero()))
                h = self.mult[h][g]
            # elementary symmetric functions of D(g)'s eigenvalues:
            # k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i
            e = [spec.one()]
            for k in range(1, n + 1):
                s = spec.zero()
                for i in range(1, k + 1):
                    term = e[k - i] * power_sums[i - 1]
                    s = s + term if i % 2 else s - term
                e.append(s / spec.scalar(k))
            det = tuple((c if k % 2 == 0 else -c).payload
                        for k, c in enumerate(e))
            quotient, remainder = _poly_divmod(spec, numerator, det)
            if remainder:
                raise GroupDataError(
                    "det(1 - q g) does not divide the product of the "
                    "1 - q^d over the group's degrees")
            columns.append(quotient)
        top = max(len(col) for col in columns)
        return tuple(tuple(Scalar(spec, col[d]) if d < len(col)
                           else spec.zero() for col in columns)
                     for d in range(top))

    @functools.cache
    def _class_weights(self):
        """Per irrep, the payloads of |C| chi(C^{-1}) on each conjugacy
        class C."""
        return [tuple((len(cls) * chi[self.class_of[self.inverse[cls[0]]]])
                      .payload for cls in self.conj_classes)
                for chi in (rho.character() for rho in self.irreps)]

    def multiplicities(self, class_values):
        """Decompose a graded class function {degree: [value per class]}
        into irreducibles: one row {degree: multiplicity} per irrep, in
        label order, by (1/|G|) sum_C |C| f(C) chi(C^{-1}).  Each value is
        brought down to the group's field first (``descend``), so a trace
        over a parameter ring must be one of its constants; the sums run on
        the field's payloads against the cached ``_class_weights``, one
        ``payload_dot`` per irrep and degree, and a sum that is not |G|
        times an integer raises FieldError (``as_integer``)."""
        spec = self.spec
        values = {}
        for d, row in class_values.items():
            payloads = [descend(v, spec).payload for v in row]
            values[d] = [(k, v) for k, v in enumerate(payloads)
                         if not spec.payload_is_zero(v)]
        out = []
        for weights in self._class_weights():
            row = {}
            for d, vals in values.items():
                s = spec.payload_dot((v, weights[k]) for k, v in vals)
                m = as_integer(Scalar(spec, s), self.order)
                if m:
                    row[d] = m
            out.append(row)
        return out

    def _assign_labels(self):
        """Label each irrep phi_{dim,b} by its fake degree: its graded
        multiplicity in the coinvariant algebra of the dual side.

        Reading the coinvariant characters at g^{-1}, that is pairing them
        against chi(g) rather than chi(g^{-1}), computes the multiplicities
        in the coinvariants of V's symmetric algebra, which is the
        convention behind the phi_{d,b} labels this reproduces: it puts the
        reflection representation itself at b = 1."""
        inv = [self.class_of[self.inverse[cls[0]]]
               for cls in self.conj_classes]
        rows = self.multiplicities(
            {d: [row[i] for i in inv]
             for d, row in enumerate(self.graded_coinvariant_characters())})
        data = []
        for rho, row in zip(self.irreps, rows):
            fd = [row.get(d, 0) for d in range(max(row) + 1)]
            rho.b_invariant = b = min(row)
            rho.fake_degree = fd
            data.append((rho.dim, b, fd, rho))
        groups = {}
        for dim, b, fd, rho in data:
            groups.setdefault((dim, b), []).append((fd, rho))
        for (dim, b), members in groups.items():
            members.sort(key=lambda t: t[0])
            for tick, (fd, rho) in enumerate(members):
                label = f"phi_{{{dim},{b}}}" + "'" * tick
                if rho.label is None:
                    rho.label = label
                elif rho.label != label:
                    raise GroupDataError(
                        f"stored label {rho.label} disagrees with computed "
                        f"label {label}")

    def irrep_by_label(self, label):
        for rho in self.irreps:
            if rho.label == label:
                return rho
        norm = label.replace("phi_", "").strip("{}").replace("_", ",")
        for rho in self.irreps:
            if rho.label.replace("phi_", "").strip("{}").replace(
                    "_", ",") == norm:
                return rho
        raise GroupDataError(f"no irrep labeled {label}")


def _unit(n, i):
    """The exponent of the variable i among n."""
    return tuple(1 if t == i else 0 for t in range(n))


def _monomials_of_degree(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# group data files

def data_directory():
    env = os.environ.get("CHEREDNIK_GROUP_DB")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


def _positive_int(text, what):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise GroupDataError(f"{what} must be a positive integer, got "
                             f"{text!r}")
    return value


def _parse_field_line(parts):
    if parts[0] == "rationals":
        return QQ
    if parts[0] == "cyclotomic":
        n = _positive_int(parts[1] if len(parts) > 1 else "",
                          "the cyclotomic order")
        try:
            return cyclotomic_field(n, parts[2] if len(parts) > 2 else None)
        except FieldError as exc:
            raise GroupDataError(f"field line: {exc}") from None
    raise GroupDataError(f"unknown field kind {parts[0]!r}")


def load_group_file(path) -> ReflectionGroup:
    """Text grammar (entries use the shared scalar syntax, no spaces inside):

        group <name>
        field rationals | field cyclotomic <n> [genname]
        dim <n>
        generator          -- followed by n rows of n entries
        irrep <label>      -- followed by rows of generator matrices, one
                              'matrix' keyword per generator
        paramtype <name> vars <v1> <v2> ...
        c<i> = <expr>      -- inside a paramtype block

    A malformed file raises GroupDataError naming the first problem.
    """
    with open(path) as fh:
        lines = [ln.rstrip() for ln in fh]
    lines = [ln for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    pos = 0

    name = None
    spec = None
    dim = None
    gens = []
    irreps = []
    param_types = {}

    def read_matrix(what, nrows):
        """nrows rows of nrows entries each."""
        nonlocal pos
        if spec is None:
            raise GroupDataError(f"{what} comes before the field line")
        if pos + nrows > len(lines):
            raise GroupDataError(f"{what}: the file ends before its "
                                 f"{nrows} rows")
        rows = []
        for _ in range(nrows):
            entries = lines[pos].split()
            if len(entries) != nrows:
                raise GroupDataError(
                    f"{what}: row {lines[pos].strip()!r} has "
                    f"{len(entries)} entries, expected {nrows}")
            try:
                rows.append(tuple(parse_scalar(t, spec) for t in entries))
            except FieldError as exc:
                raise GroupDataError(f"{what}: row {lines[pos].strip()!r}: "
                                     f"{exc}") from None
            pos += 1
        return tuple(rows)

    while pos < len(lines):
        parts = lines[pos].split()
        head = parts[0]
        if head in ("group", "field", "dim", "irrep") and len(parts) < 2:
            raise GroupDataError(f"{head!r} line needs an argument")
        if head == "group":
            name = parts[1]
            pos += 1
        elif head == "field":
            spec = _parse_field_line(parts[1:])
            pos += 1
        elif head == "dim":
            dim = _positive_int(parts[1], "dim")
            pos += 1
        elif head == "generator":
            if dim is None:
                raise GroupDataError("generator comes before the dim line")
            pos += 1
            gens.append(read_matrix(f"generator {len(gens) + 1}", dim))
        elif head == "irrep":
            label = parts[1]
            d = parts[2] if len(parts) > 2 else ""
            pos += 1
            mats = []
            for _ in range(len(gens)):
                block = lines[pos].split() if pos < len(lines) else [""]
                if block[0] != "matrix":
                    raise GroupDataError(
                        f"irrep {label}: expected a matrix block")
                rows = _positive_int(block[1] if len(block) > 1 else d,
                                     f"irrep {label}'s dimension")
                pos += 1
                mats.append(read_matrix(f"irrep {label}", rows))
            irreps.append((label, mats))
        elif head == "paramtype":
            if len(parts) < 3 or parts[2] != "vars":
                raise GroupDataError("paramtype needs a vars list")
            tname = parts[1]
            varnames = parts[3:]
            pos += 1
            exprs = {}
            while pos < len(lines) and "=" in lines[pos] \
                    and lines[pos].split()[0].startswith("c"):
                left, right = lines[pos].split("=", 1)
                exprs[_positive_int(left.strip()[1:], "a class index")] = \
                    right.strip()
                pos += 1
            param_types[tname] = (tuple(varnames), exprs)
        else:
            raise GroupDataError(f"unknown directive {head!r}")

    if spec is None:
        raise GroupDataError("no field line")
    if not gens:
        raise GroupDataError("no generator")
    return ReflectionGroup(spec, gens, name=name, irrep_data=irreps,
                           param_types=param_types)


def load_group(name) -> ReflectionGroup:
    """The named group of the data directory, loaded once per directory."""
    return _load_group(data_directory(), name)


@functools.cache
def _load_group(directory, name):
    path = os.path.join(directory, f"{name}.grp")
    if not os.path.exists(path):
        raise GroupDataError(f"unknown group {name!r} (no file {path})")
    return load_group_file(path)
