"""The rational Cherednik algebra H_{t,c} in PBW form.

Elements are stored as {group element -> polynomial in x_1..x_n, y_1..y_n}
with every monomial read as x^a y^b (x block left of the y block, group
element rightmost).  The fast product pushes y's through x-monomials with a
closed commutator formula and a runtime commutator cache; a slow rewriting
product on tensor-algebra words serves as an independent oracle.
"""

from __future__ import annotations

import functools

from .groups import ReflectionGroup
from .multipoly import MultiPoly
from .scalars import FieldError, PolyRing, RationalFunctionField, Scalar, \
    coefficients, descend, is_negative, parse_scalar


class ParameterError(Exception):
    pass


def _coerce(ring, value, what):
    """value (an int, a Fraction or a scalar of a level of ring's tower) as
    a scalar of ring; any other value raises ParameterError naming it."""
    try:
        return ring.scalar(value)
    except FieldError as exc:
        raise ParameterError(f"{what} {value!r} is not a scalar of {ring}: "
                             f"{exc}") from None


class CherednikParameter:
    """t in R plus one value of c per conjugacy class of reflections."""

    __slots__ = ("group", "ring", "t", "c")

    def __init__(self, group: ReflectionGroup, ring, t, c_values):
        try:  # the group's field is a level of the ring's tower
            descend(ring.one(), group.spec)
        except FieldError:
            raise ParameterError(f"parameters over {ring} do not contain "
                                 f"{group.spec}, the field of {group.name}"
                                 ) from None
        self.group = group
        self.ring = ring
        self.t = _coerce(ring, t, "t")
        if len(c_values) != group.num_reflection_classes:
            raise ParameterError(
                f"expected {group.num_reflection_classes} class values, "
                f"got {len(c_values)}")
        self.c = [_coerce(ring, v, f"c{j + 1}")
                  for j, v in enumerate(c_values)]

    def c_of(self, reflection):
        return self.c[reflection.refl_class]

    def map_values(self, ring, fn):
        return CherednikParameter(self.group, ring, fn(self.t),
                                  [fn(v) for v in self.c])

    def __repr__(self):
        vals = ", ".join(f"c{i+1}={v!r}" for i, v in enumerate(self.c))
        return f"CherednikParameter(t={self.t!r}, {vals})"


class GGORParameter:
    """k_{orbit,j} indexed over all hyperplane orbits and j mod e_orbit."""

    __slots__ = ("group", "ring", "k")

    def __init__(self, group, ring, k):
        self.group = group
        self.ring = ring
        self.k = {}
        for orbit in group.hyperplane_orbits:
            for j in range(orbit.e):
                key = (orbit.index, j)
                if key not in k:
                    raise ParameterError(f"missing k value for {key}")
                self.k[key] = _coerce(ring, k[key], f"k{key}")
        if len(k) != len(self.k):
            raise ParameterError("stray k indices outside the orbit data")

    def sharp(self) -> "GGORParameter":
        out = {}
        for (om, j), v in self.k.items():
            e = self.group.hyperplane_orbits[om].e
            out[(om, (-j) % e)] = v
        return GGORParameter(self.group, self.ring, out)

    def to_cherednik(self, t=0) -> CherednikParameter:
        """c(s) = sum_j det(s)^j (k_{orbit, j+1} - k_{orbit, j}), j mod e,
        where det(s) is the reflection's non-unit eigenvalue eps."""
        G = self.group
        ring = self.ring
        values = []
        for cls in G.reflection_classes:
            rep = next(r for r in G.reflections
                       if G.class_of[r.element] == cls)
            e = G.hyperplane_orbits[rep.orbit].e
            det = ring.embed(rep.eps)
            total = ring.zero()
            power = ring.one()
            for j in range(e):
                diff = self.k[(rep.orbit, (j + 1) % e)] \
                    - self.k[(rep.orbit, j)]
                total = total + power * diff
                power = power * det
            values.append(total)
        return CherednikParameter(G, ring, t, values)


def _free_indices(group: ReflectionGroup):
    """{(orbit index, j): name k<orbit>_<j>} over the GGOR indices with
    j != 0, the ones left free when every k_{i,0} is 0."""
    return {(orbit.index, j): f"k{orbit.index + 1}_{j}"
            for orbit in group.hyperplane_orbits for j in range(1, orbit.e)}


def generic_ggor(group: ReflectionGroup, rational=False):
    """Generic GGOR-type parameter: k_{i,0} = 0 and one free variable per
    remaining index, over a polynomial ring (or its fraction field when
    there is a single variable and ``rational`` is set)."""
    free = _free_indices(group)
    names = list(free.values())
    if rational and len(names) != 1:
        raise ParameterError("a rational generic parameter needs exactly "
                             "one free index")
    ring = RationalFunctionField(group.spec, names[0]) if rational \
        else PolyRing(group.spec, names)
    var = ring.variables()
    return ggor_from_values(group, ring,
                            {key: var[name] for key, name in free.items()})


def ggor_from_values(group, ring, values):
    """values: {(orbit index, j): scalar-like}; a missing index is 0."""
    k = {(orbit.index, j): ring.zero()
         for orbit in group.hyperplane_orbits for j in range(orbit.e)}
    k.update(values)
    return GGORParameter(group, ring, k)


def restrict_to_hyperplane(group: ReflectionGroup,
                           form_text: str) -> GGORParameter:
    """Generic point of a hyperplane in GGOR parameter space.

    The linear form (e.g. ``k1_1 - 2*k1_2``) must involve the group's two
    free GGOR indices; the solution line is parametrized by one fresh
    indeterminate k over the group's base field.
    """
    free = _free_indices(group)
    if len(free) != 2:
        raise ParameterError(
            "hyperplane restriction is supported for exactly two free "
            f"GGOR indices, this group has {len(free)}")
    try:
        form = coefficients(parse_scalar(form_text,
                                         PolyRing(group.spec, free.values())))
    except FieldError as exc:
        raise ParameterError(f"cannot read the hyperplane equation "
                             f"{form_text!r}: {exc}") from None
    if any(sum(e) != 1 for e in form):
        raise ParameterError("hyperplane equation must be linear "
                             "homogeneous")
    a, b = (form.get(e, group.spec.zero()) for e in ((1, 0), (0, 1)))
    if a.is_zero() and b.is_zero():
        raise ParameterError("zero hyperplane equation")
    ring = RationalFunctionField(group.spec, "k")
    kvar = ring.var()
    # the line a*v1 + b*v2 = 0 is parametrized by (-b, a) * k;
    # flip the sign when the leading coordinate is negative
    v1 = kvar * ring.embed(-b)
    v2 = kvar * ring.embed(a)
    if is_negative(-b if not b.is_zero() else a):
        v1, v2 = -v1, -v2
    return ggor_from_values(group, ring, dict(zip(free, (v1, v2))))


def commutator_telescope(group: ReflectionGroup, s, mu) -> MultiPoly:
    """The x-polynomial Q_s(mu), in n variables over the group field, with

        [y_i, x^mu] = t mu_i x^(mu - e_i) + sum_s c(s) coroot_s[i] Q_s(mu) s.

    (y_i, x_j)_s = coroot_s[i] Q_s(x_j) is rank one in i, with
    Q_s(x_j) = root_s[j] / <coroot_s, root_s> (``Reflection.scaled_root``).
    Q_s is a twisted derivation, so it follows the Leibniz rule
    Q_s(x^nu x_j) = Q_s(x^nu) (s x_j) + Q_s(x_j) x^nu, with Q_s(1) = 0; the
    loop applies it one variable at a time."""
    spec, n = group.spec, group.n
    imgs = group.variable_images(s.element, "V")
    total = MultiPoly.zero(spec, n)
    nu = [0] * n
    for j in range(n):
        qj = s.scaled_root[j]
        for _ in range(mu[j]):
            total = total * imgs[j] + MultiPoly(spec, n, {tuple(nu): qj})
            nu[j] += 1
    return total


# ---------------------------------------------------------------------------

class PBWElement:
    __slots__ = ("algebra", "parts")

    def __init__(self, algebra, parts=None):
        self.algebra = algebra
        self.parts = {}
        if parts:
            for g, p in parts.items():
                if not p.is_zero():
                    self.parts[g] = p

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return (isinstance(other, PBWElement)
                and self.algebra is other.algebra
                and self.parts == other.parts)

    def __hash__(self):
        return hash(frozenset((g, frozenset(p.terms.items()))
                              for g, p in self.parts.items()))

    def __add__(self, other):
        other = self.algebra.coerce(other)
        out = dict(self.parts)
        for g, p in other.parts.items():
            q = out.get(g)
            q = p if q is None else q + p
            if q.is_zero():
                out.pop(g, None)
            else:
                out[g] = q
        return PBWElement(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.algebra.coerce(other)
        return self + other.scale(self.algebra.ring.scalar(-1))

    def __rsub__(self, other):
        other = self.algebra.coerce(other)
        return other - self

    def __neg__(self):
        return self.scale(self.algebra.ring.scalar(-1))

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = self.algebra.ring.scalar(c)
        if c.is_zero():
            return PBWElement(self.algebra)
        return PBWElement(self.algebra,
                          {g: p.scale(c) for g, p in self.parts.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        other = self.algebra.coerce(other)
        return self.algebra.product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise FieldError("negative powers are not defined here")
        out = self.algebra.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        if not self.parts:
            return "0"
        A = self.algebra
        names = tuple(f"x{i+1}" for i in range(A.n)) \
            + tuple(f"y{i+1}" for i in range(A.n))
        chunks = []
        for g in sorted(self.parts):
            part = self.parts[g]
            # a constant prints bare: format_terms would parenthesize a sum
            poly = repr(part.leading()[1]) if part.total_degree() == 0 \
                else part.format(names)
            chunks.append(f"[g{g}]*({poly})" if g != A.group.identity
                          else f"({poly})")
        return " + ".join(chunks)


class CherednikAlgebra:
    """H_{t,c} over the parameter ring.

    Its two caches belong to the instance: ``_act`` holds the image of each
    PBW monomial under a group element, ``_comm`` the group part of each
    commutator [y_i, x^mu].  Group data is read from the group itself, whose
    field embeds into the ring."""

    def __init__(self, group: ReflectionGroup, par: CherednikParameter):
        if par.group is not group:
            raise ParameterError("parameter bound to a different group")
        self.group = group
        self.par = par
        self.ring = par.ring
        self.n = group.n
        self.nvars = 2 * group.n
        self._act = {}
        self._comm = {}

    # -- element constructors -------------------------------------------------
    def zero(self):
        return PBWElement(self)

    def one(self):
        return PBWElement(self, {self.group.identity: self._const(1)})

    def _const(self, c):
        return MultiPoly.constant(self.ring, self.nvars, self.ring.scalar(c))

    def coerce(self, v):
        if isinstance(v, PBWElement):
            if v.algebra is not self:
                raise ParameterError("element of a different algebra")
            return v
        if isinstance(v, (int, Scalar)):
            return self.one().scale(v)
        raise ParameterError(f"cannot coerce {v!r}")

    def x(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return PBWElement(self, {self.group.identity: MultiPoly(
            self.ring, self.nvars, {tuple(e): self.ring.one()})})

    def y(self, i):
        e = [0] * self.nvars
        e[self.n + i] = 1
        return PBWElement(self, {self.group.identity: MultiPoly(
            self.ring, self.nvars, {tuple(e): self.ring.one()})})

    def g(self, element_index):
        return PBWElement(self, {element_index: self._const(1)})

    def generators(self):
        """y's, then the group generators, then x's."""
        out = [("y", i, self.y(i)) for i in range(self.n)]
        for gi, gm in enumerate(self.group.gens):
            out.append(("g", gi,
                        self.g(self.group.element_index[gm])))
        out += [("x", i, self.x(i)) for i in range(self.n)]
        return out

    # -- group action on polynomials ------------------------------------------
    def _lift(self, poly, shift):
        """A polynomial in n variables over the group's field as one in the
        2n variables over the ring, its variables starting at ``shift``."""
        pre, post = (0,) * shift, (0,) * (self.n - shift)
        return MultiPoly(self.ring, self.nvars,
                         {pre + e + post: self.ring.embed(c)
                          for e, c in poly.terms.items()})

    def _act_mono(self, g, e):
        """g . x^alpha y^beta for the exponent e = alpha + beta."""
        key = (g, e)
        hit = self._act.get(key)
        if hit is None:
            G = self.group
            imgs = [self._lift(p, 0) for p in G.variable_images(g, "V")] \
                + [self._lift(p, self.n) for p in G.variable_images(g, "V*")]
            hit = MultiPoly(self.ring, self.nvars,
                            {e: self.ring.one()}).substitute(imgs)
            self._act[key] = hit
        return hit

    def act_on_poly(self, g, poly: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(self.ring, self.nvars)
        for e, c in poly.terms.items():
            out = out + self._act_mono(g, e).scale(c)
        return out

    # -- commutator formula ----------------------------------------------------
    def commutator_group_part(self, i, mu):
        """{reflection element -> x-polynomial}: the group-supported part of
        [y_i, x^mu], with the factor c(s) coroot_s[i] included."""
        key = (i, mu)
        hit = self._comm.get(key)
        if hit is None:
            hit = {}
            for s in self.group.reflections:
                cs = self.par.c_of(s)
                if cs.is_zero() or s.coroot[i].is_zero():
                    continue
                poly = self._lift(commutator_telescope(self.group, s, mu),
                                  0).scale(self.ring.embed(s.coroot[i]) * cs)
                if not poly.is_zero():
                    hit[s.element] = poly
            self._comm[key] = hit
        return hit

    def commutator_y_xpow(self, i, mu) -> PBWElement:
        """PBW form of [y_i, x^mu]."""
        mu = tuple(mu)
        parts = {}
        group_part = self.commutator_group_part(i, mu)
        for s_elem, poly in group_part.items():
            parts[s_elem] = parts.get(
                s_elem, MultiPoly.zero(self.ring, self.nvars)) + poly
        if not self.par.t.is_zero() and mu[i] > 0:
            e = [0] * self.nvars
            for a in range(self.n):
                e[a] = mu[a]
            e[i] -= 1
            tpoly = MultiPoly(self.ring, self.nvars,
                              {tuple(e): self.par.t * mu[i]})
            ident = self.group.identity
            parts[ident] = parts.get(
                ident, MultiPoly.zero(self.ring, self.nvars)) + tpoly
        return PBWElement(self, parts)

    # -- the fast product -------------------------------------------------------
    def _y_times(self, i, element: PBWElement) -> PBWElement:
        """PBW form of y_i * element."""
        out = {}
        t = self.par.t
        mult = self.group.mult

        def add(g, poly):
            q = out.get(g)
            q = poly if q is None else q + poly
            if q.is_zero():
                out.pop(g, None)
            else:
                out[g] = q

        for h, poly in element.parts.items():
            for e, coeff in poly.terms.items():
                mu, beta = e[:self.n], e[self.n:]
                # x^mu y_i y^beta
                e2 = list(e)
                e2[self.n + i] += 1
                add(h, MultiPoly(self.ring, self.nvars,
                                 {tuple(e2): coeff}))
                # t-part of the commutator
                if not t.is_zero() and mu[i] > 0:
                    e3 = list(e)
                    e3[i] -= 1
                    add(h, MultiPoly(self.ring, self.nvars,
                                     {tuple(e3): coeff * t * mu[i]}))
                # reflection part, twisting the y-block past each s
                comm = self.commutator_group_part(i, mu)
                if comm:
                    anybeta = any(beta)
                    for s_elem, spoly in comm.items():
                        if anybeta:
                            sy = self._act_mono(s_elem, (0,) * self.n + beta)
                            contrib = (spoly * sy).scale(coeff)
                        else:
                            contrib = spoly.scale(coeff)
                        add(mult[s_elem][h], contrib)
        return PBWElement(self, out)

    def product(self, a: PBWElement, b: PBWElement) -> PBWElement:
        total = self.zero()
        mult = self.group.mult
        for g, ag in a.parts.items():
            # e = g * b
            eparts = {}
            for h, bh in b.parts.items():
                gh = mult[g][h]
                img = self.act_on_poly(g, bh)
                q = eparts.get(gh)
                eparts[gh] = img if q is None else q + img
            e = PBWElement(self, eparts)
            for mono, coeff in ag.terms.items():
                alpha, nu = mono[:self.n], mono[self.n:]
                E = e
                for i in range(self.n):
                    for _ in range(nu[i]):
                        E = self._y_times(i, E)
                # multiply by the x-monomial and the coefficient
                shift = tuple(alpha) + (0,) * self.n
                dparts = {h: p.mul_term(shift, coeff)
                          for h, p in E.parts.items()}
                total = total + PBWElement(self, dparts)
        return total

    # -- slow independent oracle -------------------------------------------------
    def naive_rewrite_product(self, a: PBWElement, b: PBWElement):
        words = {}

        def add_word(w, c):
            s = words.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                words.pop(w, None)
            else:
                words[w] = s

        for (g1, p1) in a.parts.items():
            for (g2, p2) in b.parts.items():
                for e1, c1 in p1.terms.items():
                    for e2, c2 in p2.terms.items():
                        w = self._mono_word(e1) + (("g", g1),) \
                            + self._mono_word(e2) + (("g", g2),)
                        add_word(w, c1 * c2)
        # rewrite to normal form
        result = {}
        stack = list(words.items())
        while stack:
            w, c = stack.pop()
            if c.is_zero():
                continue
            step = self._rewrite_step(w)
            if step is None:
                key = self._word_to_pbw_key(w)
                q = result.get(key)
                q = c if q is None else q + c
                if q.is_zero():
                    result.pop(key, None)
                else:
                    result[key] = q
            else:
                for w2, c2 in step:
                    stack.append((w2, c * c2))
        parts = {}
        for (g, mono), c in result.items():
            poly = parts.get(g)
            add = MultiPoly(self.ring, self.nvars, {mono: c})
            parts[g] = add if poly is None else poly + add
        return PBWElement(self, parts)

    def _mono_word(self, e):
        w = []
        for i in range(self.n):
            w.extend([("x", i)] * e[i])
        for i in range(self.n):
            w.extend([("y", i)] * e[self.n + i])
        return tuple(w)

    def _rewrite_step(self, w):
        """First applicable elementary rule; None when w is irreducible."""
        one = self.ring.one()
        for p in range(len(w) - 1):
            (ka, va), (kb, vb) = w[p], w[p + 1]
            head, tail = w[:p], w[p + 2:]
            if ka == "x" and kb == "x" and va > vb:
                return [(head + (w[p + 1], w[p]) + tail, one)]
            if ka == "y" and kb == "y" and va > vb:
                return [(head + (w[p + 1], w[p]) + tail, one)]
            if ka == "y" and kb == "x":
                i, j = va, vb
                out = [(head + (("x", j), ("y", i)) + tail, one)]
                if not self.par.t.is_zero() and i == j:
                    out.append((head + tail, self.par.t))
                for s in self.group.reflections:
                    cs = self.par.c_of(s)
                    if cs.is_zero():
                        continue
                    pij = s.pairing(i, j)
                    if pij.is_zero():
                        continue
                    out.append((head + (("g", s.element),) + tail, cs * pij))
                return out
            if ka == "g" and kb in ("x", "y"):
                m = self.group.dual_matrix(va) if kb == "x" \
                    else self.group.elements[va]
                return [(head + ((kb, j), ("g", va)) + tail, m[j][vb])
                        for j in range(self.n) if not m[j][vb].is_zero()]
            if ka == "g" and kb == "g":
                return [(head + (("g", self.group.mult[va][vb]),) + tail,
                         one)]
        return None

    def _word_to_pbw_key(self, w):
        e = [0] * self.nvars
        g = self.group.identity
        for kind, v in w:
            if kind == "x":
                e[v] += 1
            elif kind == "y":
                e[self.n + v] += 1
            else:
                g = self.group.mult[g][v]
        return (g, tuple(e))

    # -- distinguished elements ---------------------------------------------------
    def euler_element(self) -> PBWElement:
        """sum_i x_i y_i plus sum_s eps_s/(eps_s - 1) c(s) s."""
        parts = {}
        terms = {}
        for i in range(self.n):
            e = [0] * self.nvars
            e[i] = 1
            e[self.n + i] = 1
            terms[tuple(e)] = self.ring.one()
        parts[self.group.identity] = MultiPoly(self.ring, self.nvars, terms)
        for s in self.group.reflections:
            cs = self.par.c_of(s)
            if cs.is_zero():
                continue
            K = self.group.spec
            w = s.eps / (s.eps - K.one())
            val = self.ring.embed(w) * cs
            poly = MultiPoly.constant(self.ring, self.nvars, val)
            if s.element in parts:
                parts[s.element] = parts[s.element] + poly
            else:
                parts[s.element] = poly
        return PBWElement(self, parts)

    def commutes_with_generators(self, a: PBWElement) -> bool:
        for _, _, gen in self.generators():
            if self.product(a, gen) != self.product(gen, a):
                return False
        return True


# ---------------------------------------------------------------------------

def euler_family_scalar(group, par: CherednikParameter, rho) -> Scalar:
    """Action of the Euler element on the lowest-weight space of the
    standard module attached to rho: a central-character value.

    It is sum_s eps_s/(eps_s - 1) c(s) chi_rho(s) / dim rho, linear in c:
    sum_j a_j c_j / dim rho over the reflection classes j, with
    a_j = sum_{s in class j} eps_s/(eps_s - 1) chi_rho(s) over the group's
    field, computed once per (group, irrep) by ``_euler_form``."""
    ring = par.ring
    total = ring.zero()
    for a, cj in zip(_euler_form(group, rho), par.c):
        if not cj.is_zero():
            total = total + ring.embed(a) * cj
    return total / ring.scalar(rho.dim)


@functools.cache
def _euler_form(group, rho):
    K = group.spec
    chi = rho.character()
    form = [K.zero()] * group.num_reflection_classes
    for s in group.reflections:
        w = s.eps / (s.eps - K.one())
        form[s.refl_class] = form[s.refl_class] \
            + w * chi[group.class_of[s.element]]
    return form


def euler_families(group, par: CherednikParameter):
    """Partition of the irreducibles by their Euler scalar.

    Returns a list of (tuple of 1-based irrep indices, Scalar), ordered by
    first member.
    """
    buckets = []
    for idx, rho in enumerate(group.irreps):
        val = euler_family_scalar(group, par, rho)
        for members, scalar in buckets:
            if scalar == val:
                members.append(idx + 1)
                break
        else:
            buckets.append(([idx + 1], val))
    return [(tuple(m), v) for m, v in buckets]


def poisson_bracket(a: PBWElement, b: PBWElement) -> PBWElement:
    """{a, b} for central elements of H_{0,c}: the first-order term of the
    commutator after deforming t by a square-zero parameter."""
    A = a.algebra
    if not A.par.t.is_zero():
        raise ParameterError("Poisson brackets live at t = 0")
    for v, name in ((a, "left"), (b, "right")):
        if not A.commutes_with_generators(v):
            raise ParameterError(f"{name} operand is not central")
    ring = A.ring
    ext = PolyRing(ring, ("_eps",))
    eps = ext.var("_eps")
    par2 = CherednikParameter(A.group, ext, eps,
                              [ext.embed(v) for v in A.par.c])
    A2 = CherednikAlgebra(A.group, par2)

    def lift(v):
        return PBWElement(A2, {
            g: MultiPoly(ext, A.nvars,
                         {e: ext.embed(c) for e, c in p.terms.items()})
            for g, p in v.parts.items()})

    comm = A2.product(lift(a), lift(b)) - A2.product(lift(b), lift(a))
    parts = {}
    for g, p in comm.parts.items():
        terms = {}
        for e, c in p.terms.items():
            orders = coefficients(c)
            if (0,) in orders:
                raise ParameterError("commutator has a constant term; "
                                     "operands were not central")
            if (1,) in orders:
                terms[e] = orders[(1,)]
        if terms:
            parts[g] = MultiPoly(ring, A.nvars, terms)
    return PBWElement(A, parts)

