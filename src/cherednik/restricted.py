"""The restricted rational Cherednik algebra: products in the coinvariant
quotient, and the integrality machinery guarding finite-field reduction."""

from __future__ import annotations

import functools

from .algebra import CherednikAlgebra, CherednikParameter, PBWElement
from .groups import ReflectionGroup
from .multipoly import MultiPoly
from .scalars import FieldError, _prime_factors, denominator_of, descend


class RestrictedAlgebra:
    """H_{0,c} modulo the ideal generated by positive-degree bi-invariants.

    Elements stay in PBW shape with both variable blocks supported on the
    coinvariant monomial bases; dim = dim K[V]_G * |G| * dim K[V*]_G."""

    def __init__(self, group: ReflectionGroup, par: CherednikParameter):
        if not par.t.is_zero():
            raise FieldError("the restricted algebra lives at t = 0")
        self.group = group
        self.par = par
        self.ring = par.ring
        self.base = CherednikAlgebra(group, par)
        self.co_v = group.coinvariant_algebra("V")
        self.co_vstar = group.coinvariant_algebra("V*")
        self.dimension = self.co_v.dim * group.order * self.co_vstar.dim

    def reduce(self, a: PBWElement) -> PBWElement:
        """Normal form: both variable blocks reduced to standard monomials."""
        n = self.group.n
        ring = self.ring
        parts = {}
        for g, poly in a.parts.items():
            out = MultiPoly.zero(ring, 2 * n)
            for e, c in poly.terms.items():
                alpha, beta = e[:n], e[n:]
                xs = self._nf_block(self.co_v, alpha)
                ys = self._nf_block(self.co_vstar, beta)
                for ea, ca in xs.items():
                    for eb, cb in ys.items():
                        term = MultiPoly(ring, 2 * n,
                                         {ea + eb: c * ca * cb})
                        out = out + term
            if not out.is_zero():
                parts[g] = out
        return PBWElement(self.base, parts)

    def _nf_block(self, co, exps):
        nf = co.nf(MultiPoly(co.spec, co.n, {tuple(exps): co.spec.one()}))
        return {e: self.ring.embed(c) for e, c in nf.terms.items()}

    def product(self, a: PBWElement, b: PBWElement) -> PBWElement:
        return self.reduce(self.base.product(a, b))

    def x(self, i):
        return self.base.x(i)

    def y(self, i):
        return self.base.y(i)

    def one(self):
        return self.base.one()


@functools.cache
def bad_primes(group: ReflectionGroup):
    """Primes dividing any denominator in: coinvariant structure constants
    (both sides), generator matrices, or their inverses.  Reduction of the
    restricted algebra's structure constants is safe away from this set.
    Computed once per group."""
    dens = set()
    for side in ("V", "V*"):
        co = group.coinvariant_algebra(side)
        for c in co.structure_constants():
            dens.add(denominator_of(c))
        # group action on the monomial basis enters the PBW structure
        # constants through the generator matrices; include them directly
    for g in group.gens:
        g_inv = group.elements[group.inverse[group.element_index[g]]]
        for row in g + g_inv:
            for v in row:
                dens.add(denominator_of(v))
    primes = set()
    for d in dens:
        primes.update(_prime_factors(d))
    return frozenset(primes)


def is_potentially_integral(group: ReflectionGroup, par: CherednikParameter,
                            p: int) -> bool:
    """Whether every c(s) * (y_j, x_i)_s is free of p in its denominator.

    The parameter must already be evaluated: a value that is not a
    constant of the group's field raises FieldError."""
    for s in group.reflections:
        cs = descend(par.c_of(s), group.spec)
        for i in range(group.n):
            for j in range(group.n):
                if denominator_of(cs * s.pairing(i, j)) % p == 0:
                    return False
    return True
