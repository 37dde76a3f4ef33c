"""Multivariate polynomials over a scalar field, Buchberger's algorithm,
normal forms, and standard monomials of zero-dimensional quotients."""

from __future__ import annotations

from .scalars import FieldError, Scalar, format_terms, monomial_text


class MultiPoly:
    """Sparse polynomial: exponent tuple -> nonzero Scalar coefficient.

    Monomials are ordered lexicographically by exponent tuple."""

    __slots__ = ("spec", "nvars", "terms")

    def __init__(self, spec, nvars, terms=None):
        self.spec = spec
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, Scalar):
                    c = spec.scalar(c)
                if not c.is_zero():
                    self.terms[e] = c

    # -- construction --------------------------------------------------------
    @classmethod
    def zero(cls, spec, nvars):
        return cls(spec, nvars)

    @classmethod
    def constant(cls, spec, nvars, c):
        if not isinstance(c, Scalar):
            c = spec.scalar(c)
        if c.is_zero():
            return cls.zero(spec, nvars)
        return cls(spec, nvars, {(0,) * nvars: c})

    def _like(self, terms):
        p = MultiPoly(self.spec, self.nvars)
        p.terms = terms
        return p

    # -- basics ---------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.spec == other.spec
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not self.terms or not other.terms:
            return self._like({})
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                p = ca * cb
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._like(out)

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = self.spec.scalar(c)
        if c.is_zero():
            return self._like({})
        return self._like({e: v * c for e, v in self.terms.items()})

    def mul_term(self, exp, c):
        if c.is_zero():
            return self._like({})
        return self._like({tuple(x + y for x, y in zip(e, exp)): v * c
                           for e, v in self.terms.items()})

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self):
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.leading()
        if c == 1:
            return self
        inv = self.spec.one() / c
        return self._like({e: v * inv for e, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        return self.format(tuple(f"x{i+1}" for i in range(self.nvars)))

    def format(self, names):
        return format_terms((repr(c), monomial_text(names, e))
                            for e, c in self.sorted_terms())

    def substitute(self, images):
        """Substitute variable i -> images[i] (MultiPolys over the spec)."""
        out = MultiPoly.zero(self.spec, images[0].nvars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(self.spec, images[0].nvars, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            out = out + term
        return out


def _divides(ea, eb):
    return all(x <= y for x, y in zip(ea, eb))


def _exp_sub(ea, eb):
    return tuple(x - y for x, y in zip(ea, eb))


def _exp_lcm(ea, eb):
    return tuple(max(x, y) for x, y in zip(ea, eb))


def reduce_poly(f: MultiPoly, basis) -> MultiPoly:
    """Full multivariate division remainder of f by the list basis."""
    if not basis:
        return f
    leads = [(g.leading()[0], g) for g in basis if not g.is_zero()]
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work)
        c = work.pop(e)
        hit = None
        for le, g in leads:
            if _divides(le, e):
                hit = (le, g)
                break
        if hit is None:
            rem[e] = c
            continue
        le, g = hit
        lc = g.terms[le]
        factor = c / lc
        shift = _exp_sub(e, le)
        for eg, cg in g.terms.items():
            if eg == le:
                continue
            ee = tuple(x + y for x, y in zip(eg, shift))
            s = work.get(ee)
            s = -factor * cg if s is None else s - factor * cg
            if s.is_zero():
                work.pop(ee, None)
            else:
                work[ee] = s
    return f._like(rem)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = _exp_lcm(ef, eg)
    a = f.mul_term(_exp_sub(l, ef), f.spec.one() / cf)
    b = g.mul_term(_exp_sub(l, eg), g.spec.one() / cg)
    return a - b


class GroebnerBasis:
    __slots__ = ("polys", "spec", "nvars")

    def __init__(self, polys):
        self.polys = list(polys)
        self.spec = polys[0].spec if polys else None
        self.nvars = polys[0].nvars if polys else 0

    def leading_exponents(self):
        return [g.leading()[0] for g in self.polys]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


def buchberger(gens) -> GroebnerBasis:
    """Reduced lex Groebner basis, with the product and chain criteria."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return GroebnerBasis([])

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        i, j = min(pairs)
        pairs.discard((i, j))
        fi, fj = basis[i], basis[j]
        ei, ej = fi.leading()[0], fj.leading()[0]
        # product criterion: coprime leading monomials reduce to zero
        if _exp_lcm(ei, ej) == tuple(a + b for a, b in zip(ei, ej)):
            continue
        # chain criterion
        l = _exp_lcm(ei, ej)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides(basis[k].leading()[0], l):
                continue
            p1 = (max(i, k), min(i, k))
            p2 = (max(j, k), min(j, k))
            if p1 not in pairs and p2 not in pairs:
                skip = True
                break
        if skip:
            continue
        r = reduce_poly(s_polynomial(fi, fj), basis)
        if not r.is_zero():
            basis.append(r.monic())
            n = len(basis) - 1
            pairs.update((n, k) for k in range(n))

    # minimalize: drop generators whose leading term another one divides
    leads = [g.leading()[0] for g in basis]
    minimal = []
    for i, g in enumerate(basis):
        dominated = any(
            j != i and _divides(leads[j], leads[i])
            and (leads[j] != leads[i] or j < i)
            for j in range(len(basis)))
        if not dominated:
            minimal.append(g)
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(reduce_poly(g, others).monic())
    reduced.sort(key=lambda g: g.leading()[0])
    return GroebnerBasis(reduced)


def normal_form(f: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    return reduce_poly(f, gb.polys)


def standard_monomials(gb: GroebnerBasis, nvars=None):
    """Monomial basis of the (finite-dimensional) quotient, sorted by
    total degree then exponent order."""
    n = gb.nvars if gb.polys else nvars
    if n is None:
        raise FieldError("empty basis needs an explicit variable count")
    leads = gb.leading_exponents()
    # finiteness: every variable has a pure power among the leading terms
    bounds = [None] * n
    for e in leads:
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or e[i] < bounds[i]:
                bounds[i] = e[i]
    if any(b is None for b in bounds):
        raise FieldError("quotient is not finite-dimensional")

    out = []
    stack = [(0,) * n]
    seen = {(0,) * n}
    while stack:
        e = stack.pop()
        out.append(e)
        for i in range(n):
            ee = list(e)
            ee[i] += 1
            ee = tuple(ee)
            if ee in seen or ee[i] > bounds[i]:
                continue
            if any(_divides(le, ee) for le in leads):
                continue
            seen.add(ee)
            stack.append(ee)
    out.sort(key=lambda e: (sum(e), e))
    return out
