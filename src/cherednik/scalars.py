"""Exact scalar tower.

Every coefficient in the package is a ``Scalar``: an element of one of five
kinds of coefficient domains, kept in a canonical representation so that
structural equality is mathematical equality.

    * ``Rationals``                  -- Fraction
    * ``NumberField``                -- Q[x]/(f), f monic integral, stored as
                                        one int tuple (n_0, ..., n_{d-1}, den):
                                        integer numerators of degree < d =
                                        deg f over one common denominator,
                                        den > 0 and coprime to them all
    * ``PolyRing``                   -- multivariate polynomials over a base
                                        domain (a ring, no general division)
    * ``RationalFunctionField``      -- K(v), one variable, reduced fractions
                                        with monic denominator
    * ``PrimeField``                 -- F_p

Towers nest at most four deep (e.g. Q -> Q(z3) -> Q(z3)(k)).  All values are
immutable; all operations are pure functions.

Number-field arithmetic runs on ints alone: a sum of products
(``payload_dot``; a product is a sum of one) reduces by the integral table
of x^k mod f and is normalised once, and an inverse is Cramer's rule with
fraction-free (Bareiss) determinants.  One dense univariate kernel
(``_poly_*``) works over the payloads of any spec: the function field uses
it over Q or Q(z), the irreducibility test and the MeatAxe oracle over
``PrimeField(p)``.
Every printed sum of terms goes through ``format_terms``.

Outside this module a payload is only handed to a spec's ``payload_*``
methods, to the map of its ``embedding`` or to the ``_poly_*`` kernel.
The operations that read a payload's layout or a spec's kind are all
here: ``reduce_mod_prime`` and ``minpoly_roots_mod_p`` (to F_p),
``denominator_of`` and ``payload_as_integer`` (integrality), ``descend``
(a constant down to a lower level), ``evaluate`` and ``parameter_names``
(a tower's free parameters set to a point), ``coefficients`` (a
polynomial's terms), ``is_negative`` (a sign) and ``parse_scalar`` (the
text syntax).
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ArithmeticError):
    """Invalid scalar operation: field mismatch, bad division, bad prime."""


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over an arbitrary base spec
# (coefficients are raw payloads of ``base``; tuples low degree -> high)

def _poly_trim(base, cs):
    n = len(cs)
    while n > 0 and base.payload_is_zero(cs[n - 1]):
        n -= 1
    return tuple(cs[:n])


def _poly_add(base, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = base.payload_add(out[i], c)
    return _poly_trim(base, out)


def _poly_neg(base, a):
    return tuple(base.payload_neg(c) for c in a)


def _poly_sub(base, a, b):
    return _poly_add(base, a, _poly_neg(base, b))


def _poly_mul(base, a, b):
    if not a or not b:
        return ()
    out = [base.payload_zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if base.payload_is_zero(ca):
            continue
        for j, cb in enumerate(b):
            out[i + j] = base.payload_add(out[i + j], base.payload_mul(ca, cb))
    return _poly_trim(base, out)


def _poly_scale(base, a, c):
    return _poly_trim(base, [base.payload_mul(x, c) for x in a])


def _poly_divmod(base, a, b):
    """Division with remainder; base must be a field and b nonzero."""
    if not b:
        raise FieldError("polynomial division by zero")
    r = list(a)
    q = [base.payload_zero()] * max(0, len(a) - len(b) + 1)
    inv_lc = base.payload_inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = base.payload_mul(r[k + len(b) - 1], inv_lc)
        if base.payload_is_zero(c):
            continue
        q[k] = c
        for j, cb in enumerate(b):
            r[k + j] = base.payload_sub(r[k + j], base.payload_mul(c, cb))
    return _poly_trim(base, q), _poly_trim(base, r)


def _poly_monic(base, a):
    if not a:
        return a
    lc = a[-1]
    if base.payload_eq(lc, base.payload_one()):
        return a
    return _poly_scale(base, a, base.payload_inv(lc))


def _poly_gcd(base, a, b):
    while b:
        _, r = _poly_divmod(base, a, b)
        a, b = b, r
    return _poly_monic(base, a)


def _poly_powmod(base, a, e, m):
    """a^e mod m; base must be a field and m nonzero."""
    out = (base.payload_one(),)
    a = _poly_divmod(base, a, m)[1]
    while e:
        if e & 1:
            out = _poly_divmod(base, _poly_mul(base, out, a), m)[1]
        a = _poly_divmod(base, _poly_mul(base, a, a), m)[1]
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# printing sums of terms

def parenthesize(text):
    """``text``, in parentheses when it is a sum, to stand as a factor."""
    if "+" in text[1:] or "-" in text[1:] or " " in text:
        return f"({text})"
    return text


def monomial_text(names, exps):
    """x^2*y for names (x, y) and exponents (2, 1); empty for all zero."""
    return "*".join(n if k == 1 else f"{n}^{k}"
                    for n, k in zip(names, exps) if k)


def format_terms(terms):
    """A sum printed from (coefficient text, monomial text) pairs in the
    caller's term order; a constant term has empty monomial text."""
    out = ""
    for cs, mon in terms:
        if not mon:
            t = parenthesize(cs)
        elif cs == "1":
            t = mon
        elif cs == "-1":
            t = f"-{mon}"
        else:
            t = f"{parenthesize(cs)}*{mon}"
        if not out:
            out = t
        else:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out or "0"


# ---------------------------------------------------------------------------
# specs

class FieldSpec:
    """One level of the coefficient tower.

    Payload-level arithmetic lives on the spec; ``Scalar`` is a thin wrapper.
    """

    kind = "abstract"
    base = None  # next level down, or None
    is_field = True

    # -- payload primitives (overridden per kind) -------------------------
    def payload_zero(self): raise NotImplementedError
    def payload_one(self): raise NotImplementedError
    def payload_add(self, a, b): raise NotImplementedError
    def payload_neg(self, a): raise NotImplementedError
    def payload_mul(self, a, b): raise NotImplementedError
    def payload_inv(self, a): raise NotImplementedError
    def payload_is_zero(self, a): raise NotImplementedError
    def payload_from_fraction(self, q): raise NotImplementedError
    def payload_str(self, a): raise NotImplementedError

    def payload_sub(self, a, b):
        return self.payload_add(a, self.payload_neg(b))

    def payload_div(self, a, b):
        if self.payload_is_zero(b):
            raise FieldError("division by zero")
        return self.payload_mul(a, self.payload_inv(b))

    def payload_eq(self, a, b):
        return a == b

    def payload_dot(self, pairs):
        """sum of a * b over an iterable of payload pairs (a, b): a left
        fold from the first product, payload_zero() when there is none."""
        mul, add = self.payload_mul, self.payload_add
        pairs = iter(pairs)
        for a, b in pairs:  # the first pair starts the fold
            acc = mul(a, b)
            for a, b in pairs:
                acc = add(acc, mul(a, b))
            return acc
        return self.payload_zero()

    # -- Scalar construction ----------------------------------------------
    def zero(self): return Scalar(self, self.payload_zero())
    def one(self): return Scalar(self, self.payload_one())

    def scalar(self, x):
        """Coerce an int, Fraction, or Scalar of a lower tower level."""
        if isinstance(x, Scalar):
            return self.embed(x)
        if isinstance(x, (int, Fraction)):
            return Scalar(self, self.payload_from_fraction(Fraction(x)))
        raise FieldError(f"cannot coerce {x!r} into {self}")

    def embed(self, s: "Scalar") -> "Scalar":
        """Lift a scalar from a spec occurring in this tower (or Q)."""
        if s.spec == self:
            return s
        return Scalar(self, self.embedding(s.spec)(s.payload))

    def embedding(self, spec):
        """The map that lifts payloads of ``spec``, Q or a level of this
        tower, to payloads of this spec, with the path down the tower found
        once; raises FieldError when there is none."""
        if spec.kind == "rationals":
            return self.payload_from_fraction
        if spec == self:
            return lambda payload: payload
        if self.base is None:
            raise FieldError(f"no embedding of {spec} into {self}")
        inner, lift = self.base.embedding(spec), self._lift_const
        return lambda payload: lift(inner(payload))

    def _lift_const(self, base_payload):
        raise FieldError(f"{self} has no base to lift from")

    def variables(self):
        """Symbol table of this tower: name -> Scalar."""
        return {}

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.describe()

    def describe(self):
        raise NotImplementedError


class Rationals(FieldSpec):
    kind = "rationals"

    def payload_zero(self): return Fraction(0)
    def payload_one(self): return Fraction(1)
    def payload_add(self, a, b): return a + b
    def payload_neg(self, a): return -a
    def payload_sub(self, a, b): return a - b
    def payload_mul(self, a, b): return a * b
    def payload_is_zero(self, a): return a == 0
    def payload_from_fraction(self, q): return q

    def payload_inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def payload_str(self, a):
        return str(a)

    def _key(self): return ("rationals",)
    def describe(self): return "Rationals"


QQ = Rationals()


def _fp_poly_is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial f of degree d over F_p (Rabin):
    x^{p^d} = x mod f, and gcd(f, x^{p^{d/q}} - x) = 1 for primes q | d."""
    fp = PrimeField(p)
    f = _poly_trim(fp, [c % p for c in coeffs])
    d = len(f) - 1
    if d < 1:
        return False
    x = (0, 1)
    frobenius = _poly_sub(fp, _poly_powmod(fp, x, p ** d, f), x)
    if _poly_divmod(fp, frobenius, f)[1]:
        return False
    for q in set(_prime_factors(d)):
        h = _poly_sub(fp, _poly_powmod(fp, x, p ** (d // q), f), x)
        if len(_poly_gcd(fp, f, h)) > 1:
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _norm(nums, den):
    """The canonical number-field payload of (sum nums[i] x^i) / den: the
    numerators and a positive denominator, with no common factor."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return (*nums, den)
    return (*(n // g for n in nums), den // g)


def _det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


class NumberField(FieldSpec):
    """Q[x]/(f) for a monic integral polynomial f, irreducible over Q.

    An element (n_0 + n_1 x + ... + n_{d-1} x^{d-1}) / den is the flat int
    tuple (n_0, ..., n_{d-1}, den) with den > 0 and
    gcd(den, n_0, ..., n_{d-1}) = 1; zero is (0, ..., 0, 1).
    """

    kind = "number-field"
    base = QQ

    def __init__(self, minpoly, gen_name):
        coeffs = tuple(int(c) for c in minpoly)
        if coeffs[-1] != 1:
            raise FieldError("defining polynomial must be monic")
        self.minpoly = coeffs
        self.gen_name = gen_name
        self.degree = len(coeffs) - 1
        if self.degree < 1:
            raise FieldError("defining polynomial must have positive degree")
        self._check_irreducible()
        # reduction table: x^k mod f for k = deg .. 2deg-2, integral as f
        # is monic
        red = []
        cur = [-c for c in coeffs[:-1]]  # x^deg
        red.append(tuple(cur))
        for _ in range(self.degree - 2):
            cur = [0] + cur
            top = cur.pop()
            for i in range(self.degree):
                cur[i] += top * red[0][i]
            red.append(tuple(cur))
        self._red = red
        self._zero = (0,) * self.degree + (1,)
        self._one = self.payload_from_fraction(1)

    def _check_irreducible(self):
        if self.degree == 1:
            return
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103):
            if self.minpoly[-1] % p == 0:
                continue
            if _fp_poly_is_irreducible(self.minpoly, p):
                return
        raise FieldError(
            f"could not certify irreducibility of {self.minpoly} by "
            "reduction at small primes")

    def payload_zero(self): return self._zero
    def payload_one(self): return self._one

    def payload_from_fraction(self, q):
        """The payload of a Fraction or an int."""
        return (q.numerator,) + (0,) * (self.degree - 1) + (q.denominator,)

    def gen(self):
        if self.degree == 1:
            return Scalar(self, self.payload_from_fraction(-self.minpoly[0]))
        pl = [0] * (self.degree + 1)
        pl[1] = pl[-1] = 1
        return Scalar(self, tuple(pl))

    def payload_add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            return _norm([x + y for x, y in zip(a[:-1], b[:-1])], da)
        return _norm([x * db + y * da for x, y in zip(a[:-1], b[:-1])],
                     da * db)

    def payload_neg(self, a):
        return (*(-x for x in a[:-1]), a[-1])

    def payload_sub(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            return _norm([x - y for x, y in zip(a[:-1], b[:-1])], da)
        return _norm([x * db - y * da for x, y in zip(a[:-1], b[:-1])],
                     da * db)

    def payload_mul(self, a, b):
        return self.payload_dot(((a, b),))

    def payload_dot(self, pairs):
        """sum of a * b over payload pairs, normalised once: the unreduced
        products' numerators go into one buffer of degree 2d - 2 over a
        common denominator (the running lcm of the products'
        denominators), which is reduced by x^k mod f and cancelled by one
        gcd at the end."""
        d = self.degree
        rd = range(d)
        buf = [0] * (2 * d - 1)
        den = 1
        for a, b in pairs:
            e = a[-1] * b[-1]
            if e != den:
                up = e // math.gcd(den, e)
                if up != 1:
                    buf = [c * up for c in buf]
                    den *= up
                if den != e:
                    a = [x * (den // e) for x in a[:d]]
            for i in rd:
                x = a[i]
                if x:
                    for j in rd:
                        buf[i + j] += x * b[j]
        out = buf[:d]
        for k in range(d, 2 * d - 1):
            c = buf[k]
            if c:
                row = self._red[k - d]
                for i in rd:
                    out[i] += c * row[i]
        return _norm(out, den)

    def payload_is_zero(self, a):
        return a == self._zero

    def payload_inv(self, a):
        """Cramer's rule on M x = e_0, M the integer matrix of multiplication
        by the numerator: x_i = (-1)^i det(M minus row 0 and column i) /
        det M, and the inverse is den * x."""
        if self.payload_is_zero(a):
            raise FieldError("division by zero")
        d, f = self.degree, self.minpoly
        col = list(a[:-1])
        cols = [col]
        for _ in range(d - 1):  # column j + 1 is x times column j, mod f
            top = col[-1]
            col = [0] + col[:-1]
            for i in range(d):
                col[i] -= top * f[i]
            cols.append(col)
        rows = list(zip(*cols))
        den = a[-1]
        nums = [(-1) ** i * den * _det([r[:i] + r[i + 1:] for r in rows[1:]])
                for i in range(d)]
        return _norm(nums, _det(rows))

    def payload_str(self, a):
        den = a[-1]

        def coeff(n):
            g = math.gcd(n, den)
            return str(n // g) if g == den else f"{n // g}/{den // g}"

        return format_terms((coeff(a[i]),
                             monomial_text((self.gen_name,), (i,)))
                            for i in range(self.degree - 1, -1, -1) if a[i])

    def variables(self):
        return {self.gen_name: self.gen()}

    def _key(self):
        return ("number-field", self.minpoly, self.gen_name)

    def describe(self):
        return f"NumberField({self.gen_name}: {list(self.minpoly)})"


def cyclotomic_field(n, gen_name=None):
    """Q(zeta_n) for the shipped cases n in {1, 3, 4, 5}."""
    if n == 1:
        return QQ
    polys = {3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1)}
    if n not in polys:
        raise FieldError(f"cyclotomic field of order {n} is not shipped")
    return NumberField(polys[n], gen_name or f"z{n}")


def _check_depth(base):
    """A level over ``base`` may make the tower at most four deep."""
    d, s = 1, base
    while s is not None:
        d += 1
        s = s.base
    if d > 4:
        raise FieldError("coefficient tower nests too deep")


class PolyRing(FieldSpec):
    """Multivariate polynomial ring over a base domain; a ring, not a field.

    Payload: tuple of (exponent tuple, base payload) sorted by exponent.
    """

    kind = "poly-ring"
    is_field = False

    def __init__(self, base, names):
        self.base = base
        self.names = tuple(names)
        self.nvars = len(self.names)
        if self.nvars == 0:
            raise FieldError("polynomial ring needs at least one variable")
        _check_depth(base)

    def payload_zero(self): return ()
    def payload_one(self):
        return (((0,) * self.nvars, self.base.payload_one()),)

    def payload_from_fraction(self, q):
        if q == 0:
            return ()
        return (((0,) * self.nvars, self.base.payload_from_fraction(q)),)

    def _lift_const(self, base_payload):
        if self.base.payload_is_zero(base_payload):
            return ()
        return (((0,) * self.nvars, base_payload),)

    def var(self, name):
        i = self.names.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Scalar(self, ((tuple(e), self.base.payload_one()),))

    def payload_add(self, a, b):
        d = dict(a)
        for e, c in b:
            if e in d:
                s = self.base.payload_add(d[e], c)
                if self.base.payload_is_zero(s):
                    del d[e]
                else:
                    d[e] = s
            else:
                d[e] = c
        return tuple(sorted(d.items()))

    def payload_neg(self, a):
        return tuple((e, self.base.payload_neg(c)) for e, c in a)

    def payload_mul(self, a, b):
        if not a or not b:
            return ()
        d = {}
        badd, bmul, bz = (self.base.payload_add, self.base.payload_mul,
                          self.base.payload_is_zero)
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(x + y for x, y in zip(ea, eb))
                c = bmul(ca, cb)
                if e in d:
                    c = badd(d[e], c)
                if bz(c):
                    d.pop(e, None)
                else:
                    d[e] = c
        return tuple(sorted(d.items()))

    def payload_is_zero(self, a):
        return not a

    def payload_inv(self, a):
        c = self._constant_of(a)
        if c is None:
            raise FieldError("division in a polynomial ring is only "
                             "defined for invertible constants")
        return self._lift_const(self.base.payload_inv(c))

    def payload_div(self, a, b):
        c = self._constant_of(b)
        if c is None:
            raise FieldError("division in a polynomial ring is only "
                             "defined for invertible constants")
        inv = self.base.payload_inv(c)
        return tuple((e, self.base.payload_mul(x, inv)) for e, x in a)

    def _constant_of(self, a):
        if len(a) != 1:
            return None
        e, c = a[0]
        return c if not any(e) else None

    def payload_str(self, a):
        order = sorted(a, key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))
        return format_terms((self.base.payload_str(c),
                             monomial_text(self.names, e)) for e, c in order)

    def variables(self):
        out = dict(self.base.variables())
        for i, n in enumerate(self.names):
            out[n] = self.var(n)
        return out

    def _key(self):
        return ("poly-ring", self.base._key(), self.names)

    def describe(self):
        return f"PolyRing({self.base.describe()}, {list(self.names)})"


class RationalFunctionField(FieldSpec):
    """K(v): univariate rational functions, reduced, monic denominator."""

    kind = "rational-function-field"

    def __init__(self, base, name):
        if not base.is_field:
            raise FieldError("function field base must be a field")
        self.base = base
        self.name = name
        _check_depth(base)

    def payload_zero(self): return ((), (self.base.payload_one(),))
    def payload_one(self):
        one = self.base.payload_one()
        return ((one,), (one,))

    def payload_from_fraction(self, q):
        if q == 0:
            return self.payload_zero()
        return ((self.base.payload_from_fraction(q),),
                (self.base.payload_one(),))

    def _lift_const(self, base_payload):
        if self.base.payload_is_zero(base_payload):
            return self.payload_zero()
        return ((base_payload,), (self.base.payload_one(),))

    def var(self, name=None):
        if name is not None and name != self.name:
            raise FieldError(f"unknown variable {name}")
        b = self.base
        return Scalar(self, ((b.payload_zero(), b.payload_one()),
                             (b.payload_one(),)))

    def _normalize(self, num, den):
        b = self.base
        if not den:
            raise FieldError("zero denominator")
        if not num:
            return self.payload_zero()
        g = _poly_gcd(b, num, den)
        if len(g) > 1 or not b.payload_eq(g[0], b.payload_one()):
            num, _ = _poly_divmod(b, num, g)
            den, _ = _poly_divmod(b, den, g)
        lc = den[-1]
        if not b.payload_eq(lc, b.payload_one()):
            inv = b.payload_inv(lc)
            num = _poly_scale(b, num, inv)
            den = _poly_scale(b, den, inv)
        return (num, den)

    def payload_add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        bs = self.base
        num = _poly_add(bs, _poly_mul(bs, n1, d2), _poly_mul(bs, n2, d1))
        return self._normalize(num, _poly_mul(bs, d1, d2))

    def payload_neg(self, a):
        return (_poly_neg(self.base, a[0]), a[1])

    def payload_mul(self, a, b):
        bs = self.base
        return self._normalize(_poly_mul(bs, a[0], b[0]),
                               _poly_mul(bs, a[1], b[1]))

    def payload_inv(self, a):
        if not a[0]:
            raise FieldError("division by zero")
        return self._normalize(a[1], a[0])

    def payload_is_zero(self, a):
        return not a[0]

    def _poly_str(self, cs):
        b, v = self.base, (self.name,)
        return format_terms((b.payload_str(cs[i]), monomial_text(v, (i,)))
                            for i in range(len(cs) - 1, -1, -1)
                            if not b.payload_is_zero(cs[i]))

    def payload_str(self, a):
        num, den = a
        ns = self._poly_str(num)
        if len(den) == 1 and self.base.payload_eq(den[0],
                                                  self.base.payload_one()):
            return ns
        return f"{parenthesize(ns)}/{parenthesize(self._poly_str(den))}"

    def variables(self):
        out = dict(self.base.variables())
        out[self.name] = self.var()
        return out

    def _key(self):
        return ("function-field", self.base._key(), self.name)

    def describe(self):
        return f"RationalFunctionField({self.base.describe()}, {self.name})"


class PrimeField(FieldSpec):
    kind = "prime-field"

    def __init__(self, p):
        p = int(p)
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def payload_zero(self): return 0
    def payload_one(self): return 1
    def payload_add(self, a, b): return (a + b) % self.p
    def payload_neg(self, a): return (-a) % self.p
    def payload_sub(self, a, b): return (a - b) % self.p
    def payload_mul(self, a, b): return (a * b) % self.p
    def payload_is_zero(self, a): return a == 0

    def payload_inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def payload_from_fraction(self, q):
        if q.denominator % self.p == 0:
            raise FieldError(f"denominator of {q} is divisible by {self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def payload_str(self, a): return str(a)
    def _key(self): return ("prime-field", self.p)
    def describe(self): return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------

class Scalar:
    """Immutable element of a FieldSpec, canonically represented."""

    __slots__ = ("spec", "payload", "_hash")

    def __init__(self, spec, payload):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _pair(self, other):
        """Bring self and other into a common spec, or return None."""
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                return self, self.spec.scalar(other)
            return None
        if other.spec is self.spec or other.spec == self.spec:
            return self, other
        try:
            return self, self.spec.embed(other)
        except FieldError:
            pass
        try:
            return other.spec.embed(self), other
        except FieldError:
            return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_add(a.payload, b.payload))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_sub(a.payload, b.payload))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_sub(b.payload, a.payload))

    def __neg__(self):
        return Scalar(self.spec, self.spec.payload_neg(self.payload))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_mul(a.payload, b.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_div(a.payload, b.payload))

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.spec, a.spec.payload_div(b.payload, a.payload))

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return Scalar(self.spec,
                          self.spec.payload_inv(self.payload)) ** (-n)
        out = self.spec.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return self.spec.payload_is_zero(self.payload)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, Scalar) or other.spec != self.spec:
            return False
        return self.spec.payload_eq(self.payload, other.payload)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.spec, _hashable(self.payload)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return self.spec.payload_str(self.payload)

    def __bool__(self):
        return not self.is_zero()


def _hashable(p):
    if isinstance(p, tuple):
        return tuple(_hashable(x) for x in p)
    return p


# ---------------------------------------------------------------------------
# operations of the module surface

def reduce_mod_prime(a: Scalar, p: int, root: int = 0) -> Scalar:
    """Ring-morphism image of a rational or number-field scalar in F_p.

    For number fields the generator is sent to ``root``, which must be a
    root of the defining polynomial modulo p.
    """
    fp = PrimeField(p)
    spec = a.spec
    if spec.kind == "rationals":
        return Scalar(fp, fp.payload_from_fraction(a.payload))
    if spec.kind == "number-field":
        if _int_poly_eval_mod(spec.minpoly, root, p) != 0:
            raise FieldError(f"{root} is not a root of the defining "
                             f"polynomial mod {p}")
        *nums, den = a.payload
        if den % p == 0:
            raise FieldError(f"denominator of {a!r} is divisible by {p}")
        acc = _int_poly_eval_mod(nums, root, p)
        return Scalar(fp, acc * pow(den, -1, p) % p)
    raise FieldError(f"cannot reduce a {spec.kind} scalar modulo a prime")


def _int_poly_eval_mod(coeffs, x, p):
    """The integer polynomial with coefficients ``coeffs`` (low degree
    first) at x, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def minpoly_roots_mod_p(spec: NumberField, p: int):
    """All roots of the defining polynomial of a number field mod p."""
    return [r for r in range(p)
            if _int_poly_eval_mod(spec.minpoly, r, p) == 0]


def denominator_of(a: Scalar) -> int:
    """Positive integer d with d*a integral, for Q and number fields.

    For polynomial payloads the lcm over all coefficients is taken.
    """
    spec = a.spec
    if spec.kind == "rationals":
        return a.payload.denominator
    if spec.kind == "number-field":
        return a.payload[-1]
    if spec.kind == "poly-ring":
        d = 1
        for _, c in a.payload:
            e = denominator_of(Scalar(spec.base, c))
            d = d * e // math.gcd(d, e)
        return d
    raise FieldError(f"no integral structure for {spec.kind} scalars")


def payload_as_integer(spec: FieldSpec, payload, divisor: int) -> int:
    """Exact value of payload / divisor as an int, for a payload of Q or
    of a number field that is a rational integer times divisor; any other
    value raises FieldError."""
    if spec.kind == "number-field" and not any(payload[1:-1]):
        num, den = payload[0], payload[-1]
    elif spec.kind == "rationals":
        num, den = payload.numerator, payload.denominator
    else:
        raise FieldError(f"{spec.payload_str(payload)} is not rational")
    q, r = divmod(num, den * divisor)
    if r:
        raise FieldError(f"{spec.payload_str(payload)} / {divisor} is not "
                         "an integer")
    return q


def descend(s: Scalar, spec: FieldSpec) -> Scalar:
    """The constant s as a scalar of ``spec``, a level of s's tower: each
    polynomial ring and function field on the way down gives up its
    constant term, a number field its rational value; a value that is not
    a constant of ``spec`` raises FieldError."""
    while s.spec != spec:
        kind, base, p = s.spec.kind, s.spec.base, s.payload
        if kind == "number-field" and not any(p[1:-1]):
            p = Fraction(p[0], p[-1])
        elif kind == "poly-ring" and not p:
            p = base.payload_zero()
        elif kind == "poly-ring" and len(p) == 1 and not any(p[0][0]):
            p = p[0][1]
        elif kind == "rational-function-field" and len(p[0]) <= 1 \
                and len(p[1]) == 1:
            # the denominator is monic, so a constant one is 1
            p = p[0][0] if p[0] else base.payload_zero()
        else:
            raise FieldError(f"{s!r} is not a constant of {spec}")
        s = Scalar(base, p)
    return s


def evaluate(s: Scalar, point) -> Scalar:
    """The value of s with every free parameter set by ``point`` (name ->
    scalar of the tower's Q, number field or F_p), landing there; raises
    FieldError when a denominator vanishes at the point."""
    spec = ground = s.spec
    while ground.kind in ("poly-ring", "rational-function-field"):
        ground = ground.base
    if spec.kind == "poly-ring":
        total = ground.zero()
        for e, c in s.payload:
            term = evaluate(Scalar(spec.base, c), point)
            for name, k in zip(spec.names, e):
                term = term * point[name] ** k
            total = total + term
        return total
    if spec.kind == "rational-function-field":
        x = point[spec.name]

        def horner(coeffs):
            acc = ground.zero()
            for c in reversed(coeffs):
                acc = acc * x + evaluate(Scalar(spec.base, c), point)
            return acc

        num, den = map(horner, s.payload)
        if den.is_zero():
            raise FieldError("denominator vanishes at the parameter point")
        return num / den
    return s


def parameter_names(spec: FieldSpec):
    """The free parameters of a tower, from the top level down: the
    variables of its polynomial rings and function fields."""
    names = []
    while spec is not None:
        if spec.kind == "poly-ring":
            names.extend(spec.names)
        elif spec.kind == "rational-function-field":
            names.append(spec.name)
        spec = spec.base
    return names


def coefficients(s: Scalar):
    """{exponent tuple: coefficient in the base} of a polynomial-ring
    scalar."""
    return {e: Scalar(s.spec.base, c) for e, c in s.payload}


def is_negative(s: Scalar) -> bool:
    """Whether s is a rational or number-field scalar whose nonzero
    coordinates are all negative (and s is nonzero)."""
    if s.spec.kind == "rationals":
        return s.payload < 0
    if s.spec.kind == "number-field":
        nz = [c for c in s.payload[:-1] if c != 0]
        return bool(nz) and all(c < 0 for c in nz)
    return False


# ---------------------------------------------------------------------------
# text syntax: integers, fractions a/b, generator symbols, variables,
# + - * / ^ with parentheses.

class _Tokens:
    def __init__(self, text):
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_{}"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise FieldError(f"unexpected character {ch!r} in scalar text")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def parse_scalar(text: str, spec: FieldSpec) -> Scalar:
    """Parse the shared scalar text syntax into a Scalar of ``spec``."""
    syms = spec.variables()
    toks = _Tokens(text)

    def atom():
        kind, val = toks.next()
        if kind == "int":
            return spec.scalar(val)
        if kind == "name":
            if val not in syms:
                raise FieldError(f"unknown symbol {val!r}")
            return spec.embed(syms[val])
        if kind == "(":
            v = expr()
            k, _ = toks.next()
            if k != ")":
                raise FieldError("expected ')'")
            return v
        if kind == "-":
            return -factor()
        raise FieldError(f"unexpected token {val!r}")

    def factor():
        v = atom()
        while toks.peek()[0] == "^":
            toks.next()
            k, e = toks.next()
            neg = False
            if k == "-":
                neg = True
                k, e = toks.next()
            if k != "int":
                raise FieldError("exponent must be an integer")
            v = v ** (-e if neg else e)
        return v

    def term():
        v = factor()
        while toks.peek()[0] in ("*", "/"):
            op, _ = toks.next()
            w = factor()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        k = toks.peek()[0]
        if k == "-":
            toks.next()
            v = -term()
        else:
            v = term()
        while toks.peek()[0] in ("+", "-"):
            op, _ = toks.next()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    out = expr()
    if toks.peek()[0] is not None:
        raise FieldError(f"trailing input in scalar text {text!r}")
    return out
