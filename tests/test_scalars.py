import math
import random
from fractions import Fraction

import pytest

from cases import build
from cherednik.algebra import CherednikAlgebra, CherednikParameter
from cherednik.groups import load_group
from cherednik.scalars import (
    QQ,
    FieldError,
    NumberField,
    PolyRing,
    PrimeField,
    RationalFunctionField,
    Scalar,
    _fp_poly_is_irreducible,
    as_integer,
    cyclotomic_field,
    denominator_of,
    minpoly_roots_mod_p,
    parse_scalar,
    reduce_mod_prime,
)


def test_rationals_basic():
    a = QQ.scalar(Fraction(3, 4))
    b = QQ.scalar(2)
    assert (a + b) == Fraction(11, 4)
    assert (a * b) == Fraction(3, 2)
    assert (a / b) == Fraction(3, 8)
    assert (a - a).is_zero()


def test_cyclotomic_root_of_unity():
    K = cyclotomic_field(3)
    z = K.gen()
    assert z * z * z == 1
    # z3 * z3^2 = 1
    assert z * (z ** 2) == K.one()


def test_cyclotomic_product_reduction():
    # (1 - z3)(z3 + 2) = 3, derived by expanding mod x^2 + x + 1
    K = cyclotomic_field(3)
    z = K.gen()
    assert (1 - z) * (z + 2) == 3


def test_number_field_inverse():
    K = cyclotomic_field(3)
    z = K.gen()
    for s in (z, 1 - z, 2 * z + 5):
        assert s * (K.one() / s) == 1


def test_cyclotomic5():
    K = cyclotomic_field(5)
    z = K.gen()
    assert z ** 5 == 1
    assert (1 + z + z ** 2 + z ** 3 + z ** 4).is_zero()


def test_function_field_common_denominator():
    F = RationalFunctionField(QQ, "k")
    k = F.var()
    one = k / (k + 1) + 1 / (k + 1)
    assert one == F.one()


def test_function_field_cancellation():
    F = RationalFunctionField(QQ, "k")
    k = F.var()
    s = (k ** 2 - 1) / (k - 1)
    assert s == k + 1
    assert (s - s).is_zero()


def test_poly_ring_is_not_a_field():
    R = PolyRing(QQ, ["a", "b"])
    a, b = R.var("a"), R.var("b")
    assert (a + b) * (a - b) == a ** 2 - b ** 2
    with pytest.raises(FieldError):
        _ = R.one() / a
    # unit division stays available
    assert (3 * a) / 3 == a


def test_nested_tower():
    K = cyclotomic_field(3)
    F = RationalFunctionField(K, "k")
    z = F.embed(K.gen())
    k = F.var()
    s = (z * k + 1) / (k - z)
    assert s * (k - z) == z * k + 1


def _monic_polys(degree, p):
    """Every monic polynomial of the degree over F_p, low degree first."""
    for k in range(p ** degree):
        yield [k // p ** i % p for i in range(degree)] + [1]


def _has_factor(f, g, p):
    """Whether the monic g divides f over F_p, by long division."""
    r = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = r[k + len(g) - 1]
        for j, b in enumerate(g):
            r[k + j] = (r[k + j] - c * b) % p
    return not any(r[:len(g) - 1])


def test_fp_irreducibility_matches_trial_division():
    # a monic polynomial of degree <= 4 is reducible exactly when a monic
    # polynomial of degree 1 or 2 divides it
    for p in (3, 5, 7):
        divisors = [g for d in (1, 2) for g in _monic_polys(d, p)]
        for degree in (2, 3, 4):
            for f in _monic_polys(degree, p):
                reducible = any(_has_factor(f, g, p) for g in divisors
                                if len(g) < len(f))
                assert _fp_poly_is_irreducible(f, p) == (not reducible), \
                    (f, p)


def test_number_field_rejects_reducible_polynomial():
    # x^2 - 1 = (x - 1)(x + 1) factors modulo every prime
    with pytest.raises(FieldError):
        NumberField((-1, 0, 1), "a")


def test_prime_field():
    F7 = PrimeField(7)
    a = F7.scalar(Fraction(3, 2))
    assert a == 5  # 3 * 2^{-1} mod 7
    with pytest.raises(FieldError):
        PrimeField(6)


def test_reduce_mod_prime_rational():
    a = QQ.scalar(Fraction(3, 2))
    assert reduce_mod_prime(a, 7).payload == 5
    with pytest.raises(FieldError):
        reduce_mod_prime(QQ.scalar(Fraction(1, 7)), 7)


def test_reduce_mod_prime_cyclotomic():
    K = cyclotomic_field(3)
    roots = minpoly_roots_mod_p(K, 7)
    # roots of x^2 + x + 1 over F_7, found by enumeration
    assert sorted(roots) == [2, 4]
    z = K.gen()
    assert reduce_mod_prime(z, 7, 2).payload == 2
    assert reduce_mod_prime((1 - z) * (z + 2), 7, 2).payload == 3
    with pytest.raises(FieldError):
        reduce_mod_prime(z, 7, 3)


def test_reduce_mod_prime_is_ring_morphism():
    K = cyclotomic_field(3)
    z = K.gen()
    rng = random.Random(11)
    root = 4
    for _ in range(40):
        a = K.scalar(rng.randint(-9, 9)) + z * rng.randint(-9, 9)
        b = K.scalar(rng.randint(-9, 9)) + z * rng.randint(-9, 9)
        ra, rb = reduce_mod_prime(a, 7, root), reduce_mod_prime(b, 7, root)
        assert reduce_mod_prime(a + b, 7, root) == ra + rb
        assert reduce_mod_prime(a * b, 7, root) == ra * rb


def test_canonical_cancellation_properties():
    K = cyclotomic_field(4)
    i = K.gen()
    rng = random.Random(5)
    for _ in range(30):
        a = K.scalar(rng.randint(-20, 20)) + i * rng.randint(-20, 20)
        b = K.scalar(rng.randint(-20, 20)) + i * rng.randint(-20, 20)
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_number_field_division_by_zero():
    K = cyclotomic_field(3)
    with pytest.raises(FieldError):
        K.one() / K.zero()


# A reference for Q(z3), Q(z4) and Q(z5): coefficient lists of Fractions,
# low degree first, multiplied out and reduced by hand mod the monic minimal
# polynomial; inverses by Gauss-Jordan on the multiplication matrix.

REFERENCE_MINPOLYS = {3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1)}


def _ref_reduce(cs, f):
    cs, d = list(cs), len(f) - 1
    for k in range(len(cs) - 1, d - 1, -1):
        top, cs[k] = cs[k], Fraction(0)
        for i in range(d):
            cs[k - d + i] -= top * f[i]
    return (cs + [Fraction(0)] * d)[:d]


def _ref_mul(a, b, f):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, f)


def _ref_inv(a, f):
    d = len(f) - 1
    cols = [_ref_mul(a, [Fraction(int(i == j)) for i in range(d)], f)
            for j in range(d)]
    m = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
         for i in range(d)]
    for c in range(d):
        r = next(r for r in range(c, d) if m[r][c] != 0)
        m[c], m[r] = m[r], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(d):
            if r != c and m[r][c] != 0:
                m[r] = [v - m[r][c] * w for v, w in zip(m[r], m[c])]
    return [row[d] for row in m]


def _ref_text(cs, name):
    terms = []
    for i in range(len(cs) - 1, -1, -1):
        if cs[i] == 0:
            continue
        c = str(cs[i])
        mon = "" if i == 0 else name if i == 1 else f"{name}^{i}"
        if not mon:
            terms.append(c)
        else:
            terms.append(mon if c == "1" else f"-{mon}" if c == "-1"
                         else f"{c}*{mon}")
    out = terms[0] if terms else "0"
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _ref_mod_p(cs, p, root):
    """The image in F_p with the generator sent to root, or None when a
    denominator is divisible by p."""
    if any(c.denominator % p == 0 for c in cs):
        return None
    return sum(c.numerator * pow(c.denominator, -1, p) * root ** i
               for i, c in enumerate(cs)) % p


def _random_coeffs(rng, d):
    cs = [Fraction(rng.randint(-30, 30),
                   rng.choice((1, 1, 2, 3, 4, 6, 9, 12, 35, 61)))
          for _ in range(d)]
    for i in range(d):  # sparse and constant elements too
        if rng.random() < 0.25:
            cs[i] = Fraction(0)
    return cs


def _build(K, cs):
    z = K.gen()
    return sum((K.scalar(c) * z ** i for i, c in enumerate(cs)), K.zero())


def _coeffs(s):
    """The Fraction coefficients of a number-field scalar, after checking
    that its payload is canonical: (n_0, ..., n_{d-1}, den) with den > 0
    and no common factor."""
    *nums, den = s.payload
    assert den > 0 and math.gcd(den, *nums) == 1, s.payload
    assert all(type(v) is int for v in s.payload), s.payload
    return [Fraction(n, den) for n in nums]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_number_field_arithmetic_against_fraction_reference(n):
    K, f = cyclotomic_field(n), REFERENCE_MINPOLYS[n]
    p = 61  # 61 = 1 mod 3, 4 and 5, so every minimal polynomial splits
    roots = minpoly_roots_mod_p(K, p)
    assert len(roots) == K.degree
    rng = random.Random(1403 + n)
    for _ in range(80):
        ca, cb = _random_coeffs(rng, K.degree), _random_coeffs(rng, K.degree)
        a, b = _build(K, ca), _build(K, cb)
        assert _coeffs(a) == ca and _coeffs(b) == cb
        assert _coeffs(a + b) == [x + y for x, y in zip(ca, cb)]
        assert _coeffs(a - b) == [x - y for x, y in zip(ca, cb)]
        assert _coeffs(-a) == [-x for x in ca]
        assert _coeffs(a * b) == _ref_mul(ca, cb, f)
        if any(cb):
            inv = _ref_inv(cb, f)
            assert _ref_mul(cb, inv, f) == [1] + [0] * (K.degree - 1)
            assert _coeffs(K.one() / b) == inv
            assert _coeffs(b ** -1) == inv
            assert _coeffs(a / b) == _ref_mul(ca, inv, f)
        else:
            with pytest.raises(FieldError):
                a / b
        assert repr(a) == _ref_text(ca, K.gen_name)
        assert denominator_of(a) == math.lcm(*(c.denominator for c in ca))
        for root in roots:
            want = _ref_mod_p(ca, p, root)
            if want is None:
                with pytest.raises(FieldError):
                    reduce_mod_prime(a, p, root)
            else:
                assert reduce_mod_prime(a, p, root).payload == want
        if any(ca[1:]):
            with pytest.raises(FieldError):
                as_integer(a, 1)
        else:
            for divisor in (1, 2, 3, 5):
                q = ca[0] / divisor
                if q.denominator == 1:
                    assert as_integer(a, divisor) == q
                else:
                    with pytest.raises(FieldError):
                        as_integer(a, divisor)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_number_field_payload_is_canonical(n):
    # equal values built different ways have equal payloads and hashes
    K = cyclotomic_field(n)
    z = K.gen()

    def same(s, t):
        assert s.payload == t.payload and hash(s) == hash(t)

    same(z / 2, (2 * z) / 4)
    same(z / 2, z * Fraction(3, 6))
    same(K.zero(), z - z)
    assert K.zero().payload == (0,) * K.degree + (1,)
    same(K.one(), (z / 3) / (z / 3))
    same(K.scalar(-2), (z * 4 - z * 4) - 2)
    rng = random.Random(60 + n)
    for _ in range(40):
        ca, cb = _random_coeffs(rng, K.degree), _random_coeffs(rng, K.degree)
        a, b = _build(K, ca), _build(K, cb)
        same((a + b) - b, a)
        same(a * 6 / 6, a)
        if any(cb):
            same((a * b) / b, a)
            same(b * (K.one() / b), K.one())
        for s in (a + b, a - b, a * b):
            _coeffs(s)


def _dot_case(name, rng):
    """(spec, draw) for payload_dot's cases: draw() is a random Scalar."""
    def fraction(dens=(1, 2, 3, 4, 9)):
        return QQ.scalar(Fraction(rng.randint(-9, 9), rng.choice(dens)))

    if name == "QQ":
        return QQ, fraction
    if name in ("z3", "z5"):
        K = cyclotomic_field(int(name[1]))
        return K, lambda: _build(K, _random_coeffs(rng, K.degree))
    if name == "F7":
        F = PrimeField(7)
        return F, lambda: F.scalar(rng.randrange(7))
    z = cyclotomic_field(3).gen()
    F = RationalFunctionField(QQ if name == "Qk" else z.spec, "k")
    k = F.var()

    def coeff():  # in Q, or in Q(z3) with small coefficients
        c = fraction((1, 2))
        return F.embed(c if name == "Qk" else c + fraction((1, 2)) * z)

    # denominators from a small set, so that sums stay of low degree
    return F, lambda: (coeff() * k + coeff()) / (k + rng.choice((1, 2)))


@pytest.mark.parametrize("name", ["QQ", "z3", "z5", "Qk", "z3k", "F7"])
def test_payload_dot_is_the_fold_of_products(name):
    rng = random.Random(1403)
    spec, draw = _dot_case(name, rng)
    mul, add, neg = spec.payload_mul, spec.payload_add, spec.payload_neg
    assert spec.payload_dot([]) == spec.payload_zero()
    assert spec.payload_dot(iter([])) == spec.payload_zero()
    mixed_denominators = False
    for n in (1, 1, 2, 2, 3, 4, 6) * 4:
        pairs = [(draw().payload, draw().payload) for _ in range(n)]
        fold = mul(*pairs[0])
        for a, b in pairs[1:]:
            fold = add(fold, mul(a, b))
        got = spec.payload_dot(iter(pairs))
        assert got == fold
        cancelled = spec.payload_dot(pairs + [(neg(a), b) for a, b in pairs])
        assert cancelled == spec.payload_zero()
        if isinstance(spec, NumberField):  # and against Fractions
            want = [Fraction(0)] * spec.degree
            for a, b in pairs:
                prod = _ref_mul(_coeffs(Scalar(spec, a)),
                                _coeffs(Scalar(spec, b)),
                                REFERENCE_MINPOLYS[int(name[1])])
                want = [x + y for x, y in zip(want, prod)]
            assert _coeffs(Scalar(spec, got)) == want  # den > 0 and gcd 1
            mixed_denominators |= len({a[-1] * b[-1] for a, b in pairs}) > 1
    assert mixed_denominators or not isinstance(spec, NumberField)


def test_denominator_of():
    K = cyclotomic_field(3)
    z = K.gen()
    s = z / 3 + QQ.scalar(Fraction(1, 2)) * K.one()
    assert denominator_of(s) == 6


def test_parse_scalar():
    K = cyclotomic_field(3)
    s = parse_scalar("(2*z3+1)/3", K)
    z = K.gen()
    assert s == (2 * z + 1) / 3
    R = PolyRing(K, ["k1_1", "k1_2"])
    t = parse_scalar("(-z3+1)*k1_1 + (2*z3+1)*k1_2", R)
    k1, k2 = R.var("k1_1"), R.var("k1_2")
    assert t == (1 - R.embed(z)) * k1 + (2 * R.embed(z) + 1) * k2
    assert parse_scalar("-3/2", QQ) == Fraction(-3, 2)
    assert parse_scalar("2^-1", QQ) == Fraction(1, 2)
    with pytest.raises(FieldError):
        parse_scalar("q + 1", QQ)


def test_scalar_hash_consistency():
    F = RationalFunctionField(QQ, "k")
    k = F.var()
    a = (k + 1) / (k + 1)
    assert hash(a) == hash(F.one())
    assert len({a, F.one()}) == 1


def _pbw_on_b2_hyperplane():
    A = CherednikAlgebra(*build("B2_hyp")[:2])
    return A.y(0) * A.x(0) * A.x(1)


def _pbw_with_constant_sums():
    # G4 at t = 1: the commutator leaves group parts that are constant sums
    G = load_group("G4")
    A = CherednikAlgebra(G, CherednikParameter(
        G, G.spec, 1, [1, parse_scalar("z3+2", G.spec)]))
    return A.y(1) * A.g(1) * A.x(0)


@pytest.mark.parametrize("make,text", [
    (lambda: parse_scalar("(1 - k + (2 + z3)*k^2)/(z3 + k)",
                          RationalFunctionField(cyclotomic_field(3), "k")),
     "((z3 + 2)*k^2 - k + 1)/(k + z3)"),
    (lambda: parse_scalar("a - 3 - (1 + z3)*b*a^2",
                          PolyRing(cyclotomic_field(3), ["a", "b"])),
     "(-z3 - 1)*a^2*b + a - 3"),
    (lambda: parse_scalar("-1 + 2*z5^3", cyclotomic_field(5)),
     "2*z5^3 - 1"),
    (lambda: load_group("G4").fundamental_invariants("V")[0],
     "x1^4 - x1*x2^3"),
    (_pbw_on_b2_hyperplane, "(x1*x2*y1) + [g2]*(2*k*x2)"),
    (_pbw_with_constant_sums,
     "[g1]*(x1*y2) + [g4]*(-1/3*z3 - 1/3) + [g5]*(1/3) + "
     "[g9]*(-2/3*z3 - 1/3) + [g11]*(1/3*z3 + 2/3) + [g18]*(1/3*z3) + "
     "[g23]*(1/3*z3 - 1/3)"),
], ids=["function-field", "poly-ring", "number-field", "invariant", "pbw",
        "pbw-constant-sums"])
def test_printed_text(make, text):
    # term order, unit coefficients, parentheses and signs of each printer
    assert repr(make()) == text
