import random
from fractions import Fraction

import pytest

from cherednik.algebra import CherednikAlgebra, restrict_to_hyperplane
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
    G = load_group("B2")
    A = CherednikAlgebra(G, restrict_to_hyperplane(G, "k1_1-k2_1")
                         .to_cherednik())
    return A.y(0) * A.x(0) * A.x(1)


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
], ids=["function-field", "poly-ring", "number-field", "invariant", "pbw"])
def test_printed_text(make, text):
    # term order, unit coefficients, parentheses and signs of each printer
    assert repr(make()) == text
