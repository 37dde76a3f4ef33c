import random

import pytest

from cherednik.multipoly import (
    GroebnerBasis,
    MultiPoly,
    buchberger,
    normal_form,
    reduce_poly,
    s_polynomial,
    standard_monomials,
)
from cherednik.scalars import QQ, FieldError


def P(spec, nvars, terms):
    return MultiPoly(spec, nvars, terms)


def b2_hilbert_basis():
    # fundamental invariants of the order-8 dihedral group on the plane
    x2y2 = P(QQ, 2, {(2, 0): 1, (0, 2): 1})
    x2y2m = P(QQ, 2, {(2, 2): 1})
    return buchberger([x2y2, x2y2m])


def test_already_a_basis():
    f = P(QQ, 2, {(2, 0): 1})
    g = P(QQ, 2, {(0, 1): 1})
    gb = buchberger([f, g])
    assert sorted(p.leading()[0] for p in gb) == [(0, 1), (2, 0)]


def test_b2_quotient_dimension():
    gb = b2_hilbert_basis()
    mons = standard_monomials(gb)
    assert len(mons) == 8
    # graded dimensions 1 + 2t + 2t^2 + 2t^3 + t^4
    series = {}
    for e in mons:
        series[sum(e)] = series.get(sum(e), 0) + 1
    assert series == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_normal_form_membership():
    gb = b2_hilbert_basis()
    # x^4 rewrites into standard monomials; difference lies in the ideal
    f = P(QQ, 2, {(4, 0): 1})
    nf = normal_form(f, gb)
    leads = gb.leading_exponents()
    for e in nf.terms:
        assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)
    diff = f - nf
    assert reduce_poly(diff, gb.polys).is_zero()


def test_normal_form_trivial_cases():
    gb = b2_hilbert_basis()
    g0 = gb.polys[0]
    assert normal_form(g0, gb).is_zero()
    m = P(QQ, 2, {(1, 1): 1})
    assert normal_form(m, gb) == m


def test_normal_form_multiplicative():
    gb = b2_hilbert_basis()
    rng = random.Random(12)
    for _ in range(15):
        f = P(QQ, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                      rng.randint(-4, 4) for _ in range(3)})
        g = P(QQ, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                      rng.randint(-4, 4) for _ in range(3)})
        lhs = normal_form(f * g, gb)
        rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
        assert lhs == rhs
        assert normal_form(normal_form(f, gb), gb) == normal_form(f, gb)


def test_spoly_closure_on_random_ideals():
    rng = random.Random(7)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 3))}
            p = P(QQ, 2, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens)
        for i in range(len(gb.polys)):
            for j in range(i):
                sp = s_polynomial(gb.polys[i], gb.polys[j])
                assert reduce_poly(sp, gb.polys).is_zero()


def test_reduced_basis_property():
    gb = b2_hilbert_basis()
    leads = gb.leading_exponents()
    for i, g in enumerate(gb.polys):
        assert g.leading()[1] == 1
        for e in g.terms:
            for j, le in enumerate(leads):
                if j != i:
                    assert not all(a <= b for a, b in zip(le, e))


def test_standard_monomials_trivial():
    gb = buchberger([P(QQ, 2, {(1, 0): 1}), P(QQ, 2, {(0, 1): 1})])
    assert standard_monomials(gb) == [(0, 0)]


def test_infinite_quotient_detected():
    gb = buchberger([P(QQ, 2, {(1, 0): 1})])
    with pytest.raises(FieldError):
        standard_monomials(gb)


def test_empty_input():
    gb = buchberger([])
    assert len(gb) == 0
