"""Exact computations in rational Cherednik algebras.

Scalar tower and linear algebra, reflection groups with coinvariant
algebras, PBW-form products, Verma modules for the restricted algebra,
and their heads and decomposition matrices in characteristic zero.  A
Verma module's radical is one exact dual spin, and decomposition matrices
are peeled from graded characters.  The paper's Las Vegas lift from
finite-field data, and the MeatAxe, stay as the tests' independent checks.
"""

from .scalars import (
    QQ,
    FieldError,
    NumberField,
    PolyRing,
    PrimeField,
    RationalFunctionField,
    Scalar,
    cyclotomic_field,
    parse_scalar,
    reduce_mod_prime,
)

__all__ = [
    "QQ",
    "FieldError",
    "NumberField",
    "PolyRing",
    "PrimeField",
    "RationalFunctionField",
    "Scalar",
    "cyclotomic_field",
    "parse_scalar",
    "reduce_mod_prime",
]
