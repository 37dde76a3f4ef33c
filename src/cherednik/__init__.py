"""Exact computations in rational Cherednik algebras.

Scalar tower and linear algebra, reflection groups with coinvariant
algebras, PBW-form products, Verma modules for the restricted algebra,
and the lifting pipeline that recovers heads and decomposition matrices in
characteristic zero from finite-field data.  Mod p, a Verma module's
radical is one dual spin; a specialization whose radical does not lift is
redrawn, and decomposition matrices are peeled from graded characters.
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
