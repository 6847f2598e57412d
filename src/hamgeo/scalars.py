"""Scalar algebra shared by plain floats and jets.

Expression evaluation is generic over any scalar type that supports the
arithmetic operators plus the elementary functions below.  Floats take the
``math`` fast path; any object exposing a method of the same name (jets,
and the float lanes that serve as the coefficients of nested jets) is
dispatched to it.  That duck typing is what lets one evaluator serve plain
numbers, plain jets and nested jets.

All domain checks raise :class:`~hamgeo.errors.EvaluationError` so callers
see one exception type regardless of the scalar algebra in use.
"""

from __future__ import annotations

import math

from .errors import EvaluationError

__all__ = ["sin", "cos", "exp", "ln", "sqrt", "divide", "power", "int_pow"]


def sin(v):
    if hasattr(v, "sin"):
        return v.sin()
    return math.sin(v)


def cos(v):
    if hasattr(v, "cos"):
        return v.cos()
    return math.cos(v)


def exp(v):
    if hasattr(v, "exp"):
        return v.exp()
    try:
        return math.exp(v)
    except OverflowError as err:
        raise EvaluationError(f"exp overflow for argument {v!r}") from err


def ln(v):
    if hasattr(v, "ln"):
        return v.ln()
    if v <= 0.0:
        raise EvaluationError(f"ln of non-positive value {v!r}")
    return math.log(v)


def sqrt(v):
    if hasattr(v, "sqrt"):
        return v.sqrt()
    if v <= 0.0:
        raise EvaluationError(f"sqrt of non-positive value {v!r}")
    return math.sqrt(v)


def divide(numer, denom):
    """Quotient with an explicit zero-denominator check.

    Jets implement the quotient rule themselves; the float branch only has
    to guard the division.
    """
    if hasattr(denom, "divide_into"):
        return denom.divide_into(numer)
    if denom == 0.0:
        raise EvaluationError("division by zero")
    return numer / denom


def power(base, exponent):
    """General power with a scalar (non-integer) exponent.

    Integer-constant exponents never reach this function; they go through
    :func:`int_pow`.  For jets the base must be strictly positive so the
    power rule stays differentiable.
    """
    if hasattr(exponent, "exp"):
        # jet-valued exponent: base**e = exp(e * ln(base)); ln guards base > 0
        return exp(exponent * ln(base))
    if hasattr(base, "pow_float"):
        return base.pow_float(exponent)
    if base < 0.0:
        raise EvaluationError(
            f"power of negative base {base!r} with non-integer exponent {exponent!r}"
        )
    if base == 0.0 and exponent <= 0.0:
        raise EvaluationError(f"zero base with non-positive exponent {exponent!r}")
    return math.pow(base, exponent)


def int_pow(base, k: int):
    """Integer power by square-and-multiply, reading k's bits from the top.

    Takes at most 2*log2(k) products, and for k <= 3 the same products as
    repeated multiplication (x*x, (x*x)*x).  Valid for negative bases;
    negative exponents go through the reciprocal.  Works for any scalar
    algebra.
    """
    if k == 0:
        return 1.0
    if k < 0:
        return divide(1.0, int_pow(base, -k))
    result = base
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result
