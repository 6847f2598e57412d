"""Forward-mode truncated-Taylor (jet) arithmetic up to order 3.

A :class:`Jet` carries the raw partial derivatives of a scalar function at
one point: value ``c0``, gradient ``c1`` (length m), packed symmetric
second-order coefficients ``c2`` (m(m+1)/2 entries) and third-order
coefficients ``c3`` (m(m+1)(m+2)/6 entries).  Variables follow the package
ordering (x1..xn, p1..pn), so m = 2n.

Coefficients are stored once per unordered multi-index, which makes
permutation symmetry of :meth:`Jet.partial` exact by construction.

Coefficients are float arrays, or float *lanes*: a lane carries values of
some shape S together with their order-1 slopes (shape S + (m,)), so one
lane is a whole array of order-1 jets stored as two dense float arrays.
Evaluating an expression over jets whose coefficients are lanes yields
exact derivatives one order beyond the outer truncation; the geometry layer
reads the Hamiltonian's fourth derivatives from the slopes of the order-3
coefficients.

Instances are immutable by convention: coefficient arrays are never
written after construction, so jets may freely share them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import scalars
from .errors import DimensionError, EvaluationError
from .expr import Expression, evaluate
from .phase import PhasePoint

__all__ = [
    "Jet",
    "jet_lift",
    "nested_jet_lift",
    "fd_oracle",
    "FD_STEPS",
]


class _Tables:
    """Packed-simplex index tables for one variable count m.

    ``pair[i, j]`` and ``trip[i, j, k]`` map unordered multi-indices to
    storage slots.  The gather arrays drive the vectorized product,
    composition and derivative-shift rules; they are valid for repeated
    indices as well (e.g. the (i,i,k) entry picks the (i,i) pair twice).
    """

    def __init__(self, m: int):
        self.m = m
        n2 = m * (m + 1) // 2
        n3 = m * (m + 1) * (m + 2) // 6
        self.n2, self.n3 = n2, n3

        pair = np.empty((m, m), dtype=np.intp)
        p_i = np.empty(n2, dtype=np.intp)
        p_j = np.empty(n2, dtype=np.intp)
        t = 0
        for i in range(m):
            for j in range(i, m):
                pair[i, j] = pair[j, i] = t
                p_i[t], p_j[t] = i, j
                t += 1

        trip = np.empty((m, m, m), dtype=np.intp)
        t_i = np.empty(n3, dtype=np.intp)
        t_j = np.empty(n3, dtype=np.intp)
        t_k = np.empty(n3, dtype=np.intp)
        t = 0
        for i in range(m):
            for j in range(i, m):
                for k in range(j, m):
                    for a, b, c in (
                        (i, j, k), (i, k, j), (j, i, k),
                        (j, k, i), (k, i, j), (k, j, i),
                    ):
                        trip[a, b, c] = t
                    t_i[t], t_j[t], t_k[t] = i, j, k
                    t += 1

        self.pair, self.trip = pair, trip
        self.p_i, self.p_j = p_i, p_j
        self.t_i, self.t_j, self.t_k = t_i, t_j, t_k
        self.t_ij = pair[t_i, t_j]
        self.t_ik = pair[t_i, t_k]
        self.t_jk = pair[t_j, t_k]
        # c3 gather for the derivative shift: row z maps packed pairs
        # (w1, w2) to the packed triple (z, w1, w2)
        self.d2 = np.empty((m, n2), dtype=np.intp)
        for z in range(m):
            self.d2[z] = trip[z, p_i, p_j]


_TABLE_CACHE: dict[int, _Tables] = {}


def _tables(m: int) -> _Tables:
    tab = _TABLE_CACHE.get(m)
    if tab is None:
        tab = _Tables(m)
        _TABLE_CACHE[m] = tab
    return tab


def _col(values):
    """Values shaped to broadcast against their slopes."""
    return values[..., None] if isinstance(values, np.ndarray) else values


def _fit(slopes: np.ndarray, values) -> np.ndarray:
    """Slopes broadcast to the shape of the values they belong to."""
    shape = np.shape(values) + slopes.shape[-1:]
    return slopes if slopes.shape == shape else np.broadcast_to(slopes, shape)


class _Lane:
    """An array of order-1 jets: values ``v`` (shape S), slopes ``d`` (S + (m,)).

    ``d`` is None for a lane of constants.  Every operation performs,
    element by element, exactly the float operations of the order-1
    :class:`Jet` rule it stands for (a constant taking the float branch),
    so a lane reproduces the inner jets of a nested lift bit for bit.
    Elementary functions apply to single-element lanes only, which is all
    the outer jet rules ask of them.
    """

    __slots__ = ("v", "d")
    #: keep numpy from treating a lane as an object scalar
    __array_ufunc__ = None

    def __init__(self, v, d):
        self.v = v
        self.d = d

    @staticmethod
    def _of(other):
        if isinstance(other, _Lane):
            return other
        if isinstance(other, (int, float, np.ndarray)):
            return _Lane(other, None)
        return None

    @property
    def c0(self):
        return self.v

    @property
    def c1(self):
        return self.d

    def __repr__(self):
        return f"_Lane(v={self.v!r}, d={self.d!r})"

    def __float__(self):
        return float(self.v)

    def __getitem__(self, idx) -> "_Lane":
        return _Lane(self.v[idx], None if self.d is None else self.d[idx])

    def __neg__(self) -> "_Lane":
        return _Lane(-self.v, None if self.d is None else -self.d)

    def __add__(self, other):
        o = _Lane._of(other)
        if o is None:
            return NotImplemented
        v = self.v + o.v
        if o.d is None:
            d = self.d if self.d is None else _fit(self.d, v)
        elif self.d is None:
            d = _fit(o.d, v)
        else:
            d = self.d + o.d
        return _Lane(v, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _Lane._of(other)
        if o is None:
            return NotImplemented
        v = self.v - o.v
        if o.d is None:
            d = self.d if self.d is None else _fit(self.d, v)
        elif self.d is None:
            d = _fit(-o.d, v)
        else:
            d = self.d - o.d
        return _Lane(v, d)

    def __rsub__(self, other):
        o = _Lane._of(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _Lane._of(other)
        if o is None:
            return NotImplemented
        if self.d is None:
            d = None if o.d is None else o.d * _col(self.v)
        elif o.d is None:
            d = self.d * _col(o.v)
        else:
            d = self.d * _col(o.v) + o.d * _col(self.v)
        return _Lane(self.v * o.v, d)

    __rmul__ = __mul__

    @staticmethod
    def _divide(numer: "_Lane", denom: "_Lane") -> "_Lane":
        """Quotient rule of :meth:`Jet._divide` at order 1."""
        if np.any(denom.v == 0.0):
            raise EvaluationError("division by zero")
        q = numer.v / denom.v
        if denom.d is None:
            d = None if numer.d is None else numer.d / _col(denom.v)
        elif numer.d is None:
            d = denom.d * _col(-q) / _col(denom.v)
        else:
            d = (numer.d - denom.d * _col(q)) / _col(denom.v)
        return _Lane(q, d)

    def __truediv__(self, other):
        o = _Lane._of(other)
        return NotImplemented if o is None else _Lane._divide(self, o)

    def __rtruediv__(self, other):
        o = _Lane._of(other)
        return NotImplemented if o is None else _Lane._divide(o, self)

    def divide_into(self, numer):
        """Hook for :func:`hamgeo.scalars.divide`: returns numer / self."""
        return _Lane._divide(_Lane._of(numer), self)

    # -- elementary functions: value d0 and slope factor d1 at float(v) ------

    def _chain(self, d0: float, d1: float) -> "_Lane":
        return _Lane(d0, None if self.d is None else self.d * d1)

    def sin(self) -> "_Lane":
        u = float(self)
        return self._chain(scalars.sin(u), scalars.cos(u))

    def cos(self) -> "_Lane":
        u = float(self)
        return self._chain(scalars.cos(u), -scalars.sin(u))

    def exp(self) -> "_Lane":
        e = scalars.exp(float(self))
        return self._chain(e, e)

    def ln(self) -> "_Lane":
        u = float(self)
        return self._chain(scalars.ln(u), scalars.divide(1.0, u))

    def sqrt(self) -> "_Lane":
        u = float(self)
        d0 = scalars.sqrt(u)
        return self._chain(d0, d0 * scalars.divide(1.0, u) * 0.5)

    def pow_float(self, exponent: float) -> "_Lane":
        u = float(self)
        if u <= 0.0:
            raise EvaluationError(
                f"power of non-positive base {u!r} "
                f"with non-integer exponent {exponent!r}"
            )
        d0 = scalars.power(u, exponent)
        return self._chain(d0, d0 * scalars.divide(1.0, u) * exponent)


class Jet:
    """Truncated Taylor expansion of a scalar at a point, up to order 3."""

    __slots__ = ("m", "order", "c0", "c1", "c2", "c3")

    def __init__(self, m, order, c0, c1=None, c2=None, c3=None):
        self.m = m
        self.order = order
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, m: int, order: int) -> "Jet":
        tab = _tables(m)
        c1 = np.zeros(m) if order >= 1 else None
        c2 = np.zeros(tab.n2) if order >= 2 else None
        c3 = np.zeros(tab.n3) if order >= 3 else None
        return cls(m, order, float(value), c1, c2, c3)

    @classmethod
    def variable(cls, slot: int, value: float, m: int, order: int) -> "Jet":
        if not 0 <= slot < m:
            raise DimensionError(f"variable slot {slot} out of range for m={m}")
        jet = cls.constant(value, m, order)
        if order >= 1:
            jet.c1[slot] = 1.0
        return jet

    @property
    def value(self):
        return self.c0

    def __repr__(self):
        return f"Jet(m={self.m}, order={self.order}, value={self.c0!r})"

    # -- coefficient access ------------------------------------------------

    def partial(self, multi_index: Sequence[int]):
        """Partial derivative for an unordered multi-index of slots.

        Factorials are already removed; permutations of the index return
        the identical stored entry.
        """
        idx = tuple(sorted(int(i) for i in multi_index))
        if any(i < 0 or i >= self.m for i in idx):
            raise DimensionError(f"multi-index {idx} out of range for m={self.m}")
        k = len(idx)
        if k > self.order:
            raise ValueError(
                f"multi-index order {k} exceeds jet order {self.order}"
            )
        if k == 0:
            return self.c0
        if k == 1:
            return self.c1[idx[0]]
        tab = _tables(self.m)
        if k == 2:
            return self.c2[tab.pair[idx[0], idx[1]]]
        return self.c3[tab.trip[idx[0], idx[1], idx[2]]]

    def dense(self, order: int) -> np.ndarray:
        """All coefficients of one order as a dense symmetric array.

        The result has shape (m,) * order, and entry [a, b, ...] is
        ``partial((a, b, ...))``; order 0 returns the value.
        """
        if not 0 <= order <= self.order:
            raise ValueError(f"order {order} outside 0..{self.order}")
        if order == 0:
            return self.c0
        if order == 1:
            return self.c1
        tab = _tables(self.m)
        if order == 2:
            return self.c2[tab.pair]
        return self.c3[tab.trip]

    def derivative(self, slot: int) -> "Jet":
        """The jet of the partial derivative along one slot (order drops by 1)."""
        if self.order < 1:
            raise ValueError("derivative needs a jet of order >= 1")
        if not 0 <= slot < self.m:
            raise DimensionError(f"slot {slot} out of range for m={self.m}")
        tab = _tables(self.m)
        c0 = self.c1[slot]
        c1 = self.c2[tab.pair[slot]] if self.order >= 2 else None
        c2 = self.c3[tab.d2[slot]] if self.order >= 3 else None
        return Jet(self.m, self.order - 1, c0, c1, c2, None)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Jet"):
        if other.m != self.m:
            raise DimensionError(f"jet variable counts differ: {self.m} vs {other.m}")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            k = min(self.order, other.order)
            return Jet(
                self.m, k,
                self.c0 + other.c0,
                self.c1 + other.c1 if k >= 1 else None,
                self.c2 + other.c2 if k >= 2 else None,
                self.c3 + other.c3 if k >= 3 else None,
            )
        if isinstance(other, (int, float)):
            return Jet(self.m, self.order, self.c0 + other, self.c1, self.c2, self.c3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            k = min(self.order, other.order)
            return Jet(
                self.m, k,
                self.c0 - other.c0,
                self.c1 - other.c1 if k >= 1 else None,
                self.c2 - other.c2 if k >= 2 else None,
                self.c3 - other.c3 if k >= 3 else None,
            )
        if isinstance(other, (int, float)):
            return Jet(self.m, self.order, self.c0 - other, self.c1, self.c2, self.c3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return (-self) + other
        return NotImplemented

    def __neg__(self):
        k = self.order
        return Jet(
            self.m, k,
            -self.c0,
            -self.c1 if k >= 1 else None,
            -self.c2 if k >= 2 else None,
            -self.c3 if k >= 3 else None,
        )

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            k = min(self.order, other.order)
            tab = _tables(self.m)
            a0, b0 = self.c0, other.c0
            c1 = c2 = c3 = None
            if k >= 1:
                c1 = self.c1 * b0 + other.c1 * a0
            if k >= 2:
                c2 = (
                    self.c2 * b0 + other.c2 * a0
                    + self.c1[tab.p_i] * other.c1[tab.p_j]
                    + self.c1[tab.p_j] * other.c1[tab.p_i]
                )
            if k >= 3:
                c3 = (
                    self.c3 * b0 + other.c3 * a0
                    + self.c2[tab.t_ij] * other.c1[tab.t_k]
                    + self.c2[tab.t_ik] * other.c1[tab.t_j]
                    + self.c2[tab.t_jk] * other.c1[tab.t_i]
                    + self.c1[tab.t_i] * other.c2[tab.t_jk]
                    + self.c1[tab.t_j] * other.c2[tab.t_ik]
                    + self.c1[tab.t_k] * other.c2[tab.t_ij]
                )
            return Jet(self.m, k, a0 * b0, c1, c2, c3)
        if isinstance(other, (int, float)):
            k = self.order
            return Jet(
                self.m, k,
                self.c0 * other,
                self.c1 * other if k >= 1 else None,
                self.c2 * other if k >= 2 else None,
                self.c3 * other if k >= 3 else None,
            )
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def _divide(numer, denom: "Jet") -> "Jet":
        """Quotient rule.  The value is the exact scalar division a0/b0."""
        tab = _tables(denom.m)
        b0 = denom.c0
        if isinstance(b0, (int, float)) and b0 == 0.0:
            raise EvaluationError("division by zero")
        if isinstance(numer, Jet):
            denom._check(numer)
            k = min(numer.order, denom.order)
            a0, a1, a2, a3 = numer.c0, numer.c1, numer.c2, numer.c3
        else:
            k = denom.order
            a0, a1, a2, a3 = numer, None, None, None
        q0 = a0 / b0
        q1 = q2 = q3 = None
        if k >= 1:
            t1 = denom.c1 * (-q0) if a1 is None else a1 - denom.c1 * q0
            q1 = t1 / b0
        if k >= 2:
            t2 = (
                q1[tab.p_i] * denom.c1[tab.p_j]
                + q1[tab.p_j] * denom.c1[tab.p_i]
                + denom.c2 * q0
            )
            q2 = (-t2 if a2 is None else a2 - t2) / b0
        if k >= 3:
            t3 = (
                denom.c3 * q0
                + q1[tab.t_i] * denom.c2[tab.t_jk]
                + q1[tab.t_j] * denom.c2[tab.t_ik]
                + q1[tab.t_k] * denom.c2[tab.t_ij]
                + q2[tab.t_ij] * denom.c1[tab.t_k]
                + q2[tab.t_ik] * denom.c1[tab.t_j]
                + q2[tab.t_jk] * denom.c1[tab.t_i]
            )
            q3 = (-t3 if a3 is None else a3 - t3) / b0
        return Jet(denom.m, k, q0, q1, q2, q3)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return Jet._divide(self, other)
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise EvaluationError("division by zero")
            k = self.order
            return Jet(
                self.m, k,
                self.c0 / other,
                self.c1 / other if k >= 1 else None,
                self.c2 / other if k >= 2 else None,
                self.c3 / other if k >= 3 else None,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet._divide(other, self)
        return NotImplemented

    def divide_into(self, numer):
        """Hook for :func:`hamgeo.scalars.divide`: returns numer / self."""
        return Jet._divide(numer, self)

    def reciprocal(self) -> "Jet":
        return Jet._divide(1.0, self)

    # -- composition with elementary functions ------------------------------

    def _compose(self, d0, d1, d2, d3) -> "Jet":
        """Chain rule for a function with derivatives d0..d3 at ``c0``."""
        k = self.order
        tab = _tables(self.m)
        c1 = c2 = c3 = None
        if k >= 1:
            c1 = self.c1 * d1
        if k >= 2:
            c2 = self.c2 * d1 + self.c1[tab.p_i] * self.c1[tab.p_j] * d2
        if k >= 3:
            c3 = (
                self.c3 * d1
                + (
                    self.c1[tab.t_i] * self.c2[tab.t_jk]
                    + self.c1[tab.t_j] * self.c2[tab.t_ik]
                    + self.c1[tab.t_k] * self.c2[tab.t_ij]
                ) * d2
                + self.c1[tab.t_i] * self.c1[tab.t_j] * self.c1[tab.t_k] * d3
            )
        return Jet(self.m, k, d0, c1, c2, c3)

    def sin(self) -> "Jet":
        s = scalars.sin(self.c0)
        c = scalars.cos(self.c0)
        return self._compose(s, c, -s, -c)

    def cos(self) -> "Jet":
        s = scalars.sin(self.c0)
        c = scalars.cos(self.c0)
        return self._compose(c, -s, -c, s)

    def exp(self) -> "Jet":
        e = scalars.exp(self.c0)
        return self._compose(e, e, e, e)

    def ln(self) -> "Jet":
        d0 = scalars.ln(self.c0)  # raises on non-positive values
        d1 = scalars.divide(1.0, self.c0)
        d2 = -(d1 * d1)
        d3 = d1 * d1 * d1 * 2.0
        return self._compose(d0, d1, d2, d3)

    def sqrt(self) -> "Jet":
        d0 = scalars.sqrt(self.c0)  # raises on non-positive values
        iu = scalars.divide(1.0, self.c0)
        d1 = d0 * iu * 0.5
        d2 = d1 * iu * (-0.5)
        d3 = d2 * iu * (-1.5)
        return self._compose(d0, d1, d2, d3)

    def pow_float(self, exponent: float) -> "Jet":
        """Power rule for a non-integer constant exponent (base must be > 0)."""
        if float(self.c0) <= 0.0:
            raise EvaluationError(
                f"power of non-positive base {float(self.c0)!r} "
                f"with non-integer exponent {exponent!r}"
            )
        d0 = scalars.power(self.c0, exponent)
        iu = scalars.divide(1.0, self.c0)
        d1 = d0 * iu * exponent
        d2 = d1 * iu * (exponent - 1.0)
        d3 = d2 * iu * (exponent - 2.0)
        return self._compose(d0, d1, d2, d3)


# --------------------------------------------------------------------------
# lifting expressions to jets


def jet_lift(expr: Expression, point: PhasePoint, order: int = 3) -> Jet:
    """All partial derivatives of an expression at a point, up to ``order``."""
    if not 0 <= order <= 3:
        raise ValueError(f"jet order must be in 0..3, got {order}")
    flat = point.flat
    m = len(flat)
    seeds = [Jet.variable(s, flat[s], m, order) for s in range(m)]
    result = evaluate(expr, seeds)
    if not isinstance(result, Jet):
        result = Jet.constant(float(result), m, order)
    return result


def nested_jet_lift(expr: Expression, point: PhasePoint, outer_order: int = 3) -> Jet:
    """Evaluate over order-``outer_order`` jets whose coefficients are lanes.

    The outer coefficient at multi-index alpha is then the order-1 jet of
    the function z -> (d_alpha expr)(z): its value (``.c0``) is the plain
    partial and its slopes (``.c1``) hold the partials one order higher.
    With the default outer order 3 this exposes exact fourth derivatives.
    Every coefficient of the result carries dense float slopes.
    """
    if not 1 <= outer_order <= 3:
        raise ValueError(f"outer order must be in 1..3, got {outer_order}")
    flat = point.flat
    m = len(flat)
    tab = _tables(m)
    sizes = (m, tab.n2, tab.n3)[:outer_order]
    seeds = []
    for s in range(m):
        unit = np.zeros(m)
        unit[s] = 1.0
        coeffs = [_Lane(unit, None)]
        coeffs += [_Lane(np.zeros(size), None) for size in sizes[1:]]
        seeds.append(Jet(m, outer_order, _Lane(float(flat[s]), unit), *coeffs))
    # lanes overflow to inf and nan silently, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(expr, seeds)
    if not isinstance(result, Jet):
        result = Jet(
            m, outer_order, _Lane(float(result), None),
            *[_Lane(np.zeros(size), None) for size in sizes],
        )
    lanes = [result.c0, result.c1, result.c2, result.c3][: outer_order + 1]
    lanes = [
        lane if lane.d is not None
        else _Lane(lane.v, np.zeros(np.shape(lane.v) + (m,)))
        for lane in lanes
    ]
    return Jet(m, outer_order, *lanes)


# --------------------------------------------------------------------------
# finite-difference oracle

#: Central-difference step per total derivative order, tuned for unit-scale
#: data: large enough to dodge roundoff, small enough for the O(h^2) bias.
FD_STEPS = {1: 1e-6, 2: 1e-4, 3: 1e-3}


def fd_oracle(expr: Expression, point: PhasePoint, multi_index: Sequence[int]) -> float:
    """Composed central finite differences for derivatives up to order 3.

    Uses 2^k expression evaluations with one step size chosen by the total
    order k.  Domain errors at stencil points propagate.
    """
    multi = tuple(int(i) for i in multi_index)
    flat = point.flat
    if any(i < 0 or i >= len(flat) for i in multi):
        raise DimensionError(f"multi-index {multi} out of range for 2n={len(flat)}")
    if not multi:
        return float(evaluate(expr, flat))
    if len(multi) > 3:
        raise ValueError(f"finite-difference oracle supports order <= 3, got {len(multi)}")
    h = FD_STEPS[len(multi)]

    def recurse(values: tuple, idxs: tuple) -> float:
        if not idxs:
            return evaluate(expr, values)
        z, rest = idxs[0], idxs[1:]
        plus = values[:z] + (values[z] + h,) + values[z + 1:]
        minus = values[:z] + (values[z] - h,) + values[z + 1:]
        return (recurse(plus, rest) - recurse(minus, rest)) / (2.0 * h)

    return float(recurse(flat, multi))
