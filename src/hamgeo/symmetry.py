"""Symmetry diagnostics for Hamiltonian flows, as pointwise residuals.

Each notion of symmetry (infinitesimal symmetry of the flow, Newtonoid
field, natural symmetry via complete lift, Noether symmetry, conservation
law) becomes a residual: a vector or matrix that vanishes exactly when the
property holds at the given point.  Field-level verdicts are conjunctions
of pointwise verdicts over a sampled box.

Ordering conventions: phase coordinates are (x^1..x^n, p_1..p_n); the
symplectic form is dp_i ^ dx^i and the tautological one-form is p_i dx^i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .expr import (
    BaseVectorFieldSpec,
    Expression,
    HamiltonianSpec,
    Var,
    VectorFieldSpec,
    _add,
    _differentiate,
    _mul,
    _neg,
    hamiltonian_field_spec,
)
from .geometry import _workspace, nabla_vector_field
from .jets import jet_lift
from .phase import PhasePoint

__all__ = [
    "lie_bracket",
    "symmetry_residual",
    "newtonoid_residual",
    "newtonoid_lift",
    "newtonoid_invariant_residual",
    "complete_lift",
    "natural_symmetry_residual",
    "liouville_residual",
    "noether_residual",
    "invariant_equation_residual",
    "star_product",
    "invariant_vector_field_check",
    "momentum_map",
    "noether_from_conservation",
    "ConservedSymmetry",
    "symplectic_matrix",
    "field_verdict",
]


def _component_jets(field: VectorFieldSpec, point: PhasePoint, order: int = 1):
    if field.dim != point.dim:
        raise DimensionError(
            f"field has dimension {field.dim}, point {point.dim}"
        )
    return [
        jet_lift(comp, point, order=order)
        for comp in field.x_components + field.p_components
    ]


def _values(jets) -> np.ndarray:
    return np.array([j.c0 for j in jets])


def lie_bracket(
    x_field: VectorFieldSpec, y_field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Coordinate Lie bracket [X, Y] evaluated at a point (2n components)."""
    if x_field.dim != y_field.dim:
        raise DimensionError(
            f"bracket of fields of dimensions {x_field.dim} and {y_field.dim}"
        )
    xj = _component_jets(x_field, point)
    yj = _component_jets(y_field, point)
    m = 2 * x_field.dim
    return np.array(
        [
            sum(xj[b].c0 * yj[a].c1[b] - yj[b].c0 * xj[a].c1[b] for b in range(m))
            for a in range(m)
        ]
    )


def symmetry_residual(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """[rho_H, X] at the point; zero iff X generates a flow symmetry there."""
    return lie_bracket(hamiltonian_field_spec(ham), field, point)


def newtonoid_residual(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Vertical components g_ij [rho_H, X]^j of the bracket's x-part.

    Zero iff X is a Newtonoid field at the point: the bracket with the flow
    is purely vertical.
    """
    ws = _workspace(ham, point)
    bracket_x = symmetry_residual(ham, field, point)[: ws.n]
    return ws.L @ bracket_x


def newtonoid_lift(ham: HamiltonianSpec, x_components, point: PhasePoint):
    """Momentum components completing given x-components to a Newtonoid.

    Y_k = g_ki ( rho_H(X^i) - X^j d2H/dp_i dx^j ); returns the pair of
    value arrays (X^i(P), Y_k(P)).
    """
    ws = _workspace(ham, point)
    n = ws.n
    comps = tuple(x_components)
    if len(comps) != n:
        raise DimensionError(f"expected {n} x-components, got {len(comps)}")
    jets = [jet_lift(c, point, order=1) for c in comps]
    values = _values(jets)
    rhs = np.array(
        [
            sum(ws.flow[z] * jets[i].c1[z] for z in range(ws.m))
            - sum(values[j] * ws.A[i][j] for j in range(n))
            for i in range(n)
        ]
    )
    return values, ws.L @ rhs


def newtonoid_invariant_residual(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Residual of the covariant Newtonoid characterization.

    Compares the vertical part of X against the metric-lowered horizontal
    part of nabla X; both routes use the canonical connection.  Zero on
    Newtonoid fields.
    """
    ws = _workspace(ham, point)
    n = ws.n
    jets = _component_jets(field, point)
    values = _values(jets)
    vertical = values[n:] - values[:n] @ ws.N
    nabla = nabla_vector_field(ham, field, point)
    return vertical - ws.L @ nabla[:n]


def complete_lift(base_field: BaseVectorFieldSpec) -> VectorFieldSpec:
    """Cotangent lift of a base vector field, built symbolically.

    The momentum components are -p_j dX^j/dx^i, the sign being pinned by
    invariance of the tautological one-form (see liouville_residual).
    """
    n = base_field.dim
    p_components = []
    for i in range(n):
        total: Expression = _mul(
            Var("p", 1), _differentiate(base_field.components[0], Var("x", i + 1))
        )
        for j in range(1, n):
            total = _add(
                total,
                _mul(
                    Var("p", j + 1),
                    _differentiate(base_field.components[j], Var("x", i + 1)),
                ),
            )
        p_components.append(_neg(total))
    return VectorFieldSpec(n, base_field.components, tuple(p_components))


def natural_symmetry_residual(
    ham: HamiltonianSpec, base_field: BaseVectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """[rho_H, complete lift of the base field] at the point."""
    return symmetry_residual(ham, complete_lift(base_field), point)


def liouville_residual(field: VectorFieldSpec, point: PhasePoint) -> np.ndarray:
    """Components of the Lie derivative of the tautological one-form.

    Returns 2n coefficients (on dx^j then dp_j):
    (L_X theta)_xj = Y_j + p_i dX^i/dx^j, (L_X theta)_pj = p_i dX^i/dp_j.
    Complete lifts make every component vanish.
    """
    jets = _component_jets(field, point)
    n = field.dim
    p = np.array(point.p)
    x_part = np.array(
        [
            jets[n + j].c0 + sum(p[i] * jets[i].c1[j] for i in range(n))
            for j in range(n)
        ]
    )
    p_part = np.array(
        [sum(p[i] * jets[i].c1[n + j] for i in range(n)) for j in range(n)]
    )
    return np.concatenate([x_part, p_part])


def symplectic_matrix(n: int) -> np.ndarray:
    """Matrix of dp_i ^ dx^i in the (x, p) coordinate ordering."""
    s = np.zeros((2 * n, 2 * n))
    for i in range(n):
        s[i, n + i] = -1.0
        s[n + i, i] = 1.0
    return s


def noether_residual(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
):
    """Pair (matrix of L_X omega, X(H)) at the point.

    Both must vanish for a Noether symmetry.  The matrix is the Jacobian
    contraction J^T S + S J, antisymmetric by construction.
    """
    ws = _workspace(ham, point)
    jets = _component_jets(field, point)
    m = ws.m
    jac = np.array([[jets[a].c1[b] for b in range(m)] for a in range(m)])
    s = symplectic_matrix(ws.n)
    lie_omega = jac.T @ s + s @ jac
    grad_h = np.concatenate([-ws.chi, ws.xi])
    return lie_omega, float(_values(jets) @ grad_h)


def invariant_equation_residual(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Residual of the second-order invariant equation on the lowered field.

    With V_j = g_ij X^i and the covariant derivative acting through the
    nabla_v coefficients, returns (nabla nabla V)_j + Phi_ij X^i.  Vanishes
    for fields that are simultaneously symmetries and Newtonoids.
    """
    ws = _workspace(ham, point)
    n = ws.n
    if field.dim != n:
        raise DimensionError(f"field has dimension {field.dim}, expected {n}")
    x_jets = [jet_lift(c, point, order=2) for c in field.x_components]
    x = _values(x_jets)
    dx = np.array([j.c1 for j in x_jets])  # [i][z]
    ddx = np.array([j.dense(2) for j in x_jets])  # [i][z][w]
    flow, L, dL = ws.flow, ws.L, ws.dL

    # V_j = L_ij X^i, its slopes dv[z][j] and their flow derivatives
    # rho_dv[z][j] = sum_w flow_w d2V_j / dz dw
    v = x @ L
    dv = x @ dL + dx.T @ L
    rho_dv = (
        np.einsum("w,zwij,i->zj", flow, ws.d2L, x)
        + (dx @ flow) @ dL
        + dx.T @ ws.rho(dL)
        + (ddx @ flow).T @ L
    )
    # D = nabla_v = A + G N and its slopes
    d = ws.nabla_v
    dd = ws.dA + ws.dG @ ws.N + ws.G @ ws.dN
    # U = nabla V = rho(V) + V D with its slopes, then nabla U at the point
    u = flow @ dv + v @ d
    du = ws.dflow @ dv + rho_dv + dv @ d + np.einsum("j,zji->zi", v, dd)
    return flow @ du + u @ d + x @ ws.Phi


def _vertical_lower(ws, vector: np.ndarray) -> np.ndarray:
    """The vertical endomorphism after lowering: (V_x, V_p) -> (0, g V_x)."""
    out = np.zeros(ws.m)
    out[ws.n:] = ws.L @ vector[: ws.n]
    return out


def star_product(
    f: Expression,
    field: VectorFieldSpec,
    ham: HamiltonianSpec,
    point: PhasePoint,
) -> np.ndarray:
    """Function-module product on Newtonoid fields, evaluated pointwise.

    f * X = f X + f J_H[rho_H, X] + rho_H(f) J_H X, where J_H lowers the
    x-part into vertical components.  For Newtonoid X the middle term drops
    and the product stays Newtonoid.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    f_jet = jet_lift(f, point, order=1)
    rho_f = float(ws.flow @ np.asarray(f_jet.c1, dtype=float))
    values = _values(_component_jets(field, point))
    bracket = symmetry_residual(ham, field, point)
    return (
        f_jet.c0 * values
        + f_jet.c0 * _vertical_lower(ws, bracket)
        + rho_f * _vertical_lower(ws, values)
    )


def invariant_vector_field_check(
    ham: HamiltonianSpec, base_field: BaseVectorFieldSpec, point: PhasePoint
) -> float:
    """Derivative of H along the complete lift; zero iff the lifted field
    leaves the Hamiltonian invariant at the point."""
    ws = _workspace(ham, point)
    lift = complete_lift(base_field)
    values = _values(_component_jets(lift, point))
    grad_h = np.concatenate([-ws.chi, ws.xi])
    return float(values @ grad_h)


def momentum_map(base_field: BaseVectorFieldSpec, point: PhasePoint) -> float:
    """Pairing p_i X^i(x) of the momenta with a base field: the conserved
    quantity of a natural symmetry."""
    from .expr import evaluate

    if base_field.dim != point.dim:
        raise DimensionError(
            f"field has dimension {base_field.dim}, point {point.dim}"
        )
    return float(
        sum(
            point.p[i] * evaluate(comp, point)
            for i, comp in enumerate(base_field.components)
        )
    )


@dataclass(frozen=True)
class ConservedSymmetry:
    """Noether symmetry reconstructed from a conserved quantity.

    ``field`` solves i_X omega = -df symbolically; the residual entries
    diagnose how exactly the construction closes: ``lie_omega`` vanishes
    identically, ``hamiltonian_derivative`` equals X(H) (zero iff f is
    conserved), ``flow_derivative`` is rho_H(f) = -X(H), and
    ``conservation_value`` is f - theta(X).
    """

    field: VectorFieldSpec
    field_values: np.ndarray
    lie_omega: np.ndarray
    hamiltonian_derivative: float
    flow_derivative: float
    conservation_value: float


def noether_from_conservation(
    f: Expression, ham: HamiltonianSpec, point: PhasePoint
) -> ConservedSymmetry:
    """Invert a conserved quantity into its Noether symmetry.

    X^i = df/dp_i and Y_i = -df/dx^i are built symbolically; numeric
    diagnostics come from one order-2 jet of f, so the symplectic residual
    cancels exactly by symmetry of the packed Hessian.
    """
    ws = _workspace(ham, point)
    n, m = ws.n, ws.m
    field = VectorFieldSpec(
        n,
        tuple(_differentiate(f, Var("p", i + 1)) for i in range(n)),
        tuple(_neg(_differentiate(f, Var("x", i + 1))) for i in range(n)),
    )
    f_jet = jet_lift(f, point, order=2)
    values = np.concatenate([f_jet.c1[n:], -f_jet.c1[:n]])
    jac = np.empty((m, m))
    for i in range(n):
        for b in range(m):
            jac[i, b] = f_jet.partial((n + i, b))
            jac[n + i, b] = -f_jet.partial((i, b))
    s = symplectic_matrix(n)
    lie_omega = jac.T @ s + s @ jac
    grad_h = np.concatenate([-ws.chi, ws.xi])
    x_of_h = float(values @ grad_h)
    rho_f = float(ws.flow @ np.asarray(f_jet.c1, dtype=float))
    theta = float(sum(point.p[i] * values[i] for i in range(n)))
    return ConservedSymmetry(
        field=field,
        field_values=values,
        lie_omega=lie_omega,
        hamiltonian_derivative=x_of_h,
        flow_derivative=rho_f,
        conservation_value=float(f_jet.c0) - theta,
    )


def field_verdict(residual_fn, points, tol: float):
    """Conjunction of pointwise residual checks over a sampled set.

    ``residual_fn`` maps a point to a scalar or array residual; returns
    (all points within tol, worst absolute residual).
    """
    worst = 0.0
    for point in points:
        worst = max(worst, float(np.max(np.abs(residual_fn(point)))))
    return worst < tol, worst
