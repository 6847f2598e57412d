"""Pointwise geometry of a regular Hamiltonian on a cotangent bundle.

Everything here is a function of a Hamiltonian and one phase point: the
momentum Hessian metric and its inverse, the Hamiltonian vector field, the
canonical nonlinear connection, its curvature, the Jacobi endomorphism,
the coefficients of the dynamical covariant derivative, and the Berwald
connection coefficients, together with the residuals of the tensor
identities those objects satisfy.

All derivatives of H come from one nested-jet evaluation per
(Hamiltonian, point) pair, an order-3 jet whose coefficients are float
lanes: values plus order-1 slopes.  Their dense float arrays are read off
at once: the gradient, the Hessian, the third derivatives and, from the
slopes of the third, the fourth derivatives d4H/dp_i dp_j dz dw.  Every
other object is a closed-form tensor formula in those, evaluated with
``einsum`` and ``@``; the derivatives of the metric follow from
d(G^-1) = -G^-1 dG G^-1, so they are exact, never finite differences.

Index conventions (0-based slots): x^i is slot i, p_i is slot n+i.
A[k][j] = d2H/dp_k dx^j, B[i][j] = d2H/dx^i dx^j, G[i][j] = d2H/dp_i dp_j,
L = G^-1.  A leading axis z on a tensor's derivative holds d/d(slot z):
dG[z][i][j] = dG_ij/d(slot z), d2L[z][w][i][j] = d2L_ij/d(slot z)d(slot w).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionError,
    EvaluationError,
    HorizontalityError,
    RegularityError,
)
from .expr import Expression, HamiltonianSpec, VectorFieldSpec
from .jets import jet_lift, nested_jet_lift
from .phase import PhasePoint

__all__ = [
    "GeometryReport",
    "BerwaldCoefficients",
    "metric",
    "metric_rcond",
    "hamiltonian_vector_field",
    "connection",
    "connection_general",
    "adapted_derivative",
    "curvature",
    "jacobi_endomorphism",
    "jacobi_via_curvature",
    "is_horizontal",
    "nabla_coefficients",
    "berwald_coefficients",
    "nabla_J_residual",
    "nabla_metric_residual",
    "nabla_vector_field",
    "geometry_report",
    "RCOND_FLOOR",
]

#: Reciprocal-condition threshold below which the momentum Hessian is
#: treated as singular and geometry is refused.
RCOND_FLOOR = 1e-12


def _rcond(matrix: np.ndarray) -> float:
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    top = float(singular_values[0])
    if top == 0.0:
        return 0.0
    return float(singular_values[-1]) / top


def _inverse_derivatives(inv: np.ndarray, d_mat: np.ndarray) -> np.ndarray:
    """d(M^-1)[z] = -M^-1 dM[z] M^-1 for stacked slopes dM[z]."""
    return -(inv @ d_mat @ inv)


# --------------------------------------------------------------------------
# per-(Hamiltonian, point) workspace


class _Workspace:
    """All tensors of one Hamiltonian at one point.

    The derivative tensors of H are unpacked once, at construction, which
    raises :class:`EvaluationError` if any of them is not finite; every
    geometric object is a cached float formula in them.
    """

    def __init__(self, ham: HamiltonianSpec, point: PhasePoint):
        if point.dim != ham.dim:
            raise DimensionError(
                f"point has dimension {point.dim}, Hamiltonian {ham.dim}"
            )
        self.ham = ham
        self.point = point
        n = self.n = ham.dim
        self.m = 2 * ham.dim

        lift = nested_jet_lift(ham.expr, point)
        if not all(
            np.isfinite(t).all()
            for t in (lift.c1.v, lift.c2.v, lift.c3.v, lift.c3.d)
        ):
            raise EvaluationError(
                f"derivatives of {ham.name!r} up to order 4 are not finite "
                f"at {point}"
            )
        grad = lift.dense(1).v
        hess = lift.dense(2).v
        top = lift.dense(3)
        third, fourth = top.v, top.d

        #: (xi^1..xi^n, chi_1..chi_n) = (dH/dp, -dH/dx) and its slopes
        #: dflow[z][a] = d flow_a / d(slot z)
        self.flow = np.concatenate([grad[n:], -grad[:n]])
        self.dflow = np.concatenate([hess[:, n:], -hess[:, :n]], axis=1)
        self.A = hess[n:, :n].copy()
        self.B = hess[:n, :n].copy()
        self.G = hess[n:, n:].copy()
        self.dA = np.ascontiguousarray(third[n:, :n].transpose(2, 0, 1))
        self.dG = np.ascontiguousarray(third[n:, n:].transpose(2, 0, 1))
        self.d2G = np.ascontiguousarray(fourth[n:, n:].transpose(2, 3, 0, 1))

    @property
    def xi(self) -> np.ndarray:
        return self.flow[: self.n]

    @property
    def chi(self) -> np.ndarray:
        return self.flow[self.n:]

    def rho(self, slopes: np.ndarray) -> np.ndarray:
        """Derivative along the flow of a tensor given its slopes[z]."""
        return np.tensordot(self.flow, slopes, axes=1)

    def delta(self, slopes: np.ndarray) -> np.ndarray:
        """Adapted x-derivatives of a tensor given its slopes[z].

        The result's leading axis is the adapted direction i:
        d/dx^i + N_il d/dp_l.
        """
        n = self.n
        return slopes[:n] + np.tensordot(self.N, slopes[n:], axes=1)

    def bracket(self, values: np.ndarray, jac: np.ndarray) -> np.ndarray:
        """[rho_H, Y] at the point, from Y's values and jac[a][z] = dY^a/dz."""
        return jac @ self.flow - values @ self.dflow

    # -- metric ---------------------------------------------------------------

    @cached_property
    def rcond(self) -> float:
        return _rcond(self.G)

    def require_regular(self):
        if not np.isfinite(self.rcond) or self.rcond < RCOND_FLOOR:
            raise RegularityError(
                f"momentum Hessian of {self.ham.name!r} is singular at "
                f"{self.point} (reciprocal condition {self.rcond:.3e})",
                rcond=self.rcond,
            )

    @cached_property
    def L(self) -> np.ndarray:
        self.require_regular()
        return np.linalg.inv(self.G)

    @cached_property
    def dL(self) -> np.ndarray:
        return _inverse_derivatives(self.L, self.dG)

    @cached_property
    def d2L(self) -> np.ndarray:
        """d2L[z][w] = (E_w E_z + E_z E_w - L d2G[z][w]) L with E = L dG."""
        e = self.L @ self.dG
        ee = np.einsum("wij,zjk->zwik", e, e)
        return (ee + ee.swapaxes(0, 1) - self.L @ self.d2G) @ self.L

    # -- canonical nonlinear connection --------------------------------------

    @cached_property
    def N(self) -> np.ndarray:
        """Canonical connection coefficients.

        N_ij = ({g_ij, H} - (L A)_ij - (L A)_ji) / 2, where the bracket
        convention is fixed by the worked example: {g, H} is minus the
        derivative of g_ij along the Hamiltonian vector field.  With
        s = rho(L) + 2 L A this is -(s + s^T) / 4, which is symmetric to
        the last bit.
        """
        s = self.rho(self.dL) + 2.0 * (self.L @ self.A)
        return -0.25 * (s + s.transpose())

    @cached_property
    def dN(self) -> np.ndarray:
        """dN[z][i][j] = d N_ij / d(slot z), the slope of the formula for N."""
        ds = (
            np.tensordot(self.dflow, self.dL, axes=1)
            + np.einsum("w,zwij->zij", self.flow, self.d2L)
            + 2.0 * (self.dL @ self.A + self.L @ self.dA)
        )
        return -0.25 * (ds + ds.transpose(0, 2, 1))

    @cached_property
    def R3(self) -> np.ndarray:
        """Curvature R[i][j][k] = delta_i N_jk - delta_j N_ik."""
        delta_n = self.delta(self.dN)
        return delta_n - delta_n.transpose(1, 0, 2)

    @cached_property
    def Phi(self) -> np.ndarray:
        return (
            self.A.T @ self.N
            + self.N @ self.A
            + self.N @ self.G @ self.N
            + self.B
            + self.rho(self.dN)
        )

    @cached_property
    def Phi_contraction(self) -> np.ndarray:
        return np.einsum("k,kij->ij", self.xi, self.R3)

    # -- covariant-derivative coefficients -----------------------------------

    @cached_property
    def nabla_v(self) -> np.ndarray:
        """nabla_v[j][i]: coefficient of d/dp_i in the covariant derivative
        of d/dp_j along the flow."""
        return self.A + self.G @ self.N

    @cached_property
    def nabla_h(self) -> np.ndarray:
        return -(self.nabla_v.T)

    @cached_property
    def horizontality_residual(self) -> np.ndarray:
        return self.chi - self.xi @ self.N

    # -- Berwald connection ---------------------------------------------------

    @cached_property
    def berwald(self) -> "BerwaldCoefficients":
        n, L, dN = self.n, self.L, self.dN
        delta_l = self.delta(self.dL)  # [i][j][k]
        hh = (delta_l - np.einsum("jr,rik->ijk", L, dN[n:])) @ self.G
        hv = -dN[n:].transpose(1, 0, 2)
        vv = self.dG[n:] @ L
        return BerwaldCoefficients(
            hh=hh, hv=hv, vh=np.zeros((n, n, n)), vv=vv
        )


#: Workspaces kept per process, least recently used evicted first: ten
#: times a shipped 100-point sample cloud, which the CLI revisits once per
#: (field, notion), while a long sweep over fresh points stays bounded.
_WORKSPACE_CACHE_SIZE = 1024


@lru_cache(maxsize=_WORKSPACE_CACHE_SIZE)
def _workspace(ham: HamiltonianSpec, point: PhasePoint) -> _Workspace:
    return _Workspace(ham, point)


# --------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class BerwaldCoefficients:
    """Coefficient families of the Berwald linear connection.

    ``hh[i][j][s]``: horizontal output of transporting the i-th adapted
    x-direction along the j-th; ``hv[i][j][r]``: vertical output on the
    vertical basis; ``vh`` is identically zero; ``vv[i][j][s]``: vertical
    transport of vertical directions.
    """

    hh: np.ndarray
    hv: np.ndarray
    vh: np.ndarray
    vv: np.ndarray


@dataclass(frozen=True)
class GeometryReport:
    """Every pointwise tensor of one Hamiltonian at one phase point."""

    point: PhasePoint
    g_upper: np.ndarray
    g_lower: np.ndarray
    xi: np.ndarray
    chi: np.ndarray
    N: np.ndarray
    R3: np.ndarray
    Phi: np.ndarray
    nabla_h: np.ndarray
    nabla_v: np.ndarray
    berwald: BerwaldCoefficients
    horizontal: bool
    horizontality_residual: np.ndarray
    rcond: float


# --------------------------------------------------------------------------
# public operations


def metric(ham: HamiltonianSpec, point: PhasePoint):
    """Momentum Hessian g^{ij} and its inverse g_{ij} at one point."""
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.G.copy(), ws.L.copy()


def metric_rcond(ham: HamiltonianSpec, point: PhasePoint) -> float:
    """Reciprocal condition estimate of the momentum Hessian."""
    return _workspace(ham, point).rcond


def hamiltonian_vector_field(ham: HamiltonianSpec, point: PhasePoint):
    """Components (xi^i, chi_i) = (dH/dp_i, -dH/dx^i)."""
    ws = _workspace(ham, point)
    return ws.xi.copy(), ws.chi.copy()


def connection(ham: HamiltonianSpec, point: PhasePoint) -> np.ndarray:
    """Coefficients N_ij of the canonical nonlinear connection."""
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.N.copy()


def connection_general(rho: VectorFieldSpec, point: PhasePoint) -> np.ndarray:
    """Connection induced by a regular vector field (xi^i, chi_i).

    N_ij = ( t_ik dchi_j/dp_k - t_kj dxi^k/dx^i - rho(t_ij) ) / 2, where
    t_ij inverts t^{ij} = dxi^j/dp_i.  Needs no Hamiltonian: for the
    Hamiltonian vector field it reproduces :func:`connection`.
    """
    n = rho.dim
    if point.dim != n:
        raise DimensionError(f"point has dimension {point.dim}, field {n}")
    xi_jets = [jet_lift(e, point, order=2) for e in rho.x_components]
    chi_jets = [jet_lift(e, point, order=1) for e in rho.p_components]
    flow = np.array([j.c0 for j in xi_jets] + [j.c0 for j in chi_jets])
    d_xi = np.array([j.c1 for j in xi_jets])  # [k][z] = dxi^k/dz
    d_chi = np.array([j.c1 for j in chi_jets])  # [j][z] = dchi_j/dz
    dd_xi = np.array([j.dense(2) for j in xi_jets])  # [k][a][z]

    t_up = d_xi[:, n:].T
    rcond = _rcond(t_up)
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise RegularityError(
            f"field is not regular at {point}: dxi/dp has reciprocal "
            f"condition {rcond:.3e}",
            rcond=rcond,
        )
    t_low = np.linalg.inv(t_up)
    # dt_up[z][i][j] = d2 xi^j / dp_i dz
    d_t_low = _inverse_derivatives(t_low, dd_xi[:, n:].transpose(2, 1, 0))
    rho_t = np.tensordot(flow, d_t_low, axes=1)
    first = t_low @ d_chi[:, n:].T
    second = d_xi[:, :n].T @ t_low
    return 0.5 * (first - second - rho_t)


def adapted_derivative(ham: HamiltonianSpec, point: PhasePoint, f) -> np.ndarray:
    """Adapted-basis derivatives (delta f / delta x^i) of a scalar.

    ``f`` may be an Expression or an order >= 1 jet at the same point.
    delta f/dx^i = df/dx^i + N_ij df/dp_j.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    if isinstance(f, Expression):
        f = jet_lift(f, point, order=1)
    if f.order < 1 or f.m != ws.m:
        raise DimensionError("need an order >= 1 jet in the 2n phase variables")
    return ws.delta(np.asarray(f.c1, dtype=float))


def curvature(ham: HamiltonianSpec, point: PhasePoint) -> np.ndarray:
    """Curvature tensor R_ijk of the canonical nonlinear connection."""
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.R3.copy()


def jacobi_endomorphism(ham: HamiltonianSpec, point: PhasePoint) -> np.ndarray:
    """Jacobi endomorphism coefficients via the direct second-order formula."""
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.Phi.copy()


def jacobi_via_curvature(ham: HamiltonianSpec, point: PhasePoint) -> np.ndarray:
    """Jacobi endomorphism as the curvature contraction R_kij xi^k.

    Agrees with :func:`jacobi_endomorphism` wherever the Hamiltonian
    vector field is horizontal.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.Phi_contraction.copy()


def is_horizontal(ham: HamiltonianSpec, point: PhasePoint, tol: float = 1e-10):
    """Whether the Hamiltonian vector field is horizontal at the point.

    Returns (flag, residual) with residual_i = chi_i - xi^k N_ki.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    residual = ws.horizontality_residual.copy()
    return bool(np.max(np.abs(residual)) < tol), residual


def nabla_coefficients(ham: HamiltonianSpec, point: PhasePoint):
    """Coefficient matrices (nabla_h, nabla_v) of the dynamical covariant
    derivative on the adapted basis; nabla_h = -nabla_v transposed."""
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.nabla_h.copy(), ws.nabla_v.copy()


def berwald_coefficients(ham: HamiltonianSpec, point: PhasePoint) -> BerwaldCoefficients:
    ws = _workspace(ham, point)
    ws.require_regular()
    return ws.berwald


def nabla_J_residual(ham: HamiltonianSpec, N_matrix, point: PhasePoint) -> np.ndarray:
    """Residual of the covariant constancy of the adapted tangent structure.

    residual_ij = rho_H(g_ij) + g_kj dxi^k/dx^i - g_ik dchi_j/dp_k + 2 N_ij
    for a caller-supplied symmetric candidate N.  Vanishes exactly when N
    is the canonical connection and is affine in N.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    n = ws.n
    cand = np.asarray(N_matrix, dtype=float)
    if cand.shape != (n, n):
        raise DimensionError(f"candidate connection must be {n}x{n}")
    return ws.rho(ws.dL) + ws.A.T @ ws.L + ws.L @ ws.A + 2.0 * cand


def nabla_metric_residual(
    ham: HamiltonianSpec, point: PhasePoint, N_matrix=None
) -> np.ndarray:
    """Residual of the covariant derivative of the vertical metric tensor.

    With coefficients D = nabla_v built from the supplied connection
    (canonical if omitted): residual = rho_H(g_upper) - D g - g D^T.  The
    sign and index placement are pinned by the requirement that the
    canonical connection annihilates the metric.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    n = ws.n
    if N_matrix is None:
        cand = ws.N
    else:
        cand = np.asarray(N_matrix, dtype=float)
        if cand.shape != (n, n):
            raise DimensionError(f"candidate connection must be {n}x{n}")
    coeffs = ws.A + ws.G @ cand
    return ws.rho(ws.dG) - coeffs @ ws.G - ws.G @ coeffs.T


# --------------------------------------------------------------------------
# the dynamical covariant derivative as an operator on vector fields


def _adapted_parts(ws: _Workspace, field: VectorFieldSpec, point: PhasePoint):
    """Values and slopes of a field's adapted components at the point.

    Returns (a, da), (aN, d_aN) and (b, db) for the horizontal components
    a = Y_x, their image aN = a.N and the vertical components b = Y_p - aN;
    slopes are indexed [component][slot].
    """
    n = ws.n
    if field.dim != n:
        raise DimensionError(f"field has dimension {field.dim}, expected {n}")
    jets = [
        jet_lift(e, point, order=1)
        for e in field.x_components + field.p_components
    ]
    values = np.array([j.c0 for j in jets])
    jac = np.array([j.c1 for j in jets])
    a, da = values[:n], jac[:n]
    a_n = a @ ws.N
    d_a_n = ws.N.T @ da + np.einsum("k,zki->iz", a, ws.dN)
    return (a, da), (a_n, d_a_n), (values[n:] - a_n, jac[n:] - d_a_n)


def nabla_vector_field(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Covariant derivative of a field along the flow, in the natural basis.

    nabla Y = h[rho_H, hY] + v[rho_H, vY] with the canonical-connection
    projectors; returns the 2n components at the point.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    (a, da), (a_n, d_a_n), (b, db) = _adapted_parts(ws, field, point)

    # brackets with the projections hY = (a, a.N) and vY = (0, b)
    zero, zero_jac = np.zeros_like(b), np.zeros_like(db)
    br_h = ws.bracket(np.concatenate([a, a_n]), np.vstack([da, d_a_n]))
    br_v = ws.bracket(np.concatenate([zero, b]), np.vstack([zero_jac, db]))
    # float-level projections of the two brackets, then back to natural basis
    n = ws.n
    h_part_x = br_h[:n]
    v_part_p = br_v[n:] - br_v[:n] @ ws.N
    return np.concatenate([h_part_x, h_part_x @ ws.N + v_part_p])


def berwald_vs_nabla(
    ham: HamiltonianSpec, field: VectorFieldSpec, point: PhasePoint
) -> np.ndarray:
    """Difference between the Berwald transport along the flow and nabla.

    Both sides are computed independently: the Berwald route expands the
    linear connection on the adapted components of the field, the other
    route uses the bracket formula of :func:`nabla_vector_field`.  The
    underlying equality assumes the flow is horizontal; violating that
    precondition raises :class:`HorizontalityError`.
    """
    ws = _workspace(ham, point)
    ws.require_regular()
    if field.dim != ws.n:
        raise DimensionError(f"field has dimension {field.dim}, expected {ws.n}")
    residual = ws.horizontality_residual
    worst = float(np.max(np.abs(residual)))
    if worst >= 1e-8:
        raise HorizontalityError(
            f"flow is not horizontal at {point} "
            f"(max residual {worst:.3e}); the transport equality does not apply",
            residual=residual,
        )

    n = ws.n
    (a, da), _, (b, db) = _adapted_parts(ws, field, point)
    xi, w = ws.xi, residual
    bw = ws.berwald
    out_h = (
        xi @ ws.delta(da.T)
        + np.einsum("i,j,ijs->s", xi, a, bw.hh)
        + da[:, n:] @ w
    )
    out_v = (
        xi @ ws.delta(db.T)
        + np.einsum("i,j,ijr->r", xi, b, bw.hv)
        + db[:, n:] @ w
        + np.einsum("i,j,ijr->r", w, b, bw.vv)
    )
    transport = np.concatenate([out_h, out_h @ ws.N + out_v])
    return transport - nabla_vector_field(ham, field, point)


def geometry_report(
    ham: HamiltonianSpec, point: PhasePoint, tol: float = 1e-10
) -> GeometryReport:
    """Every pointwise tensor at once (used by the command-line report)."""
    ws = _workspace(ham, point)
    ws.require_regular()
    horizontal, residual = is_horizontal(ham, point, tol)
    return GeometryReport(
        point=point,
        g_upper=ws.G.copy(),
        g_lower=ws.L.copy(),
        xi=ws.xi.copy(),
        chi=ws.chi.copy(),
        N=ws.N.copy(),
        R3=ws.R3.copy(),
        Phi=ws.Phi.copy(),
        nabla_h=ws.nabla_h.copy(),
        nabla_v=ws.nabla_v.copy(),
        berwald=ws.berwald,
        horizontal=horizontal,
        horizontality_residual=residual,
        rcond=ws.rcond,
    )
