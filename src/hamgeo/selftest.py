"""Built-in acceptance checks over the two shipped manifests.

Each check prints one PASS/FAIL line and carries the measured worst case
plus the tolerance it was judged against.  The checks pin down the whole
chain: closed-form connection and curvature oracles, metric inversion,
horizontality, the two Jacobi routes, covariant-derivative identities,
Berwald agreement, the symmetry and conservation suites, complete-lift
invariance of the canonical one-form, free-particle triviality, the jet
engine against finite differences, and the quadratic-cost reduction.

One check is expected to fail: the transcribed closed-form curvature
components (``01b``) disagree with the curvature the defining formulas
produce.  Check ``01c`` pins the independently rederived closed forms,
which the engine matches to full precision; see the README discussion.
The process exit code stays honest: any failing line, expected or not,
exits nonzero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import symmetry as sym
from .expr import (
    BaseVectorFieldSpec,
    HamiltonianSpec,
    VectorFieldSpec,
    evaluate,
    hamiltonian_field_spec,
    parse,
    pmp_hamiltonian,
)
from .jets import fd_oracle, jet_lift
from .manifest import Manifest, load_manifest
from .phase import PhasePoint, sample_box

__all__ = ["CheckResult", "run_checks", "result_lines", "run_selftest"]


@dataclass
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    detail: str
    expected_failure: bool = False

    def __post_init__(self):
        # numpy comparisons leak np.bool_, which json refuses to serialize
        self.passed = bool(self.passed)


#: Base fields whose complete lifts must preserve the canonical one-form.
LIFT_INVARIANCE_CORPUS = (
    ("0", "1"),
    ("1", "0"),
    ("x1", "0"),
    ("0", "x2"),
    ("x2", "x1"),
    ("x1*x2", "0"),
    ("x1^2", "x2^2"),
    ("x2^2", "x1"),
    ("x1+x2", "x1-x2"),
    ("x1^3", "x1*x2"),
)


@dataclass
class _Context:
    scale: float
    paper: Manifest
    free: Manifest
    points: list
    free_points: list

    @classmethod
    def build(cls, tol_scale: float) -> "_Context":
        paper = load_manifest("paper-example")
        free = load_manifest("free-particle")
        return cls(
            scale=tol_scale,
            paper=paper,
            free=free,
            points=paper.sampling.points(),
            free_points=free.sampling.points()[:25],
        )

    @property
    def ham(self) -> HamiltonianSpec:
        return self.paper.hamiltonian

    @property
    def free_ham(self) -> HamiltonianSpec:
        return self.free.hamiltonian


def _closed_form_connection(pt: PhasePoint) -> np.ndarray:
    (x1, _), (p1, p2) = pt.x, pt.p
    u = p1 * x1 + p2
    return np.array(
        [[-u, x1 * u], [x1 * u, -x1 * (p1 * (1.0 + x1 * x1) + p2 * x1)]]
    )


def _curvature_tensor(r121: float, r212: float) -> np.ndarray:
    """The full antisymmetric 2x2x2 tensor from its two free components."""
    R = np.zeros((2, 2, 2))
    R[0][1][0], R[1][0][0] = r121, -r121
    R[1][0][1], R[0][1][1] = r212, -r212
    return R


def _verdict(name, worst, tol, count, expected_failure=False, unit="deviation"):
    return CheckResult(
        name,
        worst <= tol,
        f"worst {unit} {worst:.3e} (tol {tol:.1e}, {count} points)",
        expected_failure,
    )


def _check_connection_closed_forms(ctx: _Context) -> CheckResult:
    tol = 1e-9 * ctx.scale
    worst = max(
        np.max(np.abs(geo.connection(ctx.ham, pt) - _closed_form_connection(pt)))
        for pt in ctx.points
    )
    return _verdict("01a-connection-closed-forms", worst, tol, len(ctx.points))


def _check_curvature_printed_forms(ctx: _Context) -> CheckResult:
    tol = 1e-9 * ctx.scale
    worst = 0.0
    for pt in ctx.points:
        (x1, _), (p1, p2) = pt.x, pt.p
        expected = _curvature_tensor(
            2.0 * p1 * x1 + p2, p1 + 2.0 * p1 * x1 * x1 + p2 * x1
        )
        worst = max(worst, np.max(np.abs(geo.curvature(ctx.ham, pt) - expected)))
    return _verdict(
        "01b-curvature-printed-forms", worst, tol, len(ctx.points),
        expected_failure=True,
    )


def _check_curvature_rederived_forms(ctx: _Context) -> CheckResult:
    tol = 1e-9 * ctx.scale
    worst = 0.0
    for pt in ctx.points:
        (x1, _), (p1, p2) = pt.x, pt.p
        expected = _curvature_tensor(
            p1 * x1 + p2, p1 + p1 * x1 * x1 + p2 * x1
        )
        worst = max(worst, np.max(np.abs(geo.curvature(ctx.ham, pt) - expected)))
    return _verdict("01c-curvature-rederived-forms", worst, tol, len(ctx.points))


def _check_metric_oracle(ctx: _Context) -> CheckResult:
    tol = 1e-12 * ctx.scale
    eye = np.eye(2)
    worst = 0.0
    for pt in ctx.points:
        x1 = pt.x[0]
        hessian = np.array([[1.0 + x1 * x1, x1], [x1, 1.0]])
        g_upper, g_lower = geo.metric(ctx.ham, pt)
        worst = max(
            worst,
            np.max(np.abs(g_upper - hessian)),
            np.max(np.abs(g_upper @ g_lower - eye)),
        )
    return _verdict("02-metric-oracle", worst, tol, len(ctx.points))


def _check_horizontality_and_geodesics(ctx: _Context) -> CheckResult:
    h_tol = 1e-10 * ctx.scale
    g_tol = 1e-8 * ctx.scale
    worst_h = worst_g = 0.0
    for pt in ctx.points:
        flag, residual = geo.is_horizontal(ctx.ham, pt)
        worst_h = max(worst_h, np.max(np.abs(residual)))
        worst_g = max(
            worst_g, np.max(np.abs(dyn.geodesic_residual(ctx.ham, pt)))
        )
    passed = worst_h <= h_tol and worst_g <= g_tol
    return CheckResult(
        "03-horizontality-and-geodesics",
        passed,
        f"worst horizontality {worst_h:.3e} (tol {h_tol:.1e}), "
        f"worst geodesic {worst_g:.3e} (tol {g_tol:.1e}, "
        f"{len(ctx.points)} points)",
    )


def _check_jacobi_cross_route(ctx: _Context) -> CheckResult:
    tol = 1e-8 * ctx.scale
    worst = max(
        np.max(
            np.abs(
                geo.jacobi_endomorphism(ctx.ham, pt)
                - geo.jacobi_via_curvature(ctx.ham, pt)
            )
        )
        for pt in ctx.points
    )
    return _verdict("04-jacobi-cross-route", worst, tol, len(ctx.points))


def _check_tangent_structure_derivative(ctx: _Context) -> CheckResult:
    tol = 1e-9 * ctx.scale
    affine_tol = 1e-12 * ctx.scale
    bump = 0.2 * np.eye(2)
    worst = worst_affine = 0.0
    for pt in ctx.points:
        N = geo.connection(ctx.ham, pt)
        worst = max(
            worst, np.max(np.abs(geo.nabla_J_residual(ctx.ham, N, pt)))
        )
        shifted = geo.nabla_J_residual(ctx.ham, N + 0.1 * np.eye(2), pt)
        worst_affine = max(worst_affine, np.max(np.abs(shifted - bump)))
    passed = worst <= tol and worst_affine <= affine_tol
    return CheckResult(
        "05-covariant-derivative-of-tangent-structure",
        passed,
        f"canonical residual {worst:.3e} (tol {tol:.1e}); "
        f"affine shift error {worst_affine:.3e} (tol {affine_tol:.1e}, "
        f"{len(ctx.points)} points)",
    )


def _check_berwald_equals_nabla(ctx: _Context) -> CheckResult:
    tol = 1e-8 * ctx.scale
    zeros = ("0", "0")
    fields = [
        VectorFieldSpec.from_text(2, zeros, ("1", "0")),
        VectorFieldSpec.from_text(2, zeros, ("0", "1")),
        VectorFieldSpec.from_text(2, ("1", "0"), zeros),
        hamiltonian_field_spec(ctx.ham),
    ]
    worst = max(
        np.max(np.abs(dyn.berwald_vs_nabla(ctx.ham, field, pt)))
        for field in fields
        for pt in ctx.points
    )
    return _verdict(
        "06-berwald-equals-nabla", worst, tol, len(ctx.points), unit="gap"
    )


def _check_symmetry_suite(ctx: _Context) -> CheckResult:
    bracket_tol = 1e-12 * ctx.scale
    noether_tol = 1e-10 * ctx.scale
    invariant_tol = 1e-8 * ctx.scale
    momentum_shift = ctx.paper.fields["momentum-shift"]
    rho = hamiltonian_field_spec(ctx.ham)
    worst_b = worst_n = worst_i = 0.0
    for pt in ctx.points:
        worst_b = max(
            worst_b,
            np.max(np.abs(sym.symmetry_residual(ctx.ham, momentum_shift, pt))),
        )
        lie_omega, xh = sym.noether_residual(ctx.ham, rho, pt)
        worst_n = max(worst_n, np.max(np.abs(lie_omega)), abs(xh))
        worst_i = max(
            worst_i,
            np.max(
                np.abs(sym.invariant_equation_residual(ctx.ham, momentum_shift, pt))
            ),
        )
    passed = (
        worst_b <= bracket_tol
        and worst_n <= noether_tol
        and worst_i <= invariant_tol
    )
    return CheckResult(
        "07-symmetry-suite",
        passed,
        f"bracket {worst_b:.3e} (tol {bracket_tol:.1e}); "
        f"Noether {worst_n:.3e} (tol {noether_tol:.1e}); "
        f"invariant equation {worst_i:.3e} (tol {invariant_tol:.1e}, "
        f"{len(ctx.points)} points)",
    )


def _check_conservation_chain(ctx: _Context) -> CheckResult:
    recon_tol = 1e-12 * ctx.scale
    drift_p_tol = 1e-12 * ctx.scale
    drift_h_tol = 1e-8 * ctx.scale
    p2 = parse("p2", 2)
    shift = BaseVectorFieldSpec.from_text(2, ("0", "1"))
    worst_recon = 0.0
    for pt in ctx.points[:25]:
        recon = sym.noether_from_conservation(p2, ctx.ham, pt)
        worst_recon = max(
            worst_recon,
            np.max(np.abs(recon.field_values - np.array([0.0, 1.0, 0.0, 0.0]))),
            np.max(np.abs(recon.lie_omega)),
            abs(recon.hamiltonian_derivative),
            abs(recon.conservation_value),
            abs(sym.momentum_map(shift, pt) - pt.p[1]),
        )

    run = ctx.paper.runs["default"]
    coarse = dyn.integrate_rk4(ctx.ham, run.start, run.dt, run.steps, run.watch)
    halved = dyn.integrate_rk4(
        ctx.ham, run.start, run.dt / 2.0, run.steps * 2, run.watch
    )
    p_drift = dyn.drift_report(coarse)["p2"][1]
    h_drift = dyn.drift_report(coarse)["H"][1]
    ratio = h_drift / dyn.drift_report(halved)["H"][1]
    passed = (
        worst_recon <= recon_tol
        and p_drift <= drift_p_tol
        and h_drift <= drift_h_tol
        and 12.0 <= ratio <= 20.0
    )
    return CheckResult(
        "08-conservation-chain",
        passed,
        f"reconstruction {worst_recon:.3e} (tol {recon_tol:.1e}); "
        f"p2 drift {p_drift:.3e} (tol {drift_p_tol:.1e}); "
        f"H drift {h_drift:.3e} (tol {drift_h_tol:.1e}); "
        f"halving ratio {ratio:.2f} (bounds [12, 20])",
    )


def _check_complete_lift_invariance(ctx: _Context) -> CheckResult:
    tol = 1e-10 * ctx.scale
    worst = 0.0
    for components in LIFT_INVARIANCE_CORPUS:
        lift = sym.complete_lift(BaseVectorFieldSpec.from_text(2, components))
        for pt in ctx.points[:50]:
            worst = max(worst, np.max(np.abs(sym.liouville_residual(lift, pt))))
    return _verdict(
        "09-complete-lift-invariance", worst, tol,
        f"{len(LIFT_INVARIANCE_CORPUS)} fields x 50",
    )


def _check_free_particle_trivial(ctx: _Context) -> CheckResult:
    ham = ctx.free_ham
    constant_fields = [
        BaseVectorFieldSpec.from_text(2, ("1", "0")),
        BaseVectorFieldSpec.from_text(2, ("0", "1")),
        BaseVectorFieldSpec.from_text(2, ("2", "3")),
    ]
    worst = 0.0
    for pt in ctx.free_points:
        nabla_h, nabla_v = geo.nabla_coefficients(ham, pt)
        berwald = geo.berwald_coefficients(ham, pt)
        for block in (
            geo.connection(ham, pt),
            geo.curvature(ham, pt),
            geo.jacobi_endomorphism(ham, pt),
            nabla_h,
            nabla_v,
            berwald.hh,
            berwald.hv,
            berwald.vh,
            berwald.vv,
        ):
            worst = max(worst, np.max(np.abs(block)))
        for base_field in constant_fields:
            lift = sym.complete_lift(base_field)
            lie_omega, xh = sym.noether_residual(ham, lift, pt)
            worst = max(
                worst,
                np.max(np.abs(sym.symmetry_residual(ham, lift, pt))),
                np.max(np.abs(sym.newtonoid_residual(ham, lift, pt))),
                np.max(np.abs(lie_omega)),
                abs(xh),
                np.max(np.abs(sym.invariant_equation_residual(ham, lift, pt))),
                np.max(np.abs(sym.liouville_residual(lift, pt))),
            )
    return CheckResult(
        "10-free-particle-trivial",
        worst == 0.0,
        f"worst |entry| {worst:.3e} (must be exactly zero, "
        f"{len(ctx.free_points)} points)",
    )


def _check_jet_engine_fd(ctx: _Context) -> CheckResult:
    points = sample_box(
        [(-0.5, 0.5)] * 2, [(0.2, 0.6)] * 2, 50, seed=12345
    )
    expr = ctx.ham.expr
    multis = [
        multi
        for order in (1, 2, 3)
        for multi in combinations_with_replacement(range(4), order)
    ]
    worst_ratio = 0.0
    for pt in points:
        jet = jet_lift(expr, pt, order=3)
        for multi in multis:
            reference = fd_oracle(expr, pt, multi)
            tol = max(1e-5 * abs(reference), 1e-7) * ctx.scale
            worst_ratio = max(
                worst_ratio, abs(jet.partial(multi) - reference) / tol
            )
    return CheckResult(
        "11-jet-engine-fd",
        worst_ratio <= 1.0,
        f"worst error/tolerance ratio {worst_ratio:.3f} "
        f"(rel 1e-5, abs floor 1e-7, {len(points)} points, "
        f"{len(multis)} derivatives)",
    )


def _check_pmp_builder(ctx: _Context) -> CheckResult:
    tol = 1e-12 * ctx.scale
    reduced = pmp_hamiltonian(ctx.paper.control)
    printed = parse("0.5*(p1^2+(p1*x1+p2)^2)", 2)
    worst = max(
        abs(evaluate(reduced.expr, pt) - evaluate(printed, pt))
        for pt in ctx.points
    )
    return _verdict("12-pmp-builder", worst, tol, len(ctx.points))


_CHECKS = (
    _check_connection_closed_forms,
    _check_curvature_printed_forms,
    _check_curvature_rederived_forms,
    _check_metric_oracle,
    _check_horizontality_and_geodesics,
    _check_jacobi_cross_route,
    _check_tangent_structure_derivative,
    _check_berwald_equals_nabla,
    _check_symmetry_suite,
    _check_conservation_chain,
    _check_complete_lift_invariance,
    _check_free_particle_trivial,
    _check_jet_engine_fd,
    _check_pmp_builder,
)


def run_checks(tol_scale: float = 1.0) -> list:
    """All acceptance checks, in order, without printing anything."""
    ctx = _Context.build(tol_scale)
    return [check(ctx) for check in _CHECKS]


def result_lines(results) -> list:
    """One PASS/FAIL line per check result, then the summary line."""
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status}  {result.name}: {result.detail}"
        if not result.passed and result.expected_failure:
            line += "  [known discrepancy, see README]"
        lines.append(line)
    passed = sum(result.passed for result in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return lines


def run_selftest(tol_scale: float = 1.0, stream=None) -> int:
    """Print one PASS/FAIL line per check; exit 0 only if all pass."""
    stream = sys.stdout if stream is None else stream
    results = run_checks(tol_scale)
    for line in result_lines(results):
        print(line, file=stream)
    return 0 if all(result.passed for result in results) else 1
