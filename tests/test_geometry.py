"""Pointwise geometry: metric, connection, curvature, Jacobi, transport.

The benchmark Hamiltonian H = (p1^2 + (p1*x1 + p2)^2)/2 has hand-checked
tensor values at the base point (x, p) = ((1, 0), (1, 1)); those frozen
numbers anchor the suite.  An independent symbolic oracle (sympy builds
each tensor from its defining formula and lambdifies it) then cross-checks
every tensor field at sampled points, so the jet engine and the symbolic
route must agree to near machine precision.
"""

import numpy as np
import pytest
import sympy as sp

from hamgeo.errors import DimensionError, HorizontalityError, RegularityError
from hamgeo.expr import (
    HamiltonianSpec,
    VectorFieldSpec,
    hamiltonian_field_spec,
)
from hamgeo import geometry as geo
from hamgeo.jets import jet_lift
from hamgeo.phase import PhasePoint, sample_box

SAMPLED = sample_box([(-1.5, 1.5)] * 2, [(0.3, 1.5)] * 2, 40, seed=777)


def field(xs, ps):
    return VectorFieldSpec.from_text(2, xs, ps)


# --------------------------------------------------------------------------
# frozen values at the benchmark point


class TestBenchmarkPoint:
    def test_metric(self, worked_ham, base_point):
        g_upper, g_lower = geo.metric(worked_ham, base_point)
        np.testing.assert_array_equal(g_upper, [[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(g_lower, [[1.0, -1.0], [-1.0, 2.0]])

    def test_hamiltonian_vector_field(self, worked_ham, base_point):
        xi, chi = geo.hamiltonian_vector_field(worked_ham, base_point)
        np.testing.assert_array_equal(xi, [3.0, 2.0])
        np.testing.assert_array_equal(chi, [-2.0, 0.0])

    def test_connection(self, worked_ham, base_point):
        N = geo.connection(worked_ham, base_point)
        np.testing.assert_array_equal(N, [[-2.0, 2.0], [2.0, -3.0]])

    def test_connection_is_symmetric(self, worked_ham):
        for point in SAMPLED[:10]:
            N = geo.connection(worked_ham, point)
            np.testing.assert_allclose(N, N.T, atol=1e-12)

    def test_curvature_components(self, worked_ham, base_point):
        R = geo.curvature(worked_ham, base_point)
        assert R[0][1][0] == pytest.approx(2.0, abs=1e-12)
        assert R[1][0][0] == pytest.approx(-2.0, abs=1e-12)
        assert R[1][0][1] == pytest.approx(3.0, abs=1e-12)
        assert R[0][1][1] == pytest.approx(-3.0, abs=1e-12)
        # antisymmetry in the first two slots kills the diagonal
        assert np.all(R[0][0] == 0.0)
        assert np.all(R[1][1] == 0.0)

    def test_jacobi_endomorphism(self, worked_ham, base_point):
        Phi = geo.jacobi_endomorphism(worked_ham, base_point)
        np.testing.assert_allclose(Phi, [[-4.0, 6.0], [6.0, -9.0]], atol=1e-12)

    def test_horizontality(self, worked_ham, base_point):
        horizontal, residual = geo.is_horizontal(worked_ham, base_point)
        assert horizontal
        np.testing.assert_allclose(residual, [0.0, 0.0], atol=1e-14)

    def test_nabla_coefficients(self, worked_ham, base_point):
        nabla_h, nabla_v = geo.nabla_coefficients(worked_ham, base_point)
        np.testing.assert_allclose(nabla_v, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)
        np.testing.assert_array_equal(nabla_h, -nabla_v.T)

    def test_adapted_derivative_of_momentum(self, worked_ham, base_point):
        p1 = jet_lift(worked_ham.expr, base_point, order=1)  # placeholder jet
        deltas = geo.adapted_derivative(
            worked_ham, base_point, HamiltonianSpec.from_text("f", 2, "p1").expr
        )
        np.testing.assert_allclose(deltas, [-2.0, 2.0], atol=1e-12)
        # energy is adapted-constant wherever the flow is horizontal
        np.testing.assert_allclose(
            geo.adapted_derivative(worked_ham, base_point, worked_ham.expr),
            [0.0, 0.0],
            atol=1e-12,
        )
        assert p1.order == 1

    def test_adapted_derivative_accepts_jets(self, worked_ham, base_point):
        from hamgeo.expr import parse

        jet = jet_lift(parse("p1", 2), base_point, order=2)
        np.testing.assert_allclose(
            geo.adapted_derivative(worked_ham, base_point, jet),
            [-2.0, 2.0],
            atol=1e-12,
        )

    def test_report_bundles_everything(self, worked_ham, base_point):
        report = geo.geometry_report(worked_ham, base_point)
        np.testing.assert_array_equal(report.g_lower, [[1.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(report.N, [[-2.0, 2.0], [2.0, -3.0]])
        assert report.horizontal
        assert report.rcond == pytest.approx(0.145898033, rel=1e-6)
        assert report.berwald.vh.shape == (2, 2, 2)
        assert report.point == base_point


# --------------------------------------------------------------------------
# independent symbolic oracle over sampled points


@pytest.fixture(scope="module")
def symbolic():
    """Every tensor of the benchmark Hamiltonian, built symbolically."""
    x1, x2, p1, p2 = coords = sp.symbols("x1 x2 p1 p2")
    xs, ps = (x1, x2), (p1, p2)
    H = sp.Rational(1, 2) * (p1**2 + (p1 * x1 + p2) ** 2)
    n = 2

    G = sp.Matrix(n, n, lambda i, j: sp.diff(H, ps[i], ps[j]))
    glow = G.inv()
    A = sp.Matrix(n, n, lambda k, j: sp.diff(H, ps[k], xs[j]))
    B = sp.Matrix(n, n, lambda i, j: sp.diff(H, xs[i], xs[j]))
    flow = [sp.diff(H, p) for p in ps] + [-sp.diff(H, x) for x in xs]
    flat = (x1, x2, p1, p2)

    def rho(f):
        return sum(flow[z] * sp.diff(f, flat[z]) for z in range(4))

    T = glow * A
    N = sp.Matrix(
        n, n,
        lambda i, j: sp.Rational(1, 2) * (-rho(glow[i, j]) - T[i, j] - T[j, i]),
    )

    def delta(f, i):
        return sp.diff(f, xs[i]) + sum(N[i, l] * sp.diff(f, ps[l]) for l in range(n))

    R = [
        [[delta(N[j, k], i) - delta(N[i, k], j) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    Phi = A.T * N + N * A + N * G * N + B + sp.Matrix(n, n, lambda j, k: rho(N[j, k]))
    nabla_v = A + G * N
    hh = [
        [
            [
                sum(
                    G[k, s]
                    * (delta(glow[j, k], i) - sum(glow[j, r] * sp.diff(N[i, k], ps[r]) for r in range(n)))
                    for k in range(n)
                )
                for s in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    hv = [
        [[-sp.diff(N[i, r], ps[j]) for r in range(n)] for j in range(n)]
        for i in range(n)
    ]
    vv = [
        [
            [sum(glow[k, s] * sp.diff(G[j, k], ps[i]) for k in range(n)) for s in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]

    def fn(obj):
        return sp.lambdify(coords, obj, "numpy")

    return {
        "g_upper": fn(G),
        "g_lower": fn(glow),
        "N": fn(N),
        "R": fn(R),
        "Phi": fn(Phi),
        "nabla_v": fn(nabla_v),
        "hh": fn(hh),
        "hv": fn(hv),
        "vv": fn(vv),
    }


@pytest.mark.parametrize("point", SAMPLED[:20], ids=lambda p: f"{p.x[0]:+.2f}")
def test_tensors_match_symbolic_oracle(symbolic, worked_ham, point):
    args = point.flat
    g_upper, g_lower = geo.metric(worked_ham, point)
    np.testing.assert_allclose(g_upper, symbolic["g_upper"](*args), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(g_lower, symbolic["g_lower"](*args), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        geo.connection(worked_ham, point), symbolic["N"](*args), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        geo.curvature(worked_ham, point),
        np.array(symbolic["R"](*args), dtype=float),
        rtol=1e-9,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        geo.jacobi_endomorphism(worked_ham, point),
        symbolic["Phi"](*args),
        rtol=1e-9,
        atol=1e-9,
    )
    _, nabla_v = geo.nabla_coefficients(worked_ham, point)
    np.testing.assert_allclose(nabla_v, symbolic["nabla_v"](*args), rtol=1e-9, atol=1e-9)
    berwald = geo.berwald_coefficients(worked_ham, point)
    np.testing.assert_allclose(
        berwald.hh, np.array(symbolic["hh"](*args), float), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        berwald.hv, np.array(symbolic["hv"](*args), float), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        berwald.vv, np.array(symbolic["vv"](*args), float), rtol=1e-9, atol=1e-9
    )
    assert np.all(berwald.vh == 0.0)


def test_metric_matches_finite_differences(worked_ham):
    from hamgeo.jets import fd_oracle

    n = 2
    for point in SAMPLED[:5]:
        g_upper, _ = geo.metric(worked_ham, point)
        for i in range(n):
            for j in range(n):
                probe = fd_oracle(worked_ham.expr, point, (n + i, n + j))
                assert g_upper[i][j] == pytest.approx(
                    probe, rel=1e-5, abs=1e-7
                )


# --------------------------------------------------------------------------
# structural identities at sampled points


@pytest.mark.parametrize("point", SAMPLED, ids=lambda p: f"{p.x[0]:+.2f}")
def test_identities_hold_at_sampled_points(worked_ham, point):
    N = geo.connection(worked_ham, point)
    assert np.max(np.abs(geo.nabla_J_residual(worked_ham, N, point))) < 1e-9
    assert np.max(np.abs(geo.nabla_metric_residual(worked_ham, point))) < 1e-9
    nabla_h, nabla_v = geo.nabla_coefficients(worked_ham, point)
    np.testing.assert_array_equal(nabla_h, -nabla_v.T)
    horizontal, residual = geo.is_horizontal(worked_ham, point)
    assert horizontal and np.max(np.abs(residual)) < 1e-12
    Phi = geo.jacobi_endomorphism(worked_ham, point)
    PhiC = geo.jacobi_via_curvature(worked_ham, point)
    scale = max(1.0, float(np.max(np.abs(Phi))))
    assert np.max(np.abs(Phi - PhiC)) / scale < 1e-9


def test_connection_general_reproduces_canonical(worked_ham):
    rho = hamiltonian_field_spec(worked_ham)
    for point in SAMPLED[:15]:
        np.testing.assert_allclose(
            geo.connection_general(rho, point),
            geo.connection(worked_ham, point),
            rtol=1e-9,
            atol=1e-9,
        )


def test_hamiltonian_field_spec_matches_pointwise_field(worked_ham):
    from hamgeo.expr import evaluate

    rho = hamiltonian_field_spec(worked_ham)
    for point in SAMPLED[:10]:
        xi, chi = geo.hamiltonian_vector_field(worked_ham, point)
        np.testing.assert_allclose(
            [evaluate(e, point) for e in rho.x_components], xi, rtol=1e-12
        )
        np.testing.assert_allclose(
            [evaluate(e, point) for e in rho.p_components], chi, rtol=1e-12, atol=1e-15
        )


def test_nabla_J_residual_is_affine_in_the_connection(worked_ham, base_point):
    N = geo.connection(worked_ham, base_point)
    shifted = geo.nabla_J_residual(worked_ham, N + np.eye(2), base_point)
    np.testing.assert_allclose(shifted, 2.0 * np.eye(2), atol=1e-12)


def test_nabla_metric_residual_detects_wrong_connection(worked_ham, base_point):
    g_upper, _ = geo.metric(worked_ham, base_point)
    N = geo.connection(worked_ham, base_point)
    eps = 0.5
    residual = geo.nabla_metric_residual(worked_ham, base_point, N + eps * np.eye(2))
    np.testing.assert_allclose(residual, -2.0 * eps * g_upper @ g_upper, atol=1e-9)


def test_geodesic_residual_vanishes_along_flow(worked_ham):
    rho = hamiltonian_field_spec(worked_ham)
    for point in SAMPLED[:15]:
        residual = geo.nabla_vector_field(worked_ham, rho, point)
        assert np.max(np.abs(residual)) < 1e-10


def test_berwald_transport_equals_nabla(worked_ham):
    probes = [
        field(("0", "0"), ("1", "0")),
        field(("0", "0"), ("0", "1")),
        field(("1", "0"), ("0", "0")),
        field(("0", "x1"), ("p2", "0")),
        field(("x2", "p1"), ("x1*p2", "sin(x1)")),
    ]
    for point in SAMPLED[:10]:
        for probe in probes:
            diff = geo.berwald_vs_nabla(worked_ham, probe, point)
            assert np.max(np.abs(diff)) < 1e-9


def test_berwald_coefficient_symmetries(worked_ham, base_point):
    bw = geo.berwald_coefficients(worked_ham, base_point)
    n = 2
    for i in range(n):
        for j in range(n):
            for r in range(n):
                # d N_ir / d p_j is symmetric in the outer indices
                assert bw.hv[i, j, r] == pytest.approx(bw.hv[r, j, i], abs=1e-12)
                # vertical family contracts third momentum derivatives
                assert bw.vv[i, j, r] == pytest.approx(bw.vv[j, i, r], abs=1e-12)


# --------------------------------------------------------------------------
# degenerate directions and refusals


class TestFreeParticleIsFlat:
    def test_connection_and_curvature_vanish_exactly(self, free_ham):
        for point in SAMPLED[:5]:
            assert np.all(geo.connection(free_ham, point) == 0.0)
            assert np.all(geo.curvature(free_ham, point) == 0.0)
            assert np.all(geo.jacobi_endomorphism(free_ham, point) == 0.0)

    def test_transport_coefficients_vanish(self, free_ham, base_point):
        nabla_h, nabla_v = geo.nabla_coefficients(free_ham, base_point)
        assert np.all(nabla_h == 0.0) and np.all(nabla_v == 0.0)
        bw = geo.berwald_coefficients(free_ham, base_point)
        for fam in (bw.hh, bw.hv, bw.vh, bw.vv):
            assert np.all(fam == 0.0)

    def test_flow_is_horizontal_and_geodesic(self, free_ham, base_point):
        horizontal, residual = geo.is_horizontal(free_ham, base_point)
        assert horizontal and np.all(residual == 0.0)
        rho = hamiltonian_field_spec(free_ham)
        assert np.all(geo.nabla_vector_field(free_ham, rho, base_point) == 0.0)


class TestOneDimensional:
    HAM = HamiltonianSpec.from_text("one-dim", 1, "0.5*(1+x1^2)*p1^2")

    @pytest.mark.parametrize(
        "point", sample_box([(-2.0, 2.0)], [(0.3, 2.0)], 12, seed=5)
    )
    def test_closed_forms(self, point):
        x, p = point.x[0], point.p[0]
        N = geo.connection(self.HAM, point)
        assert N[0][0] == pytest.approx(-x * p / (1 + x * x), rel=1e-12, abs=1e-12)
        # one-dimensional curvature is killed by antisymmetry, and the
        # Jacobi endomorphism inherits that through horizontality
        assert np.all(geo.curvature(self.HAM, point) == 0.0)
        assert np.max(np.abs(geo.jacobi_endomorphism(self.HAM, point))) < 1e-12
        horizontal, _ = geo.is_horizontal(self.HAM, point)
        assert horizontal


class TestThreeDimensional:
    HAM = HamiltonianSpec.from_text(
        "three-dim", 3, "0.5*(p1^2+p2^2+p3^2)+0.1*sin(x1)*p2*p3"
    )
    POINTS = sample_box([(-1.0, 1.0)] * 3, [(0.3, 1.2)] * 3, 8, seed=6)

    def test_flow_is_horizontal_and_routes_agree(self):
        rho = hamiltonian_field_spec(self.HAM)
        for point in self.POINTS:
            horizontal, _ = geo.is_horizontal(self.HAM, point)
            assert horizontal
            Phi = geo.jacobi_endomorphism(self.HAM, point)
            PhiC = geo.jacobi_via_curvature(self.HAM, point)
            np.testing.assert_allclose(Phi, PhiC, atol=1e-12)
            np.testing.assert_allclose(
                geo.connection_general(rho, point),
                geo.connection(self.HAM, point),
                atol=1e-10,
            )
            assert np.max(np.abs(geo.nabla_vector_field(self.HAM, rho, point))) < 1e-12

    def test_identities(self):
        for point in self.POINTS:
            N = geo.connection(self.HAM, point)
            assert np.max(np.abs(geo.nabla_J_residual(self.HAM, N, point))) < 1e-10
            assert np.max(np.abs(geo.nabla_metric_residual(self.HAM, point))) < 1e-10


class TestThreeDimensionalCurvedMetric:
    """n = 3 with an x-dependent, non-diagonal metric, so every
    metric-derivative term of the connection and its derivatives counts."""

    HAM = HamiltonianSpec.from_text(
        "curved-3d",
        3,
        "0.5*((1 + 0.1*x2^2)*p1^2 + (1 + 0.1*x3^2)*p2^2 + (1 + 0.1*x1^2)*p3^2)"
        " + 0.1*(sin(x1)*p1*p2 + sin(x2)*p2*p3)",
    )
    POINTS = sample_box([(-1.5, 1.5)] * 3, [(0.2, 1.5)] * 3, 6, seed=31)
    PROBES = [
        VectorFieldSpec.from_text(3, ("0", "0", "0"), ("1", "0", "0")),
        VectorFieldSpec.from_text(3, ("0", "0", "0"), ("0", "0", "1")),
        VectorFieldSpec.from_text(3, ("1", "0", "0"), ("0", "0", "0")),
        VectorFieldSpec.from_text(3, ("0", "1", "0"), ("0", "0", "0")),
        hamiltonian_field_spec(HAM),
    ]

    def test_metric_is_curved(self):
        point = self.POINTS[0]
        g_upper, _ = geo.metric(self.HAM, point)
        assert np.max(np.abs(g_upper - np.diag(np.diag(g_upper)))) > 1e-2
        moved = PhasePoint(x=(point.x[0] + 0.5,) + point.x[1:], p=point.p)
        assert np.max(np.abs(geo.metric(self.HAM, moved)[0] - g_upper)) > 1e-2

    def test_general_connection_matches_canonical(self):
        rho = hamiltonian_field_spec(self.HAM)
        for point in self.POINTS:
            np.testing.assert_allclose(
                geo.connection_general(rho, point),
                geo.connection(self.HAM, point),
                atol=1e-12,
            )

    def test_jacobi_routes_agree(self):
        for point in self.POINTS:
            assert geo.is_horizontal(self.HAM, point)[0]
            np.testing.assert_allclose(
                geo.jacobi_endomorphism(self.HAM, point),
                geo.jacobi_via_curvature(self.HAM, point),
                atol=1e-12,
            )

    def test_covariant_identities(self):
        for point in self.POINTS:
            N = geo.connection(self.HAM, point)
            assert np.max(np.abs(geo.nabla_J_residual(self.HAM, N, point))) < 1e-12
            assert np.max(np.abs(geo.nabla_metric_residual(self.HAM, point))) < 1e-12

    def test_berwald_transport_equals_nabla(self):
        for point in self.POINTS:
            for probe in self.PROBES:
                diff = geo.berwald_vs_nabla(self.HAM, probe, point)
                assert np.max(np.abs(diff)) < 1e-12

    def test_curvature_matches_differenced_connection(self):
        n, h = 3, 1e-5
        for point in self.POINTS[:3]:
            flat = np.array(point.flat)

            def connection_at(shift):
                moved = flat + shift
                return geo.connection(
                    self.HAM, PhasePoint(x=tuple(moved[:n]), p=tuple(moved[n:]))
                )

            d_n = np.array(
                [
                    (connection_at(h * e) - connection_at(-h * e)) / (2 * h)
                    for e in np.eye(2 * n)
                ]
            )
            N = geo.connection(self.HAM, point)
            delta_n = d_n[:n] + np.einsum("il,ljk->ijk", N, d_n[n:])
            expected = delta_n - delta_n.transpose(1, 0, 2)
            np.testing.assert_allclose(
                geo.curvature(self.HAM, point), expected, atol=1e-8
            )


class TestNonHorizontalFlow:
    HAM = HamiltonianSpec.from_text("drifted", 2, "0.5*(p1^2+p2^2)+x1*p1")
    POINT = PhasePoint(x=(1.0, 0.5), p=(0.7, 1.1))

    def test_horizontality_residual(self):
        horizontal, residual = geo.is_horizontal(self.HAM, self.POINT)
        assert not horizontal
        np.testing.assert_allclose(residual, [1.0, 0.0], atol=1e-12)

    def test_jacobi_routes_disagree(self):
        Phi = geo.jacobi_endomorphism(self.HAM, self.POINT)
        PhiC = geo.jacobi_via_curvature(self.HAM, self.POINT)
        np.testing.assert_allclose(Phi, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert np.all(PhiC == 0.0)

    def test_berwald_comparison_refuses(self):
        probe = field(("0", "0"), ("1", "0"))
        with pytest.raises(HorizontalityError) as err:
            geo.berwald_vs_nabla(self.HAM, probe, self.POINT)
        np.testing.assert_allclose(err.value.residual, [1.0, 0.0], atol=1e-12)


class TestRefusals:
    def test_singular_metric(self):
        degenerate = HamiltonianSpec.from_text("linear", 1, "p1")
        point = PhasePoint(x=(0.5,), p=(1.0,))
        with pytest.raises(RegularityError) as err:
            geo.metric(degenerate, point)
        assert err.value.rcond is not None and err.value.rcond < 1e-12
        with pytest.raises(RegularityError):
            geo.connection(degenerate, point)

    def test_metric_rcond_without_raising(self):
        degenerate = HamiltonianSpec.from_text("linear", 1, "p1")
        point = PhasePoint(x=(0.5,), p=(1.0,))
        assert geo.metric_rcond(degenerate, point) == 0.0

    def test_connection_general_needs_regular_field(self, base_point):
        stuck = field(("x1", "x2"), ("0", "0"))
        with pytest.raises(RegularityError):
            geo.connection_general(stuck, base_point)

    def test_dimension_mismatch(self, worked_ham):
        with pytest.raises(DimensionError):
            geo.metric(worked_ham, PhasePoint(x=(1.0,), p=(1.0,)))

    def test_bad_candidate_connection_shape(self, worked_ham, base_point):
        with pytest.raises(DimensionError):
            geo.nabla_J_residual(worked_ham, np.zeros((3, 3)), base_point)
        with pytest.raises(DimensionError):
            geo.nabla_metric_residual(worked_ham, base_point, np.zeros((1, 1)))

    def test_adapted_derivative_needs_matching_jet(self, worked_ham, base_point):
        from hamgeo.expr import parse
        from hamgeo.jets import Jet

        order_zero = Jet.constant(1.0, 4, 0)
        with pytest.raises(DimensionError):
            geo.adapted_derivative(worked_ham, base_point, order_zero)
        wrong_m = jet_lift(parse("p1", 1), PhasePoint(x=(1.0,), p=(1.0,)), order=1)
        with pytest.raises(DimensionError):
            geo.adapted_derivative(worked_ham, base_point, wrong_m)

    def test_field_dimension_mismatch(self, worked_ham, base_point):
        probe = VectorFieldSpec.from_text(1, ("p1",), ("0",))
        with pytest.raises(DimensionError):
            geo.nabla_vector_field(worked_ham, probe, base_point)


def test_workspace_cache_is_bounded():
    ham = HamiltonianSpec.from_text("cache-probe", 1, "0.5*(1+x1^2)*p1^2")
    for k in range(1100):
        geo.metric_rcond(ham, PhasePoint(x=(k * 1e-3,), p=(1.0,)))
    assert geo._workspace.cache_info().currsize <= geo._WORKSPACE_CACHE_SIZE
