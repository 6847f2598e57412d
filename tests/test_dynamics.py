"""Integrator behavior: exact flow facts, drift bounds, and failure flags.

The benchmark Hamiltonian H = (p1^2 + (p1*x1 + p2)^2)/2 conserves p2
exactly (no x2 dependence), so the fixed-step run must keep its p2 samples
bitwise constant while H drifts only at the truncation-error scale.
Halving the step must shrink the H drift by roughly 2^4, the classical
fourth-order signature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgeo import dynamics as dyn
from hamgeo.errors import DimensionError
from hamgeo.expr import HamiltonianSpec, Neg, VectorFieldSpec, parse
from hamgeo.phase import PhasePoint, sample_box

WATCH = {"p2": parse("p2", 2), "u": parse("p1*x1+p2", 2)}


@pytest.fixture(scope="module")
def default_run(worked_ham, base_point):
    """The reference run: dt = 1e-3 for 10^4 steps from (1, 0, 1, 1)."""
    return dyn.integrate_rk4(worked_ham, base_point, 1e-3, 10_000, WATCH)


@pytest.fixture(scope="module")
def halved_run(worked_ham, base_point):
    return dyn.integrate_rk4(worked_ham, base_point, 5e-4, 20_000, WATCH)


class TestHamiltonRhs:
    def test_benchmark_at_base_point(self, worked_ham, base_point):
        # dH/dp1 = p1 + (p1*x1+p2)*x1 = 1 + 2 = 3,  dH/dp2 = u = 2
        # -dH/dx1 = -(p1*x1+p2)*p1 = -2,             -dH/dx2 = 0
        np.testing.assert_array_equal(
            dyn.hamilton_rhs(worked_ham, base_point), [3.0, 2.0, -2.0, 0.0]
        )

    def test_free_particle_flows_along_momentum(self, free_ham):
        state = PhasePoint(x=(0.2, -0.7), p=(1.5, -0.25))
        np.testing.assert_array_equal(
            dyn.hamilton_rhs(free_ham, state), [1.5, -0.25, 0.0, 0.0]
        )

    def test_constant_hamiltonian_is_stationary(self):
        still = HamiltonianSpec.from_text("still", 2, "7")
        state = PhasePoint(x=(1.0, 2.0), p=(3.0, 4.0))
        assert np.all(dyn.hamilton_rhs(still, state) == 0.0)

    def test_dimension_mismatch_is_refused(self, worked_ham):
        with pytest.raises(DimensionError):
            dyn.hamilton_rhs(worked_ham, PhasePoint((1.0,), (1.0,)))


class TestDefaultRun:
    def test_initial_samples(self, default_run):
        assert default_run.samples["H"][0] == 2.5
        assert default_run.samples["p2"][0] == 1.0
        assert default_run.samples["u"][0] == 2.0

    def test_shape_and_time_grid(self, default_run):
        assert len(default_run.times) == 10_001
        assert len(default_run.states) == 10_001
        assert default_run.times[0] == 0.0
        assert default_run.times[7] == 7 * 1e-3
        assert not default_run.truncated

    def test_momentum_samples_are_bitwise_constant(self, default_run):
        _, drift = dyn.drift_report(default_run)["p2"]
        assert drift == 0.0

    def test_energy_drift_is_tiny(self, default_run):
        _, drift = dyn.drift_report(default_run)["H"]
        assert drift <= 1e-8
        assert drift > 0.0  # but it is genuine floating-point integration

    def test_non_conserved_watch_really_drifts(self, default_run):
        _, drift = dyn.drift_report(default_run)["u"]
        assert drift > 0.1

    def test_halving_dt_shows_fourth_order(self, default_run, halved_run):
        coarse = dyn.drift_report(default_run)["H"][1]
        fine = dyn.drift_report(halved_run)["H"][1]
        assert 12.0 <= coarse / fine <= 20.0

    def test_momentum_conservation_survives_halving(self, halved_run):
        assert dyn.drift_report(halved_run)["p2"][1] == 0.0


class TestTimeReversal:
    def test_negated_hamiltonian_retraces_the_run(self, worked_ham, base_point):
        reverse = HamiltonianSpec("reversed", 2, Neg(worked_ham.expr))
        out = dyn.integrate_rk4(worked_ham, base_point, 1e-3, 1000, {})
        back = dyn.integrate_rk4(reverse, out.states[-1], 1e-3, 1000, {})
        np.testing.assert_allclose(
            back.states[-1].flat, base_point.flat, atol=1e-12
        )


class TestFreeParticle:
    def test_trajectory_is_exactly_linear(self, free_ham):
        start = PhasePoint(x=(0.3, -0.4), p=(1.1, 0.7))
        traj = dyn.integrate_rk4(free_ham, start, 1e-2, 1000, {})
        for t, state in zip(traj.times, traj.states):
            for i in range(2):
                assert state.x[i] == pytest.approx(
                    start.x[i] + t * start.p[i], abs=1e-12
                )
        assert dyn.drift_report(traj)["H"][1] == 0.0

    def test_momentum_components_never_move(self, free_ham):
        start = PhasePoint(x=(0.0, 0.0), p=(1.0, 1.0))
        traj = dyn.integrate_rk4(free_ham, start, 1e-2, 500, {})
        for state in traj.states:
            assert state.p == start.p

    @given(
        dt=st.floats(min_value=1e-3, max_value=0.1),
        steps=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_constant_watch_has_zero_drift(self, free_ham, dt, steps):
        traj = dyn.integrate_rk4(
            free_ham,
            PhasePoint(x=(0.1, 0.2), p=(0.5, -0.5)),
            dt,
            steps,
            {"three": parse("3", 2)},
        )
        initial, drift = dyn.drift_report(traj)["three"]
        assert initial == 3.0 and drift == 0.0


class TestWatchSemantics:
    def test_hamiltonian_always_sampled(self, worked_ham, base_point):
        traj = dyn.integrate_rk4(worked_ham, base_point, 1e-3, 5, None)
        assert set(traj.samples) == {"H"}

    def test_name_h_is_reserved(self, worked_ham, base_point):
        with pytest.raises(ValueError, match="reserved"):
            dyn.integrate_rk4(
                worked_ham, base_point, 1e-3, 5, {"H": parse("p1", 2)}
            )

    def test_energy_rewatchable_under_another_name(self, worked_ham, base_point):
        # Reservation is by name, not by content.
        traj = dyn.integrate_rk4(
            worked_ham,
            base_point,
            1e-3,
            2000,
            {"energy": worked_ham.expr},
        )
        report = dyn.drift_report(traj)
        assert report["energy"] == report["H"]

    def test_function_of_conserved_quantity_is_conserved(
        self, worked_ham, base_point
    ):
        traj = dyn.integrate_rk4(
            worked_ham, base_point, 1e-3, 2000, {"q": parse("p2^2+2*p2", 2)}
        )
        assert dyn.drift_report(traj)["q"][1] == 0.0


class TestFailureFlags:
    def test_quadratic_feedback_blows_up(self):
        ham = HamiltonianSpec.from_text("runaway", 1, "x1^2*p1")
        traj = dyn.integrate_rk4(
            ham, PhasePoint((2.0,), (1.0,)), 1e-2, 1000, {}
        )
        assert traj.blew_up and traj.truncated
        assert traj.domain_error is None
        assert 1 < len(traj.states) < 1001
        assert all(np.isfinite(s.flat).all() for s in traj.states)

    def test_log_domain_violation_truncates_with_message(self):
        ham = HamiltonianSpec.from_text("logwall", 1, "0.5*p1^2+ln(x1)")
        traj = dyn.integrate_rk4(
            ham, PhasePoint((1.0,), (-2.0,)), 1e-3, 1000, {}
        )
        assert not traj.blew_up
        assert traj.truncated
        assert traj.domain_error.startswith("sampling 'H': ln of non-positive")
        assert 0 < len(traj.states) < 1001
        # every retained state is still inside the domain
        assert all(s.x[0] > 0.0 for s in traj.states)

    def test_float_overflow_sets_blowup_flag(self):
        ham = HamiltonianSpec.from_text("explode", 1, "exp(x1)*p1")
        traj = dyn.integrate_rk4(ham, PhasePoint((1.0,), (1.0,)), 0.1, 100, {})
        assert traj.blew_up
        assert len(traj.states) < 101

    def test_guard_radius_is_documented_constant(self):
        assert dyn.BLOWUP_GUARD == 1e12

    def test_watch_overflow_mid_run_sets_blowup_flag(self):
        # p1 grows linearly; exp(1000*p1) overflows once p1 passes ~0.71
        ham = HamiltonianSpec.from_text("push", 1, "0.5*p1^2-x1")
        traj = dyn.integrate_rk4(
            ham, PhasePoint((0.0,), (0.0,)), 0.1, 100,
            {"big": parse("exp(1000*p1)", 1)},
        )
        assert traj.blew_up and traj.domain_error is None
        assert 1 < len(traj.states) < 101
        assert all(s.p[0] < 0.71 for s in traj.states)

    def test_hamiltonian_overflow_at_start_gives_empty_blowup(self):
        ham = HamiltonianSpec.from_text("steep", 1, "0.5*p1^2+exp(x1)")
        traj = dyn.integrate_rk4(ham, PhasePoint((800.0,), (1.0,)), 0.01, 10, {})
        assert traj.blew_up and traj.truncated
        assert traj.times == () and traj.states == ()
        assert traj.samples == {"H": ()}

    def test_watch_domain_error_at_start_gives_empty_trajectory(self):
        ham = HamiltonianSpec.from_text("free", 1, "0.5*p1^2")
        traj = dyn.integrate_rk4(
            ham, PhasePoint((-1.0,), (1.0,)), 0.01, 10, {"l": parse("ln(x1)", 1)}
        )
        assert not traj.blew_up
        assert traj.domain_error.startswith("sampling 'l': ln of non-positive")
        assert traj.times == ()
        with pytest.raises(ValueError):
            dyn.drift_report(traj)


class TestValidation:
    def test_bad_step_sizes(self, worked_ham, base_point):
        for dt in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError):
                dyn.integrate_rk4(worked_ham, base_point, dt, 10, {})

    def test_zero_steps_refused(self, worked_ham, base_point):
        with pytest.raises(ValueError, match="steps"):
            dyn.integrate_rk4(worked_ham, base_point, 1e-3, 0, {})

    def test_dimension_mismatch_refused(self, worked_ham):
        with pytest.raises(DimensionError):
            dyn.integrate_rk4(
                worked_ham, PhasePoint((1.0,), (1.0,)), 1e-3, 10, {}
            )

    def test_trajectory_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            dyn.Trajectory(times=(0.0, 1.0), states=(), samples={})

    def test_trajectory_rejects_sample_length_mismatch(self):
        state = PhasePoint((0.0,), (0.0,))
        with pytest.raises(ValueError, match="length mismatch"):
            dyn.Trajectory(
                times=(0.0,), states=(state,), samples={"H": (1.0, 2.0)}
            )

    def test_trajectory_rejects_non_increasing_times(self):
        state = PhasePoint((0.0,), (0.0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            dyn.Trajectory(
                times=(0.0, 0.0), states=(state, state), samples={}
            )

    def test_drift_report_refuses_empty_trajectory(self):
        with pytest.raises(ValueError, match="empty"):
            dyn.drift_report(dyn.Trajectory(times=(), states=(), samples={}))


class TestGeodesicResidual:
    def test_flow_is_autoparallel_at_base_point(self, worked_ham, base_point):
        residual = dyn.geodesic_residual(worked_ham, base_point)
        assert residual.shape == (4,)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_flow_is_autoparallel_across_the_box(self, worked_ham):
        points = sample_box(
            [(-2.0, 2.0)] * 2, [(0.2, 2.0)] * 2, 25, seed=12345
        )
        worst = max(
            np.max(np.abs(dyn.geodesic_residual(worked_ham, point)))
            for point in points
        )
        assert worst <= 1e-8

    def test_free_particle_residual_is_exactly_zero(self, free_ham):
        point = PhasePoint(x=(0.4, -1.2), p=(0.9, 0.3))
        assert np.all(dyn.geodesic_residual(free_ham, point) == 0.0)


class TestBerwaldTransportReexport:
    def test_agrees_for_a_generic_field(self, worked_ham, base_point):
        probe = VectorFieldSpec.from_text(
            2, ("x1*p2", "sin(x2)"), ("p1^2", "x1+p2")
        )
        diff = dyn.berwald_vs_nabla(worked_ham, probe, base_point)
        assert np.max(np.abs(diff)) <= 1e-9

    def test_vertical_field_route_agreement(self, worked_ham):
        probe = VectorFieldSpec.from_text(2, ("0", "0"), ("1", "0"))
        for point in sample_box(
            [(-1.0, 1.0)] * 2, [(0.3, 1.2)] * 2, 10, seed=5
        ):
            diff = dyn.berwald_vs_nabla(worked_ham, probe, point)
            assert np.max(np.abs(diff)) <= 1e-9
