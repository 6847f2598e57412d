"""Trajectories of Hamiltonian flows and the transport checks along them.

The integrator is a fixed-step classical Runge-Kutta method over compiled
right-hand sides, chosen so drift numbers are deterministic.  Watched
scalar expressions (the Hamiltonian always included) are sampled at every
accepted state; conservation shows up as bounded drift.

Failure modes are flags, not exceptions: a state escaping the guard radius,
or a watched expression overflowing, sets ``blew_up``; an expression domain
violation mid-flight sets ``domain_error``.  In both cases the partial
trajectory up to the last good state is returned, which is empty when the
start state itself cannot be sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .errors import DimensionError
from .expr import (
    Expression,
    HamiltonianSpec,
    _compile_float,
    hamiltonian_field_spec,
)
from .geometry import berwald_vs_nabla, nabla_vector_field
from .phase import PhasePoint

__all__ = [
    "Trajectory",
    "hamilton_rhs",
    "integrate_rk4",
    "drift_report",
    "geodesic_residual",
    "berwald_vs_nabla",
    "BLOWUP_GUARD",
]

#: Any state component beyond this magnitude aborts integration.
BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class Trajectory:
    """A fixed-step integral curve with per-state watched samples.

    ``samples`` always contains "H"; ``times`` and ``states`` line up with
    every sample sequence.  ``blew_up`` / ``domain_error`` mark truncation.
    """

    times: tuple
    states: tuple
    samples: dict
    blew_up: bool = False
    domain_error: Optional[str] = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        for name, values in self.samples.items():
            if len(values) != len(self.times):
                raise ValueError(f"sample {name!r} length mismatch")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def truncated(self) -> bool:
        return self.blew_up or self.domain_error is not None


@lru_cache(maxsize=None)
def _compiled_rhs(ham: HamiltonianSpec):
    """One compiled function returning all 2n flow components."""
    spec = hamiltonian_field_spec(ham)
    compiled = [
        _compile_float(c, ham.dim)
        for c in spec.x_components + spec.p_components
    ]

    def rhs(flat):
        return [f(*flat) for f in compiled]

    return rhs


@lru_cache(maxsize=None)
def _compiled_scalar(expr: Expression, dim: int):
    return _compile_float(expr, dim)


def hamilton_rhs(ham: HamiltonianSpec, state: PhasePoint) -> np.ndarray:
    """Flow components (dH/dp, -dH/dx) at a state."""
    if state.dim != ham.dim:
        raise DimensionError(
            f"state has dimension {state.dim}, Hamiltonian {ham.dim}"
        )
    return np.array(_compiled_rhs(ham)(state.flat))


def integrate_rk4(
    ham: HamiltonianSpec,
    start: PhasePoint,
    dt: float,
    steps: int,
    watch: Optional[Mapping[str, Expression]] = None,
) -> Trajectory:
    """Classical fixed-step fourth-order integration of the flow.

    ``watch`` maps names to scalar expressions sampled per state; "H" is
    reserved for the Hamiltonian itself and always sampled.
    """
    if start.dim != ham.dim:
        raise DimensionError(
            f"start has dimension {start.dim}, Hamiltonian {ham.dim}"
        )
    if not (dt > 0.0) or not np.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    watch = dict(watch or {})
    if "H" in watch:
        raise ValueError('watch name "H" is reserved for the Hamiltonian')

    n = ham.dim
    rhs = _compiled_rhs(ham)
    probes = {"H": _compiled_scalar(ham.expr, n)}
    probes.update(
        (name, _compiled_scalar(expr, n)) for name, expr in watch.items()
    )

    times = []
    states = []
    samples: dict = {name: [] for name in probes}
    blew_up = False
    domain_error = None

    def accept(t, flat) -> bool:
        nonlocal blew_up, domain_error
        row = {}
        for name, probe in probes.items():
            try:
                row[name] = probe(*flat)
            except OverflowError:
                blew_up = True
                return False
            except (ValueError, ZeroDivisionError) as exc:
                domain_error = f"sampling {name!r}: {exc}"
                return False
        times.append(t)
        states.append(PhasePoint(tuple(flat[:n]), tuple(flat[n:])))
        for name, value in row.items():
            samples[name].append(value)
        return True

    state = list(start.flat)
    if accept(0.0, state):
        half = 0.5 * dt
        sixth = dt / 6.0
        # Kahan carry per component: keeps long runs truncation-dominated
        # instead of drowning the step-size order in accumulated roundoff.
        carry = [0.0] * (2 * n)
        for k in range(1, steps + 1):
            try:
                k1 = rhs(state)
                k2 = rhs([s + half * v for s, v in zip(state, k1)])
                k3 = rhs([s + half * v for s, v in zip(state, k2)])
                k4 = rhs([s + dt * v for s, v in zip(state, k3)])
                update = [
                    sixth * (a + 2.0 * (b + c) + d)
                    for a, b, c, d in zip(k1, k2, k3, k4)
                ]
            except OverflowError:
                blew_up = True
                break
            except (ValueError, ZeroDivisionError) as exc:
                domain_error = f"step {k}: {exc}"
                break
            nxt = []
            next_carry = []
            for s, u, c in zip(state, update, carry):
                y = u - c
                t = s + y
                next_carry.append((t - s) - y)
                nxt.append(t)
            if any(
                not np.isfinite(v) or abs(v) > BLOWUP_GUARD for v in nxt
            ):
                blew_up = True
                break
            state = nxt
            carry = next_carry
            if not accept(k * dt, state):
                break

    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        samples={name: tuple(vals) for name, vals in samples.items()},
        blew_up=blew_up,
        domain_error=domain_error,
    )


def drift_report(trajectory: Trajectory) -> dict:
    """Per watched quantity: (initial value, max |Q(t) - Q(0)|)."""
    if not trajectory.times:
        raise ValueError("empty trajectory")
    out = {}
    for name, values in trajectory.samples.items():
        initial = values[0]
        drift = max(abs(v - initial) for v in values)
        out[name] = (initial, drift)
    return out


def geodesic_residual(ham: HamiltonianSpec, point: PhasePoint) -> np.ndarray:
    """Covariant derivative of the flow along itself; zero states that
    integral curves are geodesics of the canonical connection."""
    return nabla_vector_field(ham, hamiltonian_field_spec(ham), point)
