"""Layer probe of the traced run, and the per-layer metrics it yields.

The probe calls each layer's public functions on fixed-size seeded
inputs, under the tracer, and every per-layer metric is a median over the
spans of one probe group.  The probe is the same on every workload, so a
per-layer metric means the same thing whichever workload's traced run
reports it.
"""

from __future__ import annotations

import statistics

import numpy as np

from workloads import (
    MANIFESTS,
    dynamics,
    expr,
    family_spec,
    family_text,
    geometry,
    manifest,
    phase,
    random_point,
    symmetry,
)

# Public geometry functions in dependency order; on a fresh point each
# call computes exactly one lazy stage of the workspace.
STAGES = (
    ("metric", ("metric",)),
    ("connection", ("connection",)),
    ("curvature", ("curvature",)),
    ("jacobi", ("jacobi_endomorphism", "jacobi_via_curvature")),
    ("nabla", ("nabla_coefficients",)),
    ("berwald", ("berwald_coefficients",)),
)
STAGE_POINTS = {2: 9, 4: 5, 6: 3}
CLOUD_POINTS = 24
WARM_POINTS = 6
RHS_CALLS = 200
RK4_STEPS = 4000
RK4_REPEATS = 3

SYMMETRY_METRICS = {
    "symmetry_residual": "symmetry_residual",
    "newtonoid_residual": "newtonoid_residual",
    "noether_residual": "noether_residual",
    "invariant_equation": "invariant_equation_residual",
    "liouville": "liouville_residual",
    "newtonoid_invariant": "newtonoid_invariant_residual",
    "complete_lift": "complete_lift",
}


def run_probe(tracer, seed: int):
    rng = np.random.default_rng([seed, 7])

    text = family_text(4)
    tracer.op = "expr"
    for _ in range(20):
        expr.parse(text, 4)
    for i in range(5):
        # a new name makes a new spec, so the cached field spec misses
        expr.hamiltonian_field_spec(expr.HamiltonianSpec(f"probe-{i}", 4, expr.parse(text, 4)))

    paper = manifest.load_manifest("paper-example")
    box = paper.sampling
    tracer.op = "load"
    for i in range(10):
        manifest.load_manifest(str(MANIFESTS / "synthetic-n3.json"))
        phase.sample_box(box.x_box, box.p_box, box.count, int(rng.integers(2**32)))

    for n, count in STAGE_POINTS.items():
        ham = family_spec(n)
        tracer.op = f"stages.n{n}"
        for _ in range(count):
            point = random_point(rng, n)
            for _, functions in STAGES:
                for function in functions:
                    getattr(geometry, function)(ham, point)

    ham = paper.hamiltonian
    points = phase.sample_box(box.x_box, box.p_box, CLOUD_POINTS, int(rng.integers(2**32)))
    tracer.op = "cloud"
    for point in points:
        geometry.metric(ham, point)
    full = [f for f in paper.fields.values() if isinstance(f, expr.VectorFieldSpec)]
    bases = [f for f in paper.fields.values() if isinstance(f, expr.BaseVectorFieldSpec)]
    fields = full + [symmetry.complete_lift(b) for b in bases]
    for point in points[:WARM_POINTS]:
        tracer.op = "warm"
        geometry.geometry_report(ham, point)
        tracer.op = "symmetry"
        for field in fields:
            symmetry.symmetry_residual(ham, field, point)
            symmetry.newtonoid_residual(ham, field, point)
            symmetry.noether_residual(ham, field, point)
            symmetry.invariant_equation_residual(ham, field, point)
            symmetry.liouville_residual(field, point)
            symmetry.newtonoid_invariant_residual(ham, field, point)
        for base in bases:
            symmetry.complete_lift(base)

    for n in (2, 4):
        ham = family_spec(n)
        tracer.op = f"rhs.n{n}"
        for _ in range(RHS_CALLS):
            dynamics.hamilton_rhs(ham, random_point(rng, n))
        tracer.op = f"rk4.n{n}"
        watch = {"p1": expr.parse("p1", n)}
        for _ in range(RK4_REPEATS):
            trajectory = dynamics.integrate_rk4(ham, random_point(rng, n), 1e-3, RK4_STEPS, watch)
            if len(trajectory.times) != RK4_STEPS + 1:
                raise RuntimeError(f"probe RK4 run at n={n} stopped early")
            dynamics.drift_report(trajectory)


def _durations(spans, name: str, op: str, top_level: bool = True) -> list:
    return [
        end - start
        for span_name, start, end, parent, span_op in spans
        if span_name == name and span_op == op and (parent < 0 or not top_level)
    ]


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> (value, unit), from the probe's spans."""
    out = {}

    def put(name, seconds, scale, unit):
        out[name] = (statistics.median(seconds) * scale, unit)

    for n in STAGE_POINTS:
        group = f"stages.n{n}"
        put(f"jets.nested_lift_ms.n{n}", _durations(spans, "jets.nested_jet_lift", group, False), 1e3, "ms")
        for stage, functions in STAGES:
            per_call = [_durations(spans, f"geometry.{f}", group) for f in functions]
            put(f"geometry.{stage}_ms.n{n}", [sum(calls) for calls in zip(*per_call)], 1e3, "ms")
    put("geometry.metric_ms.cloud", _durations(spans, "geometry.metric", "cloud"), 1e3, "ms")
    for order in (1, 2):
        put(f"jets.lift_us.o{order}", _durations(spans, f"jets.jet_lift.o{order}", "symmetry", False), 1e6, "us")
    for metric, function in SYMMETRY_METRICS.items():
        put(f"symmetry.{metric}_us", _durations(spans, f"symmetry.{function}", "symmetry"), 1e6, "us")
    put("phase.sample_box_ms", _durations(spans, "phase.sample_box", "load"), 1e3, "ms")
    put("manifest.load_ms", _durations(spans, "manifest.load_manifest", "load"), 1e3, "ms")
    put("expr.parse_us", _durations(spans, "expr.parse", "expr"), 1e6, "us")
    put("expr.field_spec_ms", _durations(spans, "expr.hamiltonian_field_spec", "expr"), 1e3, "ms")
    drift = []
    for n in (2, 4):
        put(f"dynamics.rhs_us.n{n}", _durations(spans, "dynamics.hamilton_rhs", f"rhs.n{n}"), 1e6, "us")
        runs = _durations(spans, "dynamics.integrate_rk4", f"rk4.n{n}")
        out[f"dynamics.rk4_steps_per_s.n{n}"] = (RK4_STEPS / statistics.median(runs), "steps/s")
        drift += _durations(spans, "dynamics.drift_report", f"rk4.n{n}")
    put("dynamics.drift_report_ms", drift, 1e3, "ms")
    return out
