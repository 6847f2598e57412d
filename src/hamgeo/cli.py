"""Command-line front end: manifests in, human tables and JSON reports out.

Subcommands: ``report`` (pointwise geometry), ``symmetry`` (per-field
residual verdicts over the sample cloud), ``lift`` (complete lifts of
base fields, Newtonoid completions of full fields), ``integrate``
(fixed-step runs with drift tables), and ``selftest`` (the built-in
acceptance checks).

Exit codes: 0 all checks passed, 1 a check failed, 2 manifest problem
(including a named or sampled point outside an expression's domain),
3 regularity failure (the metric was numerically singular at a named
point; the message carries the condition estimate).

Machine reports (``--json PATH``) always contain the five top-level keys
``manifest``, ``conventions``, ``geometry``, ``symmetry``,
``trajectories``, ``verdicts`` and are byte-identical across runs for a
fixed manifest and seed: floats serialize as their shortest round-trip
decimal, sections follow manifest declaration order, and nothing
time-dependent is recorded.  Human tables use 1-based indices.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import symmetry as sym
from .errors import EvaluationError, ManifestError, RegularityError
from .expr import Const, VectorFieldSpec, to_text
from .manifest import Manifest, load_manifest
from .selftest import result_lines, run_checks

__all__ = ["CONVENTIONS", "main", "main_entry"]

#: Sign and layout choices a reader needs to reproduce reported numbers.
CONVENTIONS = {
    "index_base": 1,
    "coordinate_order": "x1..xn then p1..pn",
    "complete_lift_momentum_sign": (
        "minus: lifted p-component_i = -sum_j p_j * d(X^j)/dx^i"
    ),
    "connection_symmetry": "N is symmetrized by construction, N_ij = N_ji",
    "curvature_layout": (
        "R[i][j][k] = delta_i N_jk - delta_j N_ik, antisymmetric in (i, j)"
    ),
    "jacobi_contraction": "Phi[i][j] = sum_k xi^k R[k][i][j]",
    "metric_transport_identity": (
        "flow derivative of the inverse metric equals D g + g D^T "
        "with D = A + g N"
    ),
    "float_serialization": "shortest round-trip decimal (Python repr)",
}

_EXIT_PASS = 0
_EXIT_CHECK_FAILURE = 1
_EXIT_MANIFEST_ERROR = 2
_EXIT_REGULARITY_ERROR = 3


class _RegularityExit(Exception):
    """Internal: a regularity failure already formatted for the user."""


class _DomainExit(Exception):
    """Internal: a domain error at a point, already formatted for the user."""


@contextmanager
def _at_point(label: str, point):
    """Turn a regularity failure inside the block into a :class:`_RegularityExit`,
    and a domain error (an expression evaluated where it is undefined) into
    a :class:`_DomainExit`; both messages name the point."""
    where = f"{label} at {_vector_text(point.flat)}"
    try:
        yield
    except RegularityError as exc:
        raise _RegularityExit(f"{where}: {exc}") from exc
    except EvaluationError as exc:
        raise _DomainExit(f"{where}: {exc}") from exc


# --------------------------------------------------------------------------
# formatting helpers


def _num(value: float) -> str:
    # the 0.0 addend folds negative zero into plain zero for display
    return f"{value + 0.0:.12g}"


def _vector_text(values) -> str:
    return "(" + ", ".join(_num(v) for v in np.asarray(values)) + ")"


def _print_matrix(label: str, matrix, indent: str = "  ") -> None:
    print(f"{indent}{label}:")
    for row in np.asarray(matrix):
        print(indent + "  [" + "  ".join(f"{v + 0.0:>16.12g}" for v in row) + "]")


def _print_tensor3(label: str, tensor, indent: str = "  ") -> None:
    tensor = np.asarray(tensor)
    print(f"{indent}{label}:")
    for i, slice_ in enumerate(tensor):
        _print_matrix(f"[{i + 1}]", slice_, indent + "  ")


def _pick(table: dict, names, kind: str) -> list:
    """Requested (name, value) pairs, or the whole table in declaration
    order when no names were given."""
    if not names:
        return list(table.items())
    missing = [name for name in names if name not in table]
    if missing:
        raise ManifestError(
            f"{kind} name(s) not defined in the manifest: {', '.join(missing)}"
        )
    return [(name, table[name]) for name in names]


def _as_full(field, dim: int) -> VectorFieldSpec:
    """Base fields act on phase space with zero momentum components."""
    if isinstance(field, VectorFieldSpec):
        return field
    return VectorFieldSpec(
        dim, field.components, tuple(Const(0.0) for _ in range(dim))
    )


def _verdict(report, check, subject, value, tolerance, passed) -> bool:
    report["verdicts"].append(
        {
            "check": check,
            "subject": subject,
            "passed": bool(passed),
            "value": float(value),
            "tolerance": None if tolerance is None else float(tolerance),
        }
    )
    return bool(passed)


# --------------------------------------------------------------------------
# subcommands


def _cmd_report(manifest: Manifest, args, report: dict) -> int:
    tol = manifest.tolerance("horizontality", args.tol_scale)
    for name, point in _pick(manifest.points, args.points, "point"):
        with _at_point(f"point {name!r}", point):
            block = geo.geometry_report(manifest.hamiltonian, point, tol)

        print(
            f"point {name!r}: x = {_vector_text(point.x)}, "
            f"p = {_vector_text(point.p)}"
        )
        print(f"  metric condition estimate (rcond): {_num(block.rcond)}")
        _print_matrix("inverse metric g^ (momentum Hessian)", block.g_upper)
        _print_matrix("metric g_ (Hessian inverse)", block.g_lower)
        print(f"  flow xi (dH/dp): {_vector_text(block.xi)}")
        print(f"  flow chi (-dH/dx): {_vector_text(block.chi)}")
        _print_matrix("N (nonlinear connection)", block.N)
        _print_tensor3("curvature R[i][j][k], slices over i", block.R3)
        _print_matrix("Phi (Jacobi endomorphism)", block.Phi)
        _print_matrix("nabla coefficients, horizontal", block.nabla_h)
        _print_matrix("nabla coefficients, vertical", block.nabla_v)
        _print_tensor3("Berwald hh[i][j][s], slices over i", block.berwald.hh)
        _print_tensor3("Berwald hv[i][j][r], slices over i", block.berwald.hv)
        _print_tensor3("Berwald vv[i][j][s], slices over i", block.berwald.vv)
        residual_max = float(np.max(np.abs(block.horizontality_residual)))
        print(
            f"  horizontal: {'yes' if block.horizontal else 'NO'} "
            f"(residual max {residual_max:.6e}, tol {tol:g})"
        )
        print()

        report["geometry"][name] = {
            "point": list(point.flat),
            "rcond": float(block.rcond),
            "g_upper": block.g_upper.tolist(),
            "g_lower": block.g_lower.tolist(),
            "xi": block.xi.tolist(),
            "chi": block.chi.tolist(),
            "N": block.N.tolist(),
            "R": block.R3.tolist(),
            "Phi": block.Phi.tolist(),
            "nabla_h": block.nabla_h.tolist(),
            "nabla_v": block.nabla_v.tolist(),
            "berwald": {
                "hh": block.berwald.hh.tolist(),
                "hv": block.berwald.hv.tolist(),
                "vh": block.berwald.vh.tolist(),
                "vv": block.berwald.vv.tolist(),
            },
            "horizontal": bool(block.horizontal),
            "horizontality_residual": block.horizontality_residual.tolist(),
        }
        _verdict(
            report, "horizontality", f"point:{name}",
            residual_max, tol, block.horizontal,
        )
    return _EXIT_PASS


def _symmetry_notions(manifest: Manifest, scale: float):
    ham = manifest.hamiltonian

    def noether_max(field, point):
        lie_omega, xh = sym.noether_residual(ham, field, point)
        return max(float(np.max(np.abs(lie_omega))), abs(xh))

    return (
        (
            "infinitesimal symmetry",
            manifest.tolerance("symmetry_residual", scale),
            lambda f, pt: float(np.max(np.abs(sym.symmetry_residual(ham, f, pt)))),
        ),
        (
            "Newtonoid",
            manifest.tolerance("newtonoid_residual", scale),
            lambda f, pt: float(np.max(np.abs(sym.newtonoid_residual(ham, f, pt)))),
        ),
        (
            "Noether",
            manifest.tolerance("noether_residual", scale),
            noether_max,
        ),
        (
            "invariant equation",
            manifest.tolerance("invariant_equation_residual", scale),
            lambda f, pt: float(
                np.max(np.abs(sym.invariant_equation_residual(ham, f, pt)))
            ),
        ),
    )


def _cmd_symmetry(manifest: Manifest, args, report: dict) -> int:
    points = manifest.sampling.points(args.seed)
    notions = _symmetry_notions(manifest, args.tol_scale)
    all_passed = True
    for name, field in _pick(manifest.fields, args.fields, "field"):
        full = _as_full(field, manifest.dim)
        kind = "full" if isinstance(field, VectorFieldSpec) else "base"
        print(f"field {name!r} ({kind}):")
        block = {"kind": kind, "notions": {}}
        for label, tol, measure in notions:
            values = []
            for point in points:
                with _at_point("sample point", point):
                    values.append(measure(full, point))
            # the first largest value, where a NaN residual counts as largest
            k = int(np.argmax(values))
            worst, worst_point = values[k], points[k]
            passed = worst <= tol
            all_passed &= passed
            status = "PASS" if passed else "FAIL"
            print(
                f"  {label}: {status}  "
                f"(max |residual| = {worst:.6e} over {len(points)} points, "
                f"tol {tol:g})"
            )
            key = label.replace(" ", "-")
            block["notions"][key] = {
                "max": worst,
                "tolerance": tol,
                "passed": passed,
                "worst_point": list(worst_point.flat),
            }
            _verdict(report, key, f"field:{name}", worst, tol, passed)
        report["symmetry"][name] = block
        print()
    return _EXIT_PASS if all_passed else _EXIT_CHECK_FAILURE


def _cmd_lift(manifest: Manifest, args, report: dict) -> int:
    ham = manifest.hamiltonian
    points = manifest.sampling.points(args.seed)
    theta_tol = manifest.tolerance("liouville_residual", args.tol_scale)
    invariant_tol = manifest.tolerance(
        "newtonoid_invariant_residual", args.tol_scale
    )
    all_passed = True
    for name, field in _pick(manifest.fields, args.fields, "field"):
        if isinstance(field, VectorFieldSpec):
            print(f"field {name!r} (full): Newtonoid completion")
            block = {"kind": "full", "lift_at_points": {}}
            for pname, point in manifest.points.items():
                with _at_point(f"point {pname!r}", point):
                    values, vertical = sym.newtonoid_lift(
                        ham, field.x_components, point
                    )
                print(
                    f"  at point {pname!r}: x-components {_vector_text(values)}"
                    f" -> vertical completion {_vector_text(vertical)}"
                )
                block["lift_at_points"][pname] = {
                    "x": values.tolist(),
                    "vertical": vertical.tolist(),
                }
            residuals = []
            for pt in points:
                with _at_point("sample point", pt):
                    residuals.append(
                        sym.newtonoid_invariant_residual(ham, field, pt)
                    )
            worst = float(np.max(np.abs(residuals)))
            passed = worst <= invariant_tol
            status = "PASS" if passed else "FAIL"
            print(
                f"  invariance of the declared vertical part: {status}  "
                f"(max |residual| = {worst:.6e}, tol {invariant_tol:g})"
            )
            block["invariant_residual_max"] = worst
            block["tolerance"] = invariant_tol
            block["passed"] = passed
            _verdict(
                report, "newtonoid-invariance", f"field:{name}",
                worst, invariant_tol, passed,
            )
        else:
            lift = sym.complete_lift(field)
            print(f"field {name!r} (base): complete lift")
            for i, comp in enumerate(lift.x_components):
                print(f"  d/dx{i + 1} coefficient: {to_text(comp)}")
            for i, comp in enumerate(lift.p_components):
                print(f"  d/dp{i + 1} coefficient: {to_text(comp)}")
            thetas, xhs = [], []
            for pt in points:
                with _at_point("sample point", pt):
                    thetas.append(sym.liouville_residual(lift, pt))
                    xhs.append(sym.noether_residual(ham, lift, pt)[1])
            worst_theta = float(np.max(np.abs(thetas)))
            worst_xh = float(np.max(np.abs(xhs)))
            passed = worst_theta <= theta_tol
            status = "PASS" if passed else "FAIL"
            print(
                f"  canonical one-form preserved: {status}  "
                f"(max |residual| = {worst_theta:.6e}, tol {theta_tol:g})"
            )
            print(f"  max |X(H)| over samples: {worst_xh:.6e}")
            momentum = {}
            for pname, point in manifest.points.items():
                with _at_point(f"point {pname!r}", point):
                    momentum[pname] = sym.momentum_map(field, point)
            for pname, value in momentum.items():
                print(f"  momentum map at {pname!r}: {_num(value)}")
            block = {
                "kind": "base",
                "complete_lift": {
                    "x": [to_text(c) for c in lift.x_components],
                    "p": [to_text(c) for c in lift.p_components],
                },
                "canonical_one_form_max": worst_theta,
                "tolerance": theta_tol,
                "passed": passed,
                "hamiltonian_derivative_max": worst_xh,
                "momentum_map": momentum,
            }
            _verdict(
                report, "canonical-one-form", f"field:{name}",
                worst_theta, theta_tol, passed,
            )
        all_passed &= passed
        report["symmetry"][name] = block
        print()
    return _EXIT_PASS if all_passed else _EXIT_CHECK_FAILURE


def _cmd_integrate(manifest: Manifest, args, report: dict) -> int:
    drift_tol = manifest.tolerance("drift_hamiltonian", args.tol_scale)
    all_passed = True
    for name, run in _pick(manifest.runs, args.runs, "run"):
        trajectory = dyn.integrate_rk4(
            manifest.hamiltonian, run.start, run.dt, run.steps, run.watch
        )
        if trajectory.times:
            drift = dyn.drift_report(trajectory)
            completed = len(trajectory.times) - 1
            final_time = trajectory.times[-1]
            final_state = trajectory.states[-1]
        else:
            # the start state itself could not be sampled
            drift, completed, final_time, final_state = {}, 0, 0.0, run.start
        print(
            f"run {name!r}: dt = {_num(run.dt)}, "
            f"{completed}/{run.steps} steps, final time {_num(final_time)}"
        )
        h_passed = bool(drift) and drift["H"][1] <= drift_tol
        for wname, (initial, max_drift) in drift.items():
            note = ""
            if wname == "H":
                note = f"  (tol {drift_tol:g}: {'PASS' if h_passed else 'FAIL'})"
            print(
                f"  {wname}: initial {_num(initial)}, "
                f"max |drift| {max_drift:.6e}{note}"
            )
        if trajectory.blew_up:
            print("  status: BLOW-UP, trajectory truncated")
        elif trajectory.domain_error is not None:
            print(f"  status: DOMAIN ERROR ({trajectory.domain_error})")
        else:
            print("  status: completed")
        print()

        report["trajectories"][name] = {
            "dt": run.dt,
            "requested_steps": run.steps,
            "completed_steps": completed,
            "final_time": final_time,
            "final_state": list(final_state.flat),
            "blew_up": trajectory.blew_up,
            "domain_error": trajectory.domain_error,
            "drift": {
                wname: {"initial": initial, "max_drift": max_drift}
                for wname, (initial, max_drift) in drift.items()
            },
        }
        if drift:
            _verdict(
                report, "energy-drift", f"run:{name}",
                drift["H"][1], drift_tol, h_passed,
            )
        completed_ok = _verdict(
            report, "completed", f"run:{name}",
            completed, None, not trajectory.truncated,
        )
        all_passed &= h_passed and completed_ok
    return _EXIT_PASS if all_passed else _EXIT_CHECK_FAILURE


def _cmd_selftest(args, report: dict) -> int:
    results = run_checks(args.tol_scale)
    for line in result_lines(results):
        print(line)
    for result in results:
        report["verdicts"].append(
            {
                "check": result.name,
                "subject": "selftest",
                "passed": result.passed,
                "detail": result.detail,
                "expected_failure": result.expected_failure,
            }
        )
    if all(result.passed for result in results):
        return _EXIT_PASS
    return _EXIT_CHECK_FAILURE


# --------------------------------------------------------------------------
# argument plumbing


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _scale_type(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("tol-scale must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--manifest",
        default=argparse.SUPPRESS,
        help="manifest file path or built-in name (default: paper-example)",
    )
    common.add_argument(
        "--seed",
        type=_seed_type,
        default=argparse.SUPPRESS,
        help="override the manifest sampling seed",
    )
    common.add_argument(
        "--tol-scale",
        dest="tol_scale",
        type=_scale_type,
        default=argparse.SUPPRESS,
        help="multiply every default tolerance by this factor",
    )
    common.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the machine-readable report to PATH",
    )

    parser = argparse.ArgumentParser(
        prog="hamgeo",
        parents=[common],
        description=(
            "Pointwise geometry, symmetry verdicts, and conservation "
            "drift checks for regular Hamiltonians."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser(
        "report", parents=[common], help="pointwise geometry tables"
    )
    cmd.add_argument("points", nargs="*", metavar="POINT",
                     help="point names (default: every manifest point)")

    cmd = sub.add_parser(
        "symmetry", parents=[common],
        help="per-field residual verdicts over the sample cloud",
    )
    cmd.add_argument("fields", nargs="*", metavar="FIELD",
                     help="field names (default: every manifest field)")

    cmd = sub.add_parser(
        "lift", parents=[common],
        help="complete lifts of base fields, Newtonoid completions of full fields",
    )
    cmd.add_argument("fields", nargs="*", metavar="FIELD",
                     help="field names (default: every manifest field)")

    cmd = sub.add_parser(
        "integrate", parents=[common], help="fixed-step runs with drift tables"
    )
    cmd.add_argument("runs", nargs="*", metavar="RUN",
                     help="run names (default: every manifest run)")

    sub.add_parser(
        "selftest", parents=[common],
        help="built-in acceptance checks over the shipped manifests",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.manifest = getattr(args, "manifest", "paper-example")
    args.seed = getattr(args, "seed", None)
    args.tol_scale = getattr(args, "tol_scale", 1.0)
    args.json_path = getattr(args, "json_path", None)

    report = {
        "manifest": {},
        "conventions": dict(CONVENTIONS),
        "geometry": {},
        "symmetry": {},
        "trajectories": {},
        "verdicts": [],
    }
    try:
        if args.command == "selftest":
            code = _cmd_selftest(args, report)
        else:
            manifest = load_manifest(args.manifest)
            report["manifest"] = manifest.raw
            if args.command == "report":
                code = _cmd_report(manifest, args, report)
            elif args.command == "symmetry":
                code = _cmd_symmetry(manifest, args, report)
            elif args.command == "lift":
                code = _cmd_lift(manifest, args, report)
            else:
                code = _cmd_integrate(manifest, args, report)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return _EXIT_MANIFEST_ERROR
    except _DomainExit as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_MANIFEST_ERROR
    except _RegularityExit as exc:
        print(f"regularity error: {exc}", file=sys.stderr)
        return _EXIT_REGULARITY_ERROR

    if args.json_path is not None:
        Path(args.json_path).write_text(json.dumps(report, indent=2) + "\n")
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
