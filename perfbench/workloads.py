"""The three benchmark workloads: seeded inputs, timed ops, checks.

A workload builds every input from the benchmark seed, runs its op kinds
in a fixed round (one op of each kind, in order), and checks each result
outside the timed region by routes that do not go through the jet engine.
The package sees only the generated inputs; it is imported from the
``src`` directory of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "hamgeo" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no hamgeo sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hamgeo  # noqa: E402
from hamgeo import cli, dynamics, expr, geometry, jets, manifest, phase, symmetry  # noqa: E402,F401

if Path(hamgeo.__file__).resolve().parent != SRC / "hamgeo":
    raise SystemExit(f"perfbench: imported hamgeo from {hamgeo.__file__}, not {SRC}")

MANIFESTS = HERE / "manifests"


def family_text(n: int) -> str:
    """Expression text of the synthetic Hamiltonian F_n (n >= 2).

    F_n = 1/2 sum_{i<=n} (1 + 0.1 x_{i+1}^2) p_i^2
          + 0.1 sum_{i<n} sin(x_i) p_i p_{i+1},   with x_{n+1} = x_1.

    It is quadratic in p with x-dependent coefficients and has no
    potential.  Only then is the Hamiltonian flow horizontal, so the two
    Jacobi routes agree to rounding (about 1e-16); with a potential term
    they differ by O(0.5) and the cross-route checks would mean nothing.
    The wrap-around makes every x_i enter the metric, so the geometry is
    dense at every n.
    """
    kinetic = " + ".join(
        f"(1 + 0.1*x{i % n + 1}^2)*p{i}^2" for i in range(1, n + 1)
    )
    cross = " + ".join(f"sin(x{i})*p{i}*p{i + 1}" for i in range(1, n))
    return f"0.5*({kinetic}) + 0.1*({cross})"


def family_spec(n: int) -> expr.HamiltonianSpec:
    return expr.HamiltonianSpec.from_text(f"F{n}", n, family_text(n))


def random_point(rng, n: int) -> phase.PhasePoint:
    """A point of the sampling box shared by the synthetic workloads."""
    x = rng.uniform(-1.5, 1.5, n)
    p = rng.uniform(0.2, 1.5, n)
    return phase.PhasePoint(tuple(x.tolist()), tuple(p.tolist()))


def _quiet_cli(argv: list) -> int:
    """One in-process CLI call; its human tables go to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _Checks:
    """Collects the failures of one op's correctness checks."""

    def __init__(self):
        self.failures = []

    def at_most(self, label: str, value: float, tol: float):
        if not float(value) <= tol:
            self.failures.append(f"{label} = {float(value):.3e} > {tol:g}")

    def equal(self, label: str, got, want):
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")


# --------------------------------------------------------------------------


class GeometrySweep:
    """One ``geometry_report(F_n, P)`` per op at a fresh seeded point.

    Points never repeat, so the workspace cache always misses and every op
    pays the nested order-3 jet lift and every workspace stage.
    """

    name = "geometry-sweep"
    kinds = ("n2", "n4", "n6")
    rss_rounds = 10
    # The central-difference oracle's O(h^2) bias plus roundoff measured
    # at most 4e-8 against exact second derivatives up to n = 6.
    FD_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.specs = {f"n{n}": family_spec(n) for n in (2, 4, 6)}
        self.rng = np.random.default_rng(seed)

    def prepare(self, kind: str):
        ham = self.specs[kind]
        return ham, random_point(self.rng, ham.dim)

    def execute(self, kind: str, args):
        return geometry.geometry_report(*args)

    def check(self, kind: str, args, report) -> list:
        ham, point = args
        n = ham.dim
        c = _Checks()
        c.at_most(
            "|g_upper g_lower - I|",
            np.abs(report.g_upper @ report.g_lower - np.eye(n)).max(), 1e-10,
        )
        c.at_most("|N - N^T|", np.abs(report.N - report.N.T).max(), 1e-12)
        c.at_most(
            "|R[i][j] + R[j][i]|",
            np.abs(report.R3 + report.R3.transpose(1, 0, 2)).max(), 1e-10,
        )
        contraction = np.einsum("k,kij->ij", report.xi, report.R3)
        c.at_most("|Phi - xi.R|", np.abs(report.Phi - contraction).max(), 1e-9)
        c.at_most(
            "|horizontality residual|",
            np.abs(report.horizontality_residual).max(), 1e-10,
        )
        c.at_most(
            "|nabla metric residual|",
            np.abs(geometry.nabla_metric_residual(ham, point)).max(), 1e-9,
        )
        fd = np.array(
            [
                [jets.fd_oracle(ham.expr, point, (n + i, n + j)) for j in range(n)]
                for i in range(n)
            ]
        )
        c.at_most("|g_upper - fd_oracle|", np.abs(report.g_upper - fd).max(), self.FD_TOL)
        return c.failures


class SymmetryCloud:
    """One in-process ``hamgeo symmetry`` or ``hamgeo lift`` call per op.

    Each call gets a fresh ``--seed``, so its sample cloud is new and every
    point builds its own workspace, shared by all fields and notions.
    """

    name = "symmetry-cloud"
    kinds = ("lift.paper", "symmetry.paper", "lift.n3", "symmetry.n3")
    rss_rounds = 4
    # (subcommand, manifest, exit code, verdict pass/fail pattern); none
    # depends on the sampling seed.
    EXPECTED = {
        "lift.paper": ("lift", "paper-example", 1, "PPFFFPP"),
        "symmetry.paper": (
            "symmetry", "paper-example", 1, "PPPPPPPPFFFFFFFPFFFPPPPPFFFF",
        ),
        "lift.n3": ("lift", str(MANIFESTS / "synthetic-n3.json"), 1, "PFFFPP"),
        "symmetry.n3": (
            "symmetry", str(MANIFESTS / "synthetic-n3.json"), 1,
            "PPPPFFFPFFFFFFFPFFFFFFFF",
        ),
    }

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.used_seeds = set()
        self.repeated = set()
        for _, source, _, _ in self.EXPECTED.values():
            manifest.load_manifest(source)

    def prepare(self, kind: str) -> list:
        seed = int(self.rng.integers(0, 2**62))
        while seed in self.used_seeds:
            seed = int(self.rng.integers(0, 2**62))
        self.used_seeds.add(seed)
        command, source, _, _ = self.EXPECTED[kind]
        out = self.workdir / f"{kind}.json"
        return [command, "--manifest", source, "--seed", str(seed), "--json", str(out)]

    def execute(self, kind: str, argv: list) -> int:
        return _quiet_cli(argv)

    def check(self, kind: str, argv: list, code: int) -> list:
        _, _, want_code, want_pattern = self.EXPECTED[kind]
        c = _Checks()
        c.equal("exit code", code, want_code)
        text = Path(argv[-1]).read_bytes()
        verdicts = json.loads(text)["verdicts"]
        pattern = "".join("P" if v["passed"] else "F" for v in verdicts)
        c.equal("verdict pattern", pattern, want_pattern)
        if kind not in self.repeated:
            # the first op of each kind is repeated with the same seed
            self.repeated.add(kind)
            again = self.workdir / f"{kind}.repeat.json"
            _quiet_cli(argv[:-1] + [str(again)])
            c.equal("repeated --json bytes identical", again.read_bytes() == text, True)
        return c.failures


class IntegrateLong:
    """One in-process ``hamgeo integrate`` run per op.

    ``paper-example`` runs its default 10^4-step run; ``n4`` runs the long
    run of the synthetic n = 4 manifest with watches, from a seeded start.
    """

    name = "integrate-long"
    kinds = ("paper", "n4")
    rss_rounds = 6

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        doc = json.loads((MANIFESTS / "synthetic-n4.json").read_text())
        start = random_point(np.random.default_rng(seed), doc["dim"])
        doc["points"]["start"] = list(start.flat)
        n4_path = workdir / "synthetic-n4.json"
        n4_path.write_text(json.dumps(doc, indent=2) + "\n")
        self.sources = {"paper": "paper-example", "n4": str(n4_path)}
        self.manifests = {
            kind: manifest.load_manifest(source)
            for kind, source in self.sources.items()
        }
        self.steps = {
            kind: sum(run.steps for run in m.runs.values())
            for kind, m in self.manifests.items()
        }

    def prepare(self, kind: str) -> list:
        out = self.workdir / f"{kind}.json"
        return ["integrate", "--manifest", self.sources[kind], "--json", str(out)]

    def execute(self, kind: str, argv: list) -> int:
        return _quiet_cli(argv)

    def check(self, kind: str, argv: list, code: int) -> list:
        tol = self.manifests[kind].tolerance("drift_hamiltonian")
        c = _Checks()
        c.equal("exit code", code, 0)
        runs = json.loads(Path(argv[-1]).read_text())["trajectories"]
        c.equal("runs", sorted(runs), sorted(self.manifests[kind].runs))
        for name, run in runs.items():
            c.equal(f"{name} completed steps", run["completed_steps"], run["requested_steps"])
            c.at_most(f"{name} H drift", run["drift"]["H"]["max_drift"], tol)
        return c.failures


WORKLOADS = {w.name: w for w in (GeometrySweep, SymmetryCloud, IntegrateLong)}


def set_up(name: str, seed: int, workdir: Path):
    """Build a workload and run its warm-up op (the first kind of a round).

    Returns the workload and the warm-up op's check failures.
    """
    workload = WORKLOADS[name](seed, workdir)
    kind = workload.kinds[0]
    args = workload.prepare(kind)
    return workload, workload.check(kind, args, workload.execute(kind, args))
