"""Command-line behavior: tables, exit codes, JSON reports, determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgeo.cli import CONVENTIONS, main


def write_manifest(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestReport:
    def test_benchmark_connection_block(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "point 'base'" in out
        assert "N (nonlinear connection):" in out
        # the N block at (1,0,1,1) is [[-2, 2], [2, -3]]
        rows = [
            line.replace(" ", "")
            for line in out.splitlines()
            if line.strip().startswith("[") and "]" in line
        ]
        assert "[-22]" in rows and "[2-3]" in rows

    def test_free_particle_blocks_are_zero(self, capsys):
        assert main(["report", "--manifest", "free-particle"]) == 0
        out = capsys.readouterr().out
        for label in ("N (nonlinear connection)", "Phi (Jacobi endomorphism)"):
            section = out.split(label)[1]
            first_rows = section.splitlines()[1:3]
            assert all(
                set(row.replace("[", "").replace("]", "").split()) == {"0"}
                for row in first_rows
            )

    def test_singular_hamiltonian_exits_3(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            {"dim": 1, "hamiltonian": "p1", "points": {"bad": [1.0, 1.0]}},
        )
        assert main(["report", "--manifest", path]) == 3
        err = capsys.readouterr().err
        assert "regularity error" in err
        assert "'bad'" in err  # names the point
        assert "condition" in err  # names the estimate

    def test_unknown_point_exits_2(self, capsys):
        assert main(["report", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, capsys):
        assert main(["report", "--manifest", "nowhere.json"]) == 2
        assert "manifest error" in capsys.readouterr().err

    def test_malformed_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["report", "--manifest", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestSymmetry:
    def test_exact_symmetry_passes(self, capsys):
        assert main(["symmetry", "momentum-shift"]) == 0
        out = capsys.readouterr().out
        assert "infinitesimal symmetry: PASS" in out
        assert "Noether: PASS" in out
        assert "invariant equation: PASS" in out

    def test_scaling_field_fails_noether(self, capsys):
        assert main(["symmetry", "scaling-x1"]) == 1
        out = capsys.readouterr().out
        assert "Noether: FAIL" in out
        assert "max |residual|" in out

    def test_flow_field_is_a_noether_symmetry(self, capsys):
        assert main(["symmetry", "rho_H"]) == 0
        assert "Noether: PASS" in capsys.readouterr().out

    def test_unknown_field_exits_2(self, capsys):
        assert main(["symmetry", "no-field"]) == 2


class TestLift:
    def test_base_field_lift_and_momentum_map(self, capsys):
        assert main(["lift", "translation-x2"]) == 0
        out = capsys.readouterr().out
        assert "complete lift" in out
        assert "canonical one-form preserved: PASS" in out
        assert "momentum map at 'base': 1" in out

    def test_lifted_momentum_component_carries_minus_sign(self, capsys):
        assert main(["lift", "scaling-x1"]) == 0
        out = capsys.readouterr().out
        assert "d/dp1 coefficient: -p1" in out

    def test_full_field_newtonoid_completion(self, capsys):
        assert main(["lift", "rho_H"]) == 0
        out = capsys.readouterr().out
        assert "Newtonoid completion" in out
        # the flow's own vertical part is chi = (-2, 0) at the base point
        assert "(3, 2) -> vertical completion (-2, 0)" in out

    def test_vertical_probe_field_fails_invariance(self, capsys):
        assert main(["lift", "vertical-p1"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestIntegrate:
    def test_default_run_drift_table(self, capsys):
        assert main(["integrate"]) == 0
        out = capsys.readouterr().out
        assert "run 'default'" in out
        assert "10000/10000 steps" in out
        assert "p2: initial 1, max |drift| 0.000000e+00" in out
        assert "H: initial 2.5" in out and "PASS" in out
        assert "status: completed" in out

    def test_blow_up_exits_1(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            {
                "dim": 1,
                "hamiltonian": "x1^2*p1",
                "points": {"start": [2.0, 1.0]},
                "runs": {"r": {"start": "start", "dt": 0.01, "steps": 1000}},
            },
        )
        assert main(["integrate", "--manifest", path]) == 1
        assert "BLOW-UP" in capsys.readouterr().out

    def test_domain_error_exits_1(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            {
                "dim": 1,
                "hamiltonian": "0.5*p1^2+ln(x1)",
                "points": {"start": [1.0, -2.0]},
                "runs": {"r": {"start": "start", "dt": 0.001, "steps": 1000}},
            },
        )
        assert main(["integrate", "--manifest", path]) == 1
        out = capsys.readouterr().out
        assert "DOMAIN ERROR" in out and "ln of non-positive" in out

    def test_zero_step_run_is_a_manifest_error(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            {
                "dim": 1,
                "hamiltonian": "0.5*p1^2",
                "runs": {"r": {"start": [0.0, 1.0], "dt": 0.001, "steps": 0}},
            },
        )
        assert main(["integrate", "--manifest", path]) == 2
        assert "steps must be a positive" in capsys.readouterr().err

    def test_tol_scale_tightens_the_energy_verdict(self, capsys):
        assert main(["integrate", "--tol-scale", "1e-14"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSelftest:
    def test_one_line_per_check_and_honest_exit(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        lines = [
            line for line in out.splitlines()
            if line.startswith(("PASS", "FAIL"))
        ]
        assert len(lines) == 14
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1
        assert "curvature-printed-forms" in fails[0]
        assert "known discrepancy" in fails[0]
        assert code == 1  # the expected failure still fails the build

    def test_json_report_lists_verdicts(self, tmp_path, capsys):
        path = tmp_path / "st.json"
        main(["selftest", "--json", str(path)])
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert len(report["verdicts"]) == 14
        expected = [v for v in report["verdicts"] if v["expected_failure"]]
        assert len(expected) == 1 and not expected[0]["passed"]


class TestJsonReports:
    def test_top_level_keys_always_present(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["report", "--json", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert list(report) == [
            "manifest", "conventions", "geometry",
            "symmetry", "trajectories", "verdicts",
        ]
        assert report["manifest"]["name"] == "paper-example"
        assert report["conventions"] == CONVENTIONS
        base = report["geometry"]["base"]
        assert base["N"] == [[-2.0, 2.0], [2.0, -3.0]]
        assert base["horizontal"] is True

    def test_every_verdict_carries_its_tolerance(self, tmp_path, capsys):
        path = tmp_path / "verdicts.json"
        main(["symmetry", "momentum-shift", "--json", str(path)])
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["verdicts"]
        for verdict in report["verdicts"]:
            assert verdict["tolerance"] > 0.0
            assert {"check", "subject", "passed", "value"} <= set(verdict)

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["symmetry", "momentum-shift", "--json", str(a)])
        main(["symmetry", "momentum-shift", "--json", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_the_sample_cloud(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["symmetry", "momentum-shift", "--json", str(a)])
        main(["symmetry", "momentum-shift", "--seed", "7", "--json", str(b)])
        capsys.readouterr()
        worst = lambda p: json.loads(p.read_text())["symmetry"][
            "momentum-shift"]["notions"]["invariant-equation"]["worst_point"]
        assert worst(a) != worst(b)


class TestArgumentHandling:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "selftest" in capsys.readouterr().out

    def test_negative_seed_rejected(self, capsys):
        assert main(["symmetry", "--seed", "-3"]) == 2

    def test_non_positive_tol_scale_rejected(self, capsys):
        assert main(["report", "--tol-scale", "0"]) == 2

    def test_global_flags_before_subcommand(self, capsys):
        assert main(["--manifest", "free-particle", "report"]) == 0
        assert "point 'origin'" in capsys.readouterr().out


class TestSingularSamplePoints:
    """A sample cloud that hits a singular momentum Hessian is a regularity
    failure (exit 3) in every subcommand, not a traceback."""

    MANIFEST = {
        "dim": 1,
        "hamiltonian": "p1^3",
        "fields": {"shift": {"x": ["1"], "p": ["0"]}},
        "sampling": {"x_box": [[-1.0, 1.0]], "p_box": [[0.0, 0.0]], "count": 4},
    }

    @pytest.mark.parametrize("command", ["symmetry", "lift"])
    def test_exits_3_naming_the_point(self, command, tmp_path, capsys):
        path = write_manifest(tmp_path, self.MANIFEST)
        assert main([command, "--manifest", path]) == 3
        err = capsys.readouterr().err
        assert "regularity error" in err
        assert "sample point at (" in err
        assert "condition" in err


class TestDomainErrors:
    """An expression undefined at a named or sampled point is a manifest
    problem (exit 2) whose message names the point, not a traceback."""

    MANIFEST = {
        "dim": 1,
        "hamiltonian": "0.5*p1^2 + ln(x1)",
        "points": {"bad": [-1.0, 1.0]},
        "fields": {"shift": {"x": ["1"], "p": ["0"]}, "grow": {"base": ["x1"]}},
        "sampling": {"x_box": [[-1.0, 1.0]], "p_box": [[0.5, 1.0]], "count": 4},
    }

    def test_report_exits_2_naming_the_point(self, tmp_path, capsys):
        path = write_manifest(tmp_path, self.MANIFEST)
        assert main(["report", "--manifest", path]) == 2
        err = capsys.readouterr().err
        assert "domain error: point 'bad' at (-1, 1)" in err
        assert "ln of non-positive" in err

    @pytest.mark.parametrize(
        "argv",
        [["symmetry"], ["lift", "grow"]],
        ids=["symmetry", "lift-base"],
    )
    def test_sample_cloud_exits_2_naming_the_point(self, argv, tmp_path, capsys):
        doc = dict(self.MANIFEST, points={})
        path = write_manifest(tmp_path, doc)
        assert main(argv + ["--manifest", path]) == 2
        err = capsys.readouterr().err
        assert "domain error: sample point at (" in err
        assert "ln of non-positive" in err

    def test_lift_at_named_point_exits_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, self.MANIFEST)
        assert main(["lift", "shift", "--manifest", path]) == 2
        assert "domain error: point 'bad' at (-1, 1)" in capsys.readouterr().err

    def test_derivatives_that_overflow_exit_2(self, tmp_path, capsys):
        # ln(x1) is defined at 1e-200, but its third derivative 2/x1^3 is not
        doc = dict(self.MANIFEST, points={"tiny": [1e-200, 1.0]})
        path = write_manifest(tmp_path, doc)
        assert main(["report", "--manifest", path]) == 2
        err = capsys.readouterr().err
        assert "domain error: point 'tiny'" in err and "not finite" in err


class TestNonFiniteResiduals:
    """A residual that is NaN at a sample point fails its verdict; it is
    neither dropped from the maximum nor a crash."""

    MANIFEST = {
        "dim": 1,
        "hamiltonian": "p1^3",
        "fields": {"shift": {"x": ["1"], "p": ["0"]}},
        "sampling": {"x_box": [[0.5, 0.5]], "p_box": [[1e-200, 1e-200]], "count": 2},
    }

    @pytest.mark.parametrize("command", ["symmetry", "lift"])
    def test_nan_residual_fails(self, command, tmp_path, capsys):
        path = write_manifest(tmp_path, self.MANIFEST)
        assert main([command, "--manifest", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL  (max |residual| = nan" in out


class TestRunsThatCannotStart:
    """A run whose start state overflows or leaves a watch's domain is a
    failed run with 0 completed steps (exit 1), not a traceback."""

    @pytest.mark.parametrize(
        "hamiltonian, start, watch, status",
        [
            ("0.5*p1^2", [0.0, 1.0], {"big": "exp(1000*p1)"}, "BLOW-UP"),
            ("0.5*p1^2 + exp(x1)", [800.0, 1.0], {}, "BLOW-UP"),
            ("0.5*p1^2", [-1.0, 1.0], {"l": "ln(x1)"}, "DOMAIN ERROR"),
        ],
        ids=["watch-overflow", "hamiltonian-overflow", "watch-domain"],
    )
    def test_reports_zero_steps_and_exits_1(
        self, hamiltonian, start, watch, status, tmp_path, capsys
    ):
        run = {"start": start, "dt": 0.01, "steps": 10, "watch": watch}
        path = write_manifest(
            tmp_path, {"dim": 1, "hamiltonian": hamiltonian, "runs": {"r": run}}
        )
        out_path = tmp_path / "out.json"
        argv = ["integrate", "--manifest", path, "--json", str(out_path)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "0/10 steps" in out and status in out
        block = json.loads(out_path.read_text())["trajectories"]["r"]
        assert block["completed_steps"] == 0
        assert block["final_state"] == start
        assert block["drift"] == {}


def test_selftest_output_is_the_run_selftest_stream(capsys):
    import io

    from hamgeo.selftest import run_selftest

    stream = io.StringIO()
    expected_code = run_selftest(stream=stream)
    assert main(["selftest"]) == expected_code
    assert capsys.readouterr().out == stream.getvalue()


# --------------------------------------------------------------------------
# every generated manifest ends in a documented exit code


_HAMILTONIANS = [
    "0.5*p1^2 + ln(x1)",
    "0.5*p1^2*exp(x1) + sqrt(x1)",
    "0.5*p1^2/x1",
    "p1^3 + 1/x1",
    "sqrt(1 + p1^2) + exp(3*x1)",
]
_FIELDS = [
    {"x": ["1"], "p": ["0"]},
    {"x": ["p1"], "p": ["1/x1"]},
    {"x": ["sqrt(x1)"], "p": ["exp(p1)"]},
    {"base": ["ln(x1)"]},
    {"base": ["x1/(1 + x1)"]},
]
_WATCHES = ["ln(x1)", "sqrt(p1)", "1/x1", "exp(500*p1)", "x1/p1"]
_coord = st.floats(min_value=-2.0, max_value=2.0)
_width = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def _manifests(draw):
    x_low, p_low = draw(_coord), draw(_coord)
    run = {
        "start": "a",
        "dt": draw(st.sampled_from([0.01, 0.1])),
        "steps": draw(st.integers(min_value=1, max_value=50)),
        "watch": {"w": draw(st.sampled_from(_WATCHES))},
    }
    return {
        "dim": 1,
        "hamiltonian": draw(st.sampled_from(_HAMILTONIANS)),
        "points": {"a": [draw(_coord), draw(_coord)]},
        "fields": {"f": draw(st.sampled_from(_FIELDS))},
        "runs": {"r": run},
        "sampling": {
            "x_box": [[x_low, x_low + draw(_width)]],
            "p_box": [[p_low, p_low + draw(_width)]],
            "count": draw(st.integers(min_value=1, max_value=5)),
            "seed": 7,
        },
    }


@given(_manifests())
@settings(max_examples=40, deadline=None)
def test_generated_manifests_end_in_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc))
        for command in ("report", "symmetry", "lift", "integrate"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--manifest", str(path)])
            assert code in (0, 1, 2, 3), (command, code)
