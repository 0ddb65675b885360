"""Command-line interface: exit codes, deterministic reports, CSV outputs."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from starspec import certify, cli, exact, fem, geom

SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh(*argv) -> subprocess.CompletedProcess:
    """starspec run in a fresh interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "starspec.cli", *argv], env=env, capture_output=True, text=True)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_solve(monkeypatch):
    """Fails the test if any fem.eigs_below call is made from here on: a
    rejected plan solves no mesh."""
    calls = []
    eigs_below = fem.eigs_below

    def counting(*args):
        calls.append(args)
        return eigs_below(*args)

    monkeypatch.setattr(fem, "eigs_below", counting)
    yield
    assert calls == []


class TestCertifyCommand:
    def test_certified_preset_exits_zero(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "rect_two_eigs")
        assert code == cli.EXIT_CERTIFIED
        report = json.loads(out)
        assert report["verdict"] == "CertifiedNoResonance"
        assert report["n"] == 2
        assert report["rigor"] == "analytic"
        assert report["trace"]  # bound provenance is part of the report

    def test_output_is_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "certify", "--preset", "rect_two_eigs")
        _, out2, _ = run(capsys, "certify", "--preset", "rect_two_eigs")
        assert out1 == out2

    @pytest.mark.usefixtures("no_solve")
    def test_the_heuristic_lower_rule_is_refused(self, capsys):
        code, out, err = run(capsys, "certify", "configs/t_junction.json", "--lower-strategy", "fem_estimate")
        assert (code, out) == (cli.EXIT_ERROR, "")
        rules = ", ".join([*certify._LOWER_RULES, "auto", "crossing_symmetry"])
        assert err == f"error: lower_strategy = 'fem_estimate' is not one of {rules}\n"

    def test_crossing_symmetry_needs_the_crossing(self, capsys):
        args = ("--lower-strategy", "crossing_symmetry", "--truncation", "2", "--levels", "1")
        code, out, _ = run(capsys, "certify", "configs/t_junction.json", *args)
        assert code == cli.EXIT_INCONCLUSIVE
        assert json.loads(out)["verdict"] == "Inconclusive"
        code, out, _ = run(capsys, "certify", "configs/crossing.json", *args)
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["n"] == 1

    def test_preset_takes_plan_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--preset", "t_junction",
            "--lower-strategy", "neumann_equilateral",
            "--truncation", "2.0", "--levels", "1",
        )
        assert code == cli.EXIT_INCONCLUSIVE
        assert json.loads(out)["reason"].startswith("neumann_equilateral")

    def test_preset_takes_shape_keywords(self, capsys):
        _, out, _ = run(capsys, "certify", "--preset", "rect_two_eigs", "--params", '{"a": 3.0, "b": 2.5}')
        assert json.loads(out)["trace"][0]["trace"][0]["params"]["dims"] == [3.0, 2.5]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--preset", "rect_two_eigs", "--params", "[1]"),
            ("--preset", "rect_two_eigs", "--params", '{"params": 1}'),
            ("--preset", "t_junction", "--params", '{"bogus": 1}'),
            ("configs/t_junction.json", "--params", '{"bogus": 1}'),
            ("--preset", "t_junction", "--params", '{"fem_levels": "2"}'),
            ("--preset", "t_junction", "--params", '{"fem_levels": 2.0}'),
            ("--preset", "t_junction", "--params", '{"fem_levels": true}'),
            ("--preset", "t_junction", "--params", '{"truncation_length": "3"}'),
            ("--preset", "y_junction", "--params", '{"truncation_length": true}'),
            ("--preset", "t_junction", "--params", '{"count_stability": true}'),
            ("--preset", "y_junction", "--params", '{"k_upper": 4}'),
            ("configs/y_junction.json", "--params", '{"k_upper": 4}'),
            ("--preset", "y_junction", "--levels", "0"),
            ("--preset", "y_junction", "--truncation", "0"),
            ("--preset", "y_junction", "--params", '{"fem_h0": -0.5}'),
            ("--preset", "y_junction", "--params", '{"fem_h0": NaN}'),
            ("configs/y_junction.json", "--params", '{"truncation_length": Infinity}'),
            ("--preset", "t_junction", "--params", '{"lower_strategy": 3}'),
            ("configs/t_junction.json", "--params", '{"count_strategy": null}'),
            ("configs/t_junction.json", "--params", '{"params": [1]}'),
            ("--preset", "rounded_corner", "--params", '{"alpha": "1"}'),
            ("--preset", "rect_two_eigs", "--params", '{"a": true}'),
            ("--preset", "t_junction", "--params", '{"name": "x"}'),
            ("--preset", "t_junction", "--params", '{"alpha": 1.0, "params": {"alpha": 1.0}}'),
            ("configs/broken_1.0.json", "--params", '{"alpha": 1.0}'),
            ("configs/rounded_corner.json", "--lower-strategy", "sector", "--params", '{"alpha": 1.5707963267948966}'),
            ("--preset", "y_junction", "--params", '{"alpha": 1.0}'),
            ("configs/t_junction.json", "--lower-strategy", "fem_estimate"),
            ("--preset", "rounded_corner", "--lower-strategy", "bogus"),
        ],
    )
    @pytest.mark.usefixtures("no_solve")
    def test_bad_params_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "certify", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [("configs/crossing.json", "--lower-strategy", "box"), ("--preset", "crossing")],
    )
    def test_box_reads_the_crossing_center(self, capsys, argv):
        # the all-Neumann crossing center has lambda_2 = pi^2 = nu exactly
        mesh = ("--truncation", "2", "--levels", "1")
        code, out, _ = run(capsys, "certify", *argv, *mesh)
        assert code == cli.EXIT_INCONCLUSIVE
        assert json.loads(out)["margins"][0] == {"name": "dn_gap", "value": 0.0}
        # the box reads its dims and conditions from the center, never from --params
        for key, value in (("dims", [1.0, 1.0]), ("bcs", ["NN", "DN"])):
            code, out, err = run(capsys, "certify", *argv, *mesh, "--params", json.dumps({key: value}))
            assert (code, out) == (cli.EXIT_ERROR, "")
            assert err.startswith("error: ") and err.endswith(f" takes no parameter {key}\n")

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (("configs/broken_1.0.json", "--lower-strategy", "y_chain"), "y_chain"),
            (("--preset", "rounded_corner", "--lower-strategy", "broken_chain"), "broken_chain"),
            (("configs/y_alpha_0.95.json", "--lower-strategy", "sector"), "sector"),
        ],
    )
    def test_a_chain_that_does_not_describe_the_center_exits_two(self, capsys, argv, rule):
        code, out, _ = run(capsys, "certify", *argv, "--truncation", "2", "--levels", "1")
        assert code == cli.EXIT_INCONCLUSIVE
        report = json.loads(out)
        assert report["verdict"] == "Inconclusive"
        assert report["reason"].startswith(rule)

    @pytest.mark.parametrize("stem", ["cube_square", "cube_disk"])
    def test_a_3d_config_file_gets_a_verdict(self, capsys, stem):
        # the default plan counts by FEM, which meshes only 2D configs
        code, out, err = run(capsys, "certify", f"configs/{stem}.json")
        assert (code, err) == (cli.EXIT_INCONCLUSIVE, "")
        report = json.loads(out)
        assert (report["verdict"], report["n"], report["rigor"]) == ("Inconclusive", None, "none")
        assert report["reason"].startswith("fem count needs a 2D config")

    def test_the_straight_strip_counts_nothing(self, capsys, straight_json):
        # no discrete spectrum and a threshold resonance: the box bound of the
        # center's first eigenvalue is nu itself, so no rung can certify
        code, out, _ = run(capsys, "certify", straight_json, "--lower-strategy", "box")
        assert code == cli.EXIT_INCONCLUSIVE
        report = json.loads(out)
        assert (report["verdict"], report["n"], report["extra"]["fem_count"]["inertia"]) == ("Inconclusive", None, 0)

    def test_half_strips_that_meet_beyond_the_caps_exit_one(self, capsys, tmp_path):
        # U-shaped center whose two cuts face each other across the notch: the
        # 2.0 stubs meet each other, the 1.0 stubs do not, but the half-strips
        # beyond their caps do
        u = {
            "name": "u",
            "center": {
                "vertices": [[0, 0], [5, 0], [5, 3], [4, 3], [4, 2], [4, 1], [1, 1], [1, 2], [1, 3], [0, 3]],
                "edge_tags": ["D", "D", "D", "N", "D", "D", "D", "N", "D", "D"],
                "edge_roles": ["wall", "wall", "wall", "cut", "wall", "wall", "wall", "cut", "wall", "wall"],
            },
            "branches": [{"edge": e, "cross_section": {"type": "interval", "dims": [1.0]}} for e in (3, 7)],
        }
        path = tmp_path / "u.json"
        path.write_text(json.dumps(u))
        for length, message in (("1", "half-strips beyond the caps at length 1.0 overlap"), ("2", "self-intersect")):
            code, out, err = run(capsys, "certify", str(path), "--lower-strategy", "box", "--truncation", length)
            assert (code, out) == (cli.EXIT_ERROR, "")
            assert err.startswith("error: ") and message in err

    def test_a_verdict_without_bounds_claims_no_rigor(self, capsys):
        code, out, _ = run(capsys, "certify", "configs/broken_1.0.json", "--lower-strategy", "sector")
        assert code == cli.EXIT_INCONCLUSIVE
        report = json.loads(out)
        assert (report["rigor"], report["trace"], report["margins"]) == ("none", [], [])

    @pytest.mark.parametrize(
        "name, params",
        [("t_junction", {"dims": [0.5, 0.5]}), ("cube_square", {"bcs": ["DD", "DD", "DD"]})],
    )
    @pytest.mark.usefixtures("no_solve")
    def test_shape_keys_in_params_are_refused(self, capsys, name, params):
        mesh = ("--truncation", "2", "--levels", "1")
        code, out, err = run(capsys, "certify", "--preset", name, *mesh, "--params", json.dumps(params))
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"error: preset {name!r} takes no parameter {next(iter(params))}\n"

    def test_an_internal_key_error_is_not_reported_as_bad_input(self, monkeypatch):
        # no input path raises a bare KeyError, so one is a fault of the program
        def failing(vcfg, plan, nu, extra):
            raise KeyError("internal")

        monkeypatch.setitem(certify._COUNT_RULES, "fem", failing)
        with pytest.raises(KeyError, match="internal"):
            cli.run(["certify", "--preset", "t_junction"])


class TestFamilyFactCount:
    """family_fact counts only from a fact proved for the geometry."""

    @pytest.mark.usefixtures("no_solve")
    def test_a_count_from_params_exits_one(self, straight_json, capsys):
        # a straight strip has no discrete spectrum and a threshold resonance
        for argv in [
            (straight_json, "--count-strategy", "family_fact", "--lower-strategy", "box", "--params", '{"n": 1}'),
            ("--preset", "cube_disk", "--params", '{"n": 5}'),
            ("--preset", "t_junction", "--count-strategy", "family_fact", "--params", '{"n": 3}'),
        ]:
            code, out, err = run(capsys, "certify", *argv)
            assert (code, out) == (cli.EXIT_ERROR, "")
            assert err.startswith("error: ") and err.endswith(" takes no parameter n\n")

    def test_a_geometry_without_a_fact_is_inconclusive(self, straight_json, capsys):
        for argv in [
            ("--preset", "t_junction", "--count-strategy", "family_fact"),
            (straight_json, "--count-strategy", "family_fact", "--lower-strategy", "box"),
        ]:
            code, out, _ = run(capsys, "certify", *argv)
            assert code == cli.EXIT_INCONCLUSIVE
            report = json.loads(out)
            assert (report["verdict"], report["n"], report["trace"]) == ("Inconclusive", None, [])
            assert report["reason"].startswith("family_fact")

    def test_the_bent_guide_file_certifies_from_its_fact(self, capsys):
        code, out, err = run(capsys, "certify", "configs/broken_1.0.json", "--count-strategy", "family_fact")
        assert (code, err) == (cli.EXIT_CERTIFIED, "")
        report = json.loads(out)
        assert (report["verdict"], report["n"]) == ("CertifiedNoResonance", 1)
        assert report["trace"][-1]["trace"][0]["rule"] == "assumption"


class TestAlphaErrors:
    FILES = {"broken_chain": "broken_1.0", "y_chain": "y_alpha_0.95", "sector": "rounded_corner"}
    CHEAP = ("--truncation", "2", "--levels", "1")

    @pytest.mark.parametrize("rule", list(FILES))
    def test_a_family_rule_reads_alpha_from_the_file(self, capsys, rule):
        code, out, _ = run(capsys, "certify", f"configs/{self.FILES[rule]}.json", "--lower-strategy", rule)
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["n"] == 1

    @pytest.mark.parametrize("alpha", ["1.0", "null", '"1.0"', "NaN", "Infinity", "true", "[1.0]"])
    @pytest.mark.parametrize("rule", list(FILES))
    @pytest.mark.usefixtures("no_solve")
    def test_alpha_is_no_parameter_of_a_config_file(self, capsys, rule, alpha):
        params = '{"alpha": %s}' % alpha
        argv = (f"configs/{self.FILES[rule]}.json", "--lower-strategy", rule, "--params", params, *self.CHEAP)
        code, out, err = run(capsys, "certify", *argv)
        assert (code, out, err) == (cli.EXIT_ERROR, "", "error: a configuration file takes no parameter alpha\n")

    def test_config_file_certifies_with_box(self, capsys):
        code, out, _ = run(
            capsys, "certify", "configs/t_junction.json", "--lower-strategy", "box", "--truncation", "2", "--levels", "1"
        )
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["n"] == 1

    @pytest.mark.parametrize("width", [1e-160, 1e160])
    def test_a_branch_width_without_a_float_threshold_exits_one_naming_it(self, tmp_path, capsys, width):
        # the t_junction scaled to width 1e-160 has nu = pi^2 / 1e-320 = inf; at 1e160, width^2 overflows
        cfg = json.loads(Path("configs/t_junction.json").read_text())
        cfg["center"]["vertices"] = [[width * x, width * y] for x, y in cfg["center"]["vertices"]]
        for branch in cfg["branches"]:
            branch["cross_section"]["dims"] = [width * d for d in branch["cross_section"]["dims"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"error: cross-section dims ({width!r},) gives an eigenvalue outside the normal float range [{sys.float_info.min!r}, {sys.float_info.max!r}]\n"

    @pytest.mark.parametrize(
        "stem, edit, message",
        [
            ("t_junction", lambda c: c["branches"][1]["cross_section"].update(dims=[float("nan")]), "dims must be positive and finite"),
            ("t_junction", lambda c: c["branches"][1]["cross_section"].update(dims=[float("inf")]), "dims must be positive and finite"),
            ("t_junction", lambda c: c["center"]["vertices"][2].__setitem__(0, float("nan")), "vertices must be pairs of finite numbers"),
            ("cube_square", lambda c: c["center"]["dims"].__setitem__(1, float("nan")), "box dims must be positive and finite"),
            ("t_junction", lambda c: c["center"].update(vertices=[1, 2, 3]), "malformed configuration"),
            ("t_junction", lambda c: c["center"].pop("edge_tags"), "malformed configuration: 'edge_tags'"),
            ("cube_square", lambda c: c.update(branches=[]), "configuration has no branch"),
            ("cube_square", lambda c: c["center"]["axis_bcs"].pop(), "three axis_bcs pairs"),
            ("t_junction", lambda c: c["center"]["vertices"][1].__setitem__(1, "0"),
             'malformed configuration: center.vertices[1][1]: expected a number, not "0"'),
            ("t_junction", lambda c: c["center"]["edge_tags"].__setitem__(2, "X"),
             'malformed configuration: center.edge_tags[2]: expected one of D, N, not "X"'),
            ("t_junction", lambda c: c["branches"][1]["cross_section"].update(dims=[[1.0]]),
             "malformed configuration: branches[1].cross_section.dims[0]: expected a number, not [1.0]"),
        ],
        ids=["nan-width", "inf-width", "nan-vertex", "nan-box-dim", "int-vertices", "no-edge-tags", "no-branch",
             "two-axis-pairs", "string-vertex-entry", "unknown-edge-tag", "list-dims-entry"],
    )
    def test_bad_config_files_exit_one(self, tmp_path, capsys, stem, edit, message):
        cfg = json.loads(Path(f"configs/{stem}.json").read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "certify", str(path), "--lower-strategy", "box", "--truncation", "2", "--levels", "1")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "stem, edit, path",
        [
            ("t_junction", lambda c: c.update(branchez=[]), "branchez"),
            ("t_junction", lambda c: c["center"].update(edge_rolez=[]), "center.edge_rolez"),
            ("cube_square", lambda c: c["center"].update(vertices=[]), "center.vertices"),
            ("t_junction", lambda c: c["branches"][2].update(width=1.0), "branches[2].width"),
            ("t_junction", lambda c: c["branches"][0]["cross_section"].update(typo=1), "branches[0].cross_section.typo"),
            ("crossing", lambda c: c.update(symmetry={"axes": ["horizontal"]}), "symmetry"),
            ("y_junction", lambda c: c.update(allow_no_dirichlet=True), "allow_no_dirichlet"),
        ],
    )
    @pytest.mark.usefixtures("no_solve")
    def test_an_unknown_key_exits_one(self, tmp_path, capsys, stem, edit, path):
        cfg = json.loads(Path(f"configs/{stem}.json").read_text())
        edit(cfg)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "certify", str(bad))
        assert (code, out, err) == (cli.EXIT_ERROR, "", f"error: malformed configuration: {path}: unknown key\n")

    @pytest.fixture
    def big_json(self, tmp_path) -> Path:
        """A regular 1,001-gon center with one branch: valid but for its vertex count."""
        n, r = 1001, 1.0
        verts = [[r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n)] for i in range(n)]
        width = math.hypot(verts[1][0] - verts[0][0], verts[1][1] - verts[0][1])
        center = {"vertices": verts, "edge_tags": ["N"] + ["D"] * (n - 1), "edge_roles": ["cut"] + ["wall"] * (n - 1)}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "center": center,
                                    "branches": [{"edge": 0, "cross_section": {"type": "interval", "dims": [width]}}]}))
        return path

    @pytest.mark.parametrize("command", ["certify", "mesh"])
    def test_a_center_past_the_vertex_cap_exits_one(self, capsys, big_json, command):
        code, out, err = run(capsys, command, str(big_json))
        assert (code, out, err) == (cli.EXIT_ERROR, "", "error: center polygon has 1001 vertices, more than the cap of 1000 vertices\n")

    def test_the_file_past_the_cap_is_otherwise_valid(self, monkeypatch, big_json):
        monkeypatch.setattr(geom, "MAX_VERTICES", 1001)
        assert geom.load_config(str(big_json)).center.n_edges == 1001

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run(capsys, "certify", str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: malformed configuration")

    DEEP = "[" * 100_000  # deeper than the JSON decoder's recursion limit

    @pytest.mark.parametrize("command", ["certify", "mesh"])
    def test_a_deeply_nested_file_exits_one(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        done = fresh(command, str(path))
        assert (done.returncode, done.stdout) == (cli.EXIT_ERROR, "")
        assert done.stderr == f"error: malformed configuration: {path}: nested too deeply\n"

    def test_deeply_nested_params_exit_one(self):
        done = fresh("certify", "--preset", "t_junction", "--params", self.DEEP)
        assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_ERROR, "", "error: --params: nested too deeply\n")

    @pytest.mark.parametrize("command", ["certify", "mesh"])
    def test_a_truncated_file_exits_one_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "truncated.json"
        path.write_text('{"name": ')
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"error: malformed configuration: {path}: Expecting value: line 1 column 10 (char 9)\n"

    def test_truncated_params_exit_one_naming_the_flag(self, capsys):
        code, out, err = run(capsys, "certify", "--preset", "t_junction", "--params", '{"fem_levels": ')
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == "error: --params: Expecting value: line 1 column 16 (char 15)\n"

    def test_no_input_exits_one(self, capsys):
        code, out, err = run(capsys, "certify")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: certify needs a configuration file or --preset\n"

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", "--preset", "cube_square", "-o", str(out_path)
        )
        assert code == cli.EXIT_CERTIFIED
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["n"] == 1

    def test_missing_config_exits_one(self, capsys):
        code, _, err = run(capsys, "certify", "no_such_file.json")
        assert code == cli.EXIT_ERROR
        assert "error" in err

    def test_unknown_preset_rejected(self, capsys):
        code, _, _ = run(capsys, "certify", "--preset", "bogus")
        assert code == cli.EXIT_ERROR


class TestReportFormat:
    def test_nan_is_valid_json(self):
        assert json.loads(cli.dumps_report({"x": float("nan")})) == {"x": "NaN"}

    @pytest.mark.parametrize("s", ['say "hi"', "a\\b", "tab\tnew\nline\x00\x1f\x7f", "λ₁ ≤ π² – ✓", "\U0001d11e", ""])
    def test_strings_and_keys_are_quoted_as_json_dumps_quotes_them(self, s):
        q = json.dumps(s)  # with its defaults: ASCII output, \u escapes
        assert cli.dumps_report({s: [s, {s: s}]}) == "{%s: [%s, {%s: %s}]}\n" % (q, q, q, q)


class TestSpectrumCommand:
    def test_equilateral_values(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--shape", "equilateral",
            "--bc", "neumann", "--side", "1", "-k", "3",
        )
        assert code == 0
        report = json.loads(out)
        vals = report["values"]
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(16 * 3.141592653589793**2 / 9, rel=1e-12)
        assert vals[1] == vals[2]  # double eigenvalue

    def test_floats_carry_full_precision(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--shape", "interval", "--bc", "DD", "-k", "1")
        import math

        report = json.loads(out)
        # printed floats round-trip exactly
        assert report["values"][0] == math.pi**2

    def test_bad_shape_arguments(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--shape", "interval", "--bc", "XX")
        assert code == cli.EXIT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("--shape", "interval", "--length", "nan"),
            ("--shape", "interval", "--length", "inf"),
            ("--shape", "interval", "--length", "1e-320"),  # (pi / length)^2 overflows
            ("--shape", "box", "--dims", "1", "inf"),
            ("--shape", "box", "--dims", "1", "nan"),
            ("--shape", "equilateral", "--bc", "neumann", "--side", "nan"),
            ("--shape", "equilateral", "--side", "-1"),
            ("--shape", "sector", "--radius", "inf"),
            ("--shape", "sector", "--alpha", "1e-6", "-k", "2"),  # order 3.1e6: exact.ConvergenceFailure
        ],
    )
    def test_sizes_must_be_finite(self, capsys, argv):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")

    SIZE_FLAGS = {"interval": ("--length",), "box": ("--dims", "1"), "equilateral": ("--side",), "sector": ("--radius",)}

    @pytest.mark.parametrize("size", ["1e-200", "1e200"])
    @pytest.mark.parametrize("shape", sorted(cli.SPECTRA))
    def test_a_size_without_float_eigenvalues_exits_one_naming_it(self, capsys, shape, size):
        # 1e-200: (pi / size)^2 overflows, or size^2 underflows to 0; 1e200: every value underflows to 0
        code, out, err = run(capsys, "spectrum", "--shape", shape, *self.SIZE_FLAGS[shape], size)
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" {float(size)!r} gives an eigenvalue outside the normal float range" in err

    @pytest.mark.parametrize("shape", sorted(cli.SPECTRA))
    def test_a_k_past_the_cap_exits_one_before_any_spectrum(self, monkeypatch, capsys, shape):
        # -k 10^9 on an interval would allocate 10^9 values and labels
        for name in ("interval_eigs", "box_eigs", "equilateral_eigs", "sector_dn_eigs"):
            monkeypatch.setattr(exact, name, lambda *args: pytest.fail("a spectrum was computed"))
        code, out, err = run(capsys, "spectrum", "--shape", shape, "-k", "1000000000")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"error: -k 1000000000 exceeds the cap of {cli.MAX_EIGENVALUES} eigenvalues\n"

    def test_a_k_at_the_cap_is_not_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_EIGENVALUES", 3)
        assert run(capsys, "spectrum", "--shape", "sector", "-k", "3")[0] == cli.EXIT_CERTIFIED
        assert run(capsys, "spectrum", "--shape", "sector", "-k", "4")[0] == cli.EXIT_ERROR

    # sha256 of the box spectrum report without its versions, as the
    # recursive lattice walk printed it: ties, one to three axes, every pair
    BOX_REPORTS = {
        ("-k", "1"): "18fdccc106c4f3b791eacd11908266b39c3771dd933e0ca29f82ba785a6793ae",
        ("-k", "40"): "39099d7398614a0e3f9cd814c4a1c570ed7b389415ff0c200b774cd40bf7835d",
        ("--dims", "2.381", "2.041", "--bcs", "DD", "ND", "-k", "300"):
            "9d53323403cdbfa528f662f7517c1ae505040752a403bec1da0f78cbc3947ff3",
        ("--dims", "1", "1", "1", "--bcs", "DN", "DN", "DN", "-k", "40"):
            "121e4a16a76988a9e092c790b10915ba7da40c34f9121ef2aae434bafb970dd5",
        ("--dims", "1.3", "0.7", "2", "--bcs", "NN", "DD", "ND", "-k", "2000"):
            "84b7b77f44f185554c3f2b0c398aaf20acdc5cabce0563ac5a36a0ac2321ee6c",
        ("--dims", "0.8", "--bcs", "NN", "-k", "7"): "61d922da65847124e1c92174968dd54284013a70e135f542a0df3488cb5af085",
        ("--dims", "40", "40", "--bcs", "NN", "DN", "-k", "27"):
            "6127c25b788a57aa67e43241c81489f287a36f5b30c6196aa5e505bd64cd0658",
    }

    @pytest.mark.parametrize("argv", sorted(BOX_REPORTS))
    def test_box_reports_are_pinned(self, capsys, argv):
        code, out, _ = run(capsys, "spectrum", "--shape", "box", *argv)
        report, _ = out.rsplit(', "versions": ', 1)
        assert code == cli.EXIT_CERTIFIED
        assert hashlib.sha256(report.encode()).hexdigest() == self.BOX_REPORTS[argv]

    def test_equilateral_defaults_to_dirichlet(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--shape", "equilateral", "-k", "1")
        assert code == 0
        assert json.loads(out)["values"] == [pytest.approx(16 * 3.141592653589793**2 / 9 * 3, rel=1e-12)]
        assert json.loads(out)["provenance"] == ["equilateral-D(m=1,n=1)"]

    # --h0: the FEM count climbs the levels of one triangulation at certify.FEM_H0
    @pytest.mark.parametrize("flag", [("-k", "4"), ("--h0", "0.5")])
    def test_certify_has_no_such_flag(self, capsys, flag):
        code, out, _ = run(capsys, "certify", "--preset", "y_junction", *flag)
        assert code == cli.EXIT_ERROR and out == ""


class TestRegionCommand:
    def test_csv_header_and_grid_size(self, capsys):
        code, out, _ = run(capsys, "region", "--nx", "10", "--ny", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,inside,certified"
        assert len(lines) == 1 + 10 * 10

    def test_resolution_floor(self, capsys):
        code, _, err = run(capsys, "region", "--nx", "5", "--ny", "50")
        assert code == cli.EXIT_ERROR
        assert "resolution" in err

    def test_a_grid_past_the_cap_exits_one_before_allocating(self, capsys):
        # 10^10 points: refused at once, before any grid array is allocated
        code, out, err = run(capsys, "region", "--nx", "100000", "--ny", "100000")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"error: a region grid of 100000 x 100000 points exceeds the cap of {certify.MAX_GRID_POINTS} grid points\n"
        with pytest.raises(ValueError, match="exceeds the cap"):
            certify.region_rows(1001, 1000)


class TestMeshCommand:
    def test_text_dump_from_shipped_config(self, capsys):
        code, out, err = run(capsys, "mesh", "configs/t_junction.json", "--h0", "0.5")
        assert code == 0
        assert "nodes" in err
        assert out  # dump lands on stdout

    def test_dof_matches_the_report_of_the_same_rung(self, capsys):
        _, out, _ = run(capsys, "certify", "--preset", "t_junction")
        params = json.loads(out)["trace"][-1]["trace"][0]["params"]
        mesh = ("--truncation", str(params["length"]), "--h0", str(params["h0"]), "--levels", str(params["levels"]))
        code, _, err = run(capsys, "mesh", "configs/t_junction.json", "--truncate", *mesh)
        assert code == 0
        assert f" dof={params['dof']} " in err

    @pytest.mark.parametrize("name, levels, dof", [("t_junction", 1, 238), ("rounded_corner", 2, 3375)])
    def test_the_defaults_dump_a_level_of_the_default_count(self, capsys, name, levels, dof):
        _, out, _ = run(capsys, "certify", "--preset", name)
        assert json.loads(out)["extra"]["fem_count"]["dof"] == dof
        code, _, err = run(capsys, "mesh", f"configs/{name}.json", "--truncate", "--levels", str(levels))
        assert code == 0
        assert f" dof={dof} " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--levels", "0"), "--levels must be at least 1"),
            (("--levels", "-1"), "--levels must be at least 1"),
            (("--h0", "nan"), "h_target must be positive and finite"),
            (("--truncate", "--truncation", "nan"), "truncation length must be positive and finite"),
        ],
    )
    def test_a_mesh_it_was_not_asked_for_is_not_dumped(self, capsys, argv, message):
        code, out, err = run(capsys, "mesh", "configs/t_junction.json", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("name", ["cube_disk", "cube_square"])
    @pytest.mark.parametrize("argv", [(), ("--truncate",)])
    def test_a_3d_config_is_refused_with_an_error_line(self, capsys, name, argv):
        code, out, err = run(capsys, "mesh", f"configs/{name}.json", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and "2D config" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "configs/t_junction.json", "--levels", "40"),
            ("mesh", "configs/t_junction.json", "--truncate", "--levels", "40"),
            ("mesh", "configs/t_junction.json", "--h0", "1e-9"),
        ],
    )
    def test_refinement_past_the_triangle_cap_exits_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(fem, "MAX_TRIANGLES", 4096)  # the t_junction's level 3 has 8192
        # the count climbs past level 1 only while no level certifies: l_2 below nu keeps it going
        box = certify._LOWER_RULES["box"]

        def halved(vcfg, k):
            return [b._replace(value=b.value / 2) for b in box(vcfg, k)]

        monkeypatch.setitem(certify._LOWER_RULES, "box", halved)
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and "cap of 4096 triangles" in err

    @pytest.mark.parametrize("path", sorted(Path("configs").glob("*.json")), ids=lambda p: p.stem)
    def test_the_dof_is_the_free_node_count_of_assemble_without_assembling(self, capsys, monkeypatch, tmp_path, path):
        vcfg = geom.load_config(str(path))
        assemble = fem.assemble
        monkeypatch.setattr(fem, "assemble", lambda *args: pytest.fail("mesh assembled the matrices"))
        for levels in (1, 2, 3):
            for truncate in (False, True):
                code, _, err = run(capsys, "mesh", str(path), "--levels", str(levels), *["--truncate"] * truncate, "-o", str(tmp_path / "dump"))
                if vcfg.is_3d:
                    assert code == cli.EXIT_ERROR and "2D config" in err
                    continue
                poly = geom.truncate(vcfg, certify.CertificationPlan.truncation_length) if truncate else vcfg.center
                mesh = fem.triangulate(poly, certify.FEM_H0)
                for _ in range(levels - 1):
                    mesh = fem.refine(mesh)
                assert code == cli.EXIT_CERTIFIED
                assert f" dof={assemble(mesh, certify.tail_caps(poly)).free_nodes.size} " in err

    def test_svg_output(self, capsys):
        code, out, _ = run(
            capsys, "mesh", "configs/t_junction.json", "--h0", "0.5", "--format", "svg"
        )
        assert code == 0
        assert "<svg" in out


class TestSweepCommand:
    def test_small_bent_guide_sweep(self, capsys):
        code, out, err = run(
            capsys,
            "sweep", "--family", "broken",
            "--start", "1.0", "--stop", "1.02", "--step", "0.01",
        )
        assert code == cli.EXIT_CERTIFIED
        lines = out.strip().splitlines()
        assert lines[0] == "param,nu,verdict,n,dn_margin"
        assert len(lines) == 4
        assert all("CertifiedNoResonance" in ln for ln in lines[1:])
        assert "first certified" in err


    @pytest.mark.parametrize(
        "grid, message",
        [
            (("--start", "1.0", "--stop", "1.02", "--step", "0"), "--step must be positive"),
            (("--start", "1.0", "--stop", "1.02", "--step", "-0.1"), "--step must be positive"),
            (("--start", "1.0", "--stop", "1.02", "--step", "inf"), "--step must be positive"),
            (("--start", "1.02", "--stop", "1.0"), "start <= stop"),
            (("--start", "nan", "--stop", "1.0"), "start <= stop"),
            (("--start", "1.0", "--stop", "inf"), "start <= stop"),
            # 1.2e13 angles: refused before np.arange allocates them
            (("--start", "0.35", "--stop", "1.57", "--step", "1e-13"), "exceeds the cap of 1000000 grid points"),
            (("--start", "0.35", "--stop", "1.57", "--step", "5e-324"), "exceeds the cap of 1000000 grid points"),
            (("--start", "1.0", "--stop", "1.0", "--step", "1e-19"), "exceeds the cap of 1000000 grid points"),
        ],
    )
    def test_a_bad_grid_exits_one(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", "--family", "broken", *grid)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_a_grid_at_the_cap_is_not_refused(self, monkeypatch, capsys):
        # np.arange(1.0, 1.04 + 1e-12, 0.01) has 5 points; the cap refuses only more
        monkeypatch.setattr(certify, "MAX_GRID_POINTS", 5)
        assert run(capsys, "sweep", "--family", "broken", "--start", "1.0", "--stop", "1.04", "--step", "0.01")[0] == cli.EXIT_CERTIFIED
        monkeypatch.setattr(certify, "MAX_GRID_POINTS", 4)
        assert run(capsys, "sweep", "--family", "broken", "--start", "1.0", "--stop", "1.04", "--step", "0.01")[0] == cli.EXIT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "broken", "--start", "0", "--stop", "0.01"),
            ("--family", "y_alpha", "--start", "0", "--stop", "0.01"),
        ],
    )
    def test_an_angle_outside_the_family_exits_one(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert "alpha" in err and "Traceback" not in err

    def test_there_is_no_anchor_flag(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "broken", "--start", "1.0", "--stop", "1.0", "--anchor", "0.9")
        assert (code, out) == (cli.EXIT_ERROR, "")


class TestReproCommand:
    def test_fast_targets(self, capsys):
        code, out, _ = run(capsys, "repro", "rect_two_eigs", "cube_square", "cube_disk")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(ln.endswith("PASS") for ln in lines)

    def test_no_preset_named_exits_one(self, capsys):
        code, out, err = run(capsys, "repro")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: repro needs --all or preset names\n"

    def test_an_unknown_preset_exits_one_before_any_verdict(self, capsys):
        code, out, err = run(capsys, "repro", "t_junction", "nosuch")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err.startswith("error: unknown preset 'nosuch'; repro runs t_junction, ") and err.count("\n") == 1


class TestParserReuse:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_list_flag_leaves_no_default_behind(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--shape", "box", "--dims", "2", "3", "--bcs", "DD", "NN")
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--shape", "box")
        expected = fresh("spectrum", "--shape", "box")
        assert code == expected.returncode == 0
        assert out == expected.stdout

    def test_a_parse_error_leaves_the_parser_usable(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "nope")
        assert (code, out) == (cli.EXIT_ERROR, "")
        code, out, _ = run(capsys, "certify", "--preset", "t_junction")
        expected = fresh("certify", "--preset", "t_junction")
        assert code == expected.returncode == cli.EXIT_CERTIFIED
        assert out == expected.stdout


class TestLazyImports:
    HEAVY = ("scipy.special", "scipy.sparse.linalg", "scipy.linalg")

    def _certify_fresh(self, tmp_path, preset: str) -> tuple[int, list[str], str]:
        """Exit code, heavy SciPy modules loaded and report of one certify
        call in a fresh interpreter."""
        report = tmp_path / "report.json"
        code = (
            "import sys; from starspec import cli; "
            f"code = cli.run(['certify', '--preset', {preset!r}, '-o', {str(report)!r}]); "
            f"print(code, *[m for m in {self.HEAVY!r} if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        code, *loaded = out.split()
        return int(code), loaded, report.read_text()

    def test_an_analytic_verdict_loads_no_solver_and_no_bessel_function(self, tmp_path):
        code, loaded, _ = self._certify_fresh(tmp_path, "rect_two_eigs")
        assert (code, loaded) == (cli.EXIT_CERTIFIED, [])

    def test_the_bessel_function_loads_on_first_use(self, tmp_path, capsys):
        fresh_code, loaded, report = self._certify_fresh(tmp_path, "cube_disk")
        assert "scipy.special" in loaded
        code, out, _ = run(capsys, "certify", "--preset", "cube_disk")
        assert fresh_code == code == cli.EXIT_CERTIFIED
        assert report == out
        assert json.loads(out)["versions"]["scipy"] == scipy.__version__
