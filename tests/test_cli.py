import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from warpfield import cli
from warpfield.cli import build_parser, corpus_dir, main, resolve_manifest
from warpfield.manifest import load_manifest
from warpfield.suite import default_registry

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "warpfield.cli", *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    return proc


def wm(name):
    return str(corpus_dir() / f"{name}.wm")


FAST = ("--samples", "12")

DIV_CONSTANT = ("[constants]\na = 1\n\n[base]\ndim = 1\ncoords = t\ng.t.t = 1\n"
                "box.t = -1, 1\n\n[torsion]\nlocation = zero\n\n"
                "[field.z]\nlocation = base\ncomp.t = t/(a - 1)\n")


EXP_WARP = ("[base]\ndim = 1\ncoords = t\ng.t.t = 1\nbox.t = {box}\n\n"
            "[fiber.1]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = -1, 1\n"
            "warp = exp(t)\n\n[torsion]\nlocation = zero\n")

# a fiber in light-cone coordinates: its coordinate directions are null
LIGHT_CONE = ("[base]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = 0.5, 1.5\n\n"
              "[fiber.1]\ndim = 2\ncoords = u, v\ng.u.v = 1\nbox.u = -1, 1\n"
              "box.v = -1, 1\nwarp = 1 + x^2\n\n[torsion]\nlocation = zero\n\n"
              "[field.z]\nlocation = base\ncomp.x = 1\n\n"
              "[field.w]\nlocation = fiber.1\ncomp.u = 1\n")

# one warped fiber and no [field.*] section
NO_FIELDS = ("[base]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = 0.5, 1.5\n\n"
             "[fiber.1]\ndim = 1\ncoords = y\ng.y.y = 1\nbox.y = -1, 1\n"
             "warp = 1 + x^2\n")

# a base field whose component overflows at sample points far from the centre
FIELD_OVERFLOW = ("[base]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = -30, 30\n\n"
                  "[fiber.1]\ndim = 1\ncoords = u\ng.u.u = 1\nbox.u = -1, 1\n"
                  "warp = 1 + x^2\n\n[torsion]\nlocation = zero\n\n"
                  "[field.z]\nlocation = base\ncomp.x = exp(x^4)\n")

# a fiber field that is finite at every sample point, but whose second Lie
# derivative overflows there
LIE_OVERFLOW = ("[base]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = 0.5, 1.5\n\n"
                "[fiber.1]\ndim = 1\ncoords = v\ng.v.v = 1\nbox.v = -1, 1\n"
                "warp = 1 + x^2\n\n"
                "[field.q]\nlocation = fiber.1\ncomp.v = exp(v^2*800)\n")

NEG_WARP = ("[base]\ndim = 1\ncoords = t\ng.t.t = 1\nbox.t = -0.5, 1.5\n\n"
            "[fiber.1]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = -1, 1\n"
            "warp = t\n\n[torsion]\nlocation = zero\n\n"
            "[field.z]\nlocation = base\ncomp.t = 1\n")

# a warped product whose chart box is given per coordinate
BOXED = ("[base]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = {x}\n\n"
         "[fiber.1]\ndim = 1\ncoords = u\ng.u.u = 1\nbox.u = {u}\n"
         "warp = 1 + x^2\n\n[torsion]\nlocation = zero\n")


class TestExitCodes:
    def test_passing_check_exits_zero(self):
        proc = run_cli("verify", wm("grw_exp"), "--props", "Prop3.20", *FAST)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_failing_check_exits_one(self):
        proc = run_cli("verify", wm("grw_poly"), "--props", "Prop3.20", *FAST)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_killing_field_pass(self):
        proc = run_cli("killing", wm("interval"), "--field", "zeta_a", *FAST)
        assert proc.returncode == 0

    def test_killing_field_fail(self):
        proc = run_cli("killing", wm("interval"), "--field", "zeta_lin", *FAST)
        assert proc.returncode == 1

    def test_second_order_kinds(self):
        ok = run_cli("killing", wm("interval"), "--field", "zeta_cbrt21",
                     "--kind", "2killing", *FAST)
        assert ok.returncode == 0
        bad = run_cli("killing", wm("interval"), "--field", "zeta_sq",
                      "--kind", "2killing", *FAST)
        assert bad.returncode == 1

    def test_missing_manifest_is_usage_error(self):
        proc = run_cli("verify", "no_such_file.wm")
        assert proc.returncode == 2

    def test_unknown_check_id_is_usage_error(self):
        proc = run_cli("verify", wm("interval"), "--props", "PropX")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["warpfield: unknown check id 'PropX'"]

    def test_unknown_field_is_usage_error(self):
        proc = run_cli("killing", wm("interval"), "--field", "nope")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "warpfield: unknown field 'nope' (manifest declares ['zeta_a', "
            "'zeta_cbrt', 'zeta_cbrt21', 'zeta_cbrtm13', 'zeta_lin', 'zeta_sq'])"]

    @pytest.mark.parametrize("props", ["", ",", " , "])
    def test_empty_check_selection_is_usage_error(self, capsys, props):
        # an explicit selection of no check must not pass vacuously
        assert main(["verify", wm("interval"), "--props", props]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"warpfield: --props {props!r} names no check"]

    def test_bad_flag_is_usage_error(self):
        proc = run_cli("verify", wm("interval"), "--format", "yaml")
        assert proc.returncode == 2

    def test_explicitly_selected_inapplicable_check_fails(self):
        # a sphere chart admits no fiber decomposition check
        proc = run_cli("verify", wm("sphere"), "--props", "Lemma4.1.4", *FAST)
        assert proc.returncode == 1
        assert "inconclusive" in proc.stdout or "----" in proc.stdout

    def test_field_sum_syntax(self):
        proc = run_cli("killing", wm("torus_warp"), "--field",
                       "zeta_by+zeta_cv", *FAST)
        assert proc.returncode == 0

    @pytest.mark.parametrize("body,argv,expected", [
        # 1/t is undefined at the chart centre t = 0
        ("[base]\ndim = 1\ncoords = t\ng.t.t = 1/t\nbox.t = -1, 1\n\n"
         "[torsion]\nlocation = zero\n",
         ["verify", "--samples", "4"], "chart-center validation failed"),
        # a constant divisor that the declared constants make zero
        (DIV_CONSTANT, ["verify"], "in t/(1 - 1)"),
        (DIV_CONSTANT, ["killing", "--field", "z"], "in t/(1 - 1)"),
        # a jet divisor that vanishes at every sample point
        ("[base]\ndim = 1\ncoords = t\ng.t.t = 1\nbox.t = 0.5, 1.5\n\n"
         "[torsion]\nlocation = zero\n\n"
         "[field.z]\nlocation = base\ncomp.t = 1/(t - t)\n",
         ["killing", "--field", "z"], "in 1/(t - t)"),
    ], ids=["centre", "constant-verify", "constant-killing", "jet-killing"])
    def test_division_by_zero_is_usage_error(self, tmp_path, capsys, body, argv,
                                             expected):
        path = tmp_path / "div.wm"
        path.write_text(body)
        assert main([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("warpfield: ") and "division by zero" in line
        assert expected in line
        if argv[0] == "killing":
            assert " at (t=" in line

    @pytest.mark.parametrize("box,message", [
        # exp(500)^2 overflows at the chart centre
        ("0, 1000", "chart-center validation failed: overflow at (t=500.0, x=0.0) "
                    "in exp(t)^2*1"),
        # the centre is fine; at sample points the squared warp overflows
        # (t > 355) or leaves the fiber block singular (t < -100)
        ("-700, 720", " at (t="),
    ], ids=["centre", "sample"])
    def test_overflow_is_one_line_usage_error(self, tmp_path, box, message):
        # in a subprocess, so numpy warnings would reach stderr
        path = tmp_path / "exp_warp.wm"
        path.write_text(EXP_WARP.format(box=box))
        proc = run_cli("verify", str(path), "--samples", "8")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("warpfield: ") and message in line
        assert "overflow" in line or "singular metric block fiber.1" in line

    @pytest.mark.parametrize("argv", [["verify", "--samples", "8"],
                                      ["killing", "--field", "z"]],
                             ids=["verify", "killing"])
    def test_non_positive_warp_names_point_and_expression(self, tmp_path, argv):
        # the warp is positive at the chart centre but not at every sample
        path = tmp_path / "neg_warp.wm"
        path.write_text(NEG_WARP)
        proc = run_cli(argv[0], str(path), *argv[1:])
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("warpfield: warping for fiber.1 evaluates to -")
        assert " at (t=" in line and line.endswith(" in t")

    def test_domain_error_at_a_sample_point_is_usage_error(self, tmp_path, capsys):
        from warpfield.manifest import load_manifest
        from warpfield.metric import sample_points
        from warpfield.sampling import DEFAULT_SEED, SplitMix, subseed
        from warpfield.suite import RunContext

        # log(t) is defined at the chart centre but not on the whole box
        path = tmp_path / "log_box.wm"
        path.write_text("[base]\ndim = 1\ncoords = t\ng.t.t = 1\n"
                        "box.t = -0.5, 1.5\n\n[torsion]\nlocation = zero\n\n"
                        "[field.zeta_log]\nlocation = base\ncomp.t = log(t)\n")
        mf = load_manifest(path)
        killing_rng = SplitMix(subseed(DEFAULT_SEED, mf.name, "cli-killing"))
        for argv, points in (
                (["verify", str(path), "--samples", "64"],
                 RunContext(mf, samples=64).points()),
                (["killing", str(path), "--field", "zeta_log", "--samples", "16"],
                 sample_points(mf.structure, 16, killing_rng, mf.exclusions))):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1
            assert captured.err.startswith("warpfield: log of -")
            # the message names the first sample point outside the domain
            # and the expression that left it
            bad = next(t for t in points[:, 0].tolist() if t <= 0.0)
            assert f"at (t={bad!r}) in log(t)" in captured.err


class TestUnreadableManifest:
    """A manifest path that cannot be read as UTF-8 text is one usage-error
    line naming the path, for either command."""

    COMMANDS = [["verify", "--samples", "4"], ["killing", "--field", "z"]]

    def check(self, capsys, path, argv, reason):
        assert main([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("warpfield: ") and str(path) in line
        assert reason in line

    @pytest.mark.parametrize("argv", COMMANDS, ids=["verify", "killing"])
    def test_directory(self, tmp_path, capsys, argv):
        path = tmp_path / "dir.wm"
        path.mkdir()
        self.check(capsys, path, argv, "Is a directory")

    @pytest.mark.parametrize("argv", COMMANDS, ids=["verify", "killing"])
    def test_not_utf8(self, tmp_path, capsys, argv):
        path = tmp_path / "binary.wm"
        path.write_bytes(b"\xff\xfe\x00")
        self.check(capsys, path, argv, "not UTF-8 text")

    @pytest.mark.parametrize("argv", COMMANDS, ids=["verify", "killing"])
    def test_no_read_permission(self, tmp_path, capsys, argv):
        path = tmp_path / "locked.wm"
        path.write_text(NO_FIELDS)
        path.chmod(0)
        try:
            if os.access(path, os.R_OK):
                pytest.skip("this user reads files whatever their mode")
            self.check(capsys, path, argv, "Permission denied")
        finally:
            path.chmod(0o600)


class TestNullFrame:
    """A frame trace over a block whose coordinate directions are null."""

    def test_frame_trace_is_inconclusive_naming_block_and_point(self, tmp_path, capsys):
        path = tmp_path / "light_cone.wm"
        path.write_text(LIGHT_CONE)
        # an explicitly selected check that is inconclusive exits 1
        assert main(["verify", str(path), "--props", "Prop6.12", "--samples", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        [row] = captured.out.splitlines()[1:-1]
        assert row.startswith("----  Prop6.12")
        assert "null direction" in row and "fiber.1" in row and "(x=" in row

    def test_full_run_reports_every_applicable_check(self, tmp_path, capsys):
        path = tmp_path / "light_cone.wm"
        path.write_text(LIGHT_CONE)
        assert main(["verify", str(path), "--samples", "8"]) in (0, 1)
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split()[1] for line in captured.out.splitlines()[1:-1]]
        mf = load_manifest(path)
        assert rows == sorted(s.id for s in default_registry().specs if s.applies(mf))


class TestNoFields:
    """A manifest that declares no fields: the field checks are
    inconclusive, not a traceback."""

    def test_full_run_has_no_traceback(self, tmp_path, capsys):
        path = tmp_path / "no_fields.wm"
        path.write_text(NO_FIELDS)
        assert main(["verify", str(path), "--samples", "8"]) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("check", ["Def3.4", "Def3.5", "Remark3.11"])
    def test_field_check_is_inconclusive(self, tmp_path, capsys, check):
        path = tmp_path / "no_fields.wm"
        path.write_text(NO_FIELDS)
        rc = main(["verify", str(path), "--props", check, "--samples", "8"])
        [row] = capsys.readouterr().out.splitlines()[1:-1]
        assert row.startswith(f"----  {check}") and "no fields declared" in row
        assert rc == main(["verify", str(path), "--props", "Def3.6", "--samples", "8"])


class TestFieldOverflow:
    """A field component that overflows at a sample point names that chart
    point and the component, on one line, whichever check reads it first:
    only the chart walks a field."""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--samples", "8"],
         "overflow at (x=-22.555221645980055, u=0.5411968108936274) in exp(x^4)"),
        (["killing", "--field", "z", "--kind", "2killing", "--samples", "8"],
         "overflow at (x=14.959318425496505, u=0.36596041779613775) in exp(x^4)"),
    ], ids=["verify", "killing"])
    def test_overflow_is_one_line_usage_error(self, tmp_path, argv, message):
        # in a subprocess, so numpy warnings would reach stderr
        path = tmp_path / "field_overflow.wm"
        path.write_text(FIELD_OVERFLOW)
        proc = run_cli(argv[0], str(path), *argv[1:])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"warpfield: {message}"]


class TestResidualOverflow:
    """A residual that overflows inside a stack fails its check; stderr
    stays empty."""

    @pytest.mark.parametrize("argv", [["verify", "--samples", "8"],
                                      ["killing", "--field", "q", "--kind", "2killing",
                                       "--samples", "8"]],
                             ids=["verify", "killing"])
    def test_fails_without_warnings(self, tmp_path, argv):
        # in a subprocess, so numpy warnings would reach stderr
        path = tmp_path / "lie_overflow.wm"
        path.write_text(LIE_OVERFLOW)
        proc = run_cli(argv[0], str(path), *argv[1:])
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
        assert proc.stderr == ""


class TestNonFiniteBox:
    """A box bound that is not finite, or a box too wide for its width to
    be finite, is a manifest error on the line that declares it; a finite
    box near the float limit is validated at a centre inside it."""

    @pytest.mark.parametrize("x,u,line", [
        ("0, inf", "-1, 1", 5),
        ("0.5, 1.5", "-1e308, 1e308", 11),
    ], ids=["infinite-bound", "overflowing-width"])
    def test_is_one_line_usage_error(self, tmp_path, x, u, line):
        # in a subprocess, so a traceback would reach stderr
        path = tmp_path / "boxed.wm"
        path.write_text(BOXED.format(x=x, u=u))
        proc = run_cli("verify", str(path), "--samples", "4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [msg] = proc.stderr.splitlines()
        assert msg.startswith(f"warpfield: line {line}: interval ")
        assert "finite" in msg

    def test_centre_of_a_box_near_the_float_limit_is_inside_it(self, tmp_path):
        # lo + hi overflows here; the centre check must name a point of the box
        path = tmp_path / "boxed.wm"
        path.write_text(BOXED.format(x="1e308, 1.5e308", u="-1, 1"))
        proc = run_cli("verify", str(path), "--samples", "4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [msg] = proc.stderr.splitlines()
        assert msg.startswith("warpfield: line 1: chart-center validation failed: ")
        assert "x=1.25e+308" in msg


class TestFlagBounds:
    @pytest.mark.parametrize("argv", [
        ("killing", "sphere.wm", "--field", "zeta_phi", "--samples", "0"),
        ("killing", "sphere.wm", "--field", "zeta_phi", "--samples", "-3"),
        ("verify", "sphere.wm", "--samples", "0"),
        ("verify", "sphere.wm", "--tol-alg", "nan"),
        ("verify", "sphere.wm", "--tol-alg", "0"),
        ("verify", "sphere.wm", "--tol-2k", "inf"),
        ("killing", "sphere.wm", "--field", "zeta_phi", "--tol-2k=-1e-6"),
        ("verify", "sphere.wm", "--tol-alg", "-1e-6"),
        ("verify", "sphere.wm", "--tol-2k", "-inf"),
        ("verify", "sphere.wm", "--tol-alg", "-nan"),
    ])
    def test_bad_run_flag_is_one_line_usage_error(self, argv, capsys):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("warpfield: --")

    # 10^11 samples: the sample draw's first allocation (745 GiB) fails
    # outright, so no count here can really allocate
    HUGE = str(10 ** 11)

    @pytest.mark.parametrize("argv", [("verify", "interval.wm"),
                                      ("killing", "interval.wm", "--field", "zeta_a")],
                             ids=["verify", "killing"])
    def test_samples_above_the_ceiling_is_one_line_usage_error(self, argv, capsys):
        assert main([*argv, "--samples", self.HUGE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"warpfield: --samples must be at most {cli.MAX_SAMPLES}, "
                                f"got {self.HUGE}\n")

    def test_the_ceiling_itself_is_accepted(self):
        args = build_parser().parse_args(["verify", "interval.wm",
                                          "--samples", str(cli.MAX_SAMPLES)])
        assert cli._flag_error(args) is None

    @pytest.mark.parametrize("argv", [("verify", "interval.wm"),
                                      ("killing", "interval.wm", "--field", "zeta_a")],
                             ids=["verify", "killing"])
    def test_out_of_memory_is_one_line_usage_error(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 10 ** 12)
        assert main([*argv, "--samples", self.HUGE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("warpfield: out of memory: ")

    def test_parser_is_reused_after_a_usage_error(self, capsys):
        good = ["killing", "sphere.wm", "--field", "zeta_phi", "--samples", "4"]
        assert main(good) == 0
        first = capsys.readouterr()
        assert main(["verify", "sphere.wm", "--samples", "0"]) == 2
        bad = capsys.readouterr()
        assert bad.out == ""
        assert len(bad.err.strip().splitlines()) == 1
        assert main(good) == 0
        again = capsys.readouterr()
        assert again.out == first.out and again.err == first.err == ""
        assert build_parser() is build_parser()

    def test_one_sample_runs(self, capsys):
        assert main(["killing", "sphere.wm", "--field", "zeta_phi",
                     "--samples", "1"]) == 0
        assert "n=1 " in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_byte_identical_reports(self, fmt):
        args = ("verify", wm("grw_exp"), "--props",
                "Lemma3.1,Prop3.13,Eq2", "--format", fmt, *FAST)
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_killing_reports_identical(self):
        args = ("killing", wm("kasner"), "--field", "zeta_cbrt",
                "--kind", "2killing", "--format", "jsonl", *FAST)
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout


class TestJsonlFormat:
    def test_lines_parse_and_keys_sorted(self):
        proc = run_cli("verify", wm("interval"), "--props", "Example3.12",
                       "--format", "jsonl", *FAST)
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["manifest"] == "interval"
        assert header["seed"] == 24181
        body = json.loads(lines[1])
        assert body["check"] == "Example3.12"
        assert body["verdict"] == "pass"
        overall = json.loads(lines[2])
        assert overall["overall"] == "pass"

    @pytest.mark.parametrize("argv", [["verify", "--samples", "8"],
                                      ["killing", "--field", "q", "--kind", "2killing",
                                       "--samples", "8"]],
                             ids=["verify", "killing"])
    def test_non_finite_residuals_are_strict_json(self, tmp_path, argv):
        path = tmp_path / "lie_overflow.wm"
        path.write_text(LIE_OVERFLOW)
        proc = run_cli(argv[0], str(path), *argv[1:], "--format", "jsonl")

        def bare(token):
            raise ValueError(f"bare {token} is not JSON")

        rows = [json.loads(line, parse_constant=bare) for line in proc.stdout.splitlines()]
        assert proc.returncode == 1 and proc.stderr == ""
        nan = [r for r in rows if r.get("max_abs") == "nan"]
        assert nan and all(r["mean_abs"] == "nan" and r["verdict"] == "fail" for r in nan)

    def test_flags_change_report_inputs(self):
        a = run_cli("verify", wm("interval"), "--props", "Example3.12",
                    "--format", "jsonl", "--samples", "12")
        b = run_cli("verify", wm("interval"), "--props", "Example3.12",
                    "--format", "jsonl", "--samples", "13")
        assert a.stdout != b.stdout


class TestResolution:
    def test_bare_names_resolve_to_corpus(self):
        assert resolve_manifest("interval.wm").exists()

    def test_bare_name_runs_the_corpus_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["--props", "Example3.12", "--samples", "4"]
        assert main(["verify", "interval.wm", *argv]) == 0
        bare = capsys.readouterr()
        assert main(["verify", wm("interval"), *argv]) == 0
        assert capsys.readouterr() == bare and bare.out

    @pytest.mark.parametrize("path", ["/no/such/dir/interval.wm", "no/such/interval.wm",
                                      "./interval.wm"])
    @pytest.mark.parametrize("argv", [["verify", "--props", "Example3.12", "--samples", "4"],
                                      ["killing", "--field", "z", "--samples", "4"]],
                             ids=["verify", "killing"])
    def test_path_with_a_directory_is_not_looked_up_in_the_corpus(
            self, tmp_path, monkeypatch, capsys, path, argv):
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"warpfield: manifest not found: {path}"]
        with pytest.raises(FileNotFoundError):
            resolve_manifest(path)

    def test_env_relocation(self, tmp_path, monkeypatch):
        target = tmp_path / "relocated.wm"
        target.write_text((corpus_dir() / "interval.wm").read_text())
        monkeypatch.setenv("WARPFIELD_CORPUS", str(tmp_path))
        assert resolve_manifest("relocated.wm") == target

    def test_main_entry_point_exit_codes(self, capsys):
        rc = main(["verify", wm("interval"), "--props", "Example3.12",
                   "--samples", "12"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Example3.12" in captured.out


CONTROLS = {"grw_poly", "kasner_bad"}
POSITIVE = [p.stem for p in sorted(corpus_dir().glob("*.wm")) if p.stem not in CONTROLS]


class TestOneSampleGates:
    """At one sample point a spread over the sample set is 0, so a
    constant-length gate must test the length's gradient at the point."""

    @pytest.mark.parametrize("name", POSITIVE)
    def test_constant_length_statements_do_not_fail(self, name, capsys):
        main(["verify", wm(name), "--samples", "1", "--format", "jsonl"])
        rows = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        verdicts = {r["check"]: r["verdict"] for r in rows if r["kind"] == "check"}
        gated = ("Lemma6.4", "Cor6.5", "Thm6.14.2")
        assert set(gated) <= set(verdicts)
        assert [c for c in gated if verdicts[c] == "fail"] == []


class TestSampledHypotheses:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="CHANGES.md FOUND line on Lemma6.6: its hypothesis "
                       "Ric(zeta, zeta) <= 0 is tested only at the drawn points, so "
                       "torus_warp admits a field that is not parallel")
    def test_lemma_6_6_does_not_fail_at_one_or_two_samples(self, capsys):
        rows = []
        for samples in ("1", "2"):
            main(["verify", wm("torus_warp"), "--samples", samples, "--props", "Lemma6.6"])
            rows += capsys.readouterr().out.splitlines()[1:-1]
        assert len(rows) == 2 and [r for r in rows if r.startswith("FAIL")] == []


class TestWholeCorpusContract:
    def test_default_run_over_every_manifest(self):
        """Exit code is 0 exactly for manifests with no failing check;
        the two shipped negative-control manifests exit 1."""
        for path in sorted(corpus_dir().glob("*.wm")):
            proc = run_cli("verify", str(path), "--samples", "8",
                           "--format", "jsonl")
            lines = [json.loads(s) for s in proc.stdout.strip().splitlines()]
            overall = lines[-1]
            want = 1 if path.stem in CONTROLS else 0
            assert proc.returncode == want, (path.stem, proc.stdout[-500:])
            assert overall["overall"] == ("fail" if want else "pass")
