from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from warpfield import manifest
from warpfield.cli import corpus_dir, main
from warpfield.manifest import ManifestError, load_manifest, parse_manifest

GRW = """
[constants]
a = 1

[base]
dim = 1
coords = t
g.t.t = -1
box.t = -0.75, 0.75

[fiber.1]
dim = 2
coords = x, y
g.x.x = 1
g.y.y = 1
box.x = -1, 1
box.y = -1, 1
warp = exp(t)

[torsion]
location = base
comp.t = 1

[field.zeta_a]
location = base
comp.t = a
"""


class TestParsing:
    def test_grw_example(self):
        mf = parse_manifest(GRW, "grw")
        assert mf.fiber_count == 1
        assert mf.torsion.location == "base"
        assert set(mf.fields) == {"zeta_a"}
        assert mf.structure.total_dim == 3

    def test_comments_and_blank_lines_ignored(self):
        mf = parse_manifest("# heading\n" + GRW + "\n# trailing\n", "grw")
        assert mf.fiber_count == 1

    def test_missing_base_section(self):
        with pytest.raises(ManifestError):
            parse_manifest("[torsion]\nlocation = zero\n", "bad")

    def test_torsion_fiber_out_of_range(self):
        text = GRW.replace("location = base\ncomp.t = 1",
                           "location = fiber.3\ncomp.x = 1")
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, "bad")
        assert "fiber.3" in str(err.value)

    def test_field_scope_violation(self):
        text = GRW + "\n[field.bad]\nlocation = fiber.1\ncomp.x = t\n"
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_unknown_key_reports_line(self):
        text = GRW + "\n[field.bad]\nlocation = base\nwhatever = 3\n"
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, "bad")
        assert err.value.line > 0

    def test_missing_box(self):
        text = GRW.replace("box.t = -0.75, 0.75\n", "")
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_bad_expression_offsets(self):
        text = GRW.replace("warp = exp(t)", "warp = exp(q)")
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, "bad")
        assert "q" in str(err.value)

    def test_nonpositive_warp_at_center(self):
        text = GRW.replace("warp = exp(t)", "warp = t")
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_duplicate_field(self):
        text = GRW + "\n[field.zeta_a]\nlocation = base\ncomp.t = 2\n"
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_fiber_numbering_contiguous(self):
        text = GRW.replace("[fiber.1]", "[fiber.2]")
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_exclusion_names_must_exist(self):
        text = GRW + "\n[exclude]\nq = 0, 1\n"
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")

    def test_conflicting_symmetric_entries(self):
        text = GRW.replace("g.x.x = 1\ng.y.y = 1",
                           "g.x.x = 1\ng.y.y = 1\ng.x.y = t0", 1)
        text = text.replace("g.x.y = t0", "g.x.y = 1\ng.y.x = 2")
        with pytest.raises(ManifestError):
            parse_manifest(text, "bad")


CENTRE_BASE = "[base]\ndim = 1\ncoords = t\ng.t.t = {g}\nbox.t = {box}\n"
CENTRE_FIBER = "\n[fiber.1]\ndim = 1\ncoords = x\ng.x.x = 1\nbox.x = -1, 1\nwarp = {w}\n"


class TestCentreCheck:
    """The chart centre goes through the metric walk of every sample set, so
    an error there names the point and the expression."""

    @pytest.mark.parametrize("text, message", [
        (CENTRE_BASE.format(g="log(t)", box="-1, 0.5"),
         "log of -0.25 outside real domain at (t=-0.25) in log(t)"),
        (CENTRE_BASE.format(g="1/t", box="-1, 1"),
         "division by zero at (t=0.0) in 1/t"),
        (CENTRE_BASE.format(g="t^0.5", box="-1, 0.5"),
         "non-integer power of non-positive base -0.25 at (t=-0.25) in t^0.5"),
        (CENTRE_BASE.format(g="-1", box="-1, 0.5") + CENTRE_FIBER.format(w="sqrt(t)"),
         "sqrt of -0.25 outside real domain at (t=-0.25, x=0.0) in sqrt(t)"),
    ], ids=["log", "division", "power", "fiber-warp"])
    def test_error_names_point_and_expression(self, text, message):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, "bad")
        assert str(err.value) == f"line 1: chart-center validation failed: {message}"


class TestCorpus:
    def test_every_shipped_manifest_loads(self):
        paths = sorted(corpus_dir().glob("*.wm"))
        assert len(paths) >= 10
        for path in paths:
            mf = load_manifest(path)
            assert mf.structure.total_dim >= 1

    def test_corpus_covers_required_variety(self):
        mfs = [load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))]
        fiber_counts = {m.fiber_count for m in mfs}
        assert {1, 2, 3} <= fiber_counts
        locations = set()
        for m in mfs:
            if m.torsion.is_zero:
                locations.add("zero")
            elif m.torsion.location == "base":
                locations.add("base")
            else:
                locations.add("fiber")
        assert locations == {"zero", "base", "fiber"}
        # both base signatures appear among warped manifests
        signs = set()
        for m in mfs:
            if m.fiber_count >= 1:
                ps = m.structure
                center = np.array([0.5 * (lo + hi) for lo, hi in ps.box])
                signs.add(1 if ps.metric_at(center).g[0, 0] > 0 else -1)
        assert signs == {1, -1}


@pytest.fixture
def parses(monkeypatch):
    """Names parsed from here on, one entry per parse_manifest call, with
    the load cache emptied first."""
    names = []

    def counted(text, name="<manifest>"):
        names.append(name)
        return parse_manifest(text, name)

    manifest._parsed.cache_clear()
    monkeypatch.setattr(manifest, "parse_manifest", counted)
    return names


class TestLoadCache:
    def test_same_file_loads_one_object(self, tmp_path, parses):
        path = tmp_path / "grw.wm"
        path.write_text(GRW)
        assert load_manifest(path) is load_manifest(path)
        assert parses == ["grw"]

    def test_rewritten_file_is_parsed_afresh(self, tmp_path, parses):
        path = tmp_path / "grw.wm"
        path.write_text(GRW)
        before = load_manifest(path)
        path.write_text(GRW.replace("a = 1", "a = 2"))
        after = load_manifest(path)
        assert after is not before
        assert (before.constants["a"], after.constants["a"]) == (1.0, 2.0)
        assert parses == ["grw", "grw"]

    def test_same_text_under_two_names(self, tmp_path, parses):
        (tmp_path / "one.wm").write_text(GRW)
        (tmp_path / "two.wm").write_text(GRW)
        one, two = load_manifest(tmp_path / "one.wm"), load_manifest(tmp_path / "two.wm")
        assert (one.name, two.name) == ("one", "two")
        assert parses == ["one", "two"]

    def test_failed_manifest_is_not_kept(self, tmp_path, parses):
        path = tmp_path / "grw.wm"
        path.write_text(GRW.replace("box.t = -0.75, 0.75\n", ""))
        for _ in range(2):
            with pytest.raises(ManifestError, match="missing box"):
                load_manifest(path)
        path.write_text(GRW)
        assert load_manifest(path).structure.total_dim == 3
        assert parses == ["grw"] * 3

    def test_killing_sweep_parses_once(self, tmp_path, capsys, parses):
        path = tmp_path / "sweep.wm"
        path.write_text(GRW + "\n[field.zeta_x]\nlocation = fiber.1\ncomp.x = 1\n")
        for field in ("zeta_a", "zeta_x"):
            for kind in ("killing", "ssm", "2killing"):
                assert main(["killing", str(path), "--field", field, "--kind", kind,
                             "--samples", "4"]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert parses == ["sweep"]


class TestReadOnly:
    def test_attributes_cannot_be_assigned(self):
        mf = parse_manifest(GRW, "grw")
        with pytest.raises(FrozenInstanceError):
            mf.name = "other"
        with pytest.raises(FrozenInstanceError):
            mf.fields = {}

    def test_mappings_cannot_be_assigned_into(self):
        mf = parse_manifest(GRW, "grw")
        with pytest.raises(TypeError):
            mf.fields["zeta_b"] = mf.fields["zeta_a"]
        with pytest.raises(TypeError):
            mf.constants["a"] = 2.0
        with pytest.raises(TypeError):
            mf.exclusions["t"] = ()
        assert dict(mf.constants) == {"a": 1.0} and set(mf.fields) == {"zeta_a"}

    def test_exclusions_are_tuples(self):
        mf = parse_manifest(GRW + "\n[exclude]\nx = -0.5, -0.25\nx = 0.25, 0.5\n", "grw")
        assert mf.exclusions["x"] == ((-0.5, -0.25), (0.25, 0.5))
