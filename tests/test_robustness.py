"""Reports do not depend on what the coordinates are called, and a
hostile number or a deeply nested expression in a manifest is one
usage-error line, never a traceback."""

import re

import pytest

from warpfield.cli import corpus_dir, main

CORPUS = sorted(corpus_dir().glob("*.wm"))


def renamed(text: str) -> str:
    """The manifest with each coordinate c named c_r: in keys, boxes,
    exclusions and expressions (section headers are left alone)."""
    coords = {c.strip() for m in re.finditer(r"^coords\s*=(.*)$", text, re.M)
              for c in m.group(1).split(",")}
    word = re.compile(r"\b[A-Za-z_]\w*\b")
    return "".join(
        line if line.startswith("[")
        else word.sub(lambda m: m.group(0) + "_r" if m.group(0) in coords else m.group(0),
                      line)
        for line in text.splitlines(keepends=True))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoordinateNames:
    def test_renaming_changes_every_coordinate(self):
        text = (corpus_dir() / "interval.wm").read_text(encoding="utf-8")
        out = renamed(text)
        assert "coords = t_r\n" in out and "g.t_r.t_r = 1" in out
        assert "comp.t_r = cbrt(2*t_r - 1)" in out and "\nt_r = 0.42, 0.58" in out
        assert "[field.zeta_cbrt21]" in out and "comp.t_r = a\n" in out

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_report_is_byte_identical(self, path, tmp_path, capsys):
        # the same file stem, so the report names the same manifest
        twin = tmp_path / path.name
        twin.write_text(renamed(path.read_text(encoding="utf-8")), encoding="utf-8")
        argv = ["--samples", "16", "--format", "jsonl"]
        assert run(capsys, ["verify", str(twin), *argv]) == \
            run(capsys, ["verify", str(path), *argv])


# two blocks, a shift, and a field on each: line numbers are those of the
# key lines below
TWO_BLOCKS = """[constants]
a = 1

[base]
dim = 1
coords = t
g.t.t = -1
box.t = 0.5, 1.5

[fiber.1]
dim = 1
coords = x
g.x.x = 1
box.x = -1, 1
warp = exp(t)

[torsion]
location = base
comp.t = 1

[field.z]
location = base
comp.t = 1 + a*t

[field.w]
location = fiber.1
comp.x = 1
"""


def with_line(line: int, value: str) -> str:
    """TWO_BLOCKS with the value of its key line ``line`` replaced."""
    lines = TWO_BLOCKS.splitlines()
    key = lines[line - 1].split(" = ")[0]
    lines[line - 1] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


COMMANDS = [["verify", "--samples", "2"],
            ["killing", "--field", "z+w", "--kind", "2killing", "--samples", "2"]]

DEEP = "nested deeper than 100 levels"


class TestHostileInputs:
    @pytest.mark.parametrize("line,value,message", [
        (5, "nan", "line 5: dim must be a positive integer, got 'nan'"),
        (5, "inf", "line 5: dim must be a positive integer, got 'inf'"),
        (5, "-inf", "line 5: dim must be a positive integer, got '-inf'"),
        (5, "1e400", "line 5: dim must be a positive integer, got '1e400'"),
        (11, "1.5", "line 11: dim must be a positive integer, got '1.5'"),
        (2, "nan", "line 2: constant a must be finite, got 'nan'"),
        (13, "1e400", "line 13: bad expression '1e400': number 1e400 overflows"),
        (15, "exp(t)*1e400", "line 15: bad expression 'exp(t)*1e400': number 1e400 overflows"),
        (27, "1e400", "line 27: bad expression '1e400': number 1e400 overflows"),
        (13, "2^1000^1000", "overflow at (t=1.0, x=0.0) in 2^1000^1000"),
        (7, "t^(1000^1000)", "overflow at (t=1.0, x=0.0) in t^1000^1000"),
        (13, "0^-1", "division by zero at (t=1.0, x=0.0) in 0^-1"),
        (23, "(" * 250 + "t" + ")" * 250, DEEP),
        (23, "-" * 1500 + "t", DEEP),
        (23, " + ".join(["t"] * 700), DEEP),
    ], ids=["dim-nan", "dim-inf", "dim-minus-inf", "dim-1e400", "dim-1.5", "constant-nan",
            "entry-1e400", "warp-1e400", "component-1e400", "power-tower", "jet-power",
            "zero-to-minus-one", "250-parentheses", "1500-minuses", "700-terms"])
    @pytest.mark.parametrize("command", COMMANDS, ids=["verify", "killing"])
    def test_is_one_line_usage_error(self, tmp_path, capsys, line, value, message,
                                     command):
        path = tmp_path / "hostile.wm"
        path.write_text(with_line(line, value))
        code, out, err = run(capsys, [command[0], str(path), *command[1:]])
        assert (code, out) == (2, "")
        [msg] = err.splitlines()
        assert msg.startswith("warpfield: ") and message in msg
