"""Any value in any key line of a small manifest ends ``verify`` and
``killing --kind 2killing`` with exit 0, 1 or 2, raises nothing, and an
exit 2 is exactly one ``warpfield: `` line on stderr."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_robustness import COMMANDS, TWO_BLOCKS, run, with_line  # noqa: E402

KEY_LINES = [n for n, text in enumerate(TWO_BLOCKS.splitlines(), start=1) if " = " in text]

HOSTILE = ["nan", "inf", "-inf", "1e400", "2.5", "-0", "1e-320", "0^-1", "2^1000^1000",
           "t^(1000^1000)", "(" * 300 + "t" + ")" * 300, " + ".join(["t"] * 700),
           "-" * 1500 + "t", ""]

ATOMS = ["t", "x", "a", "0", "-0", "1", "1e308", "5e-324", "1e-320", "0^-1", "0^0",
         "exp(t)", "exp(1e3)", "log(t)", "log(1e-320)", "sqrt(1e-320)", "cbrt(t - 1)",
         "tanh(1e308)", "1e-320^t", "t^-1e308", "(-1)^t", "1/(t - 1)", "x^x"]

VALUES = st.one_of(
    st.sampled_from(HOSTILE),
    st.floats().map(repr),
    st.builds("{}, {}".format, st.floats().map(repr), st.floats().map(repr)),
    st.builds("{}{}{}".format, st.sampled_from(ATOMS), st.sampled_from("+-*/^"),
              st.sampled_from(ATOMS)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=st.sampled_from(KEY_LINES), value=VALUES)
def test_any_value_exits_cleanly(tmp_path, capsys, line, value):
    path = tmp_path / "hostile.wm"
    path.write_text(with_line(line, value))
    for command in COMMANDS:
        code, out, err = run(capsys, [command[0], str(path), *command[1:]])
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            [msg] = err.splitlines()
            assert msg.startswith("warpfield: ")
