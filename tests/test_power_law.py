"""The power-law fits of Prop6.15, Def6.16 and Prop6.17 over the sample
stacks, against the same fits taken one sample row at a time
(``oracles``): the found base field and the recovered exponents are
equal, and the Eq-28 and Eq-29 residuals agree to a relative 1e-12, on
the Kasner manifests, on a cube-root field that misses at one row, and
on boxes where the fit masks rows (phi <= 0, or log phi near 0).  A
zero slope a leaves every row out."""

import numpy as np
import pytest

from oracles import (
    cbrt_base_field_rows,
    eq28_residual_max_rows,
    eq29_residual_max_rows,
    recover_exponent_rows,
)
from warpfield.checks.twokilling import (
    _cbrt_base_field,
    _eq28_residual_max,
    _eq29_residual_max,
    _recover_exponent,
)
from warpfield.cli import corpus_dir
from warpfield.fields import lift
from warpfield.manifest import parse_manifest
from warpfield.suite import INCONCLUSIVE, RunContext, default_registry, run_checks

KASNER = (corpus_dir() / "kasner.wm").read_text(encoding="utf-8")
CBRT_FIELD = "[field.zeta_cbrt]\nlocation = base\ncomp.t = cbrt(a*t - b)\n"
# phi = t - 0.25 crosses 1 inside the box: rows near t = 1.25 have
# |log phi| < 1e-3 and are left out of the fit
NEAR_ONE = KASNER.replace("box.t = 1.25, 2.75", "box.t = 1.24, 1.26")
# nearly the whole box has |log phi| < 1e-3: of 8 rows too few are left
FEW_ROWS = KASNER.replace("box.t = 1.25, 2.75", "box.t = 1.248, 1.252")
# phi crosses 0 inside the box: rows with phi <= 0 are left out, and the
# warps |t - b|^(1/3) stay positive on both sides
ACROSS_ZERO = (KASNER.replace("box.t = 1.25, 2.75", "box.t = 0.2, 0.32")
               .replace("warp = cbrt(t - b)", "warp = ((t - b)^2)^(1/6)"))
COUPLINGS = (0.0, 1.0 / 3.0, -0.7)


def context(text, name, samples=64, seed=3):
    return RunContext(parse_manifest(text, name), samples=samples, seed=seed)


def with_missing_row(keep_cbrt: bool, samples=64, seed=3):
    """kasner with a base field equal to cbrt(a t - b) at every sample row
    but one, where a narrow bump lifts it by 1e-6; the sample set does not
    depend on the fields, so the bump is placed on a row of a first run."""
    row = float(context(KASNER, "cbrt_miss", samples, seed).points()[samples // 2, 0])
    bump = (f"[field.zeta_a_miss]\nlocation = base\n"
            f"comp.t = cbrt(a*t - b) + 0.000001*exp(-((t - {row!r})/0.00001)^2)\n")
    text = KASNER if keep_cbrt else KASNER.replace(CBRT_FIELD, "")
    return context(text + "\n" + bump, "cbrt_miss", samples, seed)


def assert_fits_equal(ctx):
    assert _cbrt_base_field(ctx) == cbrt_base_field_rows(ctx)
    a, b = float(ctx.mf.constants["a"]), float(ctx.mf.constants["b"])
    for i in range(ctx.mf.fiber_count):
        p_i = _recover_exponent(ctx, i, a, b)
        assert p_i == recover_exponent_rows(ctx, i, a, b)[0]
        for c_i in COUPLINGS:
            assert _eq28_residual_max(ctx, i, c_i, a, b) == pytest.approx(
                eq28_residual_max_rows(ctx, i, c_i, a, b), rel=1e-12, abs=0.0)
            p = 1.0 / 3.0 if p_i is None else p_i
            assert _eq29_residual_max(ctx, i, p, c_i, a, b) == pytest.approx(
                eq29_residual_max_rows(ctx, i, p, c_i, a, b), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("samples, seed", [(16, 24181), (64, 3)])
@pytest.mark.parametrize("name", ["kasner", "kasner_bad"])
def test_corpus_kasner_manifests(name, samples, seed):
    text = (corpus_dir() / f"{name}.wm").read_text(encoding="utf-8")
    ctx = context(text, name, samples, seed)
    assert_fits_equal(ctx)
    assert _cbrt_base_field(ctx)[0] == "zeta_cbrt"
    exponents = [_recover_exponent(ctx, i, 1.0, 0.25) for i in range(ctx.mf.fiber_count)]
    assert exponents[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("keep_cbrt, found", [(True, "zeta_cbrt"), (False, None)])
def test_field_that_misses_at_one_row(keep_cbrt, found):
    ctx = with_missing_row(keep_cbrt)
    s = ctx.points()[:, 0] - 0.25
    miss = ctx.geom.field_values(lift(ctx.mf.fields["zeta_a_miss"]))[:, 0]
    assert np.count_nonzero(np.abs(miss - np.cbrt(s)) > 1e-10) == 1
    assert_fits_equal(ctx)
    assert (_cbrt_base_field(ctx) or (None,))[0] == found


@pytest.mark.parametrize("text, name, masked", [
    (NEAR_ONE, "near_one", lambda phi: np.abs(np.log(phi)) < 1e-3),
    (ACROSS_ZERO, "across_zero", lambda phi: phi <= 0),
], ids=["near_one", "across_zero"])
def test_masked_rows(text, name, masked):
    ctx = context(text, name)
    phi = ctx.points()[:, 0] - 0.25
    with np.errstate(invalid="ignore"):
        left_out = masked(phi)
    assert 0 < np.count_nonzero(left_out) <= len(phi) - 8
    assert_fits_equal(ctx)
    assert _recover_exponent(ctx, 1, 1.0, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_too_few_rows_left_gives_no_exponent():
    ctx = context(FEW_ROWS, "few_rows", samples=8)
    phi = ctx.points()[:, 0] - 0.25
    assert 0 < np.count_nonzero(np.abs(np.log(phi)) >= 1e-3) < 8
    assert_fits_equal(ctx)
    assert [_recover_exponent(ctx, i, 1.0, 0.25) for i in range(2)] == [None, None]


def test_zero_slope_fits_no_exponent():
    """With a = 0, phi = (a t - b)/a is infinite at every row: the fit
    leaves every row out and the exponent checks are inconclusive (the
    per-row loop divided by zero)."""
    mf = parse_manifest(KASNER.replace("a = 1\n", "a = 0\n"), "zero_slope")
    ctx = RunContext(mf, samples=16)
    assert [_recover_exponent(ctx, i, 0.0, 0.25) for i in range(2)] == [None, None]
    results = run_checks(mf, default_registry().select_many(["Def6.16", "Prop6.17"]),
                         samples=16, explicit=True)
    assert [(r.check, r.verdict) for r in results] == [
        ("Def6.16", INCONCLUSIVE), ("Prop6.17", INCONCLUSIVE)]
