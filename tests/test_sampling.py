"""Test-vector blocks: ``SplitMix.block`` against the scalar stream, sample
points and ``synth_field`` coefficients drawn as one block against one
draw at a time, and the checks that draw whole blocks against per-vector
loops in the scalar order."""

import numpy as np
import pytest

from oracles import (
    nabla_quad_at,
    riemann_quad,
    sample_points_scalar,
    synth_field_scalar,
    torsion_of,
)

from warpfield.checks import identities, killing, twokilling
from warpfield.cli import corpus_dir
from warpfield.connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    covariant_derivative,
    nabla_grid,
)
from warpfield.curvature import riemann
from warpfield.fields import synth_field
from warpfield.lie_killing import nabla_zeta_zeta
from warpfield.manifest import load_manifest
from warpfield.metric import GeometryError, sample_points
from warpfield.sampling import SplitMix
from warpfield.suite import RunContext, default_registry, run_checks

# every check whose test vectors come from one block per run
PORTED = ("Def3.6", "Lemma3.7", "Lemma3.8", "Remark3.9", "Prop3.10",
          "Prop3.18", "Prop3.22", "Prop4.8", "Prop4.10", "Prop5.4",
          "Cor3.15", "Cor3.16", "Cor4.5", "Cor4.6", "Cor5.2",
          "Cor6.3", "Cor6.5", "Thm6.14", "Eq2", "NablaBarG")


def manifest(name):
    return load_manifest(corpus_dir() / f"{name}.wm")


class TestBlock:
    @pytest.mark.parametrize("seed", [0, 1, 24181, 2 ** 64 - 1])
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("shape", [(7, 3), (4, 5, 3), (0, 3)])
    def test_block_is_the_scalar_stream(self, seed, scale, shape):
        fast, slow = SplitMix(seed), SplitMix(seed)
        got = fast.block(shape, scale)
        want = [slow.symmetric(scale) for _ in range(int(np.prod(shape)))]
        assert got.shape == shape
        assert np.array_equal(got, np.reshape(want, shape))
        assert fast._state == slow._state

    def test_blocks_continue_each_other(self):
        one, two = SplitMix(5), SplitMix(5)
        joined = np.concatenate([one.block((3, 4)), one.block((2, 4))])
        assert np.array_equal(joined, two.block((5, 4)))

    def test_uniforms_are_the_scalar_stream(self):
        fast, slow = SplitMix(2 ** 64 - 1), SplitMix(2 ** 64 - 1)
        got = fast.uniforms((5, 3))
        assert np.array_equal(got, np.reshape([slow.uniform() for _ in range(15)], (5, 3)))
        assert fast._state == slow._state

    def test_ported_checks_draw_no_scalar_vectors(self, monkeypatch):
        calls = []
        real_vector, real_u64 = SplitMix.vector, SplitMix.next_u64

        def vector(self, n, scale=1.0):
            calls.append(n)
            return real_vector(self, n, scale)

        def next_u64(self):
            calls.append(1)
            return real_u64(self)

        monkeypatch.setattr(SplitMix, "vector", vector)
        monkeypatch.setattr(SplitMix, "next_u64", next_u64)
        registry = default_registry()
        mf = manifest("mw2_fib")
        results = run_checks(mf, registry.select_many(PORTED), samples=16)
        assert sum(r.verdict == "pass" for r in results) >= 15
        assert calls == []
        # nor do the cone checks, whose vectors take a fixed count of draws
        run_checks(mf, registry.select("Prop4.9.1"), samples=16)
        assert calls == []


# ---- the ported kernels against per-vector loops in the scalar order ----


def remark_loop(ctx):
    geom, rng, n = ctx.geom, ctx.rng("remark39"), ctx.ps.total_dim
    gs, pivs = geom.metric_jet().g, geom.pi_covector()
    out = []
    for zeta in list(ctx.field_combos().values())[:6]:
        lhs, rhs = [], []
        for k, p in enumerate(ctx.points()):
            g, zv, piv = gs[k], geom.field_values(zeta)[k], pivs[k]
            for _ in range(4):
                x = np.array(rng.vector(n))
                lhs.append(nabla_quad_at(geom, zeta, x, p, SEMI_SYMMETRIC))
                rhs.append(nabla_quad_at(geom, zeta, x, p, LEVI_CIVITA)
                           + (zv @ piv) * (x @ g @ x) - (x @ piv) * (x @ g @ zv))
        out += [lhs, rhs]
    return out


def premise_loop(ctx):
    geom, rng, n = ctx.geom, ctx.rng("prop310"), ctx.ps.total_dim
    gs, pivs = geom.metric_jet().g, geom.pi_covector()
    out = []
    for zeta in ctx.field_combos().values():
        gaps = []
        for k in range(len(ctx.points())):
            g, zv, piv = gs[k], geom.field_values(zeta)[k], pivs[k]
            for _ in range(8):
                x = np.array(rng.vector(n))
                gaps.append((zv @ piv) * (x @ g @ x) - (x @ piv) * (x @ g @ zv))
        out.append(gaps)
    return out


def eq22_loop(ctx):
    # every field combo, not only the second-order ones: the gaps are then
    # far from zero and depend on which vector each slot received
    geom, rng, n = ctx.geom, ctx.rng("eq22"), ctx.ps.total_dim
    gs, gammas, r_lows = geom.metric_jet().g, geom.christoffel(), riemann(geom).r_low
    out = []
    for zeta in ctx.field_combos().values():
        gaps = []
        w, dw = nabla_zeta_zeta(geom, zeta)
        for k in range(len(ctx.points())):
            g, zv = gs[k], geom.field_values(zeta)[k]
            nw = nabla_grid(gammas[k], w[k], dw[k])
            for x in list(np.eye(n)) + [np.array(rng.vector(n)) for _ in range(4)]:
                nxz = covariant_derivative(geom, x, zeta)[k]
                gaps.append(abs(riemann_quad(r_lows[k], zv, x)
                                - nxz @ g @ nxz - (x @ nw) @ g @ x))
        out.append(gaps)
    return out


def torsion_loop(ctx):
    geom, rng, n = ctx.geom, ctx.rng("axiom-torsion"), ctx.ps.total_dim
    t, expected = [], []
    for k, p in enumerate(ctx.points()):
        for _ in range(max(1, 256 // len(ctx.points()))):
            x = np.array(rng.vector(n))
            y = np.array(rng.vector(n))
            t.append(torsion_of(geom, x, y, p))
            expected.append(geom.pi_of(y)[k] * x - geom.pi_of(x)[k] * y)
    return [t, expected]


CASES = {
    "Remark3.9": (remark_loop, lambda ctx: [side for sides in killing._remark_sides(ctx)
                                            for side in sides]),
    "Prop3.10": (premise_loop, killing._premise_gaps),
    "Cor6.3": (eq22_loop,
               lambda ctx: twokilling._eq22_values(ctx, list(ctx.field_combos().values()))),
    "Eq2": (torsion_loop, lambda ctx: list(identities._torsion_sides(ctx))),
}


def worst_gap(name, check):
    """Largest |ported - loop| / (1 + |loop|) over every value."""
    loop, ported = CASES[check]
    want = loop(RunContext(manifest(name), samples=8))
    got = ported(RunContext(manifest(name), samples=8))
    assert len(got) == len(want) > 0
    worst = 0.0
    for g, w in zip(got, want):
        g, w = np.ravel(g), np.ravel(w)
        assert g.shape == w.shape
        worst = max(worst, float(np.max(np.abs(g - w) / (1.0 + np.abs(w)), initial=0.0)))
    return worst


CORPUS = sorted(corpus_dir().glob("*.wm"))


class TestSamplePoints:
    """Sample points are drawn as rows of one uniform block; they and the
    generator's final state are those of one draw at a time."""

    @pytest.mark.parametrize("count", [1, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 24181, 2 ** 64 - 1])
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_rows_are_the_scalar_draws(self, path, seed, count):
        mf = load_manifest(path)
        fast, slow = SplitMix(seed), SplitMix(seed)
        got = sample_points(mf.structure, count, fast, mf.exclusions)
        want = sample_points_scalar(mf.structure, count, slow, mf.exclusions)
        assert got.tolist() == want.tolist()
        assert fast._state == slow._state

    def test_excluded_rows_are_dropped(self):
        mf = manifest("interval")
        assert mf.exclusions
        rng = SplitMix(3)
        points = sample_points(mf.structure, 64, rng, mf.exclusions)
        assert len(points) == 64
        assert not any(0.42 <= t <= 0.58 for t in points[:, 0].tolist())

    def test_rejection_limit_raises(self):
        mf = manifest("interval")
        everything = {"t": [(-1e9, 1e9)]}
        with pytest.raises(GeometryError, match="rejected too many points"):
            sample_points(mf.structure, 4, SplitMix(1), everything)
        with pytest.raises(GeometryError, match="rejected too many points"):
            sample_points_scalar(mf.structure, 4, SplitMix(1), everything)


class TestSynthField:
    """``synth_field`` reads its coefficients from one block of draws; the
    fields and the generator's final state are those of one draw at a time."""

    @pytest.mark.parametrize("seed", [0, 1, 24181, 2 ** 64 - 1])
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_fields_are_the_scalar_draws(self, path, seed):
        ps = load_manifest(path).structure
        for block in ["base", *range(len(ps.fibers))]:
            fast, slow = SplitMix(seed), SplitMix(seed)
            assert synth_field(ps, block, fast) == synth_field_scalar(ps, block, slow)
            assert fast._state == slow._state


class TestDrawOrder:
    @pytest.mark.parametrize("check", sorted(CASES))
    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib"])
    def test_block_checks_match_the_per_vector_loop(self, name, check):
        assert worst_gap(name, check) <= 1e-12

    @pytest.mark.parametrize("check", sorted(CASES))
    def test_a_transposed_block_is_caught(self, check, monkeypatch):
        real = SplitMix.block

        def transposed(self, shape, scale=1.0):
            *lead, a, b = shape
            return np.swapaxes(real(self, (*lead, b, a), scale), -1, -2)

        monkeypatch.setattr(SplitMix, "block", transposed)
        assert worst_gap("grw_exp", check) > 1e-6
