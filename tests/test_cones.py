"""The test vectors of the cone and witness checks take a fixed count of
draws per sample row, as one block.

The orthogonal cone (Props 3.17 and 4.7) and the witnesses of Props 3.20
and 3.24 give the same outcomes, field for field, as their per-row
references in ``oracles``, which draw one vector per call.  The
block-pure cone (Props 3.21 and 4.9) gives each (row, draw) 12 attempts
from one block of uniforms; its properties are checked directly: every
vector is block-pure, one on the shift fiber lies on the condition cone,
and a draw keeps a vector unless all its attempts are rejected."""

import functools
import types

import numpy as np
import pytest

import oracles
from warpfield.checks import killing
from warpfield.checks.util import fiber_shift
from warpfield.cli import corpus_dir
from warpfield.fields import lift
from warpfield.manifest import load_manifest
from warpfield.sampling import SplitMix
from warpfield.suite import HYP_TOL, RunContext, default_registry

REGISTRY = default_registry()
CORPUS = [load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))]
SEEDS = (24181, 3)


@functools.cache
def context(name: str, samples: int, seed: int) -> RunContext:
    return RunContext(next(mf for mf in CORPUS if mf.name == name), samples=samples,
                      seed=seed)


def applying(*prefixes):
    return [(mf.name, spec.id) for mf in CORPUS for spec in REGISTRY.specs
            if spec.id.startswith(prefixes) and spec.applies(mf)]


ORTH = applying("Prop3.17.", "Prop4.7.")
WITNESSES = applying("Prop3.20", "Prop3.24")
REFERENCE = {"Prop3.20": oracles.witness_grw, "Prop3.24": oracles.witness_static}


def spec(check: str):
    return next(s for s in REGISTRY.specs if s.id == check)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", [16, 64])
class TestAgainstPerRowDraws:
    @pytest.mark.parametrize("name,check", ORTH, ids=[f"{m}:{c}" for m, c in ORTH])
    def test_orthogonal_cone(self, name, check, samples, seed, monkeypatch):
        ctx = context(name, samples, seed)
        got = spec(check).run(ctx)
        monkeypatch.setattr(killing, "_orth_cone", lambda ctx, *a, **kw: oracles.cone_draws(
            ctx, oracles.orth_cone(ctx, *a, **kw)))
        assert repr(got) == repr(spec(check).run(ctx))

    @pytest.mark.parametrize("name,check", WITNESSES, ids=[f"{m}:{c}" for m, c in WITNESSES])
    def test_witness(self, name, check, samples, seed):
        ctx = context(name, samples, seed)
        assert repr(spec(check).run(ctx)) == repr(REFERENCE[check](ctx))


def test_the_references_see_vectors(monkeypatch):
    assert len(ORTH) >= 10 and len(WITNESSES) >= 2
    for name, check in WITNESSES:
        assert spec(check).run(context(name, 16, SEEDS[0])).samples > 0
    drawn = []

    def cone(ctx, *a, **kw):
        draws = oracles.cone_draws(ctx, oracles.orth_cone(ctx, *a, **kw))

        def draw(rng):
            drawn.append(draws(rng))
            return drawn[-1]
        return draw

    monkeypatch.setattr(killing, "_orth_cone", cone)
    for name, check in ORTH:
        spec(check).run(context(name, 16, SEEDS[0]))
    assert len(drawn) >= 10 and all(len(ks) == 16 * 6 for ks, _ in drawn)


def blocks_of(ctx, xs: np.ndarray) -> np.ndarray:
    """Per vector, the indexes of the blocks (base 0, fiber i at i + 1)
    where it has a nonzero entry, as a (vectors, blocks) mask."""
    return np.stack([xs[:, sl].any(axis=1) for sl in ctx.ps.slices], axis=1)


class TestPureCone:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mf", CORPUS, ids=[mf.name for mf in CORPUS])
    def test_ungated_draws_keep_one_pure_vector_each(self, mf, seed):
        ctx = context(mf.name, 16, SEEDS[0])
        ks, xs = killing._pure_cone(ctx)(ctx.rng(f"test:pure{seed}"))
        assert np.array_equal(ks, np.repeat(np.arange(16), 6))
        assert xs.shape == (16 * 6, ctx.ps.total_dim)
        assert (blocks_of(ctx, xs).sum(axis=1) == 1).all()
        assert (np.abs(xs) <= 1.0).all()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name,r,field", [
        (mf.name, mf.torsion.location, field) for mf in CORPUS if fiber_shift(mf)
        for field, vfd in sorted(mf.fields.items()) if vfd.block == mf.torsion.location])
    def test_shift_fiber_vectors_lie_on_the_condition_cone(self, name, r, field, seed):
        ctx = context(name, 16, SEEDS[0])
        zr = ctx.mf.fields[field]
        ks, xs = killing._pure_cone(ctx, zr)(ctx.rng(f"test:cond{seed}"))
        assert (blocks_of(ctx, xs).sum(axis=1) == 1).all()
        on_r = blocks_of(ctx, xs)[:, r + 1]
        sl = ctx.ps.block_slice(r)
        g = ctx.block_geom(r).metric_jet().g
        zv = ctx.geom.field_values(lift(zr))
        piv = ctx.geom.pi_covector()
        for k, x in zip(ks[on_r].tolist(), xs[on_r]):
            xr = x[sl]
            value = (float(zv[k] @ piv[k]) * float(xr @ g[k] @ xr)
                     - float(piv[k][sl] @ xr) * float(xr @ g[k] @ zv[k][sl]))
            assert abs(value) <= HYP_TOL
        # on a one-dimensional shift fiber the condition vanishes identically
        assert on_r.any() or ctx.ps.blocks[r + 1].dim > 1

    def test_the_first_attempt_on_the_cone_is_kept(self):
        # on mw2_fib the condition of zeta_v holds on no random vector of the
        # two-dimensional shift fiber, so every attempt there is rejected
        ctx = context("mw2_fib", 16, SEEDS[0])
        r, n = ctx.mf.torsion.location, ctx.ps.total_dim
        u = SplitMix(5).uniforms((16, 6, 12, 1 + n))
        u[..., 0] = (r + 1.5) / 3            # every attempt picks the shift fiber
        u[:, :, 5:, 0] = 0.1                 # from the sixth on, the base
        cone = killing._pure_cone(ctx, ctx.mf.fields["zeta_v"])
        ks, xs = cone(fixed(u))
        assert np.array_equal(ks, np.repeat(np.arange(16), 6))
        want = np.zeros((16, 6, n))
        want[..., ctx.ps.block_slice("base")] = -1.0 + 2.0 * u[:, :, 5, 1:][
            ..., ctx.ps.block_slice("base")]
        assert np.array_equal(xs, want.reshape(-1, n))

    def test_a_draw_with_every_attempt_rejected_keeps_no_vector(self):
        ctx = context("mw2_fib", 16, SEEDS[0])
        r, n = ctx.mf.torsion.location, ctx.ps.total_dim
        u = SplitMix(5).uniforms((16, 6, 12, 1 + n))
        u[..., 0] = (r + 1.5) / 3
        u[3, 2, 11, 0] = 0.1                 # but one: the last attempt of one draw
        ks, xs = killing._pure_cone(ctx, ctx.mf.fields["zeta_v"])(fixed(u))
        assert ks.tolist() == [3] and xs.shape == (1, n)
        u[3, 2, 11, 0] = (r + 1.5) / 3
        ks, xs = killing._pure_cone(ctx, ctx.mf.fields["zeta_v"])(fixed(u))
        assert ks.shape == (0,) and xs.shape == (0, n)


def fixed(u: np.ndarray):
    """A generator whose one block of uniforms is ``u``."""
    def uniforms(shape):
        assert tuple(shape) == u.shape
        return u.copy()
    return types.SimpleNamespace(uniforms=uniforms)
