"""The geometry's stacks: every connection-layer quantity is computed once
per sample set as one array, and each of its rows is bit for bit the
single-point reference formula in ``oracles`` and the one row of that
point's own geometry.  The geometry is asked for stacks only: no accessor
takes a point, and a run builds no geometry beyond its own."""

import inspect
from collections import Counter

import numpy as np
import pytest

from oracles import (
    christoffel_at,
    covariant_derivative_at,
    curvature_at,
    dchristoffel_at,
    divergence_at,
    lie_lie_matrix_at,
    lie_lie_matrix_nested_at,
    lie_matrix_at,
    lie_matrix_direct_at,
    nabla_quad_at,
    nabla_zeta_zeta_at,
    one_point,
    ssm_gamma_at,
    trace_nabla_at,
    wide_manifests,
)
from warpfield import connections, curvature, lie_killing, suite
from warpfield.checks import killing
from warpfield.cli import corpus_dir
from warpfield.connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    Geometry,
    covariant_derivative,
    divergence,
    nabla_grid,
)
from warpfield.curvature import riemann, trace_nabla
from warpfield.fields import FieldJet, ProductField, lift
from warpfield.lie_killing import (
    dgamma_rows,
    lie_lie_matrix,
    lie_lie_matrix_nested,
    lie_matrix,
    lie_matrix_direct,
    nabla_quads,
    nabla_zeta_zeta,
)
from warpfield.manifest import load_manifest
from warpfield.suite import RunContext, default_registry, run_checks

CORPUS = sorted(corpus_dir().glob("*.wm"))
KINDS = (LEVI_CIVITA, SEMI_SYMMETRIC)


def stacks_and_references(geom, fields):
    """(name, stack, references at geom's points, one list per array)."""
    pts = geom.points
    gamma, dgamma = geom.christoffel_jet()
    yield "christoffel", geom.christoffel(), [christoffel_at(geom, p) for p in pts]
    yield "christoffel_jet.gamma", gamma, [christoffel_at(geom, p) for p in pts]
    yield "christoffel_jet.dgamma", dgamma, [dchristoffel_at(geom, p) for p in pts]
    yield "ssm_gamma", geom.ssm_gamma(), [ssm_gamma_at(geom, p) for p in pts]
    for f in fields:
        for kind in KINDS:
            yield (f"lie_matrix {kind}", lie_matrix(geom, f, kind),
                   [lie_matrix_at(geom, f, p, kind) for p in pts])
        yield "lie_lie_matrix", lie_lie_matrix(geom, f), [lie_lie_matrix_at(geom, f, p)
                                                          for p in pts]
        w, dw = nabla_zeta_zeta(geom, f)
        refs = [nabla_zeta_zeta_at(geom, f, p) for p in pts]
        yield "nabla_zeta_zeta.w", w, [r[0] for r in refs]
        yield "nabla_zeta_zeta.dw", dw, [r[1] for r in refs]


class TestStacksEqualReferences:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_stack_rows_are_the_single_point_formulas(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        fields = list(ctx.field_combos().values())
        assert fields
        for name, stack, refs in stacks_and_references(ctx.geom, fields):
            assert stack.shape == (16,) + refs[0].shape, name
            assert np.array_equal(stack, np.array(refs)), name

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_point_geometries_are_rows(self, path):
        # a point's result does not depend on the batch it was computed in,
        # which is what the single-point oracle comparisons rest on
        ctx = RunContext(load_manifest(path), samples=16)
        geom = ctx.geom
        f = next(iter(ctx.field_combos().values()))
        for k, p in enumerate(ctx.points()):
            alone = one_point(geom, p)
            assert np.array_equal(alone.christoffel()[0], geom.christoffel()[k])
            assert np.array_equal(alone.christoffel_jet()[1][0], geom.christoffel_jet()[1][k])
            assert np.array_equal(alone.ssm_gamma()[0], geom.ssm_gamma()[k])
            for kind in KINDS:
                assert np.array_equal(lie_matrix(alone, f, kind)[0],
                                      lie_matrix(geom, f, kind)[k])
            assert np.array_equal(lie_lie_matrix(alone, f)[0], lie_lie_matrix(geom, f)[k])
            assert np.array_equal(nabla_zeta_zeta(alone, f)[1][0],
                                  nabla_zeta_zeta(geom, f)[1][k])

    @pytest.mark.parametrize("name", ["mw2_fib", "grw_exp", "sphere"])
    def test_point_outside_the_sample_set(self, name):
        ctx = RunContext(load_manifest(corpus_dir() / f"{name}.wm"), samples=16)
        geom = ctx.geom
        off = off_sample_point(ctx)
        alone = one_point(geom, off)
        f = next(iter(ctx.field_combos().values()))
        assert np.array_equal(alone.christoffel()[0], christoffel_at(geom, off))
        assert np.array_equal(alone.christoffel_jet()[1][0], dchristoffel_at(geom, off))
        assert np.array_equal(alone.ssm_gamma()[0], ssm_gamma_at(geom, off))
        for kind in KINDS:
            assert np.array_equal(lie_matrix(alone, f, kind)[0],
                                  lie_matrix_at(geom, f, off, kind))
        assert np.array_equal(lie_lie_matrix(alone, f)[0], lie_lie_matrix_at(geom, f, off))
        for got, want in zip(nabla_zeta_zeta(alone, f), nabla_zeta_zeta_at(geom, f, off)):
            assert np.array_equal(got[0], want)
        # the sample set's stacks do not grow a row for it
        assert geom.christoffel().shape[0] == 16


def off_sample_point(ctx) -> np.ndarray:
    """The midpoint of the first two sample points, not itself one."""
    off = 0.5 * (ctx.points()[0] + ctx.points()[1])
    assert not (ctx.points() == off).all(axis=1).any()
    return off


CURVATURE = ("r_low", "ricci")


class TestCurvatureStack:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_rows_are_the_single_point_curvature(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        geom = ctx.geom
        stack = riemann(geom)
        refs = [curvature_at(geom, p) for p in ctx.points()]
        for name in CURVATURE:
            assert np.array_equal(getattr(stack, name),
                                  np.array([getattr(r, name) for r in refs])), name
        for k, p in enumerate(ctx.points()):
            for name in CURVATURE:
                assert np.array_equal(getattr(riemann(one_point(geom, p)), name)[0],
                                      getattr(stack, name)[k]), name
        off = off_sample_point(ctx)
        for name in CURVATURE:
            assert np.array_equal(getattr(riemann(one_point(geom, off)), name)[0],
                                  getattr(curvature_at(geom, off), name)), name
        assert riemann(geom).r_low.shape[0] == 16


def synthesized_fields(ctx):
    """A synthesized field on each block, lifted, and their sum."""
    blocks = ["base"] + list(range(ctx.mf.fiber_count))
    parts = [ctx.synth(b, f"stacks:{b}") for b in blocks]
    return [lift(v) for v in parts] + [ProductField(tuple(parts))]


class TestCovariantDerivativeStack:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_rows_are_the_single_point_derivative(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        geom = ctx.geom
        fields = synthesized_fields(ctx)
        const = np.linspace(-1.0, 1.0, ctx.ps.total_dim)
        for kind in KINDS:
            for x in fields + [const]:
                for z in fields + [const]:
                    got = covariant_derivative(geom, x, z, kind)
                    want = [covariant_derivative_at(geom, x, z, p, kind)
                            for p in ctx.points()]
                    assert np.array_equal(got, np.array(want)), kind
                    alone = one_point(geom, ctx.points()[3])
                    assert np.array_equal(covariant_derivative(alone, x, z, kind)[0],
                                          want[3])


CHARTS = [load_manifest(p) for p in CORPUS] + wide_manifests()


class TestKeptDgammaRows:
    """The d gamma term of the grid jet of nabla zeta is contracted on the
    rows (m, a, k) a multiply warped product can make nonzero, those whose
    fiber indices lie in one fiber, and equals the dense contraction."""

    @pytest.mark.parametrize("dims,kept", [
        ((2, 2, 2, 2, 2), 232), ((2, 2, 2), 120), ((1, 2, 2, 1), 60),
        ((1, 2, 1), 34), ((2, 1, 1), 46), ((6,), 216), ((1,), 1)])
    def test_kept_row_counts(self, dims, kept):
        rows, grid_rows = dgamma_rows(dims)
        assert len(rows) == len(grid_rows) == kept
        assert np.all(np.diff(grid_rows) > 0)  # (m, a, k) order

    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_every_nonzero_entry_lies_in_a_kept_row(self, mf):
        geom = RunContext(mf, samples=16).geom
        _, dgamma = geom.christoffel_jet()
        n = geom.ps.total_dim
        rows, _ = dgamma_rows(geom.ps.dims)
        dropped = np.delete(dgamma.reshape(16, n ** 3, n), rows, axis=1)
        assert not dropped.any()

    @pytest.mark.parametrize("samples", [1, 16])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_grid_jet_is_the_dense_contraction(self, mf, samples):
        ctx = RunContext(mf, samples=samples)
        geom = ctx.geom
        gamma, dgamma = geom.christoffel_jet()
        for f in ctx.field_combos().values():
            zj = geom.field_jet(f)
            want = np.ascontiguousarray(nabla_grid(dgamma, zj.val[:, None], 0.0))
            for sl, h in zj.d2:
                want[:, sl, sl, sl] += h
                want[:, sl] += nabla_grid(gamma[:, None], zj.d[:, sl], 0.0)
            _, dw = lie_killing._nabla_grid_jets(geom, f)
            assert np.array_equal(dw, want)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_values_give_a_non_finite_maximum(self, bad):
        mf = wide_manifests()[0]
        ctx = RunContext(mf, samples=16)
        f = next(z for z in ctx.field_combos().values()
                 if [part.block for part in z.parts] == [2])
        zj = ctx.geom.field_jet(f)
        val = zj.val.copy()
        val[5, ctx.ps.block_slice(2).start] = bad
        ctx.geom._stacks[(connections._field_jets, (f,))] = FieldJet(val, zj.d, zj.d2)
        with np.errstate(all="ignore"):
            assert not np.isfinite(ctx.sample_max(lie_lie_matrix, f))
            assert np.isnan(lie_killing.point_max(lie_lie_matrix(ctx.geom, f))[5])


class TestGammaRows:
    """The gamma d zeta term of the grid jet is one matmul per part, of the
    part's block of d zeta against its block's rows j of ``_gamma_rows``,
    and equals the dense contraction over the part's rows m."""

    @pytest.mark.parametrize("samples", [1, 16, 64])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_part_term_is_the_dense_contraction(self, mf, samples):
        ctx = RunContext(mf, samples=samples)
        geom = ctx.geom
        gamma = geom.christoffel()
        blocks = ["base", *range(len(ctx.ps.fibers))]
        synth = ProductField(tuple(ctx.synth(b, "gamma-rows") for b in blocks))
        # zero the d gamma term and the second partials, so that dw is the
        # gamma d zeta term alone
        kept = geom.stack(lie_killing._dgamma_kept)
        geom._stacks[(lie_killing._dgamma_kept, ())] = np.zeros_like(kept)
        for f in [*ctx.field_combos().values(), synth]:
            zj = geom.field_jet(f)
            geom._stacks[(connections._field_jets, (f,))] = FieldJet(
                zj.val, zj.d, tuple((sl, np.zeros_like(h)) for sl, h in zj.d2))
            _, dw = lie_killing._nabla_grid_jets(geom, f)
            rows = np.zeros(geom.ps.total_dim, dtype=bool)
            for sl, _ in zj.d2:
                want = nabla_grid(gamma[:, None], zj.d[:, sl], 0.0)
                got = dw[:, sl]
                # the bits hold unless the two products round differently
                assert (np.array_equal(got, want)
                        or np.abs(got - want).max() <= 1e-14 * np.abs(want).max())
                rows[sl] = True
            assert not dw[:, ~rows].any()


STACKS = ((connections, "_christoffel"), (connections, "_christoffel_jet"),
          (connections, "_ssm_gamma"), (curvature, "_curvatures"),
          (lie_killing, "_lie_matrices"), (lie_killing, "_second_orders"),
          (lie_killing, "_dgamma_kept"), (lie_killing, "_gamma_rows"),
          (curvature, "_product_frames"))


class TestStacksComputedOnce:
    """Across all checks of a run, each geometry computes its Christoffel,
    curvature and frame stacks and the grid jet's rows of d gamma and of
    gamma once, and each (geometry, field, kind) Lie stack once."""

    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib", "kasner"])
    def test_each_stack_computed_once(self, name, monkeypatch):
        calls = Counter()

        def counting(attr, real):
            def counted(geom, *args):
                calls[(attr, id(geom), args)] += 1
                return real(geom, *args)
            return counted

        for module, attr in STACKS:
            monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
        registry = default_registry()
        run_checks(load_manifest(corpus_dir() / f"{name}.wm"),
                   registry.specs, samples=16)
        assert {key[0] for key in calls} == {attr for _, attr in STACKS}
        repeated = [key for key, n in calls.items() if n > 1]
        assert repeated == []


class TestGateMaxima:
    """``RunContext.sample_max`` keeps one maximum per gated stack in the
    stack's geometry: the float ``max_abs`` gives, reduced once however
    many checks ask."""

    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib", "kasner", "static"])
    def test_each_stack_reduced_once(self, name, monkeypatch):
        reduced = []  # the arrays, kept alive so that their ids stay distinct
        asked = {}  # (fn, zeta, block, kw) -> the first float returned

        def counting(values):
            reduced.append(values)
            return lie_killing.max_abs(values)

        def asking(ctx, fn, zeta, block=None, **kw):
            got = sample_max(ctx, fn, zeta, block, **kw)
            asked.setdefault((fn, zeta, block, tuple(sorted(kw.items()))), got)
            return got

        sample_max = RunContext.sample_max
        monkeypatch.setattr(suite, "max_abs", counting)
        monkeypatch.setattr(RunContext, "sample_max", asking)
        mf = load_manifest(corpus_dir() / f"{name}.wm")
        ctx = RunContext(mf, samples=16)
        for spec in default_registry().specs:
            if spec.applies(mf):
                spec.run(ctx)
        assert [key for key, n in Counter(map(id, reduced)).items() if n > 1] == []
        assert len(asked) > 10
        monkeypatch.undo()
        for (fn, zeta, block, kw), got in asked.items():
            want = lie_killing.max_abs(ctx.over_samples(fn, zeta, block, **dict(kw)))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert ctx.sample_max(fn, zeta, block, **dict(kw)) is got


# ---- the quantities behind the cones, witnesses, frame traces and
# coordinate routes ----


FIELD_STACKS = (("trace_nabla", trace_nabla, trace_nabla_at),
                ("divergence", divergence, divergence_at),
                ("lie_matrix_direct", lie_matrix_direct, lie_matrix_direct_at),
                ("lie_lie_matrix_nested", lie_lie_matrix_nested, lie_lie_matrix_nested_at))


class TestCheckQuantityStacks:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_rows_are_the_single_point_formulas(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        geom, pts = ctx.geom, ctx.points()
        off = off_sample_point(ctx)
        alone = one_point(geom, off)
        for f in list(ctx.field_combos().values()) + synthesized_fields(ctx):
            for name, stacked, reference in FIELD_STACKS:
                assert np.array_equal(stacked(geom, f),
                                      np.array([reference(geom, f, p) for p in pts])), name
                assert np.array_equal(stacked(alone, f)[0], reference(geom, f, off)), name

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_gathered_quadratic_forms_are_the_single_vector_form(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        geom, pts, n = ctx.geom, ctx.points(), ctx.ps.total_dim
        off = off_sample_point(ctx)
        alone = one_point(geom, off)
        rng = ctx.rng("test:nabla_quads")
        ks = np.array([rng.next_u64() % len(pts) for _ in range(40)])
        xs = rng.block((40, n))
        for f in list(ctx.field_combos().values()) + synthesized_fields(ctx):
            for kind in KINDS:
                got = nabla_quads(geom, f, ks, xs, kind)
                want = [nabla_quad_at(geom, f, x, pts[k], kind) for k, x in zip(ks, xs)]
                assert np.array_equal(got, np.array(want)), kind
                assert np.array_equal(nabla_quads(alone, f, np.zeros(1, int), xs[:1], kind),
                                      [nabla_quad_at(geom, f, xs[0], off, kind)]), kind


class TestNoPointLookups:
    """A full run reads every geometric quantity from the stacks of the run's
    own geometries, one for the product and one per block; every cone
    gives vectors at every sample row and builds no field while drawing
    (the shift lives on a fiber in mw2_fib, whose cones are block-pure,
    and on the base in mw2_grw, whose cones are orthogonal)."""

    @pytest.mark.parametrize("name", ["mw2_fib", "mw2_grw"])
    def test_full_run(self, name, monkeypatch):
        geometries = []
        real_init = Geometry.__init__

        def init(geom, *args):
            geometries.append(geom)
            real_init(geom, *args)

        drawing = []   # set while a cone draws
        rows = []      # the sample rows of every cone's vectors
        built = []
        real_post_init = ProductField.__post_init__

        def post_init(field):
            if drawing:
                built.append(field)
            real_post_init(field)

        def watched(make_cone):
            def make(*args, **kw):
                cone = make_cone(*args, **kw)

                def draw(rng):
                    drawing.append(True)
                    try:
                        ks, xs = cone(rng)
                    finally:
                        drawing.pop()
                    assert xs.shape == (len(ks), args[0].ps.total_dim)
                    rows.append(sorted(set(ks.tolist())))
                    return ks, xs
                return draw
            return make

        monkeypatch.setattr(Geometry, "__init__", init)
        monkeypatch.setattr(ProductField, "__post_init__", post_init)
        for attr in ("_orth_cone", "_pure_cone"):
            monkeypatch.setattr(killing, attr, watched(getattr(killing, attr)))
        registry = default_registry()
        mf = load_manifest(corpus_dir() / f"{name}.wm")
        run_checks(mf, registry.specs, samples=16)
        assert rows and all(r == list(range(16)) for r in rows)
        assert len(geometries) == 2 + mf.fiber_count
        assert built == []


def _takes_a_point(fn) -> bool:
    return "p" in inspect.signature(fn).parameters


class TestOneCallingConvention:
    """Every quantity is asked for as fn(geom, ...) and answered with its
    stack over the geometry's sample set: no Geometry method and no
    public function of the connection, curvature and Lie layers takes a
    point."""

    def test_no_accessor_takes_a_point(self):
        fns = [f for f in vars(Geometry).values() if inspect.isfunction(f)]
        for module in (connections, curvature, lie_killing):
            fns += [f for name, f in vars(module).items()
                    if inspect.isfunction(f) and f.__module__ == module.__name__
                    and not name.startswith("_")]
        assert len(fns) > 25
        assert [f.__qualname__ for f in fns if _takes_a_point(f)] == []

    def test_points_are_required(self):
        with pytest.raises(TypeError):
            Geometry(load_manifest(corpus_dir() / "sphere.wm").structure, None)
