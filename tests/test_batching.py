"""Jets over a point set equal the jets of each point on its own.

The geometry evaluates every metric entry, warp and field component once
per sample set; these tests pin that a point's result does not depend on
the batch it was computed in, bit for bit.
"""

import numpy as np
import pytest

from conftest import EXPR_CORPUS, corpus_points
from oracles import metric_row, one_point, seed
from warpfield import cli
from warpfield.connections import LEVI_CIVITA, SEMI_SYMMETRIC
from warpfield.curvature import riemann
from warpfield.fieldexpr import eval_expr, parse_expr
from warpfield.fields import ProductField, VectorFieldDef, lift
from warpfield.jets import DomainError, Jet2
from warpfield.lie_killing import lie_lie_matrix, lie_matrix
from warpfield.manifest import load_manifest, parse_manifest
from warpfield.metric import ProductStructure
from warpfield.suite import RunContext

CORPUS = sorted(cli.corpus_dir().glob("*.wm"))


def batch_env(names, rows):
    coords = np.array(rows, dtype=float)
    s, n = coords.shape
    return {name: Jet2(coords[:, k], np.broadcast_to(np.eye(n)[k], (s, n)),
                       np.zeros((s, n, n)))
            for k, name in enumerate(names)}


def assert_same_jet(batched: Jet2, single: Jet2):
    assert batched.value == single.value or (np.isnan(batched.value)
                                             and np.isnan(single.value))
    assert np.array_equal(batched.grad, single.grad, equal_nan=True)
    assert np.array_equal(batched.hess, single.hess, equal_nan=True)


class TestExpressionBatches:
    @pytest.mark.parametrize("src,names,box,consts", EXPR_CORPUS,
                             ids=[c[0] for c in EXPR_CORPUS])
    def test_batch_equals_each_point(self, src, names, box, consts):
        expr = parse_expr(src, names, consts)
        order, rows = corpus_points(box, 16, src + "#batch")
        batched = eval_expr(expr, batch_env(order, rows))
        for i, values in enumerate(rows):
            single = eval_expr(expr, {n: seed(values, k) for k, n in enumerate(order)})
            assert_same_jet(batched[i], single)

    def test_exponent_constant_at_some_samples_only(self):
        # (y - 1)^3 has zero grad and hess at y = 1 only: there x^0 is the
        # integer power (defined for x < 0), elsewhere exp(b log x)
        expr = parse_expr("x^((y - 1)^3)", ("x", "y"))
        rows = [(-2.0, 1.0), (1.5, 1.5), (0.5, 1.0), (2.0, 0.25)]
        batched = eval_expr(expr, batch_env(("x", "y"), rows))
        for i, values in enumerate(rows):
            single = eval_expr(expr, {"x": seed(values, 0), "y": seed(values, 1)})
            assert_same_jet(batched[i], single)

    def test_domain_error_names_the_first_failing_sample(self):
        expr = parse_expr("log(t)", ("t",))
        with pytest.raises(DomainError) as err:
            eval_expr(expr, batch_env(("t",), [(0.5,), (2.0,), (-0.25,), (-1.0,)]))
        assert err.value.index == 2
        assert str(err.value) == "log of -0.25 outside real domain"


def geometries(mf):
    """(geometry built with its sample points, its points, fields) of the
    product and of each block, whose points are the block's columns.  Each
    field is a pair: the lifted field the geometry reads, and the same
    field on the geometry of one point, where a block is a chart of its
    own and the field lives on its base."""
    ctx = RunContext(mf, samples=16)
    out = [(ctx.geom, ctx.points(), [(lift(f), lift(f)) for f in mf.fields.values()])]
    for block in ["base"] + list(range(len(ctx.ps.fibers))):
        fields = [(lift(f), lift(VectorFieldDef("base", f.components)))
                  for f in mf.fields.values() if f.block == block]
        out.append((ctx.block_geom(block), ctx.points()[:, ctx.ps.block_slice(block)], fields))
    return out


class TestGeometryBatches:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_sample_set_equals_batch_of_one(self, path):
        for batched, points, fields in geometries(load_manifest(path)):
            assert np.array_equal(batched.points, points)
            for k, p in enumerate(points):
                alone = one_point(batched, p)
                a, b = metric_row(batched.metric_jet(), k), metric_row(alone.metric_jet(), 0)
                for name in ("g", "dg", "d2g", "ginv", "dginv"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
                for f, f_alone in fields:
                    fa, fb = batched.field_jet(f), alone.field_jet(f_alone)
                    assert np.array_equal(fa.val[k], fb.val[0])
                    assert np.array_equal(fa.d[k], fb.d[0])
                    assert [sl for sl, _ in fa.d2] == [sl for sl, _ in fb.d2]
                    for (_, ha), (_, hb) in zip(fa.d2, fb.d2):
                        assert np.array_equal(ha[k], hb[0])

    def test_point_outside_the_set_is_a_batch_of_one(self, monkeypatch):
        mf = load_manifest(cli.corpus_dir() / "mw2_fib.wm")
        ctx = RunContext(mf, samples=4)
        real = ProductStructure.metric_jet
        sizes = []

        def counted(ps, points, envs=None):
            sizes.append(len(points))
            return real(ps, points, envs)

        monkeypatch.setattr(ProductStructure, "metric_jet", counted)
        ctx.geom.metric_jet()
        off = ctx.points()[0] + 1e-3
        one_point(ctx.geom, off).metric_jet()
        ctx.geom.metric_jet()
        assert sizes == [4, 1]


class TestFieldKeys:
    def test_equal_fields_share_one_cache_entry(self, monkeypatch):
        mf = load_manifest(cli.corpus_dir() / "mw2_fib.wm")
        ctx = RunContext(mf, samples=4)
        vfd = mf.fields["zeta_bx"]
        first = lift(vfd)
        rebuilt = ProductField((VectorFieldDef(vfd.block, vfd.components),))
        assert rebuilt == first and rebuilt is not first
        assert hash(rebuilt) == hash(first)
        real = ProductField.jet
        calls = []

        def counted(field, ps, points, env):
            calls.append(len(points))
            return real(field, ps, points, env)

        monkeypatch.setattr(ProductField, "jet", counted)
        ctx.geom.field_jet(first)
        ctx.geom.field_jet(rebuilt)
        assert calls == [4]


class TestOneMetricWalkPerKillingRun:
    @pytest.mark.parametrize("kind", ["killing", "ssm", "2killing"])
    def test_metric_jet_entered_once(self, kind, monkeypatch, capsys):
        real = ProductStructure.metric_jet
        sizes = []

        def counted(ps, points, envs=None):
            sizes.append(len(points))
            return real(ps, points, envs)

        monkeypatch.setattr(ProductStructure, "metric_jet", counted)
        rc = cli.main(["killing", str(cli.corpus_dir() / "mw2_fib.wm"),
                       "--field", "zeta_bx", "--kind", kind, "--samples", "64"])
        assert "killing:zeta_bx" in capsys.readouterr().out
        assert rc in (0, 1)
        assert sizes == [64]


# A chart of total dimension 10, shaped like the benchmark's wide charts:
# a non-flat 2-d base with a connection shift and four warped 2-d fibers.
WIDE = """
[base]
dim = 2
coords = u, v
g.u.u = 1 + 0.25*v^2
g.v.v = 1
box.u = 0.5, 1.5
box.v = 0.5, 1.5

[fiber.1]
dim = 2
coords = x1, y1
g.x1.x1 = 1
g.y1.y1 = 1
box.x1 = -1, 1
box.y1 = -1, 1
warp = exp(0.4*u)

[fiber.2]
dim = 2
coords = x2, y2
g.x2.x2 = 1
g.y2.y2 = sin(x2)^2
box.x2 = 0.4, 2.7
box.y2 = -1, 1
warp = 2 + cos(0.9*v)

[fiber.3]
dim = 2
coords = x3, y3
g.x3.x3 = 1
g.y3.y3 = 1
box.x3 = -1, 1
box.y3 = -1, 1
warp = 1 + 0.5*u^2 + 0.3*v^2

[fiber.4]
dim = 2
coords = x4, y4
g.x4.x4 = 1 + 0.2*y4^2
g.y4.y4 = 1
box.x4 = -1, 1
box.y4 = -1, 1
warp = 2 + tanh(u*v)

[torsion]
location = base
comp.u = 1.1
comp.v = 0.3*u

[field.zeta_bv]
location = base
comp.u = 0.8*v
comp.v = u

[field.zeta_rot1]
location = fiber.1
comp.x1 = -y1
comp.y1 = x1

[field.zeta_phi2]
location = fiber.2
comp.y2 = 1

[field.zeta_cb4]
location = fiber.4
comp.y4 = cbrt(y4 - 2)
"""


class TestWideChartBatches:
    def test_sample_set_equals_batch_of_one_at_dimension_10(self):
        mf = parse_manifest(WIDE, name="wide")
        ctx = RunContext(mf, samples=16)
        geom = ctx.geom
        assert ctx.ps.total_dim == 10
        fields = [lift(f) for f in mf.fields.values()]
        fields.append(ProductField(tuple(mf.fields.values())))
        gamma, dgamma = geom.christoffel_jet()
        r_low = riemann(geom).r_low
        for k, p in enumerate(ctx.points()):
            alone = one_point(geom, p)
            assert np.array_equal(alone.christoffel_jet()[0][0], gamma[k])
            assert np.array_equal(alone.christoffel_jet()[1][0], dgamma[k])
            assert np.array_equal(riemann(alone).r_low[0], r_low[k])
            for f in fields:
                for kind in (LEVI_CIVITA, SEMI_SYMMETRIC):
                    assert np.array_equal(lie_matrix(alone, f, kind)[0],
                                          lie_matrix(geom, f, kind)[k]), kind
                assert np.array_equal(lie_lie_matrix(alone, f)[0], lie_lie_matrix(geom, f)[k])
