"""A field's second partials are kept per part, at its block's width.

No geometry keeps a field's Hessian at chart width: after a full run no
array in a field's stacks holds n^3 floats per sample point.  The
second-order stacks that read the parts (L_zeta L_zeta g by both routes
and nabla_zeta zeta) equal, bit for bit, the references in
``tests/oracles.py`` that read a chart-width Hessian."""

import numpy as np
import pytest

from oracles import lie_lie_matrix_chart, lie_lie_matrix_nested_chart, nabla_zeta_zeta_chart
from tools.stack_census import arrays_in
from warpfield import lie_killing
from warpfield.cli import corpus_dir
from warpfield.connections import Geometry
from warpfield.fields import ProductField, lift
from warpfield.lie_killing import lie_lie_matrix, lie_lie_matrix_nested, nabla_zeta_zeta
from warpfield.manifest import load_manifest, parse_manifest
from warpfield.suite import RunContext, default_registry, run_checks

# total dimension 8 from four 2-d blocks, a field on each block
WIDE8 = "\n".join(
    ["[base]", "dim = 2", "coords = u, v", "g.u.u = 1 + 0.2*v^2", "g.v.v = 1",
     "box.u = 0.5, 1.5", "box.v = 0.5, 1.5", ""]
    + [line for i, warp in enumerate(("exp(0.3*u)", "2 + cos(v)", "1 + 0.5*u^2"), start=1)
       for line in (f"[fiber.{i}]", "dim = 2", f"coords = x{i}, y{i}",
                    f"g.x{i}.x{i} = 1 + 0.1*y{i}^2", f"g.y{i}.y{i} = 1",
                    f"box.x{i} = -1, 1", f"box.y{i} = -1, 1", f"warp = {warp}", "")]
    + ["[field.zeta_b]", "location = base", "comp.u = 1", "comp.v = u*v", ""]
    + [line for i in (1, 2, 3)
       for line in (f"[field.zeta_r{i}]", f"location = fiber.{i}",
                    f"comp.x{i} = -y{i}", f"comp.y{i} = x{i}", "")])


def manifests():
    return [load_manifest(corpus_dir() / "mw2_fib.wm"), parse_manifest(WIDE8, "wide8")]


class TestNoChartWidthHessian:
    @pytest.mark.parametrize("mf", manifests(), ids=lambda mf: mf.name)
    def test_no_field_stack_holds_n_cubed_floats_per_sample(self, mf, monkeypatch):
        geoms = []
        real = Geometry.__init__

        def recorded(self, *args, **kw):
            real(self, *args, **kw)
            geoms.append(self)

        monkeypatch.setattr(Geometry, "__init__", recorded)
        s, n = 16, mf.structure.total_dim
        assert n >= 6 and all(b.dim == 2 for b in mf.structure.blocks)
        run_checks(mf, default_registry().specs, samples=s)
        assert len(geoms) == 1 + mf.fiber_count + 1  # the chart and its blocks
        field_stacks = second_order = 0
        for geom in geoms:
            for (compute, args), value in geom._stacks.items():
                if not any(isinstance(a, ProductField) for a in args):
                    continue
                field_stacks += 1
                second_order += compute is lie_killing._second_orders
                for a in arrays_in(value):
                    assert a.size < s * n ** 3, (compute.__name__, args, a.shape)
        assert field_stacks > 50 and second_order > 5


def second_order_cases():
    """(geometry, field) over a one-part field, sums of two and of every
    block's part, on multi-block charts and on a one-block chart."""
    for mf in manifests() + [load_manifest(corpus_dir() / "plane.wm")]:
        ctx = RunContext(mf, samples=16)
        blocks = ["base", *range(mf.fiber_count)]
        drawn = [ctx.synth(b, f"hessian-parts:{b}") for b in blocks]
        fields = [lift(drawn[0]), ProductField(tuple(drawn))]
        if len(drawn) > 1:
            fields.append(ProductField((drawn[-1], drawn[0])))
        fields += list(ctx.field_combos().values())
        for field in fields:
            yield pytest.param(ctx.geom, field,
                               id=f"{mf.name}:{'+'.join(str(p.block) for p in field.parts)}")


@pytest.mark.parametrize("geom,field", list(second_order_cases()))
def test_second_order_stacks_equal_the_chart_width_references(geom, field):
    assert np.array_equal(lie_lie_matrix(geom, field), lie_lie_matrix_chart(geom, field))
    for got, ref in zip(nabla_zeta_zeta(geom, field), nabla_zeta_zeta_chart(geom, field)):
        assert np.array_equal(got, ref)
    assert np.array_equal(lie_lie_matrix_nested(geom, field),
                          lie_lie_matrix_nested_chart(geom, field))


def test_nested_route_of_a_constant_vector():
    geom = RunContext(load_manifest(corpus_dir() / "mw2_fib.wm"), samples=16).geom
    const = np.linspace(-1.0, 1.0, geom.ps.total_dim)
    assert np.array_equal(lie_lie_matrix_nested(geom, const),
                          lie_lie_matrix_nested_chart(geom, const))
