"""The ``Quadratic`` node of synthetic fields against the ``Bin`` tree that
``oracles.synth_field_scalar`` builds from the same draws: the part fold,
the walk of one component and a float evaluation give the tree's bits,
with the same sign of every zero; the node prints the tree's text, and an
overflow raises the tree's error.  The fold reads its block's monomial
table, which equals the component walk on every block of the corpus and
of the wide charts, and is freed with its geometry."""

import gc
import weakref

import numpy as np
import pytest

from oracles import jet_arrays, synth_field_scalar, wide_manifests
from warpfield.cli import corpus_dir
from warpfield.connections import Geometry
from warpfield.fieldexpr import JetEnv, Quadratic, eval_expr, fold_quadratics, monomials, pretty
from warpfield.fields import lift, synth_field
from warpfield.jets import DomainError
from warpfield.manifest import load_manifest, parse_manifest
from warpfield.metric import jet_of
from warpfield.sampling import SplitMix
from warpfield.suite import RunContext

DIMS = [1, 2, 3, 4]
SAMPLES = [1, 16]
# "zeros": every coefficient is +0.0 or -0.0 after rounding, so the sums
# of signed zeros decide every sign bit
KINDS = ["mixed", "zeros"]
ZEROS = [0.0, -0.0, 0.0004, -0.0004, 0.0008, -0.0008]


def chart(d: int) -> str:
    """A base of dimension d and a one-dimensional fiber."""
    coords = [f"x{k}" for k in range(d)]
    lines = ["[base]", f"dim = {d}", f"coords = {', '.join(coords)}"]
    lines += [f"g.{c}.{c} = 1" for c in coords]
    lines += [f"box.{c} = -1, 1" for c in coords]
    lines += ["", "[fiber.1]", "dim = 1", "coords = y", "g.y.y = 1", "box.y = -1, 1",
              "warp = 2", "", "[torsion]", "location = zero", ""]
    return "\n".join(lines)


class Replay:
    """Fixed draws, read as ``SplitMix.block`` and ``symmetric`` read theirs."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def block(self, count):
        out = self.values[self.pos:self.pos + count]
        assert len(out) == count
        self.pos += count
        return np.array(out)

    def symmetric(self):
        self.pos += 1
        return self.values[self.pos - 1]


def drawn(ps, block, kind, seed):
    """(node field, tree field) from the same draws."""
    dim = ps.block_metric(block).dim
    count = dim * (1 + dim + dim * (dim + 1) // 2)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, count).tolist()
    for i in range(count):
        if kind == "zeros" or rng.random() < 0.4:
            values[i] = ZEROS[rng.integers(len(ZEROS))]
    node, tree = synth_field(ps, block, Replay(values)), synth_field_scalar(ps, block, Replay(values))
    assert all(isinstance(c, Quadratic) for c in node.components)
    return node, tree


def points(ps, s: int, seed: int) -> np.ndarray:
    """s rows in the box; later rows put +0.0 and -0.0 in some coordinates."""
    pts = SplitMix(seed).block((s, ps.total_dim))
    for row in range(1, s, 3):
        pts[row, row % ps.total_dim] = 0.0 if row % 2 else -0.0
    pts.flags.writeable = False
    return pts


def assert_same_bits(got, ref, what):
    got, ref = np.broadcast_to(got, np.shape(ref)), np.asarray(ref)
    assert np.array_equal(got, ref), what
    assert np.array_equal(np.signbit(got), np.signbit(ref)), what


def cases():
    return [(d, s, kind) for d in DIMS for s in SAMPLES for kind in KINDS]


@pytest.mark.parametrize("d,s,kind", cases())
class TestAgainstTheTree:
    def fields(self, d, s, kind):
        ps = parse_manifest(chart(d)).structure
        for i, block in enumerate(["base", 0]):
            yield ps, block, *drawn(ps, block, kind, 100 * d + 10 * s + i)

    def test_part_fold_and_component_walk_equal_the_tree_walk(self, d, s, kind):
        for ps, block, node, tree in self.fields(d, s, kind):
            pts = points(ps, s, d + s)
            env = ps.jet_env(pts, block)
            val, grad, hess = fold_quadratics(node.components, env)
            for k, (q, t) in enumerate(zip(node.components, tree.components)):
                ref = jet_of(t, env)
                one = eval_expr(q, env)
                for got in ((val[:, k], grad[..., k], hess[..., k]),
                            (one.value, one.grad, one.hess)):
                    for g, r, name in zip(got, (ref.value, ref.grad, ref.hess),
                                          ("value", "grad", "hess")):
                        assert_same_bits(g, r, f"{block} component {k} {name}")
            fast, slow = lift(node).jet(ps, pts, env), lift(tree).jet(ps, pts, env)
            assert [sl for sl, _ in fast.d2] == [sl for sl, _ in slow.d2]
            for name, a, b in zip(("val", "d", "d2"), jet_arrays(fast), jet_arrays(slow)):
                assert_same_bits(a, b, name)

    def test_float_environment_equals_the_tree(self, d, s, kind):
        for ps, _, node, tree in self.fields(d, s, kind):
            for p in points(ps, s, d + s):
                env = dict(zip(ps.coord_names, p.tolist()))
                for q, t in zip(node.components, tree.components):
                    assert repr(eval_expr(q, env)) == repr(eval_expr(t, env))

    def test_prints_the_tree_text(self, d, s, kind):
        for _, _, node, tree in self.fields(d, s, kind):
            assert [pretty(q) for q in node.components] == [pretty(t) for t in tree.components]

    def test_overflow_raises_the_tree_error(self, d, s, kind):
        for ps, block, node, tree in self.fields(d, s, kind):
            pts = points(ps, s, d + s).copy()
            pts[s // 2, ps.block_slice(block)] = 1e200
            pts.flags.writeable = False
            errors = []
            for field in (node, tree):
                for walk in (lambda f: lift(f).jet(ps, pts, ps.jet_env(pts, block)),
                             lambda f: Geometry(ps, None, pts).field_jet(lift(f))):
                    with pytest.raises(DomainError) as err:
                        walk(field)
                    errors.append((str(err.value), err.value.index))
            assert errors[:2] == errors[2:]
            assert errors[0][1] == s // 2
            assert "overflow at (" in errors[0][0]
            assert errors[0][0].endswith(f" in {pretty(tree.components[0])}")


def test_fold_needs_quadratics_over_one_set_of_monomials():
    ps = parse_manifest(chart(2)).structure
    env = ps.jet_env(points(ps, 4, 1), "base")
    node, tree = drawn(ps, "base", "mixed", 5)
    q = node.components[0]
    assert fold_quadratics(tree.components, env) is None
    assert fold_quadratics((q, Quadratic(q.const, q.terms[:-1])), env) is None
    assert fold_quadratics((Quadratic(1.0, ()),), env) is None
    # a pair out of coordinate order is no row of the table
    assert fold_quadratics((Quadratic(1.0, ((1.0, ("x1", "x0")),)),), env) is None
    assert fold_quadratics(node.components, env) is not None


CHARTS = [load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))] + wide_manifests()


def blocks(mf):
    return ["base", *range(mf.fiber_count)]


def same_bytes(a, b) -> bool:
    """Equal bit for bit, the sign of every zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMonomialTable:
    @pytest.mark.parametrize("samples", [1, 16, 64])
    @pytest.mark.parametrize("mf", CHARTS, ids=[mf.name for mf in CHARTS])
    def test_fold_equals_the_component_walk(self, mf, samples):
        """On each block: the table fold, and the field jet its geometry
        reads, against ``eval_expr`` walking each component term by term in
        the block's ``jet_env``, the one the chart walks in."""
        ctx = RunContext(mf, samples=samples)
        for block in blocks(mf):
            geom = ctx.block_geom(block)
            node = ctx.synth(block, "test:table")
            env = ctx.geom.jet_env(block)
            assert isinstance(env, JetEnv)
            index, table = env.monomial_table
            assert list(index) == list(monomials(env))
            assert table.shape == (len(index), samples, 1 + len(env) + len(env) ** 2)
            val, grad, hess = fold_quadratics(node.components, env)
            fj = geom.field_jet(lift(node))
            (_, h), = fj.d2
            for k, comp in enumerate(node.components):
                ref = eval_expr(comp, env)
                for got, want in ((val[:, k], ref.value), (grad[..., k], ref.grad),
                                  (hess[..., k], ref.hess), (fj.val[:, k], ref.value),
                                  (fj.d[..., k], ref.grad), (h[..., k], ref.hess)):
                    assert same_bytes(got, want), (block, k)

    def test_env_keeps_one_table(self):
        ctx = RunContext(CHARTS[0], samples=4)
        env = ctx.geom.jet_env("base")
        assert env is ctx.geom.jet_env("base")
        assert env.monomial_table is env.monomial_table

    @pytest.mark.parametrize("name", ["sphere", "mw2_fib", "mw3_fib"])
    def test_table_is_freed_with_its_geometry(self, name):
        mf = load_manifest(corpus_dir() / f"{name}.wm")
        geom = RunContext(mf, samples=8).geom
        kept = []
        for block in blocks(mf):
            geom.block(block).field_jet(lift(synth_field(mf.structure, block, SplitMix(3))))
            env = geom.jet_env(block)
            kept += [weakref.ref(env), weakref.ref(env.monomial_table[1])]
        del geom, env
        gc.collect()
        assert [r() for r in kept] == [None] * len(kept)
