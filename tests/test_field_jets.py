"""Field jets: each lifted part is walked once, by the chart's geometry,
in its own block's coordinates; a sum of parts is assembled from the
parts' stacks, a block geometry reads its part's jet from its chart, and
a float operand is folded into a jet without a constant jet.  The
whole-chart walk of ``oracles.field_walk_full`` is the reference: a stack
equals it with the same sign of zero in every entry in a part's block,
and every other entry is +0; its second partials are one array per part,
on the part's block, which at chart width equal the walk's."""

import ast
import gc
import operator
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from oracles import chart_d2, field_walk_full
from warpfield.cli import corpus_dir
from warpfield.connections import Geometry
from warpfield import fieldexpr, metric, suite
from warpfield.fieldexpr import eval_expr, parse_expr
from warpfield.fields import ProductField, VectorFieldDef, lift, synth_field
from warpfield.jets import DivisionByZero, Jet2
from warpfield.manifest import load_manifest
from warpfield.metric import GeometryError, ProductStructure
from warpfield.suite import RunContext, default_registry, run_checks

SRC = Path(__file__).resolve().parent.parent / "src" / "warpfield"

CORPUS = sorted(corpus_dir().glob("*.wm"))


def assert_same(got, ref, *names):
    for name in names:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def assert_same_bits(got, ps, field, points):
    """got equals the whole-chart walk at ``points``, in-block entries have
    the same sign of zero and every entry outside the field's blocks is
    +0; its second partials are kept on the parts' block slices."""
    n = ps.total_dim
    assert [sl for sl, _ in got.d2] == [ps.block_slice(part.block) for part in field.parts]
    ref = field_walk_full(ps, field, points)
    for a, b, name, rank in zip((got.val, got.d, chart_d2(got)), ref,
                                ("val", "d", "d2"), (1, 2, 3)):
        assert np.array_equal(a, b), name
        inside = np.zeros((n,) * rank, dtype=bool)
        for part in field.parts:
            inside[(ps.block_slice(part.block),) * rank] = True
        assert np.array_equal(np.signbit(a[:, inside]), np.signbit(b[:, inside])), name
        assert not np.signbit(a[:, ~inside]).any(), name


def product_fields(ctx: RunContext) -> list[ProductField]:
    """The declared fields and their pairwise sums, P, and synthesized
    fields: one per block and the sum of all of them."""
    fields = list(ctx.field_combos().values())
    if not ctx.mf.torsion.is_zero:
        fields.append(lift(ctx.mf.torsion.field))
    blocks = ["base"] + list(range(len(ctx.ps.fibers)))
    drawn = [ctx.synth(b, f"field-jets:{b}") for b in blocks]
    return fields + [lift(v) for v in drawn] + [ProductField(tuple(drawn))]


class TestBlockWalk:
    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_stacks_equal_the_whole_chart_walk(self, path):
        ctx = RunContext(load_manifest(path), samples=16)
        for field in product_fields(ctx):
            assert_same_bits(ctx.geom.field_jet(field), ctx.ps, field, ctx.points())
        for vfd in ctx.mf.fields.values():
            # the block geometry reads the lifted field; the reference walks
            # the same components on the block's own chart, where it is the base
            geom = ctx.block_geom(vfd.block)
            alone = lift(VectorFieldDef("base", vfd.components))
            assert_same_bits(geom.field_jet(lift(vfd)), geom.ps, alone, geom.points)

    @pytest.mark.parametrize("name", ["mw2_fib", "mw3_fib", "static"])
    def test_a_block_reads_only_its_own_part(self, name):
        ctx = RunContext(load_manifest(corpus_dir() / f"{name}.wm"), samples=4)
        blocks = ["base", *range(len(ctx.ps.fibers))]
        drawn = {b: ctx.synth(b, "own-part") for b in blocks}
        for b in blocks:
            geom = ctx.block_geom(b)
            own = geom.field_jet(lift(drawn[b]))  # the chart's stack of the part itself
            assert own.val.shape == (4, geom.ps.total_dim)
            assert own.d2[0][1] is ctx.geom.field_jet(lift(drawn[b])).d2[0][1]
            others = [lift(drawn[o]) for o in blocks if o != b]
            others.append(ProductField(tuple(drawn.values())))
            if b != "base":  # the part relabelled onto the block's own base
                others.append(lift(VectorFieldDef("base", drawn[b].components)))
            for field in others:
                with pytest.raises(GeometryError, match=f"geometry of block {b} "):
                    geom.field_jet(field)

    def test_partials_across_blocks_are_zero(self):
        ctx = RunContext(load_manifest(corpus_dir() / "mw2_fib.wm"), samples=8)
        for vfd in ctx.mf.fields.values():
            sl = ctx.ps.block_slice(vfd.block)
            fj = ctx.geom.field_jet(lift(vfd))
            off = np.ones(ctx.ps.total_dim, dtype=bool)
            off[sl] = False
            assert not np.any(fj.val[:, off])
            assert not np.any(fj.d[:, off]) and not np.any(fj.d[:, :, off])
            (part, h), = fj.d2
            assert part == sl and h.shape == (8,) + (sl.stop - sl.start,) * 3


def sample_jets() -> list[Jet2]:
    """A jet batched over five points with non-trivial partials in two
    directions, nowhere zero, and the same jet at one of the points."""
    names = ("x", "y")
    coords = np.array([[0.3, -1.2], [1.1, 0.4], [-0.7, 0.9], [2.0, -0.1], [0.05, 1.5]])
    s, n = coords.shape
    env = {name: Jet2(coords[:, k], np.broadcast_to(np.eye(n)[k], (s, n)), np.zeros((s, n, n)))
           for k, name in enumerate(names)}
    j = eval_expr(parse_expr("2 + sin(x)*y + x^2*exp(y)", names), env)
    assert np.all(j.value != 0.0)
    return [j, j[3]]


class TestScalarOperands:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv], ids=["+", "-", "*", "/"])
    @pytest.mark.parametrize("c", [2.5, -0.75, 0.0, 3])
    def test_equal_to_the_constant_jet(self, op, c):
        for j in sample_jets():
            const = Jet2.constant(float(c), j.n)
            if op is operator.truediv and c == 0:
                for divisor in (c, const):
                    with pytest.raises(DivisionByZero):
                        j / divisor
            else:
                assert_same(op(j, c), op(j, const), "value", "grad", "hess")
            assert_same(op(c, j), op(const, j), "value", "grad", "hess")


class TestOneWalkPerPart:
    def test_full_run_walks_each_part_once_per_geometry(self, monkeypatch):
        registry = default_registry()
        mf = load_manifest(corpus_dir() / "mw2_fib.wm")
        real = ProductField.jet
        walks = Counter()

        def counted(field, ps, points, env):
            # a geometry hands every walk its own sample array, and
            # all of a run's geometries live until the run ends
            assert len(field.parts) == 1
            walks[(id(points), field.parts[0])] += 1
            return real(field, ps, points, env)

        monkeypatch.setattr(ProductField, "jet", counted)
        run_checks(mf, registry.specs, samples=16)
        assert walks and max(walks.values()) == 1

    def test_full_run_walks_each_block_expression_once(self, monkeypatch):
        # across the product and block geometries of one run: a part's
        # components over the same block columns are walked once
        mf = load_manifest(corpus_dir() / "mw2_fib.wm")
        real = ProductField.jet
        walks = Counter()

        def counted(field, ps, points, env):
            for part in field.parts:
                cols = points[:, ps.block_slice(part.block)]
                walks[(ps.block_metric(part.block).coords, part.components,
                       cols.tobytes())] += 1
            return real(field, ps, points, env)

        monkeypatch.setattr(ProductField, "jet", counted)
        run_checks(mf, default_registry().specs, samples=16)
        assert walks and max(walks.values()) == 1

    def test_full_run_folds_every_synthetic_part(self, monkeypatch):
        # a synthetic part is one fold of its Quadratic components: none of
        # them enters eval_expr, so none is walked as a tree of Bin nodes
        mf = load_manifest(corpus_dir() / "mw2_fib.wm")
        real_synth, real_eval = suite.synth_field, fieldexpr.eval_expr
        drawn, walked = [], []  # both keep their objects alive: ids stay unique

        def recorded(ps, block, rng):
            drawn.append(real_synth(ps, block, rng))
            return drawn[-1]

        def counted(e, env):
            walked.append(e)
            return real_eval(e, env)

        monkeypatch.setattr(suite, "synth_field", recorded)
        monkeypatch.setattr(fieldexpr, "eval_expr", counted)
        monkeypatch.setattr(metric, "eval_expr", counted)
        run_checks(mf, default_registry().specs, samples=16)
        synthetic = {id(c) for vfd in drawn for c in vfd.components}
        assert synthetic and walked
        assert not [e for e in walked if id(e) in synthetic]

    def test_synth_returns_one_object_per_draw(self):
        ctx = RunContext(load_manifest(corpus_dir() / "mw2_fib.wm"), samples=4)
        first = ctx.synth("base", "L")
        assert ctx.synth("base", "L") is first
        fresh = synth_field(ctx.ps, "base", ctx.rng("synth:L"))
        assert fresh == first and fresh is not first
        assert ctx.synth(0, "L") != first


class TestOneEnvPerBlock:
    def test_full_run_builds_each_block_env_once_per_chart(self, monkeypatch):
        mf = load_manifest(corpus_dir() / "mw2_fib.wm")
        real = ProductStructure.jet_env
        seen = []  # keeps every structure, sample set and env alive: ids stay unique

        def recorded(ps, points, block=None):
            env = real(ps, points, block)
            seen.append((ps, points, block, env))
            return env

        monkeypatch.setattr(ProductStructure, "jet_env", recorded)
        run_checks(mf, default_registry().specs, samples=16)
        envs = defaultdict(set)
        for ps, points, block, env in seen:
            envs[(id(ps), id(points), block)].add(id(env))
        assert envs and all(len(built) == 1 for built in envs.values())
        assert {block for ps_id, _, block in envs if ps_id == id(mf.structure)} \
            == {"base", 0, 1}

    def test_an_env_is_freed_with_its_geometry(self):
        ps = load_manifest(corpus_dir() / "mw2_fib.wm").structure
        geom = Geometry(ps, None, np.zeros((4, ps.total_dim)))
        env = geom.jet_env(0)
        assert env is geom.jet_env(0)
        geom.metric_jet()
        kept = [weakref.ref(env), weakref.ref(env.monomial_table[1]),
                weakref.ref(geom.points)]
        del geom, env
        gc.collect()
        assert [r() for r in kept] == [None, None, None]


class TestBlocksWalkNothing:
    """A block geometry reads its metric and field jets from its chart:
    during a full run none of them walks a field or builds a ``jet_env``."""

    @pytest.mark.parametrize("name", ["mw2_fib", "mw3_fib", "static", "plane"])
    def test_full_run(self, name, monkeypatch):
        mf = load_manifest(corpus_dir() / f"{name}.wm")
        real_block, real_jet = Geometry.block, ProductField.jet
        real_env = ProductStructure.jet_env
        blocks, walked = [], []  # both keep their objects alive: ids stay unique

        def block(geom, b):
            blocks.append(real_block(geom, b))
            return blocks[-1]

        def jet(field, ps, points, env):
            walked.append((ps, points))
            return real_jet(field, ps, points, env)

        def jet_env(ps, points, b=None):
            walked.append((ps, points))
            return real_env(ps, points, b)

        monkeypatch.setattr(Geometry, "block", block)
        monkeypatch.setattr(ProductField, "jet", jet)
        monkeypatch.setattr(ProductStructure, "jet_env", jet_env)
        run_checks(mf, default_registry().specs, samples=16)
        # each block geometry once; a one-block chart's base is the chart
        blocks = list({id(blk): blk for blk in blocks if blk.ps is not mf.structure}.values())
        fibers = len(mf.structure.fibers)
        assert walked and len(blocks) == (fibers + 1 if fibers else 0)
        assert not [1 for ps, points in walked for blk in blocks
                    if blk.ps is ps or blk.points is points]


def constructions(source: str, name: str) -> set[str]:
    """The qualified names of the functions (or ``<module>``) whose own
    bodies call ``name``, as a bare name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_geometries_are_built_only_by_the_run_the_cli_and_block():
    # a second geometry over the same block columns would walk them again
    sites = {f"{path.relative_to(SRC).as_posix()}:{site}"
             for path in sorted(SRC.rglob("*.py"))
             for site in constructions(path.read_text(encoding="utf-8"), "Geometry")}
    assert sites == {"suite.py:RunContext.__init__", "cli.py:cmd_killing",
                     "connections.py:Geometry.block"}


def test_the_construction_scan_names_the_enclosing_function():
    source = ("class G:\n    def block(self):\n        return G()\n"
              "G()\ndef f(y):\n    return [m.G() for _ in y]\n")
    assert constructions(source, "G") == {"G.block", "<module>", "f"}
