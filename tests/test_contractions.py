"""Every stacked contraction is a batched matrix product; each is checked
here against the index formula (``np.einsum``) it states, on random
stacks of every shape it is called with: n in {1, 2, 3, 6, 10} and 1 or
16 sample points, a constant vector (n,) in place of a stack, stacks of
test-vector draws (S, m, n), and the grid of constant vectors that the
torsion and compatibility axioms build.  A matrix product sums in a
different order than ``einsum``, so the two agree to within 1e-13 of the
largest entry rather than bit for bit.

The geometry-level stacks run on random metric and field jets put in
place of the ones a manifest would give, so the formulas are exercised
on general data (no symmetry the metric would have is assumed).

The source scans at the end keep it that way: no ``np.einsum`` call
with two or more operands remains in ``src/warpfield``.  They also keep
one evaluation path per quantity: the grid of nabla z is contracted
(``nabla_grid``) only in ``connections``, ``lie_killing`` and the
constant-vector axioms, no check reads the metric one point at a time
(``metric_at``) or evaluates an expression one point at a time
(``eval_expr``, left only to the constant entry of ``timelike_line``),
and no module but ``sampling`` makes a scalar draw.
Every report goes through one reducer, ``residual_outcome``, which reads
a list of residual arrays as their concatenation."""

import ast
from pathlib import Path

import numpy as np
import pytest

from warpfield import connections, lie_killing
from warpfield.checks.identities import _nabla_const
from warpfield.connections import (
    Geometry,
    bilinear,
    contract_first,
    divergence,
    matvec,
    nabla_grid,
)
from warpfield.curvature import riemann, zeta_curvature
from warpfield.fields import FieldJet, lift
from warpfield.manifest import parse_manifest
from warpfield.metric import MetricJet
from warpfield.suite import residual_outcome

DIMS = (1, 2, 3, 6, 10)
SAMPLES = (1, 16)
SHAPES = [(n, s) for n in DIMS for s in SAMPLES]
SRC = Path(__file__).resolve().parent.parent / "src" / "warpfield"


def close(got, want):
    """Entry by entry within 1e-13 of the reference's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(initial=0.0))


def chart(n: int) -> str:
    """A flat n-dimensional base with a connection shift and one field."""
    coords = [f"x{k}" for k in range(n)]
    lines = ["[base]", f"dim = {n}", f"coords = {', '.join(coords)}"]
    lines += [f"g.{c}.{c} = 1" for c in coords]
    lines += [f"box.{c} = -1, 1" for c in coords]
    lines += ["", "[torsion]", "location = base", f"comp.{coords[0]} = 1", "",
              "[field.z]", "location = base", f"comp.{coords[-1]} = 1", ""]
    return "\n".join(lines)


def random_geometry(n: int, s: int, seed: int = 0):
    """(geometry, field) over s points of an n-dimensional chart whose
    metric jet and field jets (the field's and the shift's) are random."""
    rng = np.random.default_rng(1000 * n + s + seed)
    mf = parse_manifest(chart(n))
    geom = Geometry(mf.structure, mf.torsion, [(0.0,) * n] * s)
    g = rng.uniform(-1, 1, (s, n, n))
    g = g + np.swapaxes(g, 1, 2) + 2 * n * np.eye(n)
    geom._stacks[(connections._metric_jets, ())] = MetricJet(
        g=g, dg=rng.uniform(-1, 1, (s, n, n, n)), d2g=rng.uniform(-1, 1, (s, n, n, n, n)),
        ginv=np.linalg.inv(g))
    field = lift(mf.fields["z"])
    for f in (field, geom._p_field):  # one part, on the one block: the chart
        geom._stacks[(connections._field_jets, (f,))] = FieldJet(
            val=rng.uniform(-1, 1, (s, n)), d=rng.uniform(-1, 1, (s, n, n)),
            d2=((slice(0, n), rng.uniform(-1, 1, (s, n, n, n))),))
    return geom, field


def hessian(zj: FieldJet) -> np.ndarray:
    """The second partials of a one-block chart's field: its one part's."""
    (sl, d2), = zj.d2
    assert sl == slice(0, zj.d.shape[-1])
    return d2


def _bracket_einsum(dg):
    return np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg


# ---- the helpers ----


@pytest.mark.parametrize("n,s", SHAPES)
def test_contract_first(n, s):
    rng = np.random.default_rng(n * s)
    m, t = rng.uniform(-1, 1, (s, n, n)), rng.uniform(-1, 1, (s, n, n, n))
    close(contract_first(m, t), np.einsum("...kl,...lij->...kij", m, t))
    # a stack of matrices per point against one tensor per point, and back
    md, td = rng.uniform(-1, 1, (s, n, n, n)), rng.uniform(-1, 1, (s, n, n, n, n))
    close(contract_first(md, t[:, None]), np.einsum("sdkl,slij->sdkij", md, t))
    close(contract_first(m[:, None], td), np.einsum("skl,sdlij->sdkij", m, td))


@pytest.mark.parametrize("n,s", SHAPES)
def test_dginv(n, s):
    mj = random_geometry(n, s)[0].metric_jet()
    close(mj.dginv, -np.einsum("...ka,...dab,...bl->...dkl", mj.ginv, mj.dg, mj.ginv))


@pytest.mark.parametrize("n,s", SHAPES)
def test_bracket_is_the_index_permutation(n, s):
    dg = np.random.default_rng(n).uniform(-1, 1, (s, n, n, n, n))
    assert np.array_equal(connections._bracket(dg), _bracket_einsum(dg))


@pytest.mark.parametrize("n,s", SHAPES)
def test_nabla_grid(n, s):
    rng = np.random.default_rng(7 * n + s)
    gamma = rng.uniform(-1, 1, (s, n, n, n))
    val, d = rng.uniform(-1, 1, (s, n)), rng.uniform(-1, 1, (s, n, n))
    close(nabla_grid(gamma, val, d), d + np.einsum("...kaj,...j->...ak", gamma, val))
    # a constant vector: one (n,) value and zero partials for every point
    const = rng.uniform(-1, 1, n)
    close(nabla_grid(gamma, const, np.zeros((n, n))),
          np.einsum("...kaj,...j->...ak", gamma, const))
    # stacks of draws against the symbols of their point, as the axioms call it
    draws = rng.uniform(-1, 1, (s, 5, n))
    grid = nabla_grid(gamma[:, None], draws, 0.0)
    close(grid, np.einsum("skaj,smj->smak", gamma, draws))
    x = rng.uniform(-1, 1, (s, 5, n))
    close(_nabla_const(gamma[:, None], x, draws),
          np.einsum("...a,...ak->...k", x, grid))


@pytest.mark.parametrize("n,s", SHAPES)
def test_draw_contractions(n, s):
    """The products the checks apply to stacks of draws (S, m, n)."""
    geom, _ = random_geometry(n, s)
    rng = np.random.default_rng(n + 3 * s)
    mj = geom.metric_jet()
    x, y, z = rng.uniform(-1, 1, (3, s, 4, n))
    v = rng.uniform(-1, 1, (s, n))
    close(matvec(x, v), np.einsum("...dn,...n->...d", x, v))
    close(matvec(mj.g, v), np.einsum("sab,sb->sa", mj.g, v))
    close(bilinear(contract_first(x, mj.dg), y, z),
          np.einsum("sdc,scab,sda,sdb->sd", x, mj.dg, y, z))


# ---- the geometry's stacks ----


@pytest.mark.parametrize("n,s", SHAPES)
def test_christoffel_and_its_jet(n, s):
    geom, _ = random_geometry(n, s)
    mj = geom.metric_jet()
    gamma, dgamma = geom.christoffel_jet()
    close(gamma, 0.5 * np.einsum("skl,slij->skij", mj.ginv, _bracket_einsum(mj.dg)))
    dginv = -np.einsum("...ka,...dab,...bl->...dkl", mj.ginv, mj.dg, mj.ginv)
    close(dgamma, 0.5 * (np.einsum("sdkl,slij->sdkij", dginv, _bracket_einsum(mj.dg))
                         + np.einsum("skl,sdlij->sdkij", mj.ginv, _bracket_einsum(mj.d2g))))


@pytest.mark.parametrize("n,s", SHAPES)
def test_ssm_gamma(n, s):
    geom, _ = random_geometry(n, s)
    g, pv = geom.metric_jet().g, geom.p_vector()
    close(geom.ssm_gamma(),
          geom.christoffel()
          + np.einsum("ki,sj->skij", np.eye(n), geom.pi_covector())
          - np.einsum("sij,sk->skij", g, pv))


@pytest.mark.parametrize("n,s", SHAPES)
def test_divergence(n, s):
    geom, field = random_geometry(n, s)
    fj = geom.field_jet(field)
    close(divergence(geom, field),
          np.trace(fj.d, axis1=-2, axis2=-1)
          + np.einsum("skkm,sm->s", geom.christoffel(), fj.val))


@pytest.mark.parametrize("n,s", SHAPES)
def test_curvature(n, s):
    geom, _ = random_geometry(n, s)
    gamma, dgamma = geom.christoffel_jet()
    r_up = (np.einsum("siljk->slkij", dgamma)
            - np.einsum("sjlik->slkij", dgamma)
            + np.einsum("slim,smjk->slkij", gamma, gamma)
            - np.einsum("sljm,smik->slkij", gamma, gamma))
    r_low = np.einsum("slm,smkij->sijkl", geom.metric_jet().g, r_up)
    curv = riemann(geom)
    close(curv.r_low, r_low)
    close(curv.ricci, np.einsum("saiaj->sij", r_up))


@pytest.mark.parametrize("n,s", SHAPES)
def test_curvature_along_a_field(n, s):
    geom, field = random_geometry(n, s)
    r_low = riemann(geom).r_low
    zv = geom.field_values(field)
    for slots, free in (("il", "jk"), ("ik", "jl")):
        close(zeta_curvature(geom, field, slots),
              np.einsum(f"sijkl,s{slots[0]},s{slots[1]}->s{free}", r_low, zv, zv))


@pytest.mark.parametrize("n,s", SHAPES)
def test_coordinate_routes(n, s):
    geom, field = random_geometry(n, s)
    mj, zj = geom.metric_jet(), geom.field_jet(field)
    h = (np.einsum("...c,...cab->...ab", zj.val, mj.dg)
         + np.einsum("...ac,...cb->...ab", zj.d, mj.g)
         + np.einsum("...bc,...ac->...ab", zj.d, mj.g))
    close(lie_killing.lie_matrix_direct(geom, field), h)
    dh = (np.einsum("...mc,...cab->...mab", zj.d, mj.dg)
          + np.einsum("...c,...mcab->...mab", zj.val, mj.d2g)
          + np.einsum("...mac,...cb->...mab", hessian(zj), mj.g)
          + np.einsum("...ac,...mcb->...mab", zj.d, mj.dg)
          + np.einsum("...mbc,...ac->...mab", hessian(zj), mj.g)
          + np.einsum("...bc,...mac->...mab", zj.d, mj.dg))
    close(lie_killing.lie_lie_matrix_nested(geom, field),
          np.einsum("...c,...cab->...ab", zj.val, dh)
          + np.einsum("...ac,...cb->...ab", zj.d, h)
          + np.einsum("...bc,...ac->...ab", zj.d, h))
    # a constant vector: its jet has no sample axis
    const = np.linspace(-1.0, 1.0, n)
    close(lie_killing.lie_matrix_direct(geom, const),
          np.einsum("...c,...cab->...ab", const, mj.dg))


@pytest.mark.parametrize("n,s", SHAPES)
def test_second_lie_derivative(n, s):
    geom, field = random_geometry(n, s)
    zj = geom.field_jet(field)
    gamma, dgamma = geom.christoffel_jet()
    g = geom.metric_jet().g
    w = zj.d + np.einsum("skaj,sj->sak", gamma, zj.val)
    dw = (hessian(zj) + np.einsum("smkaj,sj->smak", dgamma, zj.val)
          + np.einsum("skaj,smj->smak", gamma, zj.d))
    nzw = (np.einsum("sm,smak->sak", zj.val, dw)
           + np.einsum("skmj,sm,saj->sak", gamma, zj.val, w))
    nvz = (np.einsum("sai,sik->sak", -zj.d, zj.d)
           + np.einsum("skij,sai,sj->sak", gamma, -zj.d, zj.val))
    first = np.einsum("sak,skb->sab", nzw - nvz, g)
    want = (first + np.swapaxes(first, 1, 2)
            + 2.0 * np.einsum("sak,skl,sbl->sab", w, g, w))
    close(lie_killing.lie_lie_matrix(geom, field), want)


def nabla_zeta_zeta_einsum(geom, field):
    zj = geom.field_jet(field)
    gamma, dgamma = geom.christoffel_jet()
    w = (np.einsum("si,sik->sk", zj.val, zj.d)
         + np.einsum("skij,si,sj->sk", gamma, zj.val, zj.val))
    dw = (np.einsum("si,smik->smk", zj.val, hessian(zj))
          + np.einsum("smi,sik->smk", zj.d, zj.d)
          + np.einsum("smkij,si,sj->smk", dgamma, zj.val, zj.val)
          + np.einsum("skij,smi,sj->smk", gamma, zj.d, zj.val)
          + np.einsum("skij,si,smj->smk", gamma, zj.val, zj.d))
    return w, dw


@pytest.mark.parametrize("n,s", SHAPES)
def test_nabla_zeta_zeta(n, s):
    geom, field = random_geometry(n, s)
    for got, want in zip(lie_killing.nabla_zeta_zeta(geom, field),
                         nabla_zeta_zeta_einsum(geom, field)):
        close(got, want)


@pytest.mark.parametrize("n,s", SHAPES)
def test_eq22_residual(n, s):
    geom, field = random_geometry(n, s)
    xs = np.random.default_rng(n).uniform(-1, 1, (s, 3, n))
    zj, g, gamma = geom.field_jet(field), geom.metric_jet().g, geom.christoffel()
    rzz = np.einsum("...ijkl,...i,...l->...jk", riemann(geom).r_low, zj.val, zj.val)
    nxz = np.einsum("sma,sak->smk", xs, zj.d + np.einsum("skaj,sj->sak", gamma, zj.val))
    w, dw = nabla_zeta_zeta_einsum(geom, field)
    nw = dw + np.einsum("skaj,sj->sak", gamma, w)
    want = np.abs(np.einsum("sma,sab,smb->sm", xs, rzz, xs)
                  - np.einsum("sma,sab,smb->sm", nxz, g, nxz)
                  - np.einsum("sma,sak,skb,smb->sm", xs, nw, g, xs))
    close(lie_killing.eq22_residual(geom, field, xs), want)


# ---- the source scan ----


def calls_to(tree: ast.AST, name: str):
    """Calls of ``name`` as a bare function or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                yield node


def test_no_multi_operand_einsum_in_the_package():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for call in calls_to(ast.parse(path.read_text(encoding="utf-8")), "einsum"):
            if len(call.args) > 2 or any(isinstance(a, ast.Starred) for a in call.args):
                offenders.append(f"{path.relative_to(SRC)}:{call.lineno}")
    assert offenders == []


def test_the_source_scan_sees_a_two_operand_einsum():
    calls = list(calls_to(ast.parse('np.einsum("ij,j->i", a, b)\nnp.einsum("ii", a)'), "einsum"))
    assert [len(c.args) - 1 for c in calls] == [2, 1]


def callers(name: str) -> set[str]:
    """The modules of ``src/warpfield`` that call ``name``."""
    return {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
            if any(calls_to(ast.parse(path.read_text(encoding="utf-8")), name))}


def test_one_nabla_grid_path():
    assert callers("nabla_grid") <= {"connections.py", "lie_killing.py",
                                     "checks/identities.py"}


def test_no_check_reads_the_metric_one_point_at_a_time():
    assert not {path for path in callers("metric_at") if path.startswith("checks/")}


def test_no_check_evaluates_an_expression_one_point_at_a_time():
    """Under ``checks/`` only ``util.timelike_line`` calls ``eval_expr``,
    on a metric entry with no variables; every field and warp value a
    check reads comes from the geometry's stacks."""
    found = set()
    for path in sorted((SRC / "checks").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and any(calls_to(fn, "eval_expr")):
                found.add((path.relative_to(SRC).as_posix(), getattr(fn, "name", "<lambda>")))
    assert found == {("checks/util.py", "timelike_line")}


SCALAR_DRAWS = ("vector", "next_u64", "uniform", "symmetric")


def test_no_scalar_draws_outside_the_sampling_module():
    """Every draw outside ``sampling`` is a block of a fixed count: the
    scalar draws stay only as the reference the tests compare with."""
    assert {path for name in SCALAR_DRAWS for path in callers(name)} <= {"sampling.py"}


def test_the_call_scan_sees_functions_and_methods():
    tree = ast.parse("nabla_grid(g, v, d)\nps.metric_at(p)\nmetric_at")
    assert [len(list(calls_to(tree, n))) for n in ("nabla_grid", "metric_at")] == [1, 1]
    tree = ast.parse("rng.vector(3)\nrng.next_u64() % 2\nround(rng.symmetric(), 3)")
    assert [len(list(calls_to(tree, n))) for n in SCALAR_DRAWS] == [1, 1, 0, 1]


def test_residual_outcome_reads_a_list_as_its_concatenation():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1, 1, (16, 3)), rng.uniform(-1, 1, (4, 2, 5)).transpose(2, 0, 1)
    for tol in (0.5, 2.0):
        want = residual_outcome(np.concatenate([a.ravel(), b.ravel()]), tol, note="n")
        assert residual_outcome([a, b], tol, note="n") == want
    assert residual_outcome([a, 0.25, b], 2.0) == residual_outcome(
        np.concatenate([a.ravel(), [0.25], b.ravel()]), 2.0)
