"""Identity checks: connection decompositions, Lie-derivative
decompositions and the frame-trace formula, each comparing a
product-level computation against an independently assembled
factor-level right-hand side."""

from __future__ import annotations

import numpy as np

from ..connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    bilinear,
    contract_first,
    covariant_derivative,
    divergence,
    dot,
    matvec,
    nabla_grid,
)
from ..curvature import FrameConstructionFailure, trace_nabla
from ..fields import ProductField, lift
from ..lie_killing import (
    form,
    lie_lie_matrix,
    lie_lie_matrix_nested,
    lie_matrix,
    lie_matrix_direct,
    point_max,
)
from ..suite import (
    SECOND_ORDER_TOL,
    TRACE_TOL,
    CheckSpec,
    Outcome,
    RunContext,
    inconclusive,
    residual_outcome,
)
from .util import (
    any_mf,
    base_shift,
    base_shift_multi,
    embed,
    fiber_shift,
    fiber_shift_multi,
    has_fibers,
    multi_fiber,
    second_directional,
    shift_on_base,
    shift_on_fiber,
    warped1_base,
    warped1_fiber,
)

# ---- section 2 axioms ----


def _axiom_draws(ctx: RunContext, label: str, vectors: int) -> list[np.ndarray]:
    """``vectors`` test-vector stacks (points, draws, n), drawn per point
    and per draw in turn, with 256 draws in all (at least one per point)."""
    pts = ctx.points()
    xs = ctx.rng(label).block((len(pts), max(1, 256 // len(pts)), vectors,
                               ctx.ps.total_dim))
    return [xs[..., k, :] for k in range(vectors)]


def _nabla_const(gamma: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """nabla_x y for constant test vectors (points, draws, n), with the
    symbols gamma (points, 1, n, n, n)."""
    return (x[..., None, :] @ nabla_grid(gamma, y, 0.0))[..., 0, :]


def _torsion_sides(ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
    """Torsion of the shifted connection on constant test vectors x, y and
    its two-term form pi(y) x - pi(x) y: (points, draws, n) each."""
    x, y = _axiom_draws(ctx, "axiom-torsion", 2)
    gamma = ctx.geom.ssm_gamma()[:, None]
    piv = ctx.geom.pi_covector()
    return (_nabla_const(gamma, x, y) - _nabla_const(gamma, y, x),
            matvec(y, piv)[..., None] * x - matvec(x, piv)[..., None] * y)


def _axiom_torsion(ctx: RunContext) -> Outcome:
    t, expected = _torsion_sides(ctx)
    return residual_outcome(np.abs(t - expected).max(axis=-1), ctx.tol.alg)


def _axiom_compat(ctx: RunContext) -> Outcome:
    """|x(g(y, z)) - g(nabla_x y, z) - g(y, nabla_x z)| for constant y, z."""
    x, y, z = _axiom_draws(ctx, "axiom-compat", 3)
    geom = ctx.geom
    gamma = geom.ssm_gamma()[:, None]
    g = geom.metric_jet().g
    dg = geom.metric_jet().dg
    lead = bilinear(contract_first(x, dg), y, z)
    vals = (lead - form(g, _nabla_const(gamma, x, y), z)
            - form(g, y, _nabla_const(gamma, x, z)))
    return residual_outcome(vals, ctx.tol.alg)


# ---- connection decomposition items ----
# Item evaluators return the max residual at each sample point (S,); the
# registered checks aggregate them.


class _Decomp:
    """Synthesized lifted test fields and factor geometries for one run."""

    def __init__(self, ctx: RunContext, label: str):
        self.ctx = ctx
        self.ps = ctx.ps
        self.xb = ctx.synth("base", label + ":XB")
        self.yb = ctx.synth("base", label + ":YB")
        self.xi = [ctx.synth(i, f"{label}:X{i}") for i in range(len(self.ps.fibers))]
        self.yi = [ctx.synth(i, f"{label}:Y{i}") for i in range(len(self.ps.fibers))]

    def fiber_pairs(self):
        return list(range(len(self.ps.fibers)))


def _item_base_base(ctx, d: _Decomp, kind: str) -> np.ndarray:
    geom = ctx.geom
    lhs = covariant_derivative(geom, lift(d.xb), lift(d.yb), kind)
    base_geom = ctx.block_geom("base")
    xb, yb = lift(d.xb), lift(d.yb)
    if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
        # base part shifts by -g_B(XB, YB) P when the shift lives on a fiber
        gb = base_geom.metric_jet().g
        sl = ctx.ps.block_slice("base")
        xbv = geom.field_values(lift(d.xb))[:, sl]
        ybv = geom.field_values(lift(d.yb))[:, sl]
        full = (embed(ctx.ps, "base",
                      covariant_derivative(base_geom, xb, yb, LEVI_CIVITA))
                - bilinear(gb, xbv, ybv)[:, None] * geom.p_vector())
    else:
        full = embed(ctx.ps, "base", covariant_derivative(base_geom, xb, yb, kind))
    return point_max(lhs - full)


def _item_mixed(ctx, d: _Decomp, kind: str) -> np.ndarray:
    """nabla_{XB} Yi against the warp-ratio formula (plus fiber-shift term)."""
    geom = ctx.geom
    gaps = []
    xbv = geom.field_values(lift(d.xb))
    for i in d.fiber_pairs():
        lhs = covariant_derivative(geom, lift(d.xb), lift(d.yi[i]), kind)
        wj = geom.warp_jet(i)
        yiv = geom.field_values(lift(d.yi[i]))
        rhs = (dot(xbv, wj.grad) / wj.value)[:, None] * yiv
        if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
            rhs = rhs + geom.pi_of(yiv)[:, None] * xbv
        gaps.append(lhs - rhs)
    return point_max(np.stack(gaps, axis=1))


def _item_mixed_swapped(ctx, d: _Decomp, kind: str) -> np.ndarray:
    """nabla_{Yi} XB against the warp-ratio formula (plus base-shift term)."""
    geom = ctx.geom
    gaps = []
    xbv = geom.field_values(lift(d.xb))
    for i in d.fiber_pairs():
        lhs = covariant_derivative(geom, lift(d.yi[i]), lift(d.xb), kind)
        wj = geom.warp_jet(i)
        yiv = geom.field_values(lift(d.yi[i]))
        coeff = dot(xbv, wj.grad) / wj.value
        if kind == SEMI_SYMMETRIC and shift_on_base(ctx.mf):
            coeff = coeff + geom.pi_of(xbv)
        gaps.append(lhs - coeff[:, None] * yiv)
    return point_max(np.stack(gaps, axis=1))


def _item_cross_fiber(ctx, d: _Decomp, kind: str) -> np.ndarray:
    """nabla_{Xi} Yj for i != j: zero, or pi(Yj) Xi under a fiber shift."""
    geom = ctx.geom
    gaps = []
    for i in d.fiber_pairs():
        for j in d.fiber_pairs():
            if i == j:
                continue
            lhs = covariant_derivative(geom, lift(d.xi[i]), lift(d.yi[j]), kind)
            if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
                yjv = geom.field_values(lift(d.yi[j]))
                lhs = lhs - geom.pi_of(yjv)[:, None] * geom.field_values(lift(d.xi[i]))
            gaps.append(lhs)
    return point_max(np.stack(gaps, axis=1))


def _item_diagonal(ctx, d: _Decomp, kind: str) -> np.ndarray:
    """nabla_{Xi} Yi: fiber connection minus the grad-warp and shift terms."""
    geom = ctx.geom
    gaps = []
    for i in d.fiber_pairs():
        lhs = covariant_derivative(geom, lift(d.xi[i]), lift(d.yi[i]), kind)
        wj = geom.warp_jet(i)
        fgeom = ctx.block_geom(i)
        sl = ctx.ps.block_slice(i)
        xiv = geom.field_values(lift(d.xi[i]))
        yiv = geom.field_values(lift(d.yi[i]))
        gixy = bilinear(fgeom.metric_jet().g, xiv[:, sl], yiv[:, sl])
        nab_i = covariant_derivative(fgeom, lift(d.xi[i]), lift(d.yi[i]),
                                     LEVI_CIVITA)
        grad_warp = matvec(geom.metric_jet().ginv, wj.grad)
        rhs = (-wj.value * gixy)[:, None] * grad_warp + embed(ctx.ps, i, nab_i)
        if kind == SEMI_SYMMETRIC:
            rhs = rhs - (wj.value ** 2 * gixy)[:, None] * geom.p_vector()
            if shift_on_fiber(ctx.mf):
                rhs = rhs + geom.pi_of(yiv)[:, None] * xiv
        gaps.append(lhs - rhs)
    return point_max(np.stack(gaps, axis=1))


def _decomp_check(item_fn, kind: str, label: str):
    def run(ctx: RunContext) -> Outcome:
        return residual_outcome(item_fn(ctx, _Decomp(ctx, label), kind), ctx.tol.alg)

    return run


# ---- Lie-derivative decompositions ----


def _zeta_parts(ctx: RunContext, label: str):
    parts = [ctx.synth("base", label + ":zB")]
    for i in range(len(ctx.ps.fibers)):
        parts.append(ctx.synth(i, f"{label}:z{i}"))
    return parts


def _lie_rhs_base(ctx: RunContext, parts, base_kind: str) -> np.ndarray:
    """The base block's L g on the base block of a zero stack (S, n, n)."""
    n = ctx.ps.total_dim
    rhs = np.zeros((len(ctx.points()), n, n))
    slb = ctx.ps.block_slice("base")
    rhs[:, slb, slb] = ctx.over_samples(lie_matrix, parts[0], "base", kind=base_kind)
    return rhs


def _fiber_terms(ctx: RunContext, parts, i: int):
    """(f_i, zB(f_i), g_i, L g of the i-th fiber part) at each sample point,
    with f_i and zB(f_i) shaped to scale a stack of matrices."""
    wj = ctx.geom.warp_jet(i)
    zbf = dot(ctx.geom.field_values(lift(parts[0])), wj.grad)
    return (wj.value[:, None, None], zbf[:, None, None], ctx.block_geom(i).metric_jet().g,
            ctx.over_samples(lie_matrix, parts[i + 1], i, kind=LEVI_CIVITA))


def _lie_rhs_p_zero(ctx: RunContext, parts) -> np.ndarray:
    """Factor assembly of (L_zeta g) with no connection shift."""
    rhs = _lie_rhs_base(ctx, parts, LEVI_CIVITA)
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        f, zbf, gi, mi = _fiber_terms(ctx, parts, i)
        rhs[:, sl, sl] += f ** 2 * mi + 2.0 * f * zbf * gi
    return rhs


def _lie_rhs_shift_base(ctx: RunContext, parts) -> np.ndarray:
    """Factor assembly of the shifted Lie derivative, base-located P."""
    rhs = _lie_rhs_base(ctx, parts, SEMI_SYMMETRIC)
    slb = ctx.ps.block_slice("base")
    piv = ctx.geom.pi_covector()
    pizb = ctx.geom.pi_of(ctx.geom.field_values(lift(parts[0])))[:, None, None]
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        f, zbf, gi, mi = _fiber_terms(ctx, parts, i)
        ziv = ctx.geom.field_values(lift(parts[i + 1]))[:, sl]
        rhs[:, sl, sl] += f ** 2 * mi + 2.0 * (f * zbf + f ** 2 * pizb) * gi
        gz = f[:, 0] ** 2 * matvec(gi, ziv)
        rhs[:, sl, slb] -= gz[:, :, None] * piv[:, None, slb]
        rhs[:, slb, sl] -= piv[:, slb, None] * gz[:, None, :]
    return rhs


def _lie_rhs_shift_fiber(ctx: RunContext, parts) -> np.ndarray:
    """Factor assembly of the shifted Lie derivative, fiber-located P."""
    rhs = _lie_rhs_base(ctx, parts, LEVI_CIVITA)
    geom = ctx.geom
    g_full = geom.metric_jet().g
    gz_full = matvec(g_full, geom.field_values(ProductField(tuple(parts))))
    piv = geom.pi_covector()
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        f, zbf, gi, mi = _fiber_terms(ctx, parts, i)
        ziv = geom.field_values(lift(parts[i + 1]))
        rhs[:, sl, sl] += f ** 2 * mi + 2.0 * f * zbf * gi
        rhs += 2.0 * geom.pi_of(ziv)[:, None, None] * g_full
        pi_i = np.zeros_like(piv)
        pi_i[:, sl] = piv[:, sl]
        rhs -= gz_full[:, :, None] * pi_i[:, None, :] + pi_i[:, :, None] * gz_full[:, None, :]
    return rhs


def _lie_decomposition_check(rhs_fn, use_shift: bool, label: str):
    def run(ctx: RunContext) -> Outcome:
        parts = _zeta_parts(ctx, label)
        zeta = ProductField(tuple(parts))
        kind = SEMI_SYMMETRIC if use_shift else LEVI_CIVITA
        lhs = ctx.over_samples(lie_matrix, zeta, kind=kind)
        return residual_outcome(point_max(lhs - rhs_fn(ctx, parts)), ctx.tol.two)

    return run


# ---- quadratic-form decompositions ----


def _quad_decomposition_check(shift_location: str, label: str):
    """Eq-19-style diagonal decompositions for each shift location: the
    product quadratic form against the factor forms, 4 test vectors per
    sample point."""

    def run(ctx: RunContext) -> Outcome:
        ps, geom = ctx.ps, ctx.geom
        parts = _zeta_parts(ctx, label)
        zeta = ProductField(tuple(parts))
        x = ctx.rng("quad:" + label).block((len(ctx.points()), 4, ps.total_dim))
        kind = LEVI_CIVITA if shift_location == "none" else SEMI_SYMMETRIC
        base_kind = SEMI_SYMMETRIC if shift_location == "base" else LEVI_CIVITA
        slb = ps.block_slice("base")
        g = geom.metric_jet().g
        piv = geom.pi_covector()
        zbv = geom.field_values(lift(parts[0]))
        gz = matvec(g, geom.field_values(zeta))
        lhs = 0.5 * form(ctx.over_samples(lie_matrix, zeta, kind=kind), x, x)
        xb = x[..., slb]
        rhs = 0.5 * form(ctx.over_samples(lie_matrix, parts[0], "base", kind=base_kind),
                         xb, xb)
        for i, zi in enumerate(parts[1:]):
            sl = ps.block_slice(i)
            xi = x[..., sl]
            wj = geom.warp_jet(i)
            f = wj.value[:, None]
            zbf = matvec(zbv[:, None], wj.grad)
            gi = ctx.block_geom(i).metric_jet().g
            ziv = geom.field_values(lift(zi))
            nxi = form(gi, xi, xi)
            li = ctx.over_samples(lie_matrix, zi, i, kind=LEVI_CIVITA)
            rhs = rhs + f ** 2 * 0.5 * form(li, xi, xi) + f * zbf * nxi
            if shift_location == "base":
                gixz = matvec(xi, matvec(gi, ziv[:, sl]))
                rhs = rhs + (f ** 2 * matvec(zbv[:, None], piv) * nxi
                             - f ** 2 * matvec(xb, piv[:, slb]) * gixz)
            elif shift_location == "fiber":
                rhs = rhs + (matvec(ziv[:, None], piv) * form(g, x, x)
                             - matvec(xi, piv[:, sl]) * matvec(x, gz))
        return residual_outcome(lhs - rhs, ctx.tol.two)

    return run


# ---- second Lie derivative decomposition (Eq 25 shape) ----


def _eq25_check(label: str):
    def run(ctx: RunContext) -> Outcome:
        parts = _zeta_parts(ctx, label)
        zeta = ProductField(tuple(parts))
        slb = ctx.ps.block_slice("base")
        rhs = np.zeros_like(ctx.over_samples(lie_lie_matrix, zeta))
        rhs[:, slb, slb] = ctx.over_samples(lie_lie_matrix, parts[0], "base")
        zbj = ctx.geom.field_jet(lift(parts[0]))
        for i, zi in enumerate(parts[1:]):
            sl = ctx.ps.block_slice(i)
            gi = ctx.block_geom(i).metric_jet().g
            wj = ctx.geom.warp_jet(i)
            f = wj.value[:, None, None]
            zbf, zbzbf = (v[:, None, None] for v in second_directional(zbj, wj))
            rhs[:, sl, sl] += (f ** 2 * ctx.over_samples(lie_lie_matrix, zi, i)
                               + 4.0 * f * zbf * ctx.over_samples(lie_matrix, zi, i,
                                                                  kind=LEVI_CIVITA)
                               + 2.0 * f * zbzbf * gi
                               + 2.0 * zbf ** 2 * gi)
        lhs = ctx.over_samples(lie_lie_matrix, zeta)
        return residual_outcome(point_max(lhs - rhs), SECOND_ORDER_TOL)

    return run


# ---- frame trace decomposition (Eq 27 shape) ----


def _eq27_sides(ctx: RunContext, parts) -> tuple[np.ndarray, np.ndarray]:
    """The product frame trace of (nabla zeta)^2 and its five-term factor
    assembly at each sample point (S,) each."""
    geom, base_geom = ctx.geom, ctx.block_geom("base")
    lhs = trace_nabla(geom, ProductField(tuple(parts)))
    gb = base_geom.metric_jet().g
    zbv = geom.field_values(lift(parts[0]))
    rhs = trace_nabla(base_geom, lift(parts[0]))
    for i, zi in enumerate(parts[1:]):
        fgeom = ctx.block_geom(i)
        gi = fgeom.metric_jet().g
        ziv = geom.field_values(lift(zi))[:, ctx.ps.block_slice(i)]
        wj = geom.warp_jet(i)
        zbf = dot(zbv, wj.grad)
        gradf_b = np.linalg.solve(gb, wj.grad[:, ctx.ps.block_slice("base"), None])[..., 0]
        gf2 = bilinear(gb, gradf_b, gradf_b)
        rhs = rhs + (trace_nabla(fgeom, lift(zi))
                     + 2.0 * bilinear(gi, ziv, ziv) * gf2
                     + gi.shape[-1] / wj.value ** 2 * zbf ** 2
                     + 2.0 * zbf / wj.value * divergence(fgeom, lift(zi)))
    return lhs, rhs


def _eq27_check(label: str):
    def run(ctx: RunContext) -> Outcome:
        try:
            sides = [_eq27_sides(ctx, _zeta_parts(ctx, lb)) for lb in (label, label + "2")]
        except FrameConstructionFailure as err:
            return inconclusive(str(err))
        return residual_outcome([lhs - rhs for lhs, rhs in sides], TRACE_TOL)

    return run


# ---- first/second Lie derivative route agreement ----


def _route_check(label: str, count: int, fn, other, **kw):
    """fn's stack against the stack of the independent route ``other`` on
    a synthesized field and the first declared field combos, ``count``
    fields in all."""

    def run(ctx: RunContext) -> Outcome:
        combos = [ProductField(tuple(_zeta_parts(ctx, label)))]
        combos += list(ctx.field_combos().values())
        vals = [point_max(ctx.over_samples(fn, zeta, **kw) - ctx.over_samples(other, zeta))
                for zeta in combos[:count]]
        return residual_outcome(vals, ctx.tol.two)

    return run


def build() -> list[CheckSpec]:
    specs = [
        CheckSpec("Eq2", "axiom",
                  "torsion of the shifted connection has the two-term form",
                  any_mf, _axiom_torsion),
        CheckSpec("NablaBarG", "axiom",
                  "the shifted connection is metric",
                  any_mf, _axiom_compat),
        CheckSpec("Lemma3.3", "identity",
                  "connection route of the metric Lie derivative matches the "
                  "coordinate route", any_mf,
                  _route_check("route", 8, lie_matrix, lie_matrix_direct,
                               kind=LEVI_CIVITA)),
        CheckSpec("Prop6.2", "identity",
                  "nested-covariant route of the second Lie derivative "
                  "matches the twice-applied coordinate route",
                  any_mf, _route_check("route2", 6, lie_lie_matrix,
                                       lie_lie_matrix_nested)),
    ]

    # connection decomposition items
    items_base = [
        ("1", _item_base_base, "base-tangent arguments reduce to the base connection"),
        ("2", _item_mixed, "mixed base-fiber derivative is the warp ratio"),
        ("3", _item_mixed_swapped, "swapped mixed derivative adds the shift pairing"),
        ("4", _item_cross_fiber, "derivatives across distinct fibers vanish"),
        ("5", _item_diagonal, "fiber-diagonal derivative decomposes"),
    ]
    for suffix, fn, title in items_base:
        applies = base_shift_multi if suffix == "4" else base_shift
        specs.append(CheckSpec(f"Lemma4.1.{suffix}", "identity",
                               title, applies,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L41")))
    # the single-fiber lemma has every item but the cross-fiber one
    for suffix, (_, fn, title) in zip("1234", items_base[:3] + items_base[4:]):
        specs.append(CheckSpec(f"Lemma3.1.{suffix}", "identity",
                               title, warped1_base,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L31")))

    items_fiber = [
        ("1", _item_base_base, "base-tangent arguments shift by the fiber field"),
        ("2", _item_mixed, "mixed derivative adds the shift pairing"),
        ("3", _item_mixed_swapped, "swapped mixed derivative is the warp ratio"),
        ("4a", _item_cross_fiber, "cross-fiber derivative is the shift pairing"),
        ("4b", _item_diagonal, "fiber-diagonal derivative decomposes"),
    ]
    for suffix, fn, title in items_fiber:
        applies = fiber_shift_multi if suffix == "4a" else fiber_shift
        specs.append(CheckSpec(f"Lemma4.2.{suffix}", "identity",
                               title, applies,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L42")))
    for suffix, (_, fn, title) in zip("1234", items_fiber[:3] + items_fiber[4:]):
        specs.append(CheckSpec(f"Lemma3.2.{suffix}", "identity",
                               title, warped1_fiber,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L32")))

    lc_items = [
        ("1", _item_base_base, "torsion-free base-tangent reduction"),
        ("2a", _item_mixed, "torsion-free mixed derivative is the warp ratio"),
        ("2b", _item_mixed_swapped, "torsion-free swapped mixed derivative"),
        ("4a", _item_cross_fiber, "torsion-free cross-fiber derivative vanishes"),
        ("4b", _item_diagonal, "torsion-free fiber-diagonal decomposition"),
    ]
    for suffix, fn, title in lc_items:
        applies = multi_fiber if suffix == "4a" else has_fibers
        specs.append(CheckSpec(f"Lemma6.7.{suffix}", "identity",
                               title, applies, _decomp_check(fn, LEVI_CIVITA, "L67")))

    # Lie decompositions
    specs += [
        CheckSpec("Prop4.3", "identity",
                  "shifted Lie derivative of g decomposes (base shift)",
                  base_shift, _lie_decomposition_check(_lie_rhs_shift_base, True, "E14")),
        CheckSpec("Prop4.4", "identity",
                  "shifted Lie derivative of g decomposes (fiber shift)",
                  fiber_shift, _lie_decomposition_check(_lie_rhs_shift_fiber, True, "E15")),
        CheckSpec("Prop3.13", "identity",
                  "single-fiber shifted Lie decomposition (base shift)",
                  warped1_base, _lie_decomposition_check(_lie_rhs_shift_base, True, "E10")),
        CheckSpec("Prop3.14", "identity",
                  "single-fiber shifted Lie decomposition (fiber shift)",
                  warped1_fiber, _lie_decomposition_check(_lie_rhs_shift_fiber, True, "E11")),
        CheckSpec("Prop5.1", "identity",
                  "Lie derivative of g decomposes with no shift",
                  has_fibers, _lie_decomposition_check(_lie_rhs_p_zero, False, "E18")),
        CheckSpec("Cor4.5", "identity",
                  "quadratic form of the shifted derivative decomposes (base shift)",
                  base_shift, _quad_decomposition_check("base", "E16")),
        CheckSpec("Cor4.6", "identity",
                  "quadratic form of the shifted derivative decomposes (fiber shift)",
                  fiber_shift, _quad_decomposition_check("fiber", "E17")),
        CheckSpec("Cor3.15", "identity",
                  "single-fiber quadratic decomposition (base shift)",
                  warped1_base, _quad_decomposition_check("base", "E12")),
        CheckSpec("Cor3.16", "identity",
                  "single-fiber quadratic decomposition (fiber shift)",
                  warped1_fiber, _quad_decomposition_check("fiber", "E13")),
        CheckSpec("Cor5.2", "identity",
                  "quadratic Lie decomposition with no shift",
                  has_fibers, _quad_decomposition_check("none", "E19")),
        CheckSpec("Prop6.8", "identity",
                  "second Lie derivative of g decomposes",
                  has_fibers, _eq25_check("E25")),
        CheckSpec("Prop6.12", "identity",
                  "frame trace of (nabla zeta)^2 decomposes into five terms",
                  has_fibers, _eq27_check("E27")),
    ]
    return specs
