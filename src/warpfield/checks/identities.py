"""Identity checks: connection decompositions, Lie-derivative
decompositions and the frame-trace formula, each comparing a
product-level computation against an independently assembled
factor-level right-hand side."""

from __future__ import annotations

import numpy as np

from ..connections import (
    LEVI_CIVITA,
    SEMI_SYMMETRIC,
    covariant_derivative,
    divergence,
    nabla_grid,
)
from ..curvature import trace_nabla
from ..fields import ProductField, lift, rehome
from ..lie_killing import (
    form,
    lie_lie_matrix,
    lie_lie_matrix_nested,
    lie_matrix,
    lie_matrix_direct,
    max_abs,
)
from ..suite import CheckSpec, Outcome, RunContext, residual_outcome
from .util import (
    at_points,
    embed,
    lie_stack,
    pair,
    second_directional,
    shift_on_base,
    shift_on_fiber,
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
    return np.einsum("...a,...ak->...k", x, nabla_grid(gamma, y, 0.0))


def _torsion_sides(ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
    """Torsion of the shifted connection on constant test vectors x, y and
    its two-term form pi(y) x - pi(x) y: (points, draws, n) each."""
    x, y = _axiom_draws(ctx, "axiom-torsion", 2)
    gamma = ctx.geom.ssm_gamma()[:, None]
    piv = ctx.geom.pi_covector()
    return (_nabla_const(gamma, x, y) - _nabla_const(gamma, y, x),
            pair(y, piv)[..., None] * x - pair(x, piv)[..., None] * y)


def _axiom_torsion(ctx: RunContext) -> Outcome:
    t, expected = _torsion_sides(ctx)
    return residual_outcome(np.abs(t - expected).max(axis=-1).ravel(), ctx.tol.alg)


def _axiom_compat(ctx: RunContext) -> Outcome:
    """|x(g(y, z)) - g(nabla_x y, z) - g(y, nabla_x z)| for constant y, z."""
    x, y, z = _axiom_draws(ctx, "axiom-compat", 3)
    geom = ctx.geom
    gamma = geom.ssm_gamma()[:, None]
    g = geom.metric().g
    dg = geom.metric_jet().dg
    lead = np.einsum("sdc,scab,sda,sdb->sd", x, dg, y, z)
    vals = (lead - form(g, _nabla_const(gamma, x, y), z)
            - form(g, y, _nabla_const(gamma, x, z)))
    return residual_outcome(np.abs(vals).ravel(), ctx.tol.alg)


# ---- connection decomposition items ----
# Item evaluators return the max residual at one point; the registered
# checks aggregate them over the sample set.


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


def _grad_warp(ctx: RunContext, i: int, p) -> np.ndarray:
    """Product-level index-raised gradient of the i-th warp (base block)."""
    wj = ctx.geom.warp_jet(i, p)
    gm = ctx.geom.metric(p)
    return gm.ginv @ wj.grad


def _item_base_base(ctx, d: _Decomp, p, kind: str) -> float:
    lhs = covariant_derivative(ctx.geom, lift(d.xb), lift(d.yb), p, kind)
    base_geom = ctx.block_geom("base")
    pb = ctx.ps.block_point(p, "base")
    if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
        # base part shifts by -g_B(XB, YB) P when the shift lives on a fiber
        gb = base_geom.metric(pb).g
        sl = ctx.ps.block_slice("base")
        xbv = ctx.geom.field_values(lift(d.xb), p)[sl]
        ybv = ctx.geom.field_values(lift(d.yb), p)[sl]
        full = (embed(ctx.ps, "base",
                      covariant_derivative(base_geom, rehome(d.xb), rehome(d.yb),
                                           pb, LEVI_CIVITA))
                - float(xbv @ gb @ ybv) * ctx.geom.p_vector(p))
    else:
        full = embed(ctx.ps, "base",
                     covariant_derivative(base_geom, rehome(d.xb), rehome(d.yb),
                                          pb, kind))
    return max_abs(lhs - full)


def _item_mixed(ctx, d: _Decomp, p, kind: str) -> float:
    """nabla_{XB} Yi against the warp-ratio formula (plus fiber-shift term)."""
    gaps = []
    xbv = ctx.geom.field_values(lift(d.xb), p)
    for i in d.fiber_pairs():
        lhs = covariant_derivative(ctx.geom, lift(d.xb), lift(d.yi[i]), p, kind)
        wj = ctx.geom.warp_jet(i, p)
        yiv = ctx.geom.field_values(lift(d.yi[i]), p)
        rhs = (float(xbv @ wj.grad) / wj.value) * yiv
        if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
            rhs = rhs + ctx.geom.pi_of(p, yiv) * xbv
        gaps.append(lhs - rhs)
    return max_abs(gaps)


def _item_mixed_swapped(ctx, d: _Decomp, p, kind: str) -> float:
    """nabla_{Yi} XB against the warp-ratio formula (plus base-shift term)."""
    gaps = []
    xbv = ctx.geom.field_values(lift(d.xb), p)
    for i in d.fiber_pairs():
        lhs = covariant_derivative(ctx.geom, lift(d.yi[i]), lift(d.xb), p, kind)
        wj = ctx.geom.warp_jet(i, p)
        yiv = ctx.geom.field_values(lift(d.yi[i]), p)
        coeff = float(xbv @ wj.grad) / wj.value
        if kind == SEMI_SYMMETRIC and shift_on_base(ctx.mf):
            coeff += ctx.geom.pi_of(p, xbv)
        gaps.append(lhs - coeff * yiv)
    return max_abs(gaps)


def _item_cross_fiber(ctx, d: _Decomp, p, kind: str) -> float:
    """nabla_{Xi} Yj for i != j: zero, or pi(Yj) Xi under a fiber shift."""
    gaps = []
    for i in d.fiber_pairs():
        for j in d.fiber_pairs():
            if i == j:
                continue
            lhs = covariant_derivative(ctx.geom, lift(d.xi[i]), lift(d.yi[j]), p, kind)
            rhs = np.zeros(ctx.ps.total_dim)
            if kind == SEMI_SYMMETRIC and shift_on_fiber(ctx.mf):
                yjv = ctx.geom.field_values(lift(d.yi[j]), p)
                xiv = ctx.geom.field_values(lift(d.xi[i]), p)
                rhs = ctx.geom.pi_of(p, yjv) * xiv
            gaps.append(lhs - rhs)
    return max_abs(gaps)


def _item_diagonal(ctx, d: _Decomp, p, kind: str) -> float:
    """nabla_{Xi} Yi: fiber connection minus the grad-warp and shift terms."""
    gaps = []
    for i in d.fiber_pairs():
        lhs = covariant_derivative(ctx.geom, lift(d.xi[i]), lift(d.yi[i]), p, kind)
        wj = ctx.geom.warp_jet(i, p)
        pi_ = ctx.ps.block_point(p, i)
        fgeom = ctx.block_geom(i)
        gi = fgeom.metric(pi_).g
        sl = ctx.ps.block_slice(i)
        xiv = ctx.geom.field_values(lift(d.xi[i]), p)
        yiv = ctx.geom.field_values(lift(d.yi[i]), p)
        gixy = float(xiv[sl] @ gi @ yiv[sl])
        nab_i = covariant_derivative(fgeom, rehome(d.xi[i]), rehome(d.yi[i]),
                                     pi_, LEVI_CIVITA)
        rhs = -wj.value * gixy * _grad_warp(ctx, i, p) + embed(ctx.ps, i, nab_i)
        if kind == SEMI_SYMMETRIC:
            rhs = rhs - wj.value ** 2 * gixy * ctx.geom.p_vector(p)
            if shift_on_fiber(ctx.mf):
                rhs = rhs + ctx.geom.pi_of(p, yiv) * xiv
        gaps.append(lhs - rhs)
    return max_abs(gaps)


def _decomp_check(item_fn, kind: str, label: str):
    def run(ctx: RunContext) -> Outcome:
        d = _Decomp(ctx, label)
        return residual_outcome([item_fn(ctx, d, p, kind) for p in ctx.points()],
                                ctx.tol.alg)

    return run


# ---- Lie-derivative decompositions ----


def _zeta_parts(ctx: RunContext, label: str):
    parts = [ctx.synth("base", label + ":zB")]
    for i in range(len(ctx.ps.fibers)):
        parts.append(ctx.synth(i, f"{label}:z{i}"))
    return parts


def _factor_lie_matrices(ctx: RunContext, parts, k: int, base_kind: str):
    """Base and fiber Lie-derivative matrices of the lifted parts at the
    k-th sample point."""
    mb = ctx.over_samples(lie_matrix, parts[0], "base", kind=base_kind)[k]
    mi = [ctx.over_samples(lie_matrix, z, i, kind=LEVI_CIVITA)[k]
          for i, z in enumerate(parts[1:])]
    return mb, mi


def _lie_rhs_p_zero(ctx: RunContext, parts, k: int) -> np.ndarray:
    """Factor assembly of (L_zeta g) with no connection shift."""
    p = ctx.points()[k]
    n = ctx.ps.total_dim
    rhs = np.zeros((n, n))
    mb, mi = _factor_lie_matrices(ctx, parts, k, LEVI_CIVITA)
    slb = ctx.ps.block_slice("base")
    rhs[slb, slb] = mb
    zbv = ctx.geom.field_values(lift(parts[0]), p)
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        wj = ctx.geom.warp_jet(i, p)
        gi = ctx.block_geom(i).metric(ctx.ps.block_point(p, i)).g
        zbf = float(zbv @ wj.grad)
        rhs[sl, sl] += wj.value ** 2 * mi[i] + 2.0 * wj.value * zbf * gi
    return rhs


def _lie_rhs_shift_base(ctx: RunContext, parts, k: int) -> np.ndarray:
    """Factor assembly of the shifted Lie derivative, base-located P."""
    p = ctx.points()[k]
    n = ctx.ps.total_dim
    rhs = np.zeros((n, n))
    mb, mi = _factor_lie_matrices(ctx, parts, k, SEMI_SYMMETRIC)
    slb = ctx.ps.block_slice("base")
    rhs[slb, slb] = mb
    piv = ctx.geom.pi_covector(p)
    zbv = ctx.geom.field_values(lift(parts[0]), p)
    pizb = float(zbv @ piv)
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        wj = ctx.geom.warp_jet(i, p)
        gi = ctx.block_geom(i).metric(ctx.ps.block_point(p, i)).g
        ziv = ctx.geom.field_values(lift(parts[i + 1]), p)[sl]
        zbf = float(zbv @ wj.grad)
        rhs[sl, sl] += (wj.value ** 2 * mi[i]
                        + 2.0 * (wj.value * zbf + wj.value ** 2 * pizb) * gi)
        gz = wj.value ** 2 * (gi @ ziv)
        rhs[sl, slb] -= np.outer(gz, piv[slb])
        rhs[slb, sl] -= np.outer(piv[slb], gz)
    return rhs


def _lie_rhs_shift_fiber(ctx: RunContext, parts, k: int) -> np.ndarray:
    """Factor assembly of the shifted Lie derivative, fiber-located P."""
    p = ctx.points()[k]
    n = ctx.ps.total_dim
    rhs = np.zeros((n, n))
    mb, mi = _factor_lie_matrices(ctx, parts, k, LEVI_CIVITA)
    slb = ctx.ps.block_slice("base")
    rhs[slb, slb] = mb
    g_full = ctx.geom.metric(p).g
    zeta = ProductField(tuple(parts))
    z_full = ctx.geom.field_values(zeta, p)
    gz_full = g_full @ z_full
    piv = ctx.geom.pi_covector(p)
    zbv = ctx.geom.field_values(lift(parts[0]), p)
    for i in range(len(ctx.ps.fibers)):
        sl = ctx.ps.block_slice(i)
        wj = ctx.geom.warp_jet(i, p)
        gi = ctx.block_geom(i).metric(ctx.ps.block_point(p, i)).g
        ziv = ctx.geom.field_values(lift(parts[i + 1]), p)
        zbf = float(zbv @ wj.grad)
        rhs[sl, sl] += wj.value ** 2 * mi[i] + 2.0 * wj.value * zbf * gi
        rhs += 2.0 * ctx.geom.pi_of(p, ziv) * g_full
        pi_i = np.zeros(n)
        pi_i[sl] = piv[sl]
        rhs -= np.outer(gz_full, pi_i) + np.outer(pi_i, gz_full)
    return rhs


def _lie_decomposition_check(rhs_fn, use_shift: bool, label: str):
    def run(ctx: RunContext) -> Outcome:
        parts = _zeta_parts(ctx, label)
        zeta = ProductField(tuple(parts))
        kind = SEMI_SYMMETRIC if use_shift else LEVI_CIVITA
        lhs = ctx.over_samples(lie_matrix, zeta, kind=kind)
        vals = [max_abs(m - rhs_fn(ctx, parts, k)) for k, m in enumerate(lhs)]
        return residual_outcome(vals, ctx.tol.two)

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
        g = geom.metric().g
        piv = geom.pi_covector()
        zbv = geom.field_values(lift(parts[0]))
        gz = np.einsum("sab,sb->sa", g, geom.field_values(zeta))
        lhs = 0.5 * form(lie_stack(ctx, zeta, kind=kind), x, x)
        xb = x[..., slb]
        rhs = 0.5 * form(lie_stack(ctx, parts[0], "base", kind=base_kind), xb, xb)
        for i, zi in enumerate(parts[1:]):
            sl = ps.block_slice(i)
            xi = x[..., sl]
            f = at_points(ctx, lambda p: geom.warp_jet(i, p).value)[:, None]
            zbf = pair(zbv[:, None], at_points(ctx, lambda p: geom.warp_jet(i, p).grad))
            gi = ctx.block_geom(i).metric().g
            ziv = geom.field_values(lift(zi))
            nxi = form(gi, xi, xi)
            rhs = rhs + f ** 2 * 0.5 * form(lie_stack(ctx, zi, i), xi, xi) + f * zbf * nxi
            if shift_location == "base":
                gixz = pair(xi, np.einsum("sab,sb->sa", gi, ziv[:, sl]))
                rhs = rhs + (f ** 2 * pair(zbv[:, None], piv) * nxi
                             - f ** 2 * pair(xb, piv[:, slb]) * gixz)
            elif shift_location == "fiber":
                rhs = rhs + (pair(ziv[:, None], piv) * form(g, x, x)
                             - pair(xi, piv[:, sl]) * pair(x, gz))
        return residual_outcome(np.abs(lhs - rhs).ravel(), ctx.tol.two)

    return run


# ---- second Lie derivative decomposition (Eq 25 shape) ----


def _eq25_check(label: str):
    def run(ctx: RunContext) -> Outcome:
        parts = _zeta_parts(ctx, label)
        zeta = ProductField(tuple(parts))
        n = ctx.ps.total_dim
        lli = [ctx.over_samples(lie_lie_matrix, z, i) for i, z in enumerate(parts[1:])]
        li = [ctx.over_samples(lie_matrix, z, i, kind=LEVI_CIVITA)
              for i, z in enumerate(parts[1:])]
        vals = []
        for k, (p, lhs, llb) in enumerate(zip(
                ctx.points(), ctx.over_samples(lie_lie_matrix, zeta),
                ctx.over_samples(lie_lie_matrix, parts[0], "base"))):
            rhs = np.zeros((n, n))
            rhs[ctx.ps.block_slice("base"), ctx.ps.block_slice("base")] = llb
            zbj = ctx.geom.field_jet(lift(parts[0]), p)
            for i in range(len(ctx.ps.fibers)):
                sl = ctx.ps.block_slice(i)
                gi = ctx.block_geom(i).metric(ctx.ps.block_point(p, i)).g
                wj = ctx.geom.warp_jet(i, p)
                zbf, zbzbf = second_directional(zbj, wj)
                rhs[sl, sl] += (wj.value ** 2 * lli[i][k]
                                + 4.0 * wj.value * zbf * li[i][k]
                                + 2.0 * wj.value * zbzbf * gi
                                + 2.0 * zbf ** 2 * gi)
            vals.append(max_abs(lhs - rhs))
        return residual_outcome(vals, ctx.tol.second_order)

    return run


# ---- frame trace decomposition (Eq 27 shape) ----


def _eq27_check(label: str):
    def run(ctx: RunContext) -> Outcome:
        base_geom = ctx.block_geom("base")
        vals = []
        combos = [_zeta_parts(ctx, label), _zeta_parts(ctx, label + "2")]
        for parts in combos:
            zeta = ProductField(tuple(parts))
            for p in ctx.points():
                lhs = trace_nabla(ctx.geom, zeta, p)
                pb = ctx.ps.block_point(p, "base")
                rhs = trace_nabla(base_geom, rehome(parts[0]), pb)
                gb = base_geom.metric(pb).g
                zbj = ctx.geom.field_jet(lift(parts[0]), p)
                for i in range(len(ctx.ps.fibers)):
                    pi_ = ctx.ps.block_point(p, i)
                    fgeom = ctx.block_geom(i)
                    gi = fgeom.metric(pi_).g
                    sl = ctx.ps.block_slice(i)
                    ziv = ctx.geom.field_values(lift(parts[i + 1]), p)[sl]
                    wj = ctx.geom.warp_jet(i, p)
                    zbf = float(zbj.val @ wj.grad)
                    gradf_b = np.linalg.solve(gb, wj.grad[ctx.ps.block_slice("base")])
                    gf2 = float(gradf_b @ gb @ gradf_b)
                    ni = gi.shape[0]
                    rhs += (trace_nabla(fgeom, rehome(parts[i + 1]), pi_)
                            + 2.0 * float(ziv @ gi @ ziv) * gf2
                            + ni / wj.value ** 2 * zbf ** 2
                            + 2.0 * zbf / wj.value
                            * divergence(fgeom, rehome(parts[i + 1]), pi_))
                vals.append(abs(lhs - rhs))
        return residual_outcome(vals, ctx.tol.trace)

    return run


# ---- first/second Lie derivative route agreement ----


def _route_check(label: str, count: int, fn, other, **kw):
    """fn against the independent route ``other`` on a synthesized field
    and the first declared field combos, ``count`` fields in all."""

    def run(ctx: RunContext) -> Outcome:
        combos = [ProductField(tuple(_zeta_parts(ctx, label)))]
        combos += list(ctx.field_combos().values())
        vals = []
        for zeta in combos[:count]:
            vals.extend(max_abs(a - b) for a, b in zip(ctx.over_samples(fn, zeta, **kw),
                                                       ctx.over_samples(other, zeta)))
        return residual_outcome(vals, ctx.tol.two)

    return run


def build() -> list[CheckSpec]:
    any_mf = lambda mf: True
    specs = [
        CheckSpec("Eq2", "Eq2", "2", "axiom",
                  "torsion of the shifted connection has the two-term form",
                  any_mf, _axiom_torsion),
        CheckSpec("NablaBarG", "NablaBarG", "2", "axiom",
                  "the shifted connection is metric",
                  any_mf, _axiom_compat),
        CheckSpec("Lemma3.3", "Lemma3.3", "3", "identity",
                  "connection route of the metric Lie derivative matches the "
                  "coordinate route", any_mf,
                  _route_check("route", 8, lie_matrix, lie_matrix_direct,
                               kind=LEVI_CIVITA)),
        CheckSpec("Prop6.2", "Prop6.2", "6", "identity",
                  "nested-covariant route of the second Lie derivative "
                  "matches the twice-applied coordinate route",
                  any_mf, _route_check("route2", 6, lie_lie_matrix,
                                       lie_lie_matrix_nested)),
    ]

    # connection decomposition items
    has_fibers = lambda mf: mf.fiber_count >= 1
    multi_fiber = lambda mf: mf.fiber_count >= 2
    base_shift = lambda mf: has_fibers(mf) and shift_on_base(mf)
    fiber_shift = lambda mf: has_fibers(mf) and shift_on_fiber(mf)
    base_shift_multi = lambda mf: multi_fiber(mf) and shift_on_base(mf)
    fiber_shift_multi = lambda mf: multi_fiber(mf) and shift_on_fiber(mf)
    warped1_base = lambda mf: mf.fiber_count == 1 and shift_on_base(mf)
    warped1_fiber = lambda mf: mf.fiber_count == 1 and shift_on_fiber(mf)

    items_base = [
        ("1", _item_base_base, "base-tangent arguments reduce to the base connection"),
        ("2", _item_mixed, "mixed base-fiber derivative is the warp ratio"),
        ("3", _item_mixed_swapped, "swapped mixed derivative adds the shift pairing"),
        ("4", _item_cross_fiber, "derivatives across distinct fibers vanish"),
        ("5", _item_diagonal, "fiber-diagonal derivative decomposes"),
    ]
    for suffix, fn, title in items_base:
        applies = base_shift_multi if suffix == "4" else base_shift
        specs.append(CheckSpec(f"Lemma4.1.{suffix}", "Lemma4.1", "4", "identity",
                               title, applies,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L41")))
    for suffix, fn, title in [
        ("1", _item_base_base, items_base[0][2]),
        ("2", _item_mixed, items_base[1][2]),
        ("3", _item_mixed_swapped, items_base[2][2]),
        ("4", _item_diagonal, items_base[4][2]),
    ]:
        specs.append(CheckSpec(f"Lemma3.1.{suffix}", "Lemma3.1", "3", "identity",
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
        specs.append(CheckSpec(f"Lemma4.2.{suffix}", "Lemma4.2", "4", "identity",
                               title, applies,
                               _decomp_check(fn, SEMI_SYMMETRIC, "L42")))
    for suffix, fn, title in [
        ("1", _item_base_base, items_fiber[0][2]),
        ("2", _item_mixed, items_fiber[1][2]),
        ("3", _item_mixed_swapped, items_fiber[2][2]),
        ("4", _item_diagonal, items_fiber[4][2]),
    ]:
        specs.append(CheckSpec(f"Lemma3.2.{suffix}", "Lemma3.2", "3", "identity",
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
        specs.append(CheckSpec(f"Lemma6.7.{suffix}", "Lemma6.7", "6", "identity",
                               title, applies, _decomp_check(fn, LEVI_CIVITA, "L67")))

    # Lie decompositions
    specs += [
        CheckSpec("Prop4.3", "Prop4.3", "4", "identity",
                  "shifted Lie derivative of g decomposes (base shift)",
                  base_shift, _lie_decomposition_check(_lie_rhs_shift_base, True, "E14")),
        CheckSpec("Prop4.4", "Prop4.4", "4", "identity",
                  "shifted Lie derivative of g decomposes (fiber shift)",
                  fiber_shift, _lie_decomposition_check(_lie_rhs_shift_fiber, True, "E15")),
        CheckSpec("Prop3.13", "Prop3.13", "3", "identity",
                  "single-fiber shifted Lie decomposition (base shift)",
                  warped1_base, _lie_decomposition_check(_lie_rhs_shift_base, True, "E10")),
        CheckSpec("Prop3.14", "Prop3.14", "3", "identity",
                  "single-fiber shifted Lie decomposition (fiber shift)",
                  warped1_fiber, _lie_decomposition_check(_lie_rhs_shift_fiber, True, "E11")),
        CheckSpec("Prop5.1", "Prop5.1", "5", "identity",
                  "Lie derivative of g decomposes with no shift",
                  has_fibers, _lie_decomposition_check(_lie_rhs_p_zero, False, "E18")),
        CheckSpec("Cor4.5", "Cor4.5", "4", "identity",
                  "quadratic form of the shifted derivative decomposes (base shift)",
                  base_shift, _quad_decomposition_check("base", "E16")),
        CheckSpec("Cor4.6", "Cor4.6", "4", "identity",
                  "quadratic form of the shifted derivative decomposes (fiber shift)",
                  fiber_shift, _quad_decomposition_check("fiber", "E17")),
        CheckSpec("Cor3.15", "Cor3.15", "3", "identity",
                  "single-fiber quadratic decomposition (base shift)",
                  warped1_base, _quad_decomposition_check("base", "E12")),
        CheckSpec("Cor3.16", "Cor3.16", "3", "identity",
                  "single-fiber quadratic decomposition (fiber shift)",
                  warped1_fiber, _quad_decomposition_check("fiber", "E13")),
        CheckSpec("Cor5.2", "Cor5.2", "5", "identity",
                  "quadratic Lie decomposition with no shift",
                  has_fibers, _quad_decomposition_check("none", "E19")),
        CheckSpec("Prop6.8", "Prop6.8", "6", "identity",
                  "second Lie derivative of g decomposes",
                  has_fibers, _eq25_check("E25")),
        CheckSpec("Prop6.12", "Prop6.12", "6", "identity",
                  "frame trace of (nabla zeta)^2 decomposes into five terms",
                  has_fibers, _eq27_check("E27")),
    ]
    return specs
