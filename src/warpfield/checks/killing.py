"""Killing-type checks: definitional properties, quadratic-form
equivalences, and the sufficiency / necessity statements for products
with and without a connection shift.

Statements quantified over arbitrary test vectors whose side conditions
constrain those vectors are checked over the constrained cone (random
vectors projected onto the condition set); the restriction is recorded
in the result note.  An instance is admitted only when its hypothesis
residuals sit below the hypothesis gate, except for the designated
witness checks, which track the conclusion on negative-control
manifests as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..connections import LEVI_CIVITA, SEMI_SYMMETRIC, bilinear, dot, matvec
from ..fieldexpr import num, pretty
from ..fields import ProductField, VectorFieldDef, lift
from ..lie_killing import form, lie_matrix, max_abs, nabla_quads, point_max
from ..spacetimes import GRW, STANDARD_STATIC, SpacetimeSpec, build_spacetime
from ..suite import (
    FAIL,
    HYP_TOL,
    PASS,
    SYM_TOL,
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
    factor_fields,
    fiber_shift,
    fiber_shift_multi,
    has_fibers,
    multi_fiber,
    part_sums,
    project_out,
    shift_on_base,
    shift_on_fiber,
    timelike_line,
    warp_dir_max,
    warped1_base,
    warped1_fiber,
)

# ---- factor-level residual helpers ----


def _pi_of_field(ctx: RunContext, vfd: VectorFieldDef):
    """pi(zeta) at each sample point."""
    return ctx.geom.pi_of(ctx.geom.field_values(lift(vfd)))


def _pi_hyp(ctx: RunContext, vfd: VectorFieldDef) -> float:
    """max over points of |pi(zeta)|."""
    return max_abs(_pi_of_field(ctx, vfd))


def _fiber_rows(ctx: RunContext, i: int, against: VectorFieldDef):
    """(g_i, the fiber-i values of a fiber-i field) at each sample point:
    the stacks a projection orthogonal to that field reads its rows from."""
    return (ctx.block_geom(i).metric_jet().g,
            ctx.geom.field_values(lift(against))[:, ctx.ps.block_slice(i)])


def _kept(xs: np.ndarray, keep: np.ndarray):
    """(sample rows, vectors) of the kept draws of a stack xs (S, ..., n)
    whose leading axis runs over the sample rows, in C order."""
    return np.nonzero(keep)[0], xs[keep]


# ---- definitional and equivalence checks ----


def _def_killing(ctx: RunContext) -> Outcome:
    """Symmetry and linearity in the field of the metric Lie derivative."""
    vals = []
    for zeta in list(ctx.field_combos().values())[:6]:
        m = ctx.over_samples(lie_matrix, zeta, kind=LEVI_CIVITA)
        m_scaled = ctx.over_samples(lie_matrix, zeta.scaled(2.5), kind=LEVI_CIVITA)
        vals.append(np.stack([point_max(m - np.swapaxes(m, 1, 2)),
                              point_max(m_scaled - 2.5 * m)], axis=1))
    if not vals:
        return inconclusive("no fields declared")
    return residual_outcome(vals, SYM_TOL * 100,
                            note="symmetry and field-linearity of the derivative")


def _def_ssm_lie(ctx: RunContext) -> Outcome:
    """Shifted Lie derivative equals the unshifted one plus pairing terms."""
    geom = ctx.geom
    g = geom.metric_jet().g
    piv = geom.pi_covector()
    vals = []
    for zeta in list(ctx.field_combos().values())[:6]:
        m_bar = ctx.over_samples(lie_matrix, zeta, kind=SEMI_SYMMETRIC)
        m = ctx.over_samples(lie_matrix, zeta, kind=LEVI_CIVITA)
        zv = geom.field_values(zeta)
        pizeta = dot(zv, piv)[:, None, None]
        gz = matvec(g, zv)
        expected = (m + 2.0 * pizeta * g
                    - gz[:, :, None] * piv[:, None, :] - piv[:, :, None] * gz[:, None, :])
        vals.append(point_max(m_bar - expected))
    if not vals:
        return inconclusive("no fields declared")
    return residual_outcome(vals, ctx.tol.alg)


def _non_finite(ctx: RunContext) -> Outcome:
    """A verdict-agreement check whose verdicts rest on a NaN or infinite
    residual: two non-finite verdicts never count as agreeing."""
    return residual_outcome([math.nan], 0.0, samples=len(ctx.points()),
                            note="non-finite residual behind a verdict")


def _verdict_pairs(ctx: RunContext, label: str,
                   kind: str) -> list[tuple[bool, bool]] | None:
    """Per field combo, the basis-pair Killing verdict and the verdict of
    the quadratic form over 8 random test vectors per point; None when a
    residual behind a verdict is not finite."""
    combos = list(ctx.field_combos().values())
    xs = ctx.rng(label).block((len(combos), len(ctx.points()), 8, ctx.ps.total_dim))
    residuals = []
    for zeta, x in zip(combos, xs):
        ms = ctx.over_samples(lie_matrix, zeta, kind=kind)
        residuals.append((max_abs(ms), max_abs(0.5 * form(ms, x, x))))
    if not np.isfinite(residuals).all():
        return None
    return [(bil <= ctx.tol.alg, quad <= ctx.tol.alg) for bil, quad in residuals]


def _def_ssm_killing(ctx: RunContext) -> Outcome:
    """Basis-pair verdict agrees with the random-vector quadratic verdict."""
    pairs = _verdict_pairs(ctx, "def36", SEMI_SYMMETRIC)
    if pairs is None:
        return _non_finite(ctx)
    if not pairs:
        return inconclusive("no fields declared")
    mismatches = sum(bil != quad for bil, quad in pairs)
    return residual_outcome([mismatches], 0.0, samples=len(pairs) * len(ctx.points()) * 8,
                            note="verdict agreement between bilinear and quadratic forms")


def _quad_equivalence(kind: str, label: str):
    def run(ctx: RunContext) -> Outcome:
        pairs = _verdict_pairs(ctx, label, kind)
        if pairs is None:
            return _non_finite(ctx)
        mismatches = sum(bil != quad for bil, quad in pairs)
        both_pass = sum(bil and quad for bil, quad in pairs)
        both_fail = len(pairs) - mismatches - both_pass
        if both_pass == 0 or both_fail == 0:
            return inconclusive("need fields on both sides of the verdict")
        return Outcome(PASS if mismatches == 0 else FAIL,
                       max_abs=float(mismatches), mean_abs=0.0,
                       samples=len(pairs) * len(ctx.points()) * 8, tolerance=0.0,
                       note=f"{both_pass} vanish, {both_fail} do not; verdicts agree")

    return run


def _pairing_gaps(ctx: RunContext, zeta, x: np.ndarray) -> np.ndarray:
    """pi(zeta) g(x, x) - pi(x) g(x, zeta) at each sample point for its
    test vectors x (points, draws, n)."""
    g = ctx.geom.metric_jet().g
    piv = ctx.geom.pi_covector()
    zv = ctx.geom.field_values(zeta)
    gz = matvec(g, zv)
    return (np.sum(zv * piv, axis=-1)[:, None] * form(g, x, x)
            - matvec(x, piv) * matvec(x, gz))


def _remark_sides(ctx: RunContext) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per field combo (the first 6), the shifted quadratic form and its
    expansion at each sample point for 4 test vectors: (points, 4) each."""
    combos = list(ctx.field_combos().values())[:6]
    xs = ctx.rng("remark39").block((len(combos), len(ctx.points()), 4, ctx.ps.total_dim))
    return [(0.5 * form(ctx.over_samples(lie_matrix, zeta, kind=SEMI_SYMMETRIC), x, x),
             0.5 * form(ctx.over_samples(lie_matrix, zeta, kind=LEVI_CIVITA), x, x)
             + _pairing_gaps(ctx, zeta, x))
            for zeta, x in zip(combos, xs)]


def _remark_expansion(ctx: RunContext) -> Outcome:
    """Quadratic form of the shifted derivative expands into pairing terms."""
    return residual_outcome([lhs - rhs for lhs, rhs in _remark_sides(ctx)], ctx.tol.alg)


def _premise_gaps(ctx: RunContext) -> list[np.ndarray]:
    """Per field combo, the pairing premise of Prop 3.10 at each sample
    point for 8 test vectors: (points, 8)."""
    combos = list(ctx.field_combos().values())
    xs = ctx.rng("prop310").block((len(combos), len(ctx.points()), 8, ctx.ps.total_dim))
    return [_pairing_gaps(ctx, zeta, x) for zeta, x in zip(combos, xs)]


def _prop_equivalence(ctx: RunContext) -> Outcome:
    """When the pairing premise holds, the two Killing notions agree."""
    admitted = 0
    mismatches = 0
    agree_pass = 0
    agree_fail = 0
    for zeta, gaps in zip(ctx.field_combos().values(), _premise_gaps(ctx)):
        if not max_abs(gaps) <= HYP_TOL:
            continue
        admitted += 1
        residuals = (ctx.sample_max(lie_matrix, zeta, kind=LEVI_CIVITA),
                     ctx.sample_max(lie_matrix, zeta, kind=SEMI_SYMMETRIC))
        if not np.isfinite(residuals).all():
            return _non_finite(ctx)
        k, s = (r <= ctx.tol.alg for r in residuals)
        if k != s:
            mismatches += 1
        elif k:
            agree_pass += 1
        else:
            agree_fail += 1
    if admitted == 0:
        return inconclusive("no field satisfies the pairing premise")
    return Outcome(PASS if mismatches == 0 else FAIL,
                   max_abs=float(mismatches), mean_abs=0.0,
                   samples=admitted * len(ctx.points()) * 8,
                   tolerance=0.0,
                   note=f"premise held for {admitted} fields "
                        f"({agree_pass} both vanish, {agree_fail} both fail)")


def _remark_zero_shift(ctx: RunContext) -> Outcome:
    """With no shift the two derivative routes coincide exactly."""
    vals = [point_max(ctx.over_samples(lie_matrix, zeta, kind=SEMI_SYMMETRIC)
                       - ctx.over_samples(lie_matrix, zeta, kind=LEVI_CIVITA))
            for zeta in list(ctx.field_combos().values())[:6]]
    if not vals:
        return inconclusive("no fields declared")
    return residual_outcome(vals, 1e-15,
                            note="exact coincidence at zero shift")


def _example_interval(ctx: RunContext) -> Outcome:
    """Constant-coefficient fields are the interval's Killing fields."""
    good = ctx.named_field("zeta_a")
    bad = ctx.named_field("zeta_lin")
    good_k, bad_k = (ctx.sample_max(lie_matrix, z, kind=LEVI_CIVITA)
                     for z in (good, bad))
    good_s, bad_s = (ctx.sample_max(lie_matrix, z, kind=SEMI_SYMMETRIC)
                     for z in (good, bad))
    ok = (good_k <= ctx.tol.alg and good_s <= ctx.tol.alg
          and abs(bad_k - 2.0) <= ctx.tol.alg and abs(bad_s - 2.0) <= ctx.tol.alg)
    return Outcome(PASS if ok else FAIL,
                   max_abs=max_abs([good_k, good_s]), mean_abs=0.5 * (good_k + good_s),
                   samples=len(ctx.points()), tolerance=ctx.tol.alg,
                   note=f"linear field residual {bad_k:.3g} (expected 2)")


# ---- sufficiency / necessity machinery ----


@dataclass(frozen=True)
class SuffInstance:
    """One candidate: field combo, hypothesis residuals, test-vector cone."""

    name: str
    zeta: ProductField
    hyp: float
    cone: object = None  # callable rng -> (sample rows, vectors)
    restrict_blocks: list | None = None


def _conclusion_residuals(ctx: RunContext, inst: SuffInstance, kind) -> np.ndarray:
    """Shifted/unshifted Killing residuals over the instance's cone."""
    if inst.cone is None:
        ms = ctx.over_samples(lie_matrix, inst.zeta, kind=kind)
        if inst.restrict_blocks is None:
            return point_max(ms)
        idx = np.concatenate([np.arange(ctx.ps.block_slice(b).start,
                                        ctx.ps.block_slice(b).stop)
                              for b in inst.restrict_blocks])
        return point_max(ms[:, idx][:, :, idx])
    ks, xs = inst.cone(ctx.rng("cone:" + inst.name))
    return np.abs(nabla_quads(ctx.geom, inst.zeta, ks, xs, kind))


def _sufficiency_outcome(ctx: RunContext, instances: list[SuffInstance],
                         kind, tol, note: str) -> Outcome:
    admitted = [i for i in instances if i.hyp <= HYP_TOL]
    if not admitted:
        return inconclusive("no instance satisfies the hypotheses")
    vals = [_conclusion_residuals(ctx, inst, kind) for inst in admitted]
    return residual_outcome(vals, tol,
                            note=note + f"; {len(admitted)} instance(s)")


def _orth_cone(ctx: RunContext, against: dict[int, VectorFieldDef],
               zero_blocks=()):
    """6 random full vectors per sample row, one block of draws, with
    fiber parts projected orthogonal to fields; a draw whose field is null
    at its row keeps no vector."""
    cols = [c for b in ["base", *range(ctx.mf.fiber_count)] if b not in zero_blocks
            for c in range(ctx.ps.total_dim)[ctx.ps.block_slice(b)]]
    rows = {i: _fiber_rows(ctx, i, z) for i, z in against.items() if i not in zero_blocks}

    def cone(rng):
        x = np.zeros((len(ctx.points()), 6, ctx.ps.total_dim))
        x[..., cols] = rng.block(x.shape[:-1] + (len(cols),))
        keep = np.ones(x.shape[:-1], dtype=bool)
        for i, (g, z) in rows.items():
            sl = ctx.ps.block_slice(i)
            x[..., sl], null = project_out(g[:, None], x[..., sl], z[:, None])
            keep &= ~null
        return _kept(x, keep)

    return cone


def _pure_cone(ctx: RunContext, zeta_r: VectorFieldDef | None = None):
    """6 block-pure random vectors per sample row, each the first of 12
    attempts on the condition cone: given a field zeta_r of the shift fiber
    r, a vector x of r must meet |pi(zeta_r) g_r(x, x) - pi(x) g_r(x,
    zeta_r)| <= HYP_TOL.  An attempt is one row of uniforms: column 0 picks
    the block, the block's columns give the entries.  A draw with no
    attempt on the cone keeps no vector."""
    blocks = ["base", *range(ctx.mf.fiber_count)]
    if zeta_r is not None:
        r = ctx.mf.torsion.location
        rs = ctx.ps.block_slice(r)
        g, z = (a[:, None, None] for a in _fiber_rows(ctx, r, zeta_r))
        piv = ctx.geom.pi_covector()[:, None, None, rs]
        pizr = _pi_of_field(ctx, zeta_r)[:, None, None]

    def cone(rng):
        u = rng.uniforms((len(ctx.points()), 6, 12, 1 + ctx.ps.total_dim))
        pick = np.floor(u[..., 0] * len(blocks))
        x = np.zeros(u[..., 1:].shape)
        for b, block in enumerate(blocks):
            sl = ctx.ps.block_slice(block)
            x[..., sl] = np.where((pick == b)[..., None], -1.0 + 2.0 * u[..., 1:][..., sl], 0.0)
        on = np.ones(pick.shape, dtype=bool)
        if zeta_r is not None:
            xr = x[..., rs]
            gap = pizr * bilinear(g, xr, xr) - dot(xr, piv) * bilinear(g, xr, z)
            on = (pick != blocks.index(r)) | (np.abs(gap) <= HYP_TOL)
        first = np.argmax(on, axis=-1)[..., None, None]
        return _kept(np.take_along_axis(x, first, axis=2)[..., 0, :], on.any(axis=-1))

    return cone


# ---- the five instance shapes of the sufficiency statements ----


def _base_shift_coefficient(ctx: RunContext, zeta_b: VectorFieldDef, i: int) -> float:
    """max over points of |f_i zeta_B(f_i) + f_i^2 pi(zeta_B)|."""
    wj = ctx.geom.warp_jet(i)
    zbf = dot(ctx.geom.field_values(lift(zeta_b)), wj.grad)
    return max_abs(wj.value * zbf + wj.value ** 2 * _pi_of_field(ctx, zeta_b))


def _isometries(ctx: RunContext, base_kind: str):
    """The declared base fields whose ``lie_matrix`` of ``base_kind``
    vanishes on the base, and per fiber the fields whose Levi-Civita one
    vanishes on the fiber."""
    base = factor_fields(ctx, "base", lie_matrix, ctx.tol.alg, kind=base_kind)
    per_fiber = {i: factor_fields(ctx, i, lie_matrix, ctx.tol.alg, kind=LEVI_CIVITA)
                 for i in range(ctx.mf.fiber_count)}
    return base, per_fiber


def _shapes(ctx: RunContext, part: int, base_kind: str, fibers=None):
    """Part 1-5 of a sufficiency statement as (name, base field or None,
    {fiber: field}) per instance: 1 a base isometry zeta_B; 2 an isometry
    zeta_i of one of ``fibers`` (default every fiber); 3 zeta_B + zeta_i;
    4 the sum of the first isometry of each fiber that has one, when two
    or more do; 5 zeta_B plus that sum."""
    base, per_fiber = _isometries(ctx, base_kind)
    fibers = range(ctx.mf.fiber_count) if fibers is None else fibers
    singles = [(name, i, zi) for i in fibers for name, zi in per_fiber[i]]
    firsts = {i: fs[0] for i, fs in per_fiber.items() if fs}
    picks = {i: zi for i, (_, zi) in firsts.items()}
    if part == 1:
        return [(name, zb, {}) for name, zb in base]
    if part == 2:
        return [(name, None, {i: zi}) for name, i, zi in singles]
    if part == 3:
        return [(f"{name}+{fname}", zb, {i: zi})
                for name, zb in base for fname, i, zi in singles]
    if part == 4:
        names = "+".join(name for name, _ in firsts.values())
        return [(names, None, picks)] if len(picks) >= 2 else []
    return [(name + "+fibers", zb, picks) for name, zb in base] if picks else []


def _sum_field(zb: VectorFieldDef | None, zf: dict[int, VectorFieldDef]) -> ProductField:
    return ProductField(((zb,) if zb is not None else ()) + tuple(zf.values()))


def _suff_base_shift(part: int):
    """Props 3.17/4.7: hypothesis f_i zeta_B(f_i) + f_i^2 pi(zeta_B) = 0,
    test vectors orthogonal to the fiber fields."""

    def run(ctx: RunContext) -> Outcome:
        m = ctx.mf.fiber_count
        instances = []
        for name, zb, zf in _shapes(ctx, part, SEMI_SYMMETRIC):
            # part 3 compensates its own fiber's warp and draws no other fiber
            warps = list(zf) if part == 3 else range(m)
            hyp = 0.0 if zb is None else max_abs(
                _base_shift_coefficient(ctx, zb, i) for i in warps)
            cone = _orth_cone(ctx, zf, zero_blocks=[j for j in range(m)
                                                    if j not in warps]) if zf else None
            instances.append(SuffInstance(name, _sum_field(zb, zf), hyp, cone=cone))
        return _sufficiency_outcome(
            ctx, instances, SEMI_SYMMETRIC, ctx.tol.alg,
            note="test vectors orthogonal to the fiber fields where required")

    return run


def _suff_fiber_shift(part: int, at_shift: bool | None = None):
    """Props 3.21/4.9: hypotheses zeta_B(f_i) = 0 and, when the shift
    fiber r carries a field, pi(zeta_r) = 0; block-pure test vectors, on
    r's pairing cone when zeta_r is present.  ``at_shift`` restricts parts
    2 and 3 to the fibers away from r (False) or to r (True)."""

    def run(ctx: RunContext) -> Outcome:
        m = ctx.mf.fiber_count
        r = ctx.mf.torsion.location
        fibers = (None if at_shift is None
                  else [i for i in range(m) if (i == r) == at_shift])
        instances = []
        for name, zb, zf in _shapes(ctx, part, LEVI_CIVITA, fibers):
            # the warps of the fibers present, or of every fiber for zeta_B alone
            hyps = [] if zb is None else [warp_dir_max(ctx, zb, list(zf) or range(m))]
            zr = zf.get(r)
            if zr is not None:
                hyps.append(_pi_hyp(ctx, zr))
            instances.append(SuffInstance(name, _sum_field(zb, zf),
                                          max_abs(hyps) if hyps else 0.0,
                                          cone=_pure_cone(ctx, zr)))
        return _sufficiency_outcome(
            ctx, instances, SEMI_SYMMETRIC, ctx.tol.alg,
            note="block-pure test vectors on the condition cone")

    return run


def _suff_no_shift(part: int):
    """Prop 5.3: hypothesis zeta_B(f_i) = 0 for every fiber; part 3 falls
    back to the base and its fiber's directions when only its own warp is
    annihilated."""

    def run(ctx: RunContext) -> Outcome:
        m = ctx.mf.fiber_count
        instances = []
        for name, zb, zf in _shapes(ctx, part, LEVI_CIVITA):
            hyp = 0.0 if zb is None else warp_dir_max(ctx, zb, range(m))
            restrict = None
            if part == 3 and not hyp <= HYP_TOL:
                hyp, restrict = warp_dir_max(ctx, zb, list(zf)), ["base", *zf]
            instances.append(SuffInstance(name, _sum_field(zb, zf), hyp,
                                          restrict_blocks=restrict))
        return _sufficiency_outcome(
            ctx, instances, LEVI_CIVITA, ctx.tol.alg,
            note="no connection shift")

    return run


# ---- necessity checks ----


def _block_pure_gate(ctx: RunContext, kind, zeta: ProductField, block) -> float:
    """Max quadratic residual of the product check over 8 pure vectors of
    the given block per sample point (the directions the factor
    conclusions read off)."""
    sl = ctx.ps.block_slice(block)
    x = ctx.rng("necgate").block((len(ctx.points()), 8, sl.stop - sl.start))
    ms = ctx.over_samples(lie_matrix, zeta, kind=kind)[:, sl, sl]
    return max_abs(0.5 * form(ms, x, x))


def _necessity(shift: str, part: int):
    """From a product field whose product-level check vanishes along the
    factor directions, the factor restrictions must pass their checks."""

    def run(ctx: RunContext) -> Outcome:
        kind = LEVI_CIVITA if shift == "none" else SEMI_SYMMETRIC
        base_kind = SEMI_SYMMETRIC if shift == "base" else LEVI_CIVITA
        r = ctx.mf.torsion.location if shift == "fiber" else None
        vals = []
        admitted = 0
        for zb, i, zi, zeta in part_sums(ctx):
            if shift == "fiber" and zi is not None:
                if not _pi_hyp(ctx, zi) <= HYP_TOL:
                    continue
            if part == 1:
                if zb is None:
                    continue
                # the base conclusion reads off base-pure directions
                if not _block_pure_gate(ctx, kind, zeta, "base") <= ctx.tol.alg:
                    continue
                admitted += 1
                vals.append(ctx.sample_max(lie_matrix, zb, "base", kind=base_kind))
            elif part == 2:
                if zi is None or (shift == "fiber" and i == r):
                    continue
                if not _block_pure_gate(ctx, kind, zeta, i) <= ctx.tol.alg:
                    continue
                coeff_ok = True
                if zb is not None:
                    if shift == "base":
                        coeff_ok = _base_shift_coefficient(ctx, zb, i) <= HYP_TOL
                    else:
                        coeff_ok = warp_dir_max(ctx, zb, [i]) <= HYP_TOL
                if not coeff_ok:
                    continue
                admitted += 1
                vals.append(ctx.sample_max(lie_matrix, zi, i, kind=LEVI_CIVITA))
        if admitted == 0 or not vals:
            return inconclusive("no product-level field passes the gate")
        return residual_outcome(vals, ctx.tol.alg,
                                samples=len(vals) * len(ctx.points()),
                                note=f"{admitted} product-level instance(s); "
                                     "gated along the factor directions")

    return run


# ---- builders and designated witnesses ----


def _is_grw_shape(mf) -> bool:
    return mf.fiber_count == 1 and timelike_line(mf.structure.base)


def _is_static_shape(mf) -> bool:
    return mf.fiber_count == 1 and timelike_line(mf.structure.fibers[0])


def _builder_grw(ctx: RunContext) -> Outcome:
    ps = ctx.ps
    spec = SpacetimeSpec(GRW, {
        "interval": ps.base.box[0],
        "warp": pretty(ps.warps[0]),
        "fiber": ps.fibers[0],
    })
    g = ctx.geom.metric_jet().g
    rebuilt = build_spacetime(spec).metric_jet(ctx.points()).g
    w = ctx.geom.warp_jet(0).value[:, None, None]
    sl = ps.block_slice(0)
    fiber = g[:, sl, sl] - w * w * ctx.block_geom(0).metric_jet().g
    vals = np.stack([point_max(g - rebuilt), g[:, 0, 0] + 1.0, point_max(fiber)], axis=1)
    return residual_outcome(vals, 1e-10, note="programmatic rebuild matches the manifest")


def _builder_static(ctx: RunContext) -> Outcome:
    ps = ctx.ps
    spec = SpacetimeSpec(STANDARD_STATIC, {
        "base": ps.base,
        "interval": ps.fibers[0].box[0],
        "warp": pretty(ps.warps[0]),
        "time_coord": ps.fibers[0].coords[0],
    })
    g = ctx.geom.metric_jet().g
    rebuilt = build_spacetime(spec).metric_jet(ctx.points()).g
    w = ctx.geom.warp_jet(0).value
    i = ps.block_slice(0).start
    vals = np.stack([point_max(g - rebuilt), g[:, i, i] + w * w], axis=1)
    return residual_outcome(vals, 1e-10, note="fiber block is minus the squared warp")


def _witness_grw(ctx: RunContext) -> Outcome:
    """Designated configuration: constant timelike field plus a fiber
    isometry, tested along shift-compensated directions."""
    ps = ctx.ps
    rng = ctx.rng("prop320")
    base_unit = VectorFieldDef("base", (num(1.0),))
    fiber_killing = factor_fields(ctx, 0, lie_matrix, ctx.tol.alg,
                                  kind=LEVI_CIVITA)
    wj = ctx.geom.warp_jet(0)
    hyp = max_abs(wj.grad[:, 0] - wj.value)
    # at each sample row, the base components u of the 4 test vectors
    base = embed(ps, "base", np.array([[1.0], [-1.0], [2.0], [-2.0]]))
    vals = []
    for a in (1.0, -1.0, 2.0, -2.0):
        for zname, z2 in [(None, None)] + fiber_killing:
            parts = (base_unit.scaled(a),) + ((z2,) if z2 is not None else ())
            x2 = rng.block((len(ctx.points()), 4, ps.fibers[0].dim))
            x2 = np.where(dot(x2, x2)[..., None] < 0.25, x2 + 0.6 * np.sign(x2 + 1e-9), x2)
            null = np.zeros(x2.shape[:-1], dtype=bool)
            if z2 is not None:
                g, z = _fiber_rows(ctx, 0, z2)
                x2, null = project_out(g[:, None], x2, z[:, None])
            ks, xs = _kept(base + embed(ps, 0, x2), ~null)
            vals.append(np.abs(nabla_quads(ctx.geom, ProductField(parts), ks, xs,
                                           SEMI_SYMMETRIC)))
    note = f"warp-compensation gap {hyp:.3g}"
    return residual_outcome(vals, ctx.tol.alg, note=note)


def _witness_static(ctx: RunContext) -> Outcome:
    """Designated configuration: base isometry plus constant timelike
    fiber field, tested along roots of the printed vector condition."""
    ps = ctx.ps
    rng = ctx.rng("prop324")
    s_unit = VectorFieldDef(0, (num(1.0),))
    base_killing = factor_fields(ctx, "base", lie_matrix, ctx.tol.alg,
                                 kind=LEVI_CIVITA)
    if not base_killing:
        return inconclusive("no base isometry declared")
    vals = []
    gb = ctx.block_geom("base").metric_jet().g[:, None]
    wv = ctx.geom.warp_jet(0).value[:, None]
    for a in (1.0, -1.0, 2.0):
        for bname, z1 in base_killing:
            z1v = ctx.geom.field_values(lift(z1))
            z1f = dot(z1v, ctx.geom.warp_jet(0).grad)[:, None]
            z1v = z1v[:, None, ps.block_slice("base")]
            x1 = rng.block((len(ctx.points()), 6, ps.base.dim))
            # u f g1(X1,z1) - u^2 z1(f) - a f |X1|^2 = 0
            us = _real_roots(np.broadcast_to(-z1f, x1.shape[:-1]),
                             wv * bilinear(gb, x1, z1v),
                             -a * wv * bilinear(gb, x1, x1))
            ks, xs = _kept(embed(ps, "base", x1)[:, :, None] + embed(ps, 0, us[..., None]),
                           (0.05 <= np.abs(us)) & (np.abs(us) <= 50.0))
            vals.append(np.abs(nabla_quads(ctx.geom, ProductField((z1, s_unit.scaled(a))),
                                           ks, xs, SEMI_SYMMETRIC)))
    count = sum(len(v) for v in vals)
    if not count:
        return inconclusive("condition has no usable roots")
    return residual_outcome(vals, ctx.tol.alg,
                            note=f"{count} root-solved test vectors")


def _real_roots(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The real roots of b u^2 + c u + d, two slots per entry of the
    coefficient stacks in the order ``np.roots`` gives them, NaN in a slot
    with no root: the eigenvalues of the companion matrix when |b| > 1e-14,
    else -d / c when |c| > 1e-12.  A root with |imaginary part| > 1e-12 is
    not real; a quadratic with a non-finite coefficient has none."""
    quad = np.abs(b) > 1e-14
    top = np.stack([-c, -d], axis=-1) / np.where(quad, b, 1.0)[..., None]
    quad &= np.isfinite(top).all(axis=-1)
    eig = np.linalg.eigvals(np.stack([np.where(quad[..., None], top, 0.0),
                                      np.broadcast_to([1.0, 0.0], top.shape)], axis=-2))
    roots = np.where(quad[..., None] & (np.abs(eig.imag) <= 1e-12), eig.real, np.nan)
    lin = ~quad & (np.abs(c) > 1e-12)
    roots[..., 0] = np.where(lin, -d / np.where(lin, c, 1.0), roots[..., 0])
    return roots


def build() -> list[CheckSpec]:
    shifted = lambda mf: not mf.torsion.is_zero
    zero_shift = lambda mf: mf.torsion.is_zero
    interval_shape = lambda mf: (mf.fiber_count == 0 and mf.structure.base.dim == 1
                                 and shift_on_base(mf)
                                 and {"zeta_a", "zeta_lin"} <= set(mf.fields))

    specs = [
        CheckSpec("Def3.4", "definition",
                  "metric Lie derivative is symmetric and field-linear",
                  any_mf, _def_killing),
        CheckSpec("Def3.5", "definition",
                  "shifted Lie derivative expands into pairing terms",
                  any_mf, _def_ssm_lie),
        CheckSpec("Def3.6", "definition",
                  "shifted Killing verdict is polarization-stable",
                  any_mf, _def_ssm_killing),
        CheckSpec("Lemma3.7", "equivalence",
                  "bilinear and quadratic Killing verdicts agree",
                  any_mf, _quad_equivalence(LEVI_CIVITA, "lemma37")),
        CheckSpec("Lemma3.8", "equivalence",
                  "bilinear and quadratic shifted-Killing verdicts agree",
                  any_mf, _quad_equivalence(SEMI_SYMMETRIC, "lemma38")),
        CheckSpec("Remark3.9", "identity",
                  "quadratic form of the shifted derivative expands",
                  shifted, _remark_expansion),
        CheckSpec("Prop3.10", "equivalence",
                  "under the pairing premise the two Killing notions agree",
                  any_mf, _prop_equivalence),
        CheckSpec("Remark3.11", "identity",
                  "zero shift collapses the two derivatives exactly",
                  zero_shift, _remark_zero_shift),
        CheckSpec("Example3.12", "witness",
                  "interval Killing fields are the constant fields",
                  interval_shape, _example_interval),
        CheckSpec("Prop3.17.1", "sufficiency",
                  "base field with compensated warp stays shifted-Killing",
                  warped1_base, _suff_base_shift(1)),
        CheckSpec("Prop3.17.2", "sufficiency",
                  "fiber isometry lifts along the orthogonal cone",
                  warped1_base, _suff_base_shift(2)),
        CheckSpec("Prop3.17.3", "sufficiency",
                  "combined base and fiber instance stays shifted-Killing",
                  warped1_base, _suff_base_shift(3)),
        CheckSpec("Prop3.18.1", "necessity",
                  "base restriction of a shifted-Killing field",
                  warped1_base, _necessity("base", 1)),
        CheckSpec("Prop3.18.2", "necessity",
                  "fiber restriction under the compensated-warp condition",
                  warped1_base, _necessity("base", 2)),
        CheckSpec("Def3.19", "builder",
                  "timelike-interval warped product assembles as declared",
                  _is_grw_shape, _builder_grw),
        CheckSpec("Prop3.20", "witness",
                  "exponential warp admits the constant timelike field",
                  lambda mf: _is_grw_shape(mf) and shift_on_base(mf),
                  _witness_grw),
        CheckSpec("Prop3.21.1", "sufficiency",
                  "base isometry with warp-orthogonal test cone",
                  warped1_fiber, _suff_fiber_shift(1)),
        CheckSpec("Prop3.21.2", "sufficiency",
                  "fiber field along fiber-pure directions",
                  warped1_fiber, _suff_fiber_shift(2, at_shift=True)),
        CheckSpec("Prop3.21.3", "sufficiency",
                  "combined instance on the condition cone",
                  warped1_fiber, _suff_fiber_shift(5)),
        CheckSpec("Prop3.22.1", "necessity",
                  "base restriction when the fiber pairing vanishes",
                  warped1_fiber, _necessity("fiber", 1)),
        CheckSpec("Prop3.22.2", "necessity",
                  "fiber restriction under the extra condition",
                  warped1_fiber, _necessity("fiber", 2)),
        CheckSpec("Def3.23", "builder",
                  "static product assembles with minus-squared-warp fiber",
                  _is_static_shape, _builder_static),
        CheckSpec("Prop3.24", "witness",
                  "root-solved test vectors keep the static field shifted-Killing",
                  lambda mf: _is_static_shape(mf) and shift_on_fiber(mf),
                  _witness_static),
        # multiply warped versions
        CheckSpec("Prop4.7.1", "sufficiency",
                  "base field with per-fiber compensated warps",
                  base_shift, _suff_base_shift(1)),
        CheckSpec("Prop4.7.2", "sufficiency",
                  "single fiber isometry on the orthogonal cone",
                  base_shift, _suff_base_shift(2)),
        CheckSpec("Prop4.7.3", "sufficiency",
                  "base plus one fiber isometry",
                  base_shift, _suff_base_shift(3)),
        CheckSpec("Prop4.7.4", "sufficiency",
                  "sum of fiber isometries on the orthogonal cone",
                  base_shift_multi,
                  _suff_base_shift(4)),
        CheckSpec("Prop4.7.5", "sufficiency",
                  "base plus all fiber isometries",
                  base_shift, _suff_base_shift(5)),
        CheckSpec("Prop4.8.1", "necessity",
                  "base restriction of a shifted-Killing product field",
                  base_shift, _necessity("base", 1)),
        CheckSpec("Prop4.8.2", "necessity",
                  "fiber restrictions under compensated warps",
                  base_shift, _necessity("base", 2)),
        CheckSpec("Prop4.9.1", "sufficiency",
                  "base isometry over block-pure directions",
                  fiber_shift, _suff_fiber_shift(1)),
        CheckSpec("Prop4.9.2a", "sufficiency",
                  "isometry of a fiber away from the shift",
                  fiber_shift_multi,
                  _suff_fiber_shift(2, at_shift=False)),
        CheckSpec("Prop4.9.2b", "sufficiency",
                  "isometry of the shift-carrying fiber on its cone",
                  fiber_shift, _suff_fiber_shift(2, at_shift=True)),
        CheckSpec("Prop4.9.3a", "sufficiency",
                  "base plus away-fiber isometry with constant warp",
                  fiber_shift_multi,
                  _suff_fiber_shift(3, at_shift=False)),
        CheckSpec("Prop4.9.3b", "sufficiency",
                  "base plus shift-fiber isometry on its cone",
                  fiber_shift, _suff_fiber_shift(3, at_shift=True)),
        CheckSpec("Prop4.9.4", "sufficiency",
                  "sum of fiber isometries on the condition cone",
                  fiber_shift_multi,
                  _suff_fiber_shift(4)),
        CheckSpec("Prop4.9.5", "sufficiency",
                  "base plus all fiber isometries on the condition cone",
                  fiber_shift, _suff_fiber_shift(5)),
        CheckSpec("Prop4.10.1", "necessity",
                  "base restriction when the shift pairing vanishes",
                  fiber_shift, _necessity("fiber", 1)),
        CheckSpec("Prop4.10.2", "necessity",
                  "fiber restrictions under constant warps",
                  fiber_shift, _necessity("fiber", 2)),
        # no-shift versions
        CheckSpec("Prop5.3.1", "sufficiency",
                  "base isometry with warp-annihilating direction",
                  has_fibers, _suff_no_shift(1)),
        CheckSpec("Prop5.3.2", "sufficiency",
                  "a fiber isometry lifts unconditionally",
                  has_fibers, _suff_no_shift(2)),
        CheckSpec("Prop5.3.3", "sufficiency",
                  "base plus fiber isometry when the warp is annihilated",
                  has_fibers, _suff_no_shift(3)),
        CheckSpec("Prop5.3.4", "sufficiency",
                  "sums of fiber isometries lift unconditionally",
                  multi_fiber, _suff_no_shift(4)),
        CheckSpec("Prop5.3.5", "sufficiency",
                  "full combination under annihilated warps",
                  has_fibers, _suff_no_shift(5)),
        CheckSpec("Prop5.4.1", "necessity",
                  "base restriction of a product isometry",
                  has_fibers, _necessity("none", 1)),
        CheckSpec("Prop5.4.2", "necessity",
                  "fiber restrictions under annihilated warps",
                  has_fibers, _necessity("none", 2)),
    ]
    return specs
