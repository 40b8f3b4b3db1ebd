"""Second-order checks: 2-Killing verdicts, curvature couplings,
compact-factor conclusions on their periodic models, and the power-law
warp families.

Compactness is modeled, never verified: a factor counts as a compact
model only when its metric entries are constant over a fundamental box
and any warp touching it is built from constants and trigonometric
functions, and only fields with constant chart components are admitted
on such factors.  The result notes say so.
"""

from __future__ import annotations

import numpy as np

from ..connections import LEVI_CIVITA, matvec, nabla
from ..curvature import (
    FrameConstructionFailure,
    parallel_residual,
    ricci_quadratic,
    trace_nabla,
    zeta_curvature,
)
from ..fieldexpr import Bin, Call, Neg, Var, variables_of
from ..fields import ProductField, VectorFieldDef, lift
from ..lie_killing import (
    eq22_residual,
    form,
    homothety_check,
    length_gradient,
    lie_lie_matrix,
    lie_matrix,
    max_abs,
    nabla_zeta_zeta,
    point_max,
)
from ..spacetimes import KASNER, SpacetimeSpec, build_spacetime
from ..suite import (
    FAIL,
    HYP_TOL,
    PASS,
    TRACE_TOL,
    CheckSpec,
    Outcome,
    RunContext,
    inconclusive,
    residual_outcome,
)
from .util import (
    any_mf,
    factor_fields,
    has_fibers,
    part_sums,
    second_directional,
    timelike_line,
    warp_dir_max,
)

# ---- residual helpers ----


def _warp_constant(ctx: RunContext, i: int) -> bool:
    return max_abs(ctx.geom.warp_jet(i).grad) <= 1e-12


def _fiber_homothety(ctx: RunContext, vfd: VectorFieldDef):
    """Homothety fit of a fiber field's L g on the fiber itself."""
    mats = ctx.over_samples(lie_matrix, vfd, vfd.block, kind=LEVI_CIVITA)
    return homothety_check(ctx.block_geom(vfd.block), mats, tol=ctx.tol.alg)


def _homothetic_pick(ctx: RunContext, i: int):
    """(field, factor) of the first 2-Killing field of fiber i that is
    homothetic on the fiber, or None."""
    for _, vfd in factor_fields(ctx, i, lie_lie_matrix, ctx.tol.two):
        hom = _fiber_homothety(ctx, vfd)
        if hom.homothetic:
            return vfd, hom.factor
    return None


def _ricci_max(ctx: RunContext, zeta, block=None) -> float:
    """Signed max of Ric(zeta, zeta) over the samples; NaN propagates.
    With ``block``, a lifted field on its own block."""
    return float(np.max(ctx.over_samples(ricci_quadratic, zeta, block)))


# ---- compact model predicate ----


def _vars_outside_trig(e) -> frozenset[str]:
    if isinstance(e, Call) and e.fn in ("sin", "cos"):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return _vars_outside_trig(e.arg)
    if isinstance(e, Bin):
        return _vars_outside_trig(e.lhs) | _vars_outside_trig(e.rhs)
    if isinstance(e, Call):
        return _vars_outside_trig(e.arg)
    return frozenset()


def modeled_compact(mf) -> bool:
    """Flat fundamental boxes with periodic warps: a torus-product model."""
    ps = mf.structure
    for block in ps.blocks:
        for row in block.entries:
            for e in row:
                if variables_of(e):
                    return False
    for w in ps.warps:
        if _vars_outside_trig(w):
            return False
    return True


def _constant_components(vfd: VectorFieldDef) -> bool:
    return all(not variables_of(c) for c in vfd.components)


def _periodic_fields(ctx: RunContext) -> dict[str, VectorFieldDef]:
    return {n: f for n, f in ctx.mf.fields.items() if _constant_components(f)}


# ---- section 6 checks ----


def _def_two_killing(ctx: RunContext) -> Outcome:
    """Every field passing the first-order check passes the second-order one."""
    vals = []
    admitted = 0
    for name, zeta in ctx.field_combos().items():
        if not ctx.sample_max(lie_matrix, zeta, kind=LEVI_CIVITA) <= ctx.tol.alg:
            continue
        admitted += 1
        vals.append(ctx.sample_max(lie_lie_matrix, zeta))
    if admitted == 0:
        return inconclusive("no first-order isometry declared")
    return residual_outcome(vals, ctx.tol.two,
                            samples=admitted * len(ctx.points()),
                            note=f"{admitted} isometries re-checked at second order")


def _eq22_values(ctx: RunContext, fields) -> list[np.ndarray]:
    """Per field, the Eq-22 gap at each sample point along the coordinate
    basis and 4 test vectors: (points, n + 4)."""
    s, n = len(ctx.points()), ctx.ps.total_dim
    xs = ctx.rng("eq22").block((len(fields), s, 4, n))
    basis = np.broadcast_to(np.eye(n), (s, n, n))
    return [eq22_residual(ctx.geom, zeta, np.concatenate([basis, xz], axis=1))
            for zeta, xz in zip(fields, xs)]


def _eq22_check(ctx: RunContext) -> Outcome:
    fields = [zeta for zeta in ctx.field_combos().values()
              if ctx.sample_max(lie_lie_matrix, zeta) <= ctx.tol.two]
    if not fields:
        return inconclusive("no second-order-Killing field available")
    return residual_outcome(_eq22_values(ctx, fields), ctx.tol.two,
                            note=f"{len(fields)} second-order fields")


def _const_length_killing(ctx: RunContext):
    out = []
    for name, zeta in ctx.field_combos().items():
        if not ctx.sample_max(lie_matrix, zeta, kind=LEVI_CIVITA) <= ctx.tol.alg:
            continue
        if not ctx.sample_max(length_gradient, zeta) <= 1e-8:
            continue
        out.append((name, zeta))
    return out


def _lemma_const_length(ctx: RunContext) -> Outcome:
    vals = []
    fields = _const_length_killing(ctx)
    for name, zeta in fields:
        w, _ = nabla_zeta_zeta(ctx.geom, zeta)
        vals.append(np.abs(w).max(axis=1))
    if not fields:
        return inconclusive("no constant-length isometry declared")
    return residual_outcome(vals, ctx.tol.two,
                            note=f"{len(fields)} constant-length isometries")


def _eq23_check(ctx: RunContext) -> Outcome:
    fields = [z for _, z in _const_length_killing(ctx)
              if ctx.sample_max(lie_lie_matrix, z) <= ctx.tol.two]
    if not fields:
        return inconclusive("no constant-length second-order isometry")
    geom = ctx.geom
    xs = ctx.rng("eq23").block((len(fields), len(ctx.points()), 6, ctx.ps.total_dim))
    g = geom.metric_jet().g
    vals, signs = [], []
    for zeta, x in zip(fields, xs):
        nxz = x @ nabla(geom, zeta)
        lhs = form(zeta_curvature(geom, zeta, "il"), x, x)
        vals.append(lhs - form(g, nxz, nxz))
        signs.append(lhs)
    least = float(np.min(signs))
    out = residual_outcome(vals, ctx.tol.two,
                           note=f"min quadratic value {least:.3g}")
    if out.verdict == PASS and not least >= -ctx.tol.two:
        return Outcome(FAIL, max_abs=-least, mean_abs=out.mean_abs,
                       samples=out.samples, tolerance=ctx.tol.two,
                       note="negative curvature pairing for a constant-length isometry")
    return out


def _lemma_compact_parallel(ctx: RunContext) -> Outcome:
    vals = []
    admitted = 0
    for name, vfd in sorted(_periodic_fields(ctx).items()):
        zeta = lift(vfd)
        if not ctx.sample_max(lie_lie_matrix, zeta) <= ctx.tol.two:
            continue
        if not _ricci_max(ctx, zeta) <= HYP_TOL:
            continue
        admitted += 1
        try:
            traces = trace_nabla(ctx.geom, zeta)
        except FrameConstructionFailure as err:
            return inconclusive(str(err))
        vals.append(np.stack([parallel_residual(ctx.geom, zeta), traces], axis=1))
    if admitted == 0:
        return inconclusive("no admissible field on the compact model")
    return residual_outcome(
        vals, TRACE_TOL,
        note=f"{admitted} fields; compactness modeled by periodic boxes, "
             "not verified")


def _cor_product_necessity(part: int):
    def run(ctx: RunContext) -> Outcome:
        vals = []
        admitted = 0
        for zb, i, zi, zeta in part_sums(ctx):
            if not ctx.sample_max(lie_lie_matrix, zeta) <= ctx.tol.two:
                continue
            admitted += 1
            if part == 1 and zb is not None:
                vals.append(ctx.sample_max(lie_lie_matrix, zb, "base"))
            elif part == 2 and zi is not None:
                if zb is None or warp_dir_max(ctx, zb, [i]) <= HYP_TOL:
                    vals.append(ctx.sample_max(lie_lie_matrix, zi, i))
        if admitted == 0 or not vals:
            return inconclusive("no second-order product field available")
        return residual_outcome(vals, ctx.tol.two,
                                samples=len(vals) * len(ctx.points()),
                                note=f"{admitted} product instance(s)")

    return run


def _cor_sufficiency_annihilated(ctx: RunContext) -> Outcome:
    """Factor second-order fields with warp-annihilating base part."""
    m = ctx.mf.fiber_count
    vals = []
    admitted = 0
    per_fiber = {i: factor_fields(ctx, i, lie_lie_matrix, ctx.tol.two)
                 for i in range(m)}
    for bname, zb in factor_fields(ctx, "base", lie_lie_matrix, ctx.tol.two):
        if not warp_dir_max(ctx, zb, range(m)) <= HYP_TOL:
            continue
        combo = [per_fiber[i][0][1] for i in range(m) if per_fiber[i]]
        for parts in ([zb], [zb] + combo if combo else None):
            if parts is None:
                continue
            admitted += 1
            vals.append(ctx.sample_max(lie_lie_matrix, ProductField(tuple(parts))))
    if admitted == 0:
        return inconclusive("no warp-annihilating base field")
    return residual_outcome(vals, ctx.tol.two,
                            samples=admitted * len(ctx.points()),
                            note=f"{admitted} instance(s)")


def _eq26_residual_max(ctx: RunContext, zb: VectorFieldDef, i: int, c_i: float) -> float:
    wj = ctx.geom.warp_jet(i)
    zbf, zbzbf = second_directional(ctx.geom.field_jet(lift(zb)), wj)
    return max_abs(wj.value * zbzbf + zbf * zbf + 2.0 * c_i * wj.value * zbf)


def _cor_homothety_route(ctx: RunContext) -> Outcome:
    """Second-order extension via homothetic fiber fields whose factors
    satisfy the warp coupling condition."""
    m = ctx.mf.fiber_count
    fiber_picks = [_homothetic_pick(ctx, i) for i in range(m)]
    admitted = []
    if m and None not in fiber_picks:
        for _, zb in factor_fields(ctx, "base", lie_lie_matrix, ctx.tol.two):
            hyp = max_abs(_eq26_residual_max(ctx, zb, i, c_i)
                          for i, (_, c_i) in enumerate(fiber_picks))
            if hyp <= HYP_TOL:
                admitted.append((zb,) + tuple(vfd for vfd, _ in fiber_picks))
    if not admitted:
        return inconclusive("no instance satisfies the warp coupling condition")
    vals = [ctx.sample_max(lie_lie_matrix, ProductField(parts)) for parts in admitted]
    return residual_outcome(vals, ctx.tol.two,
                            samples=len(vals) * len(ctx.points()),
                            note=f"{len(admitted)} coupled instance(s)")


def _cor_fiber_sums(ctx: RunContext) -> Outcome:
    m = ctx.mf.fiber_count
    per_fiber = {i: factor_fields(ctx, i, lie_lie_matrix, ctx.tol.two)
                 for i in range(m)}
    picks = [per_fiber[i][0][1] for i in range(m) if per_fiber[i]]
    if not picks:
        return inconclusive("no fiber second-order fields declared")
    vals = [ctx.sample_max(lie_lie_matrix, ProductField(tuple(picks)))]
    # singles as well: each fiber field alone must extend
    for vfd in picks:
        vals.append(ctx.sample_max(lie_lie_matrix, lift(vfd)))
    return residual_outcome(vals, ctx.tol.two,
                            samples=len(vals) * len(ctx.points()),
                            note=f"sum of {len(picks)} fiber fields")


def _thm_parallel(case: int):
    def run(ctx: RunContext) -> Outcome:
        m = ctx.mf.fiber_count
        periodic = _periodic_fields(ctx)
        admissible = [(n, f) for n, f in sorted(periodic.items())
                      if ctx.sample_max(lie_lie_matrix, f, f.block) <= ctx.tol.two
                      and _ricci_max(ctx, f, f.block) <= HYP_TOL]
        base_fields = [(n, f) for n, f in admissible if f.block == "base"]
        fiber_fields: dict[int, list] = {i: [] for i in range(m)}
        for n, f in admissible:
            if f.block != "base":
                fiber_fields[int(f.block)].append((n, f))

        def warp_ok(zb, fibers_with_parts):
            for j in range(m):
                if zb is not None and not warp_dir_max(ctx, zb, [j]) <= HYP_TOL:
                    return False
                if j in fibers_with_parts and not _warp_constant(ctx, j):
                    return False
            return True

        combos = []
        if case == 1:
            picks = [fiber_fields[i][0][1] for i in range(m) if fiber_fields[i]]
            for bn, zb in base_fields:
                if len(picks) == m and warp_ok(zb, set(range(m))):
                    combos.append((zb,) + tuple(picks))
        elif case == 2:
            for bn, zb in base_fields:
                if warp_ok(zb, set()):
                    combos.append((zb,))
        elif case == 3:
            for bn, zb in base_fields:
                for i in range(m):
                    for fn, zi in fiber_fields[i]:
                        if warp_ok(zb, {i}):
                            combos.append((zb, zi))
        elif case == 4:
            for i in range(m):
                for fn, zi in fiber_fields[i]:
                    if warp_ok(None, {i}):
                        combos.append((zi,))
        elif case == 5:
            picks = [fiber_fields[i][0][1] for i in range(m) if fiber_fields[i]]
            if len(picks) == m and picks and warp_ok(None, set(range(m))):
                combos.append(tuple(picks))
        if not combos:
            return inconclusive("no admissible combination on the compact model")
        vals = [parallel_residual(ctx.geom, ProductField(tuple(parts))) for parts in combos]
        return residual_outcome(
            vals, ctx.tol.two,
            note=f"{len(combos)} combination(s); compactness modeled, not verified")

    return run


def _thm_sectional(part: int):
    def run(ctx: RunContext) -> Outcome:
        if part == 2:
            fields = _const_length_killing(ctx)
        else:
            fields = []
            for name, zeta in ctx.field_combos().items():
                if not ctx.sample_max(lie_lie_matrix, zeta) <= ctx.tol.two:
                    continue
                if max_abs(nabla_zeta_zeta(ctx.geom, zeta)[0]) <= HYP_TOL:
                    fields.append((name, zeta))
        if not fields:
            return inconclusive("no field meets the curvature hypothesis")
        xs = ctx.rng(f"thm614.{part}").block((len(fields), len(ctx.points()), 6,
                                               ctx.ps.total_dim))
        g = ctx.geom.metric_jet().g
        values = []
        for (_, zeta), x in zip(fields, xs):
            # K = -R(z, x, z, x) / area^2, skipping degenerate planes
            zv = ctx.geom.field_values(zeta)
            gz = matvec(g, zv)
            area2 = np.sum(zv * gz, axis=-1)[:, None] * form(g, x, x) - matvec(x, gz) ** 2
            kept = ~(np.abs(area2) <= 1e-10)
            values.append(-form(zeta_curvature(ctx.geom, zeta, "ik"), x, x)[kept]
                          / area2[kept])
        values = np.concatenate(values)
        if not values.size:
            return inconclusive("all sampled planes degenerate")
        worst_k = float(np.min(values))
        verdict = PASS if worst_k >= -ctx.tol.two else FAIL
        worst_k += 0.0  # normalize -0.0 for stable formatting
        return Outcome(verdict, max_abs=0.0 if worst_k >= 0.0 else -worst_k,
                       mean_abs=0.0, samples=len(values), tolerance=ctx.tol.two,
                       note=f"minimum sectional value {worst_k:.3g}; "
                            "curve hypothesis modeled pointwise")

    return run


# ---- power-law warp families ----


def _linear_factor(ctx: RunContext, a: float, b: float) -> np.ndarray:
    """s = a t - b at each sample point's base coordinate t."""
    return a * ctx.points()[:, ctx.ps.block_slice("base").start] - b


def _cbrt_base_field(ctx: RunContext):
    """The declared base field matching cbrt(a t - b), with (a, b)."""
    a = ctx.mf.constants.get("a")
    b = ctx.mf.constants.get("b")
    if a is None or b is None or ctx.ps.base.dim != 1:
        return None
    s = _linear_factor(ctx, a, b)
    want = np.copysign(np.abs(s) ** (1.0 / 3.0), s)
    slb = ctx.ps.block_slice("base").start
    for name, vfd in sorted(ctx.fields_on("base").items()):
        got = ctx.geom.field_values(lift(vfd))[:, slb]
        if not np.any(np.abs(got - want) > 1e-10):
            return name, vfd, float(a), float(b)
    return None


def _eq28_residual_max(ctx: RunContext, i: int, c_i: float, a: float, b: float) -> float:
    slb = ctx.ps.block_slice("base").start
    wj = ctx.geom.warp_jet(i)
    f, fdot, fddot = wj.value, wj.grad[:, slb], wj.hess[:, slb, slb]
    s = _linear_factor(ctx, a, b)
    return max_abs((a / 3.0) * f * fdot
                   + (f * fddot + fdot * fdot) * s
                   + 2.0 * c_i * f * fdot * np.abs(s) ** (2.0 / 3.0))


def _witness_power_law(use_exponents: bool):
    """Extension of the cube-root base field across warped fibers.

    ``use_exponents`` switches the hypothesis form to the recovered
    power-law exponents; the conclusion is tracked even when the
    hypothesis fails, so perturbed manifests report a failure.
    """

    def run(ctx: RunContext) -> Outcome:
        found = _cbrt_base_field(ctx)
        if found is None:
            return inconclusive("no cube-root base field declared")
        name, zb, a, b = found
        picks = []
        hyps = []
        for i in range(ctx.mf.fiber_count):
            pick = _homothetic_pick(ctx, i)
            if pick is None:
                return inconclusive(f"fiber {i + 1} has no homothetic "
                                    "second-order field")
            vfd, c_i = pick
            picks.append(vfd)
            if use_exponents:
                p_i = _recover_exponent(ctx, i, a, b)
                if p_i is None:
                    return inconclusive("warp is not a power of the linear factor")
                hyps.append(_eq29_residual_max(ctx, i, p_i, c_i, a, b))
            else:
                hyps.append(_eq28_residual_max(ctx, i, c_i, a, b))
        hyp = max_abs(hyps)
        zeta = ProductField((zb,) + tuple(picks))
        vals = point_max(ctx.over_samples(lie_lie_matrix, zeta))
        gap = "" if hyp <= HYP_TOL else \
            f"; warp coupling residual {hyp:.3g} (hypothesis violated)"
        return residual_outcome(vals, ctx.tol.two,
                                note=f"extension of {name}{gap}")

    return run


def _recover_exponent(ctx: RunContext, i: int, a: float, b: float):
    """Fit p with warp = ((a t - b)/a)^p over the samples where phi > 0 and
    log(phi) is not near 0; None when fewer than 8 remain or the fit is
    unstable."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = _linear_factor(ctx, a, b) / a
        log_phi = np.log(phi)
        kept = ~((phi <= 0) | (np.abs(log_phi) < 1e-3))
        vals = np.log(ctx.geom.warp_jet(i).value[kept]) / log_phi[kept]
    if len(vals) < 8 or float(vals.std()) > 1e-9:
        return None
    return float(vals.mean())


def _eq29_residual_max(ctx: RunContext, i: int, p_i: float, c_i: float,
                       a: float, b: float) -> float:
    s = _linear_factor(ctx, a, b)
    return max_abs(a / 3.0 + (2.0 * p_i - 1.0) / (s / a) * s
                   + 2.0 * c_i * np.abs(s) ** (2.0 / 3.0))


def _builder_kasner(ctx: RunContext) -> Outcome:
    a = ctx.mf.constants.get("a")
    b = ctx.mf.constants.get("b")
    if a is None or b is None:
        return inconclusive("no linear-factor constants declared")
    m = ctx.mf.fiber_count
    exponents = []
    for i in range(m):
        p_i = _recover_exponent(ctx, i, a, b)
        if p_i is None:
            return inconclusive(f"fiber {i + 1} warp is not a stable power")
        exponents.append(p_i)
    offset = b / a
    spec = SpacetimeSpec(KASNER, {
        "interval": ctx.ps.base.box[0],
        "phi": f"t - {offset!r}",
        "exponents": exponents,
        "fibers": ctx.ps.fibers,
    })
    g = ctx.geom.metric_jet().g
    rebuilt = build_spacetime(spec).metric_jet(ctx.points()).g
    vals = np.stack([point_max(g - rebuilt), g[:, 0, 0] + 1.0], axis=1)
    return residual_outcome(
        vals, 1e-9, note=f"recovered exponents {[round(e, 6) for e in exponents]}")


def build() -> list[CheckSpec]:
    compact_model = modeled_compact
    base1d = lambda mf: mf.structure.base.dim == 1 and mf.fiber_count >= 1
    kasner_shape = lambda mf: (base1d(mf)
                               and {"a", "b"} <= set(mf.constants)
                               and timelike_line(mf.structure.base))
    cbrt_family = lambda mf: base1d(mf) and {"a", "b"} <= set(mf.constants)

    specs = [
        CheckSpec("Def6.1", "definition",
                  "every first-order isometry passes the second-order check",
                  any_mf, _def_two_killing),
        CheckSpec("Cor6.3", "identity",
                  "curvature pairing balances the derivative terms",
                  any_mf, _eq22_check),
        CheckSpec("Lemma6.4", "implication",
                  "constant-length isometries are self-parallel",
                  any_mf, _lemma_const_length),
        CheckSpec("Cor6.5", "identity",
                  "curvature pairing equals the squared derivative and is "
                  "non-negative", any_mf, _eq23_check),
        CheckSpec("Lemma6.6", "modeled",
                  "flat-Ricci second-order fields on compact models are parallel",
                  compact_model, _lemma_compact_parallel),
        CheckSpec("Cor6.9.1", "necessity",
                  "base restriction of a second-order product field",
                  has_fibers, _cor_product_necessity(1)),
        CheckSpec("Cor6.9.2", "necessity",
                  "fiber restrictions under annihilated warps",
                  has_fibers, _cor_product_necessity(2)),
        CheckSpec("Cor6.10.1", "sufficiency",
                  "annihilated warps extend factor second-order fields",
                  has_fibers, _cor_sufficiency_annihilated),
        CheckSpec("Cor6.10.2", "sufficiency",
                  "homothetic fibers extend under the warp coupling condition",
                  has_fibers, _cor_homothety_route),
        CheckSpec("Cor6.11.1", "sufficiency",
                  "factor fields with annihilated warps extend",
                  has_fibers, _cor_sufficiency_annihilated),
        CheckSpec("Cor6.11.2", "sufficiency",
                  "sums of fiber second-order fields extend unconditionally",
                  has_fibers, _cor_fiber_sums),
        CheckSpec("Thm6.13.1", "modeled",
                  "full combination is parallel on the compact model",
                  compact_model, _thm_parallel(1)),
        CheckSpec("Thm6.13.2", "modeled",
                  "warp-annihilating base field is parallel",
                  compact_model, _thm_parallel(2)),
        CheckSpec("Thm6.13.3", "modeled",
                  "base plus one fiber field is parallel",
                  compact_model, _thm_parallel(3)),
        CheckSpec("Thm6.13.4", "modeled",
                  "single fiber field is parallel",
                  compact_model, _thm_parallel(4)),
        CheckSpec("Thm6.13.5", "modeled",
                  "sum of fiber fields is parallel",
                  compact_model, _thm_parallel(5)),
        CheckSpec("Thm6.14.1", "modeled",
                  "self-parallel second-order fields see non-negative sections",
                  any_mf, _thm_sectional(1)),
        CheckSpec("Thm6.14.2", "modeled",
                  "constant-length isometries see non-negative sections",
                  any_mf, _thm_sectional(2)),
        CheckSpec("Prop6.15", "witness",
                  "cube-root base field extends across coupled warps",
                  cbrt_family, _witness_power_law(use_exponents=False)),
        CheckSpec("Def6.16", "builder",
                  "power-law warped product assembles as declared",
                  kasner_shape, _builder_kasner),
        CheckSpec("Prop6.17", "witness",
                  "cube-root base field extends across power-law warps",
                  kasner_shape, _witness_power_law(use_exponents=True)),
    ]
    return specs
