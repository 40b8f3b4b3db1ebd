"""Registry-level properties: census, vacuity, negative controls and
cross-manifest behaviour of the checks."""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import results_covered
from warpfield.cli import _exit_code, corpus_dir
from warpfield.connections import LEVI_CIVITA
from warpfield.fields import ProductField
from warpfield.lie_killing import lie_lie_matrix, lie_matrix, max_abs
from warpfield import fieldexpr as fe
from warpfield.checks.util import timelike_line
from warpfield.manifest import load_manifest, parse_manifest
from warpfield.metric import diagonal_block
from warpfield.suite import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    REQUIRED_RESULTS,
    RunContext,
    default_registry,
    residual_outcome,
    run_checks,
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus():
    return {p.stem: load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))}


@pytest.fixture(scope="module")
def corpus_results(registry, corpus):
    out = {}
    for name, mf in corpus.items():
        out[name] = run_checks(mf, registry.specs, samples=24)
    return out


class TestCensus:
    def test_every_required_result_is_registered(self, registry):
        covered = results_covered(registry)
        missing = [r for r in REQUIRED_RESULTS if r not in covered]
        assert missing == []

    def test_registered_results_are_required_or_axioms(self, registry):
        extras = results_covered(registry) - set(REQUIRED_RESULTS)
        assert extras == {"Eq2", "NablaBarG"}

    def test_ids_unique(self, registry):
        ids = [s.id for s in registry.specs]
        assert len(ids) == len(set(ids))

    def test_equation_aliases_resolve(self, registry):
        for eq in [f"Eq{k}" for k in range(1, 30)]:
            assert registry.select(eq)

    def test_every_result_conclusive_somewhere(self, registry, corpus_results):
        """No numbered statement is inconclusive across the whole corpus."""
        conclusive = set()
        for results in corpus_results.values():
            for r in results:
                if r.verdict in ("pass", "fail"):
                    conclusive.add(r.result)
        missing = [r for r in REQUIRED_RESULTS if r not in conclusive]
        assert missing == []


class TestNoVacuousPass:
    def test_passes_carry_enough_samples(self, corpus_results):
        for name, results in corpus_results.items():
            for r in results:
                if r.verdict == "pass":
                    assert r.samples >= 24, (name, r.check, r.samples)

    def test_inconclusive_is_never_pass(self, corpus_results):
        for results in corpus_results.values():
            for r in results:
                assert r.verdict in ("pass", "fail", "inconclusive")


class TestExpectedVerdicts:
    def test_clean_manifests_have_no_failures(self, corpus_results):
        controls = {"grw_poly", "kasner_bad"}
        for name, results in corpus_results.items():
            if name in controls:
                continue
            fails = [r.check for r in results if r.verdict == "fail"]
            assert fails == [], (name, fails)

    def test_grw_negative_control(self, corpus_results):
        by_check = {r.check: r for r in corpus_results["grw_poly"]}
        assert by_check["Prop3.20"].verdict == "fail"
        assert by_check["Prop3.20"].max_abs >= 1e-2

    def test_kasner_negative_control(self, corpus_results):
        by_check = {r.check: r for r in corpus_results["kasner_bad"]}
        assert by_check["Prop6.17"].verdict == "fail"
        assert by_check["Prop6.15"].verdict == "fail"
        # the well-formed instance passes both
        good = {r.check: r for r in corpus_results["kasner"]}
        assert good["Prop6.17"].verdict == "pass"
        assert good["Prop6.15"].verdict == "pass"

    def test_kasner_shape_check_passes_even_when_perturbed(self, corpus_results):
        # the exponent perturbation keeps the power-law form itself valid
        bad = {r.check: r for r in corpus_results["kasner_bad"]}
        assert bad["Def6.16"].verdict == "pass"

    def test_registry_passes_per_manifest(self, corpus_results):
        # a few spot checks that key statements are verified where expected
        grw = {r.check: r.verdict for r in corpus_results["grw_exp"]}
        assert grw["Prop3.20"] == "pass"
        assert grw["Lemma3.1.3"] == "pass"
        assert grw["Prop3.13"] == "pass"
        mw3 = {r.check: r.verdict for r in corpus_results["mw3_fib"]}
        assert mw3["Lemma4.2.4a"] == "pass"
        assert mw3["Prop4.4"] == "pass"
        assert mw3["Prop6.12"] == "pass"
        kas = {r.check: r.verdict for r in corpus_results["kasner"]}
        assert kas["Cor6.10.2"] == "pass"
        assert kas["Cor6.11.2"] == "pass"
        tor = {r.check: r.verdict for r in corpus_results["torus2"]}
        assert tor["Thm6.13.1"] == "pass"
        assert tor["Thm6.14.2"] == "pass"
        assert tor["Lemma6.6"] == "pass"


class TestVerdictTable:
    """Every (manifest, check) verdict of a default verify over the corpus,
    and its exit status, as ``perfbench/expected/corpus_verify.json``
    records them at 16 samples and seed 24181.  A verdict that moves from
    pass to inconclusive shows here, where no spot check sees it."""

    EXPECTED = (Path(__file__).resolve().parent.parent / "perfbench" / "expected"
                / "corpus_verify.json")

    def test_corpus_verdicts_are_the_recorded_table(self, registry, corpus):
        table = json.loads(self.EXPECTED.read_text(encoding="utf-8"))
        assert table["seed"] == 24181
        got = {}
        for name, mf in corpus.items():
            results = run_checks(mf, registry.specs, samples=16, seed=24181)
            got[name] = {"exit": _exit_code(results, explicit=False),
                         "verdicts": {r.check: r.verdict for r in results}}
        assert got == table["entries"]


class TestSufficiencyNegativeControls:
    """Violating exactly one hypothesis must break the conclusion."""

    def test_uncompensated_base_field_fails(self, corpus):
        # grw_poly: the warp is not shift-compensated; the designated
        # configuration fails the product check
        mf = corpus["grw_poly"]
        ctx = RunContext(mf, samples=24)
        from warpfield.checks.killing import _witness_grw

        out = _witness_grw(ctx)
        assert out.verdict == "fail"
        assert out.max_abs >= 1e-2

    def test_skipping_the_orthogonal_projection_fails(self, corpus):
        # Prop3.17.2-style instance without the orthogonality restriction
        mf = corpus["grw_exp"]
        ctx = RunContext(mf, samples=16)
        from warpfield.connections import SEMI_SYMMETRIC, covariant_derivative

        zeta = ctx.named_field("zeta_rot")
        worst = 0.0
        rng = ctx.rng("negctl")
        g = ctx.geom.metric_jet().g
        for k in range(len(ctx.points())):
            x = np.zeros(ctx.ps.total_dim)
            x[0] = 1.0
            x[1:] = np.array(rng.vector(2))
            q = covariant_derivative(ctx.geom, x, zeta, SEMI_SYMMETRIC)[k] @ g[k] @ x
            worst = max(worst, abs(q))
        assert worst > 1e-3

    def test_unannihilated_warp_breaks_lift(self, corpus):
        # torus_warp: the x-translation does not annihilate the warp
        mf = corpus["torus_warp"]
        ctx = RunContext(mf, samples=16)
        from warpfield.lie_killing import lie_matrix

        zeta = ProductField((mf.fields["zeta_bx"], mf.fields["zeta_cv"]))
        worst = max(float(np.max(np.abs(m))) for m in lie_matrix(ctx.geom, zeta))
        assert worst > 1e-3

    def test_homothetic_non_isometry_breaks_second_order_sum(self, corpus):
        # mw2_riem: replacing the fiber isometry by the dilation (a
        # homothety, not second-order) breaks the unconditional sum rule
        mf = corpus["mw2_riem"]
        ctx = RunContext(mf, samples=16)
        zeta = ProductField((mf.fields["zeta_dil1"], mf.fields["zeta_cw2"]))
        worst = max(float(np.max(np.abs(m))) for m in lie_lie_matrix(ctx.geom, zeta))
        assert worst > 1e-2

    def test_coupled_warp_with_wrong_homothety_factor(self, corpus):
        # kasner: the dilation has factor 2, which violates the coupling
        # condition satisfied by the factor-0 isometries
        mf = corpus["kasner"]
        ctx = RunContext(mf, samples=16)
        from warpfield.checks.twokilling import _eq26_residual_max

        zb = mf.fields["zeta_cbrt"]
        assert _eq26_residual_max(ctx, zb, 0, 0.0) <= 1e-9
        assert _eq26_residual_max(ctx, zb, 0, 2.0) > 1e-2

    def test_exp_family_demonstrates_hypothesis_is_load_bearing(self):
        """A homothetic (non-second-order) fiber field satisfying the
        warp-coupling condition still fails to extend: the second-order
        hypothesis on the fiber field cannot be dropped."""
        lam, a, b = -0.75, 1.0, 0.0
        text = f"""
[base]
dim = 1
coords = t
g.t.t = 1
box.t = 1.0, 2.0

[fiber.1]
dim = 2
coords = x, y
g.x.x = 1
g.y.y = 1
box.x = -1, 1
box.y = -1, 1
warp = exp({lam}*cbrt(t)^2)

[torsion]
location = zero

[field.zeta_cbrt]
location = base
comp.t = cbrt(t)

[field.zeta_dil]
location = fiber.1
comp.x = {-lam * a / 3.0}*x
comp.y = {-lam * a / 3.0}*y
"""
        from warpfield.manifest import parse_manifest

        mf = parse_manifest(text, "exp_family")
        ctx = RunContext(mf, samples=24)
        from warpfield.checks.twokilling import (
            _eq28_residual_max,
            _fiber_homothety,
        )

        hom = _fiber_homothety(ctx, mf.fields["zeta_dil"])
        assert hom.homothetic
        c1 = -2.0 * lam * a / 3.0
        assert hom.factor == pytest.approx(c1, abs=1e-9)
        # the coupling condition holds exactly for this warp family
        assert _eq28_residual_max(ctx, 0, hom.factor, a, b) <= 1e-9
        # yet the combined field is not second-order Killing
        zeta = ProductField((mf.fields["zeta_cbrt"], mf.fields["zeta_dil"]))
        worst = max(float(np.max(np.abs(m))) for m in lie_lie_matrix(ctx.geom, zeta))
        assert worst > 1e-3


class TestUnrestrictedQuantifierDiagnostics:
    """The printed statements quantified over arbitrary vectors fail off
    the condition cone; the registry's restrictions are load-bearing."""

    def test_away_fiber_isometry_fails_on_mixed_vectors(self, corpus):
        mf = corpus["mw2_fib"]
        ctx = RunContext(mf, samples=8)
        from warpfield.connections import SEMI_SYMMETRIC, covariant_derivative

        zeta = ctx.named_field("zeta_rot1")
        worst = 0.0
        rng = ctx.rng("diag49")
        g = ctx.geom.metric_jet().g
        for k in range(len(ctx.points())):
            x = np.array(rng.vector(ctx.ps.total_dim))
            q = covariant_derivative(ctx.geom, x, zeta, SEMI_SYMMETRIC)[k] @ g[k] @ x
            worst = max(worst, abs(q))
        assert worst > 1e-3

    def test_shift_parallel_fiber_field_fails_even_on_its_cone(self, corpus):
        # a fiber field parallel to the shift cannot be shifted-Killing
        # along base-pure directions
        mf = corpus["mw2_fib"]
        ctx = RunContext(mf, samples=8)
        from warpfield.connections import SEMI_SYMMETRIC, covariant_derivative

        zeta = ctx.named_field("zeta_w")
        x = np.zeros(ctx.ps.total_dim)
        x[0] = 1.0
        g = ctx.geom.metric_jet().g[0]
        q = covariant_derivative(ctx.geom, x, zeta, SEMI_SYMMETRIC)[0] @ g @ x
        assert abs(q) > 1e-3


class TestDeterminism:
    def test_identical_runs_identical_results(self, registry, corpus):
        mf = corpus["grw_exp"]
        a = run_checks(mf, registry.specs, samples=16)
        b = run_checks(mf, registry.specs, samples=16)
        assert a == b

    def test_seed_changes_samples_not_verdicts(self, registry, corpus):
        mf = corpus["grw_exp"]
        a = run_checks(mf, registry.specs, samples=16, seed=1)
        b = run_checks(mf, registry.specs, samples=16, seed=2)
        assert [r.verdict for r in a] == [r.verdict for r in b]


class TestSelection:
    def test_select_by_result_prefix(self, registry):
        specs = registry.select("Lemma4.1")
        assert {s.id for s in specs} == {
            "Lemma4.1.1", "Lemma4.1.2", "Lemma4.1.3", "Lemma4.1.4", "Lemma4.1.5"}

    def test_select_by_equation_alias(self, registry):
        assert [s.id for s in registry.select("Eq27")] == ["Prop6.12"]

    def test_unknown_token(self, registry):
        with pytest.raises(KeyError):
            registry.select("Prop9.99")


# g.t.t is -1 only at t = 0.123: no unit timelike line, though a probe of
# that one coordinate value would take it for one
PROBED_LINE = ("[base]\ndim = 1\ncoords = t\ng.t.t = -t/0.123\nbox.t = 0.05, 0.5\n\n"
               "[fiber.1]\ndim = 2\ncoords = x, y\ng.x.x = 1\ng.y.y = 1\n"
               "box.x = -1, 1\nbox.y = -1, 1\nwarp = exp(t)\n\n"
               "[torsion]\nlocation = base\ncomp.t = 1\n")


class TestTimelikeLine:
    @pytest.mark.parametrize("entry, line", [
        ("-1", True), ("-(3 - 2)", True), ("1", False), ("-2", False),
        ("-t/0.123", False), ("-t/0.321", False), ("-t^0", False), ("log(-1)", False),
    ])
    def test_a_line_is_a_constant_minus_one(self, entry, line):
        block = diagonal_block("base", ("t",), (fe.parse_expr(entry, ("t",)),), ((0.05, 0.5),))
        assert timelike_line(block) is line

    def test_two_dimensional_block_is_no_line(self):
        block = diagonal_block("base", ("t", "s"), (fe.num(-1.0), fe.num(-1.0)),
                               ((0.0, 1.0), (0.0, 1.0)))
        assert timelike_line(block) is False

    def test_full_run_outside_the_hypotheses_reports_no_fail(self, registry):
        results = run_checks(parse_manifest(PROBED_LINE, "probed_line"),
                             registry.specs, samples=16)
        assert [r.check for r in results if r.failed] == []

    def test_line_builder_does_not_admit_the_manifest(self, registry):
        results = run_checks(parse_manifest(PROBED_LINE, "probed_line"),
                             registry.select("Def3.19"), samples=16, explicit=True)
        assert [(r.check, r.verdict, r.note) for r in results] == [
            ("Def3.19", INCONCLUSIVE, "manifest shape does not admit this check")]


def patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every warpfield module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.startswith("warpfield"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def poison_row_1(stack):
    """A copy of a stack over the sample points with row 1 set to NaN."""
    out = np.array(stack, dtype=float)
    out[1] = np.nan
    return out


class TestNonFiniteResiduals:
    """A NaN residual at any sample point, not only the first, must keep
    a check from passing."""

    @pytest.mark.parametrize("name", ["sphere", "mw2_riem", "interval"])
    def test_nan_at_one_later_point_fails_the_check(self, registry, corpus,
                                                    name, monkeypatch):
        import warpfield.checks.twokilling as twokilling

        mf = corpus[name]
        real = twokilling.lie_lie_matrix

        def poisoned(geom, zeta):
            return poison_row_1(real(geom, zeta))

        clean = run_checks(mf, registry.select("Def6.1"), samples=16)
        assert [r.verdict for r in clean] == [PASS]
        monkeypatch.setattr(twokilling, "lie_lie_matrix", poisoned)
        [res] = run_checks(mf, registry.select("Def6.1"), samples=16)
        assert res.verdict != PASS

    @pytest.mark.parametrize("check,name", [
        *(("Def3.6", n) for n in ("mw2_riem", "sphere", "grw_exp", "interval",
                                  "kasner", "mw2_fib")),
        *(("Prop3.10", n) for n in ("sphere", "interval", "kasner")),
        ("Lemma3.7", "sphere"), ("Lemma3.8", "sphere"),
    ])
    def test_nan_behind_a_verdict_fails_the_agreement(self, registry, corpus,
                                                      check, name, monkeypatch):
        # two NaN residuals give two "not Killing" verdicts, which must not
        # count as agreeing
        mf = corpus[name]

        def poisoned(geom, zeta, kind=LEVI_CIVITA):
            return poison_row_1(lie_matrix(geom, zeta, kind))

        clean = run_checks(mf, registry.select(check), samples=16)
        assert [r.verdict for r in clean] == [PASS]
        patch_everywhere(monkeypatch, lie_matrix, poisoned)
        [res] = run_checks(mf, registry.select(check), samples=16)
        assert res.verdict == FAIL and np.isnan(res.max_abs)

    @pytest.mark.parametrize("name", ["sphere", "mw2_riem", "grw_exp"])
    def test_nan_in_one_curvature_row_fails_the_pairing(self, registry, corpus,
                                                        name, monkeypatch):
        import warpfield.curvature as curvature

        mf = corpus[name]
        real = curvature._curvatures

        def poisoned(geom):
            c = real(geom)
            return curvature.Curvature(*(poison_row_1(a)
                                         for a in (c.r_low, c.ricci)))

        clean = run_checks(mf, registry.select("Cor6.3"), samples=16)
        assert [r.verdict for r in clean] == [PASS]
        monkeypatch.setattr(curvature, "_curvatures", poisoned)
        [res] = run_checks(mf, registry.select("Cor6.3"), samples=16)
        assert res.verdict == FAIL and np.isnan(res.max_abs)

    def test_reducer_propagates_nan(self):
        assert np.isnan(max_abs([0.0, float("nan"), 1.0]))
        assert np.isnan(max_abs(m for m in (np.zeros((2, 2)),
                                            np.full((2, 2), np.nan))))
        assert max_abs([np.array([[-3.0, 1.0]]), np.array([[2.0, 0.5]])]) == 3.0

    def test_empty_input_is_never_a_pass(self):
        assert not max_abs([]) <= 1.0
        assert residual_outcome([], 1.0).verdict == INCONCLUSIVE

    def test_outcome_with_nan_fails(self):
        out = residual_outcome([0.0, float("nan"), 0.0], 1.0)
        assert out.verdict == FAIL


class TestOneGeometryPerBlock:
    """Both connections read the same product geometry, so a run evaluates
    each sample point's metric jet exactly once: one batched call covering
    all of the sample points."""

    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib", "static"])
    def test_one_metric_jet_per_sample_point(self, registry, corpus, name,
                                             monkeypatch):
        from warpfield.metric import ProductStructure

        mf = corpus[name]
        real = ProductStructure.metric_jet
        calls = []

        def counted(ps, points, envs=None):
            if ps is mf.structure:
                calls.append(points.tolist())
            return real(ps, points, envs)

        monkeypatch.setattr(ProductStructure, "metric_jet", counted)
        run_checks(mf, registry.specs, samples=16)
        points = RunContext(mf, samples=16).points()
        assert len({tuple(p) for p in points.tolist()}) == 16
        assert calls == [points.tolist()]


class TestRunTable:
    """Every check of a run reads the same geometries' stacks: across all
    checks of a run, each (geometry, field, kind) Lie stack and each
    geometry's curvature is computed exactly once."""

    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib", "kasner"])
    def test_each_lie_matrix_evaluated_once(self, registry, corpus, name,
                                            monkeypatch):
        from warpfield import lie_killing

        calls = Counter()

        def counting(attr):
            real = getattr(lie_killing, attr)

            def counted(geom, *args):
                calls[(attr, id(geom), args)] += 1
                return real(geom, *args)
            return counted

        for attr in ("_lie_matrices", "_second_orders"):
            monkeypatch.setattr(lie_killing, attr, counting(attr))
        run_checks(corpus[name], registry.specs, samples=16)
        assert {key[0] for key in calls} == {"_lie_matrices", "_second_orders"}
        repeated = [key for key, n in calls.items() if n > 1]
        assert repeated == []

    @pytest.mark.parametrize("name", ["grw_exp", "mw2_fib", "kasner"])
    def test_each_curvature_computed_once(self, registry, corpus, name,
                                          monkeypatch):
        import warpfield.curvature as curvature

        calls = Counter()
        real = curvature._curvatures

        def counted(geom):
            calls[id(geom)] += 1
            return real(geom)

        monkeypatch.setattr(curvature, "_curvatures", counted)
        run_checks(corpus[name], registry.specs, samples=16)
        assert calls
        repeated = [key for key, n in calls.items() if n > 1]
        assert repeated == []
