"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line when its criterion holds; tolerances
are fixed here and match the CLI defaults.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import EXPR_CORPUS, corpus_points
from oracles import fd_jet, results_covered, sectional, seed
from warpfield.cli import corpus_dir
from warpfield.connections import Geometry
from warpfield.curvature import riemann
from warpfield.fieldexpr import eval_expr, parse_expr
from warpfield.fields import ProductField
from warpfield.lie_killing import (
    lie_lie_matrix,
    lie_matrix,
    lie_matrix_direct,
    max_abs,
)
from warpfield.manifest import load_manifest
from warpfield.metric import sample_points
from warpfield.sampling import SplitMix
from warpfield.suite import (
    PASS,
    REQUIRED_RESULTS,
    default_registry,
    residual_outcome,
    run_checks,
)

TOL_ALG = 1e-8
TOL_2K = 1e-7
TOL_FD = 1e-6
TOL_TRACE = 1e-6

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus():
    return {p.stem: load_manifest(p) for p in sorted(corpus_dir().glob("*.wm"))}


@pytest.fixture(scope="module")
def full_results(registry, corpus):
    """Registry run over the whole corpus at the default sample count."""
    out = {}
    for name, mf in corpus.items():
        out[name] = {r.check: r for r in
                     run_checks(mf, registry.specs, samples=64)}
    return out


def _collect(full_results, prefixes):
    rows = []
    for name, by_check in full_results.items():
        for check, r in by_check.items():
            if any(check == p or check.startswith(p + ".") for p in prefixes):
                rows.append((name, r))
    return rows


def test_criterion_01_connection_decomposition(registry, corpus):
    lemmas = ("Lemma3.1", "Lemma3.2", "Lemma4.1", "Lemma4.2", "Lemma6.7")
    specs = registry.select_many(lemmas)
    assert len(specs) == 23
    t0 = time.perf_counter()
    conclusive_manifests = set()
    shapes = set()
    worst = 0.0
    for name, mf in corpus.items():
        results = run_checks(mf, specs, samples=64)
        for r in results:
            assert r.verdict == "pass", (name, r.check, r.max_abs)
            worst = max(worst, r.max_abs)
            assert r.tolerance == TOL_ALG
            conclusive_manifests.add(name)
            loc = mf.torsion.location
            shapes.add((len(mf.structure.fibers),
                        "zero" if mf.torsion.is_zero
                        else ("base" if loc == "base" else "fiber")))
    elapsed = time.perf_counter() - t0
    assert len(conclusive_manifests) >= 6
    assert {m for m, _ in shapes} >= {1, 2, 3}
    assert {t for _, t in shapes} == {"zero", "base", "fiber"}
    assert elapsed < 10.0, f"decomposition sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - 23 connection items <= {TOL_ALG:g} on "
          f"{len(conclusive_manifests)} manifests (max {worst:.3g}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_shift_axioms(full_results):
    rows = _collect(full_results, ("Eq2", "NablaBarG"))
    assert rows
    worst = 0.0
    for name, r in rows:
        assert r.verdict == "pass", (name, r.check, r.max_abs)
        assert r.samples >= 256
        assert r.tolerance == TOL_ALG
        worst = max(worst, r.max_abs)
    print(f"\nACCEPTANCE 2: PASS - torsion form and metricity <= {TOL_ALG:g} "
          f"over {len(rows)} manifest runs, 256 draws each (max {worst:.3g})")


def test_criterion_03_lie_decompositions(full_results):
    first_order = ("Prop3.13", "Prop3.14", "Cor3.15", "Cor3.16",
                   "Prop4.3", "Prop4.4", "Cor4.5", "Cor4.6",
                   "Prop5.1", "Cor5.2")
    rows = _collect(full_results, first_order)
    assert rows
    for name, r in rows:
        assert r.verdict == "pass", (name, r.check, r.max_abs)
        assert r.tolerance == TOL_2K
    rows25 = _collect(full_results, ("Prop6.8",))
    assert rows25
    for name, r in rows25:
        assert r.verdict == "pass", (name, r.check, r.max_abs)
        assert r.tolerance == 1e-6
    print(f"\nACCEPTANCE 3: PASS - {len(rows)} first-order and {len(rows25)} "
          f"second-order Lie decompositions within tolerance")


def test_criterion_04_interval_and_exponential_witnesses(full_results):
    interval = full_results["interval"]
    assert interval["Example3.12"].verdict == "pass"
    assert interval["Example3.12"].max_abs <= TOL_ALG
    grw = full_results["grw_exp"]["Prop3.20"]
    assert grw.verdict == "pass" and grw.max_abs <= TOL_ALG
    poly = full_results["grw_poly"]["Prop3.20"]
    assert poly.verdict == "fail" and poly.max_abs >= 1e-2
    print(f"\nACCEPTANCE 4: PASS - constant timelike field verified "
          f"(control residual {poly.max_abs:.3g} >= 1e-2)")


def test_criterion_05_second_order_witnesses(corpus, full_results):
    mf = corpus["interval"]
    pts = sample_points(mf.structure, 64, SplitMix(24181), mf.exclusions)
    from warpfield.fields import lift

    def two_killing(zeta, points):
        geom = Geometry(mf.structure, None, points)
        return residual_outcome([max_abs(m) for m in lie_lie_matrix(geom, zeta)], TOL_2K)

    for fname in ("zeta_cbrt", "zeta_cbrt21", "zeta_cbrtm13"):
        res = two_killing(lift(mf.fields[fname]), pts)
        assert res.verdict == PASS, (fname, res.max_abs)
    later = pts[pts[:, 0] >= 0.5]
    bad = two_killing(lift(mf.fields["zeta_sq"]), later)
    assert bad.verdict != PASS and bad.max_abs >= 1e-1
    assert full_results["kasner"]["Prop6.17"].verdict == "pass"
    assert full_results["kasner_bad"]["Prop6.17"].verdict == "fail"
    print(f"\nACCEPTANCE 5: PASS - cube-root fields within {TOL_2K:g}; "
          f"square field residual {bad.max_abs:.3g}; power-law witnesses agree")


def test_criterion_06_trace_identity(full_results, corpus):
    multi = []
    for name, mf in corpus.items():
        if len(mf.structure.fibers) < 2:
            continue
        r = full_results[name].get("Prop6.12")
        if r is None:
            continue
        nonconstant = False
        for i in range(len(mf.structure.fibers)):
            p = sample_points(mf.structure, 1, SplitMix(1), mf.exclusions)[0]
            if np.max(np.abs(Geometry(mf.structure, None, [p]).warp_jet(i).grad[0])) > 1e-9:
                nonconstant = True
        if not nonconstant:
            continue
        assert r.verdict == "pass", (name, r.max_abs)
        assert r.tolerance == TOL_TRACE
        multi.append(name)
    assert len(multi) >= 4, multi
    print(f"\nACCEPTANCE 6: PASS - frame-trace identity <= {TOL_TRACE:g} on "
          f"{sorted(multi)}")


def test_criterion_07_curvature_sanity(corpus, full_results):
    from warpfield.sampling import subseed

    worst = 0.0
    for name, mf in corpus.items():
        geom = Geometry(mf.structure, None,
                        sample_points(mf.structure, 8, SplitMix(subseed(7, name)),
                                      mf.exclusions))
        for r in riemann(geom).r_low:
            worst = max(
                worst,
                float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
                float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
                float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
                float(np.max(np.abs(r + np.einsum("jkil->ijkl", r)
                                    + np.einsum("kijl->ijkl", r)))),
            )
    assert worst <= TOL_ALG
    sphere = corpus["sphere"]
    sgeom = Geometry(sphere.structure, None, [])
    for p in sample_points(sphere.structure, 16, SplitMix(77)):
        k = sectional(sgeom, p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(k - 1.0) <= 1e-6
    for name in ("torus2", "mw2_fib"):
        assert full_results[name]["Cor6.5"].verdict == "pass"
        assert full_results[name]["Thm6.14.2"].verdict == "pass"
    print(f"\nACCEPTANCE 7: PASS - curvature symmetries <= {TOL_ALG:g} "
          f"(max {worst:.3g}); unit-sphere sections at 1 +- 1e-6")


def test_criterion_08_oracle_equivalence(corpus):
    # jets against central differences over the expression corpus
    for src, names, box, consts in EXPR_CORPUS:
        expr = parse_expr(src, names, consts)
        order, pts = corpus_points(box, 64, src + "#acc")

        def scalar(point):
            return eval_expr(expr, dict(zip(order, point.tolist())))

        for values in pts:
            j = eval_expr(expr, {n: seed(values, k)
                                 for k, n in enumerate(order)})
            fd = fd_jet(scalar, values)
            assert np.max(np.abs(j.grad - fd.grad)) <= \
                TOL_FD * (1.0 + np.max(np.abs(j.grad)))
            assert np.max(np.abs(j.hess - fd.hess)) <= \
                1e-4 * (1.0 + np.max(np.abs(j.hess)))
    # connection route against the coordinate route for the derivative of g
    worst = 0.0
    for name in ("grw_exp", "mw2_riem", "kasner", "static"):
        mf = corpus[name]
        from warpfield.suite import RunContext

        ctx = RunContext(mf, samples=16)
        geom = Geometry(mf.structure, None, ctx.points())
        zeta = ProductField(tuple(
            [ctx.synth("base", "acc8:base")]
            + [ctx.synth(i, f"acc8:fiber{i}") for i in range(mf.fiber_count)]))
        for a, b in zip(lie_matrix(geom, zeta), lie_matrix_direct(geom, zeta)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= TOL_2K
    print(f"\nACCEPTANCE 8: PASS - jet/difference and route agreement "
          f"(derivative-route gap {worst:.3g} <= {TOL_2K:g})")


def test_criterion_09_census_and_vacuity(registry, full_results):
    covered = results_covered(registry)
    missing = [r for r in REQUIRED_RESULTS if r not in covered]
    assert missing == []
    conclusive = set()
    for by_check in full_results.values():
        for r in by_check.values():
            if r.verdict in ("pass", "fail"):
                conclusive.add(r.result)
            if r.verdict == "pass":
                assert r.samples >= 32, (r.manifest, r.check, r.samples)
    assert [r for r in REQUIRED_RESULTS if r not in conclusive] == []
    print(f"\nACCEPTANCE 9: PASS - {len(REQUIRED_RESULTS)} numbered results "
          f"registered, all conclusive somewhere, no pass under 32 samples")


def test_criterion_10_determinism_and_exit_codes(corpus):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "warpfield.cli", *argv],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    args = ("verify", str(corpus_dir() / "grw_exp.wm"),
            "--format", "jsonl", "--samples", "16",
            "--props", "Prop3.20,Lemma3.1,Eq2")
    a, b = run(*args), run(*args)
    assert a.stdout == b.stdout and a.stdout
    expected_fail = {"grw_poly", "kasner_bad"}
    for name in corpus:
        proc = run("verify", str(corpus_dir() / f"{name}.wm"),
                   "--samples", "8", "--format", "jsonl")
        want = 1 if name in expected_fail else 0
        assert proc.returncode == want, (name, proc.stdout[-400:])
        overall = json.loads(proc.stdout.strip().splitlines()[-1])
        assert overall["overall"] == ("fail" if want else "pass")
    bad = run("verify", "missing.wm")
    assert bad.returncode == 2
    print("\nACCEPTANCE 10: PASS - byte-identical reports and 0/1/2 exit "
          "codes across the corpus")
