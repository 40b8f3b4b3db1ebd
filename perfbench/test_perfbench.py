"""Tests of the benchmark itself, on cheap subsets of its workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import shutil
import signal
import subprocess
import sys
import time

import numpy
import pytest

import warpfield.cli
import warpfield.curvature
import warpfield.lie_killing
from warpfield.connections import Geometry
from warpfield.manifest import parse_manifest

import workloads as wl
from speed import SpeedProbe
from tracer import Tracer
from widechart import wide_manifest

SEED = 5
CORPUS_KEYS = {"sphere", "plane", "interval", "mw2_riem"}


def subset(table_override=None):
    """Four cheap corpus verifies (mw2_riem reaches curvature and Cor6.3)
    and the first six killing-sweep invocations."""
    corpus = [inv for inv in wl.invocations("corpus_verify", SEED,
                                            wl.load_table("corpus_verify"))
              if inv.key in CORPUS_KEYS]
    killing = wl.invocations("killing_sweep", SEED,
                             table_override or wl.load_table("killing_sweep"))[:6]
    return corpus + killing


def traced_pass(invs):
    tracer = Tracer()
    with tracer.installed():
        result = wl.run_pass(invs)
    return tracer, result


def test_traced_reports_are_byte_identical_to_untraced():
    invs = subset()
    untraced = wl.run_pass(invs)
    tracer, traced = traced_pass(invs)
    assert traced.outputs == untraced.outputs
    assert wl.count_failures(invs, [untraced, traced]) == 0
    layer = tracer.per_layer()
    assert layer["curvature.riemann.calls"] > 0
    assert layer["lie_killing.eq22_residual.calls"] > 0
    assert layer["check.Cor6.3.s"] > 0.0


def test_trace_counts_repeat_exactly():
    invs = subset()
    first, _ = traced_pass(invs)
    second, _ = traced_pass(invs)
    assert first.calls["numpy.einsum"] > 0
    assert first.calls == second.calls
    assert first.edges == second.edges


def test_tampered_verdict_table_counts_as_failed():
    table = wl.load_table("killing_sweep")
    key = wl.invocations("killing_sweep", SEED, table)[0].key
    entry = table[key]
    check, verdict = next(iter(entry["verdicts"].items()))
    flipped = "fail" if verdict == "pass" else "pass"
    tampered = dict(table, **{key: dict(entry, verdicts={check: flipped})})

    invs = subset(tampered)
    passes = [wl.run_pass(invs)]
    assert wl.count_failures(invs, passes) == 1
    assert wl.count_failures(subset(), passes) == 0


def test_tracer_wraps_every_import_site_and_restores_originals():
    riemann = warpfield.curvature.riemann
    field_jet = vars(Geometry)["field_jet"]
    einsum = numpy.einsum
    registry = warpfield.cli.default_registry
    tracer = Tracer()
    with tracer.installed():
        assert warpfield.lie_killing.riemann is not riemann
        assert warpfield.lie_killing.riemann is warpfield.curvature.riemann
        assert vars(Geometry)["field_jet"] is not field_jet
        assert numpy.einsum is not einsum
        assert warpfield.cli.default_registry is not registry
    assert warpfield.curvature.riemann is riemann
    assert warpfield.lie_killing.riemann is riemann
    assert vars(Geometry)["field_jet"] is field_jet
    assert numpy.einsum is einsum
    assert warpfield.cli.default_registry is registry


def test_speed_probe_samples_while_running_and_excludes_itself():
    handler = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    mark = probe.mark()
    t0, c0 = time.perf_counter(), probe.clock()
    with probe.sampling():
        while time.perf_counter() - t0 < 0.5:
            pass
    wall = time.perf_counter() - t0
    assert probe.calls >= 3
    assert probe.clock() - c0 == pytest.approx(wall - probe.spent, abs=1e-3)
    assert probe.slowdown(mark) > 0.0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_wide_chart_manifests_are_ten_dimensional_and_seeded():
    for seed in (1, 2, 99):
        for index in range(wl.WIDE_MANIFESTS):
            text = wide_manifest(seed, index)
            assert text == wide_manifest(seed, index)
            mf = parse_manifest(text, name=f"wide{index}")
            assert mf.structure.total_dim == 10
            assert len(mf.structure.fibers) == 4
            assert mf.torsion.location == "base"
            assert len(mf.fields) == 9
    assert wide_manifest(1, 0) != wide_manifest(2, 0)


def test_run_fails_without_printing_when_sources_are_missing(tmp_path):
    shutil.copytree(wl.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "killing_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
