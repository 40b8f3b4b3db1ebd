"""Check registry infrastructure.

Every numbered statement in the verified catalog is represented by one
or more registered checks (sub-items get suffixed ids such as
``Lemma4.1.3``).  A check runs against one manifest and produces a
:class:`CheckResult` with a pass / fail / inconclusive verdict;
``inconclusive`` means the manifest admits no configuration satisfying
the statement's hypotheses, and is never reported as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import Geometry
from .fields import ProductField, VectorFieldDef, lift, synth_field
from .lie_killing import max_abs
from .manifest import Manifest
from .metric import sample_points
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix, subseed

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Tolerances:
    alg: float = 1e-8        # first-order identities
    two: float = 1e-7        # second-derivative identities


TRACE_TOL = 1e-6             # frame-trace decomposition
SECOND_ORDER_TOL = 1e-6      # second Lie-derivative decomposition
SYM_TOL = 1e-12              # bilinear symmetry
HYP_TOL = 1e-9               # hypothesis residual gate


@dataclass(frozen=True)
class Outcome:
    verdict: str
    max_abs: float = 0.0
    mean_abs: float = 0.0
    samples: int = 0
    tolerance: float = 0.0
    note: str = ""


def residual_outcome(values, tol: float, samples: int | None = None,
                     note: str = "") -> Outcome:
    """The verdict on residuals ``values``: an array, or a list of arrays
    and numbers, each read flattened in C order, in list order.  Pass when
    the largest |value| is within ``tol``; NaN or no value never passes."""
    parts = [values] if isinstance(values, np.ndarray) else values
    arr = np.abs(np.concatenate([np.ravel(v) for v in parts], dtype=float)
                 if len(parts) else np.zeros(0))
    if arr.size == 0:
        return Outcome(INCONCLUSIVE, note=note or "no admissible samples")
    worst = max_abs(arr)
    return Outcome(
        PASS if worst <= tol else FAIL,
        max_abs=worst,
        mean_abs=float(arr.mean()),
        samples=samples if samples is not None else int(arr.size),
        tolerance=tol,
        note=note,
    )


def inconclusive(note: str) -> Outcome:
    return Outcome(INCONCLUSIVE, note=note)


@dataclass(frozen=True)
class CheckResult:
    check: str
    result: str
    manifest: str
    verdict: str
    max_abs: float
    mean_abs: float
    samples: int
    tolerance: float
    note: str = ""

    @staticmethod
    def of(check: str, result: str, manifest: str, out: Outcome) -> "CheckResult":
        return CheckResult(check, result, manifest, out.verdict, out.max_abs,
                           out.mean_abs, out.samples, out.tolerance, out.note)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL


@dataclass(frozen=True)
class CheckSpec:
    id: str
    kind: str         # identity | sufficiency | necessity | equivalence |
                      # definition | witness | builder | modeled | axiom
    title: str
    applies: object   # Manifest -> bool
    run: object       # RunContext -> Outcome

    @property
    def result(self) -> str:
        """The numbered statement this check belongs to: the id up to its
        item suffix (``Prop4.9.2a`` belongs to ``Prop4.9``)."""
        return ".".join(self.id.split(".")[:2])


class RunContext:
    """Per-(manifest, run-config) bundle of cached geometry and sampling.

    The product geometry over the sample points carries the manifest's
    shift; its block geometries (``block_geom``) view each block as a
    standalone manifold, and read each lifted part's jet from the
    product's walk of it.  The connection is chosen by ``kind`` at
    each call.  Every check of one run reads the same geometries, so each
    stack is computed once per run, and so is each gate's maximum
    (``sample_max``); nothing outlives the run.
    """

    def __init__(self, mf: Manifest, samples: int = DEFAULT_SAMPLES,
                 seed: int = DEFAULT_SEED, tol: Tolerances = Tolerances()):
        self.mf = mf
        self.ps = mf.structure
        self.samples = samples
        self.seed = seed
        self.tol = tol
        points = sample_points(self.ps, samples, self.rng("points:points"), mf.exclusions)
        self.geom = Geometry(self.ps, mf.torsion, points)
        self._combos: dict[str, ProductField] | None = None
        self._synth: dict[tuple, VectorFieldDef] = {}

    # ---- sampling ----

    def rng(self, label: str) -> SplitMix:
        return SplitMix(subseed(self.seed, self.mf.name, label))

    def points(self) -> np.ndarray:
        """The sample set (S, n), one point per row."""
        return self.geom.points

    # ---- fields ----

    def synth(self, block, label: str) -> VectorFieldDef:
        """synth_field's draw from the stream of ``label``, once per run: a
        repeat is the same object, so the geometry finds its stacks by ``is``."""
        key = (block, label)
        if key not in self._synth:
            self._synth[key] = synth_field(self.ps, block, self.rng(f"synth:{label}"))
        return self._synth[key]

    def named_field(self, name: str) -> ProductField:
        return lift(self.mf.fields[name])

    def fields_on(self, block) -> dict[str, VectorFieldDef]:
        return {name: f for name, f in self.mf.fields.items() if f.block == block}

    def field_combos(self) -> dict[str, ProductField]:
        """Named manifest fields plus pairwise cross-block sums, built once
        per run; callers never modify the dict."""
        if self._combos is None:
            fields = self.mf.fields
            combos = {name: lift(f) for name, f in fields.items()}
            names = sorted(fields)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    if fields[a].block != fields[b].block:
                        combos[f"{a}+{b}"] = ProductField((fields[a], fields[b]))
            self._combos = combos
        return self._combos

    def block_geom(self, block) -> Geometry:
        """The geometry of one block viewed as a standalone manifold."""
        return self.geom.block(block)

    # ---- per-field sample quantities ----

    def over_samples(self, fn, zeta, block=None, **kw):
        """fn(geom, zeta, **kw): fn's stack over the sample points of the
        product, sample axis first.

        With ``block``, ``zeta`` is a lifted field on that block, evaluated
        on the block's own geometry at the points' block coordinates.  The
        geometry computes each stack once and returns it on every later
        request; callers never modify it.
        """
        if block is None:
            return fn(self.geom, zeta, **kw)
        return fn(self.block_geom(block), lift(zeta), **kw)

    def sample_max(self, fn, zeta, block=None, **kw) -> float:
        """Max over the sample points of |fn| (see over_samples), kept by
        the same geometry as the stack: a repeated gate reads the kept
        float."""
        if block is None:
            return self.geom.stack(_max_of, fn, zeta, tuple(sorted(kw.items())))
        return self.block_geom(block).stack(_max_of, fn, lift(zeta),
                                            tuple(sorted(kw.items())))


def _max_of(geom, fn, zeta, kw) -> float:
    return max_abs(fn(geom, zeta, **dict(kw)))


class Registry:
    def __init__(self, specs: list[CheckSpec], aliases: dict[str, str]):
        self.specs = list(specs)
        self.by_id = {s.id: s for s in self.specs}
        if len(self.by_id) != len(self.specs):
            raise ValueError("duplicate check ids in registry")
        self.aliases = dict(aliases)

    def select(self, token: str) -> list[CheckSpec]:
        """Resolve one --props token to check specs (id, result or alias)."""
        token = self.aliases.get(token, token)
        if token == "all":
            return list(self.specs)
        hits = [s for s in self.specs if s.id == token or s.result == token]
        if not hits:
            raise KeyError(f"unknown check id {token!r}")
        return hits

    def select_many(self, tokens) -> list[CheckSpec]:
        seen: dict[str, CheckSpec] = {}
        for token in tokens:
            for s in self.select(token):
                seen[s.id] = s
        return [s for s in self.specs if s.id in seen]


def run_checks(mf: Manifest, specs: list[CheckSpec],
               samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
               tol: Tolerances = Tolerances(),
               explicit: bool = False) -> list[CheckResult]:
    """Run the given checks against one manifest, ordered by check id.

    Checks whose shape predicate rejects the manifest are reported as
    inconclusive when explicitly selected and silently skipped otherwise.
    """
    ctx = RunContext(mf, samples=samples, seed=seed, tol=tol)
    results: list[CheckResult] = []
    for spec in sorted(specs, key=lambda s: s.id):
        if not spec.applies(mf):
            if explicit:
                results.append(CheckResult.of(
                    spec.id, spec.result, mf.name,
                    inconclusive("manifest shape does not admit this check")))
            continue
        results.append(CheckResult.of(spec.id, spec.result, mf.name, spec.run(ctx)))
    return results


# Numbered statements the registry must cover (census contract).
REQUIRED_RESULTS = (
    "Lemma3.1", "Lemma3.2", "Lemma3.3", "Def3.4", "Def3.5", "Def3.6",
    "Lemma3.7", "Lemma3.8", "Remark3.9", "Prop3.10", "Remark3.11",
    "Example3.12", "Prop3.13", "Prop3.14", "Cor3.15", "Cor3.16",
    "Prop3.17", "Prop3.18", "Def3.19", "Prop3.20", "Prop3.21", "Prop3.22",
    "Def3.23", "Prop3.24",
    "Lemma4.1", "Lemma4.2", "Prop4.3", "Prop4.4", "Cor4.5", "Cor4.6",
    "Prop4.7", "Prop4.8", "Prop4.9", "Prop4.10",
    "Prop5.1", "Cor5.2", "Prop5.3", "Prop5.4",
    "Def6.1", "Prop6.2", "Cor6.3", "Lemma6.4", "Cor6.5", "Lemma6.6",
    "Lemma6.7", "Prop6.8", "Cor6.9", "Cor6.10", "Cor6.11", "Prop6.12",
    "Thm6.13", "Thm6.14", "Prop6.15", "Def6.16", "Prop6.17",
)

EQUATION_ALIASES = {
    "Eq1": "Eq2", "Eq3": "NablaBarG",
    "Eq4": "Lemma3.3", "Eq5": "Def3.4", "Eq6": "Def3.5", "Eq7": "Def3.6",
    "Eq8": "Lemma3.7", "Eq9": "Lemma3.8",
    "Eq10": "Prop3.13", "Eq11": "Prop3.14", "Eq12": "Cor3.15",
    "Eq13": "Cor3.16", "Eq14": "Prop4.3", "Eq15": "Prop4.4",
    "Eq16": "Cor4.5", "Eq17": "Cor4.6", "Eq18": "Prop5.1", "Eq19": "Cor5.2",
    "Eq20": "Def6.1", "Eq21": "Prop6.2", "Eq22": "Cor6.3", "Eq23": "Cor6.5",
    "Eq24": "Lemma6.6", "Eq25": "Prop6.8", "Eq26": "Cor6.10",
    "Eq27": "Prop6.12", "Eq28": "Prop6.15", "Eq29": "Prop6.17",
}


def default_registry() -> Registry:
    from .checks import build_specs

    return Registry(build_specs(), EQUATION_ALIASES)
