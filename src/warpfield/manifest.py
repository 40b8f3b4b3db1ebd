"""Manifest files: the line-oriented format in which product charts ship.

Sections ``[constants]``, ``[base]``, ``[fiber.N]``, ``[torsion]``,
``[field.NAME]`` and ``[exclude]`` hold ``key = value`` lines; see the
README for the full key list.  Full-line and trailing ``#`` comments are
ignored.  Every expression is parsed once, against its own block's
coordinate scope, with the named constants substituted as literals.
``load_manifest`` parses a given (text, file name) once per process and
hands every caller the same read-only ``Manifest``.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .connections import TorsionSpec
from .fieldexpr import ExprError, num, parse_expr
from .fields import VectorFieldDef
from .metric import BlockMetric, GeometryError, ProductStructure

SECTION_RE = re.compile(
    r"^\[(base|fiber\.(\d+)|torsion|field\.([A-Za-z_][A-Za-z0-9_]*)|constants|exclude)\]$"
)
KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*(.*)$")
NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# Distinct (text, file name) pairs whose parse load_manifest keeps.
LOAD_CACHE_SIZE = 64


class ManifestError(ValueError):
    """A manifest that cannot be read or parsed; ``line`` is the line at
    fault, or None when the file as a whole cannot be read."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Manifest:
    """A parsed manifest.  It is read-only, because load_manifest hands the
    same object to every caller that loads the same text and name."""

    name: str
    constants: Mapping[str, float]
    structure: ProductStructure
    torsion: TorsionSpec
    fields: Mapping[str, VectorFieldDef]
    exclusions: Mapping[str, tuple[tuple[float, float], ...]]

    @property
    def fiber_count(self) -> int:
        return len(self.structure.fibers)


def _scan(text: str):
    """Yield (section, entries) with entries = list of (line_no, key, value)."""
    sections: list[tuple[str, int, list]] = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = SECTION_RE.match(line)
        if m:
            current = (m.group(1), line_no, [])
            sections.append(current)
            continue
        if line.startswith("["):
            raise ManifestError(f"bad section header {line!r}", line_no)
        m = KEY_RE.match(line)
        if not m:
            raise ManifestError(f"expected 'key = value', got {line!r}", line_no)
        if current is None:
            raise ManifestError("key outside any section", line_no)
        current[2].append((line_no, m.group(1), m.group(2).strip()))
    return sections


def _parse_float(value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ManifestError(f"expected a number, got {value!r}", line) from None


def _parse_interval(value: str, line: int) -> tuple[float, float]:
    parts = [s.strip() for s in value.split(",")]
    if len(parts) != 2:
        raise ManifestError(f"expected 'lo, hi', got {value!r}", line)
    lo, hi = (_parse_float(s, line) for s in parts)
    if not lo < hi:
        raise ManifestError(f"empty interval {value!r}", line)
    if not math.isfinite(hi - lo):
        raise ManifestError(f"interval {value!r} must be finite and of finite width", line)
    return lo, hi


def _parse_expr_at(src: str, variables, constants, line: int):
    try:
        return parse_expr(src, variables, constants)
    except ExprError as err:
        raise ManifestError(f"bad expression {src!r}: {err}", line) from None


def _build_block(label: str, entries, constants, header_line: int,
                 want_warp: bool, base_coords=None):
    dim = None
    coords: tuple[str, ...] | None = None
    raw_metric: dict[tuple[str, str], tuple[str, int]] = {}
    raw_box: dict[str, tuple[float, float]] = {}
    warp_src = None
    warp_line = header_line
    for line_no, key, value in entries:
        if key == "dim":
            dim = _parse_float(value, line_no)
            if not (dim.is_integer() and dim >= 1):
                raise ManifestError(f"dim must be a positive integer, got {value!r}", line_no)
            dim = int(dim)
        elif key == "coords":
            coords = tuple(s.strip() for s in value.split(","))
            if not all(NAME_RE.match(c) for c in coords):
                raise ManifestError(f"bad coordinate list {value!r}", line_no)
        elif key.startswith("g."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ManifestError(f"metric key must be g.I.J, got {key!r}", line_no)
            raw_metric[(parts[1], parts[2])] = (value, line_no)
        elif key.startswith("box."):
            raw_box[key[4:]] = _parse_interval(value, line_no)
        elif key == "warp":
            if not want_warp:
                raise ManifestError("warp is only valid in fiber sections", line_no)
            warp_src, warp_line = value, line_no
        else:
            raise ManifestError(f"unknown key {key!r} in [{label}]", line_no)
    if coords is None:
        raise ManifestError(f"section [{label}] needs coords", header_line)
    if dim is None:
        dim = len(coords)
    if dim != len(coords):
        raise ManifestError(
            f"[{label}] declares dim = {dim} but {len(coords)} coords", header_line
        )
    missing = [c for c in coords if c not in raw_box]
    if missing:
        raise ManifestError(f"[{label}] missing box for {missing}", header_line)

    zero = num(0.0)
    grid = [[zero for _ in range(dim)] for _ in range(dim)]
    for (ci, cj), (src, line_no) in raw_metric.items():
        if ci not in coords or cj not in coords:
            raise ManifestError(f"metric entry g.{ci}.{cj} names unknown coordinate",
                                line_no)
        e = _parse_expr_at(src, coords, constants, line_no)
        i, j = coords.index(ci), coords.index(cj)
        if grid[i][j] is not zero and grid[i][j] != e:
            raise ManifestError(
                f"conflicting entries for g.{ci}.{cj}", line_no
            )
        grid[i][j] = e
        grid[j][i] = e
    try:
        block = BlockMetric(label, coords, tuple(tuple(r) for r in grid),
                            tuple(raw_box[c] for c in coords))
    except GeometryError as err:
        raise ManifestError(str(err), header_line) from None

    warp = None
    if want_warp:
        if warp_src is None:
            raise ManifestError(f"fiber section [{label}] needs a warp", header_line)
        warp = _parse_expr_at(warp_src, base_coords, constants, warp_line)
    return block, warp


def parse_manifest(text: str, name: str = "<manifest>") -> Manifest:
    sections = _scan(text)
    by_kind: dict[str, list] = {}
    for sec, line_no, entries in sections:
        by_kind.setdefault(sec, []).append((line_no, entries))

    constants: dict[str, float] = {}
    for line_no, entries in by_kind.get("constants", []):
        for ln, key, value in entries:
            if not NAME_RE.match(key):
                raise ManifestError(f"bad constant name {key!r}", ln)
            constants[key] = _parse_float(value, ln)
            if not math.isfinite(constants[key]):
                raise ManifestError(f"constant {key} must be finite, got {value!r}", ln)

    if "base" not in by_kind:
        raise ManifestError("missing [base] section", 1)
    if len(by_kind["base"]) > 1:
        raise ManifestError("duplicate [base] section", by_kind["base"][1][0])
    base_line, base_entries = by_kind["base"][0]
    base, _ = _build_block("base", base_entries, constants, base_line, want_warp=False)

    fiber_secs = sorted(
        ((int(sec.split(".")[1]), line_no, entries)
         for sec, line_no, entries in sections if sec.startswith("fiber.")),
    )
    fibers: list[BlockMetric] = []
    warps: list = []
    for expected, (idx, line_no, entries) in enumerate(fiber_secs, start=1):
        if idx != expected:
            raise ManifestError(
                f"fiber sections must be numbered 1..m; found fiber.{idx}", line_no
            )
        block, warp = _build_block(f"fiber.{idx}", entries, constants, line_no,
                                   want_warp=True, base_coords=base.coords)
        fibers.append(block)
        warps.append(warp)

    try:
        structure = ProductStructure(base=base, fibers=tuple(fibers),
                                     warps=tuple(warps))
    except GeometryError as err:
        raise ManifestError(str(err), base_line) from None

    torsion = TorsionSpec.zero()
    if "torsion" in by_kind:
        if len(by_kind["torsion"]) > 1:
            raise ManifestError("duplicate [torsion] section", by_kind["torsion"][1][0])
        line_no, entries = by_kind["torsion"][0]
        torsion = _build_torsion(entries, structure, constants, line_no)

    fields: dict[str, VectorFieldDef] = {}
    for sec, line_no, entries in sections:
        if not sec.startswith("field."):
            continue
        fname = sec.split(".", 1)[1]
        if fname in fields:
            raise ManifestError(f"duplicate field {fname!r}", line_no)
        fields[fname] = _build_field(fname, entries, structure, constants, line_no)

    exclusions: dict[str, list[tuple[float, float]]] = {}
    for line_no, entries in by_kind.get("exclude", []):
        for ln, key, value in entries:
            if key not in structure.coord_names:
                raise ManifestError(f"exclusion names unknown coordinate {key!r}", ln)
            exclusions.setdefault(key, []).append(_parse_interval(value, ln))

    manifest = Manifest(
        name=name, constants=MappingProxyType(constants), structure=structure,
        torsion=torsion, fields=MappingProxyType(fields),
        exclusions=MappingProxyType({k: tuple(v) for k, v in exclusions.items()}))
    _validate_center(manifest)
    return manifest


def _parse_location(value: str, structure: ProductStructure, line: int):
    if value == "zero":
        return "zero"
    if value == "base":
        return "base"
    m = re.match(r"^fiber\.(\d+)$", value)
    if m:
        idx = int(m.group(1)) - 1
        if not 0 <= idx < len(structure.fibers):
            raise ManifestError(
                f"location {value!r} out of range (manifest has "
                f"{len(structure.fibers)} fibers)", line)
        return idx
    raise ManifestError(f"bad location {value!r}", line)


def _collect_components(entries):
    comps: dict[str, tuple] = {}
    loc_value = None
    loc_line = None
    for line_no, key, value in entries:
        if key == "location":
            loc_value, loc_line = value, line_no
            continue
        if key.startswith("comp."):
            cname = key[5:]
            comps[cname] = (value, line_no)
            continue
        raise ManifestError(f"unknown key {key!r}", line_no)
    return loc_value, loc_line, comps


def _components_for(block, comps, constants):
    out = []
    for c in block.coords:
        if c in comps:
            src, line_no = comps.pop(c)
            out.append(_parse_expr_at(src, block.coords, constants, line_no))
        else:
            out.append(num(0.0))
    if comps:
        stray, (_, line_no) = next(iter(comps.items()))
        raise ManifestError(
            f"component for {stray!r} does not belong to block", line_no)
    return tuple(out)


def _build_torsion(entries, structure, constants, header_line) -> TorsionSpec:
    loc_value, loc_line, comps = _collect_components(entries)
    if loc_value is None:
        raise ManifestError("[torsion] needs a location", header_line)
    loc = _parse_location(loc_value, structure, loc_line)
    if loc == "zero":
        if comps:
            _, (_, line_no) = next(iter(comps.items()))
            raise ManifestError("zero torsion takes no components", line_no)
        return TorsionSpec.zero()
    block = structure.block_metric(loc)
    return TorsionSpec(loc, VectorFieldDef(loc, _components_for(block, comps, constants)))


def _build_field(fname, entries, structure, constants, header_line) -> VectorFieldDef:
    loc_value, loc_line, comps = _collect_components(entries)
    if loc_value is None:
        raise ManifestError(f"[field.{fname}] needs a location", header_line)
    loc = _parse_location(loc_value, structure, loc_line)
    if loc == "zero":
        raise ManifestError(f"[field.{fname}] cannot be located at 'zero'", loc_line)
    block = structure.block_metric(loc)
    vfd = VectorFieldDef(loc, _components_for(block, comps, constants))
    vfd.validate(structure)
    return vfd


def _validate_center(manifest: Manifest) -> None:
    from .jets import DomainError

    ps = manifest.structure
    # lo + hi can overflow for a finite box near the float limit
    center = np.array([0.5 * lo + 0.5 * hi for lo, hi in ps.box])
    try:
        ps.metric_at(center)
    except (GeometryError, DomainError) as err:
        raise ManifestError(f"chart-center validation failed: {err}", 1) from None


def load_manifest(path) -> Manifest:
    """The manifest at ``path``, named after the file's stem.  The text is
    read on every call and its parse looked up by (text, name), so an
    edited file is parsed afresh; a file that cannot be read as UTF-8 text
    is a ManifestError naming the path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read {p}: {err.strerror or err}", None) from None
    except UnicodeDecodeError as err:
        raise ManifestError(f"{p} is not UTF-8 text ({err.reason} at byte "
                            f"offset {err.start})", None) from None
    return _parsed(text, p.stem)


@functools.lru_cache(maxsize=LOAD_CACHE_SIZE)
def _parsed(text: str, name: str) -> Manifest:
    # a manifest that raises is not kept, so it raises again on every load
    return parse_manifest(text, name)
