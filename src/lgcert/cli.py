"""Scenario ingestion, sweeps, and report emission.

A scenario JSON file declares the system (state, Hamiltonian, observable),
the measurement schedule, the protocol configuration, and the macrorealism
checks to run.  Each moment entering a check is measured in its own
experiment with a fresh initial state, exactly as the certification protocol
demands; an opt-in flag derives lower moments from one sequential table for
comparison studies instead.  Experiments and checks run on the one path
that the library entry points share (``protocols`` and ``macrocert``).

Exit codes: 0 = ran with every check satisfied, 1 = ran with violations (the
interesting physics case), 2 = input or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import stat
import sys
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .qcore import (
    ClumsinessModel,
    DensityOperator,
    DichotomicObservable,
    Hamiltonian,
    ManyValuedObservable,
    Observable,
    ValidationError,
    matrix_from_json,
)
from .protocols import (
    ProtocolConfig,
    Scenario,
    ScenarioError,
    Schedule,
    _RowSet,
    _times_name,
    table_to_json,
)
from .macrocert import _CHECKS, ConditionResult, WitnessReport, _certify, _certify_grouped

__all__ = [
    "ScenarioError",
    "Scenario",
    "SweepSpec",
    "load_scenario",
    "scenario_from_dict",
    "load_sweep",
    "run_certification",
    "run_sweep",
    "sweep_to_csv",
    "main",
]

KNOWN_CHECKS = tuple(_CHECKS)

STATE_PRESETS = ("maximally_mixed", "ground", "plus_x")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: the template dict, the dotted parameter path and the values.

    ``scenario`` is the template already parsed, as ``load_sweep`` leaves
    it; when it is ``None``, ``run_sweep`` parses the template itself.
    """

    template: Mapping[str, Any]
    parameter: str
    values: tuple[Any, ...]
    scenario: Scenario | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def _field(name: str, parse, *args):
    """``parse(*args)``; an error it raises becomes a ``ScenarioError`` naming ``name``."""
    try:
        return parse(*args)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValidationError is a ValueError
        raise ScenarioError(f"{name}: {exc}") from exc


def _integer(name: str, value) -> int:
    """An integer field: an int, an integral number or a string ``int`` reads; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ScenarioError(f"{name}: must be an integer, got {value!r}")
    return _field(name, int, value)


def _number(name: str, value) -> float:
    """A real-number field: an int or a float, never a bool or a string."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Real)):
        raise ScenarioError(f"{name}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _integers(name: str, value) -> tuple[int, ...]:
    """A list of integer fields, each read as ``_integer`` reads one."""
    if not isinstance(value, list):
        raise ScenarioError(f"{name}: must be a list of integers, got {value!r}")
    return tuple(_integer(name, v) for v in value)


def _matrix(data, name: str):
    """A matrix field read by ``matrix_from_json``, whose errors name ``name`` already.

    They are raised as ``ScenarioError``, which ``_field`` passes on as it
    stands, so a message names its field once.
    """
    try:
        return matrix_from_json(data, name)
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_state(spec, dim: int) -> DensityOperator:
    if isinstance(spec, str):
        if spec == "maximally_mixed":
            return DensityOperator.maximally_mixed(dim)
        if spec == "ground":
            return DensityOperator.ground(dim)
        if spec == "plus_x":
            if dim != 2:
                raise ScenarioError("initial_state: preset 'plus_x' requires dimension 2")
            return DensityOperator.plus_x()
        raise ScenarioError(
            f"initial_state: unknown preset {spec!r}; expected one of {STATE_PRESETS}"
        )
    mat = _matrix(spec, "initial_state")
    if mat.shape[0] != dim:
        raise ScenarioError(
            f"initial_state: matrix dimension {mat.shape[0]} does not match dimension {dim}"
        )
    return DensityOperator(mat)


_PRESET_KEYS = ("preset", "frequency")  # the keys a preset Hamiltonian's parser reads


def _parse_hamiltonian(spec, dim: int) -> Hamiltonian:
    if isinstance(spec, Mapping) and "preset" in spec:
        if spec["preset"] != "precession":
            raise ScenarioError(f"hamiltonian: unknown preset {spec['preset']!r}")
        if dim != 2:
            raise ScenarioError("hamiltonian: preset 'precession' requires dimension 2")
        return Hamiltonian.precession(_number("hamiltonian.frequency", spec.get("frequency", 1.0)))
    mat = _matrix(spec, "hamiltonian")
    if mat.shape[0] != dim:
        raise ScenarioError(
            f"hamiltonian: matrix dimension {mat.shape[0]} does not match dimension {dim}"
        )
    return Hamiltonian(mat)


_PROJECTOR_KEYS = ("projectors", "labels")  # the keys a projector observable's parser reads


def _parse_observable(spec, dim: int) -> Observable:
    if isinstance(spec, str):
        if spec != "sigma_z":
            raise ScenarioError(f"observable: unknown preset {spec!r}")
        if dim != 2:
            raise ScenarioError("observable: preset 'sigma_z' requires dimension 2")
        return DichotomicObservable.sigma_z()
    if isinstance(spec, Mapping) and "projectors" in spec:
        projs = tuple(
            _matrix(p, f"observable projector {i}")
            for i, p in enumerate(spec["projectors"])
        )
        labels = range(1, len(projs) + 1)
        if "labels" in spec:
            labels = _integers("observable.labels", spec["labels"])
        obs: Observable = ManyValuedObservable(projs, labels)
    else:
        obs = DichotomicObservable(_matrix(spec, "observable"))
    if obs.dim != dim:
        raise ScenarioError(f"observable: dimension {obs.dim} does not match dimension {dim}")
    return obs


_CLUMSINESS_KEYS = ("kind", "strength", "generator")  # the keys ``_parse_clumsiness`` reads


def _parse_clumsiness(spec) -> ClumsinessModel:
    if spec is None:
        return ClumsinessModel.none()
    if not isinstance(spec, Mapping):
        raise ScenarioError("protocol.clumsiness: must be a JSON object")
    kind = spec.get("kind", "none")
    if kind == "none":
        return ClumsinessModel.none()
    if kind == "depolarizing":
        return ClumsinessModel.depolarizing(_number("protocol.clumsiness.strength", spec["strength"]))
    if kind == "unitary_kick":
        return ClumsinessModel.unitary_kick(
            _number("protocol.clumsiness.strength", spec["strength"]),
            _matrix(spec["generator"], "protocol.clumsiness.generator"),
        )
    raise ScenarioError(f"protocol.clumsiness: unknown kind {kind!r}")


def _schedule(values) -> Schedule:
    """The schedule of ``values``, each time read once by ``_number``."""
    return Schedule._checked(tuple([_number("schedule", t) for t in values]))


def _parse_schedule(data: Mapping[str, Any]) -> Schedule:
    if "schedule" not in data:
        raise ScenarioError("schedule: missing")
    return _field("schedule", _schedule, data["schedule"])


_PROTOCOL_KEYS = ("mode", "dephase_times", "clumsiness", "shots")  # the keys ``_parse_protocol`` reads


def _parse_protocol(data: Mapping[str, Any]) -> tuple[ProtocolConfig, int]:
    """The protocol config and the shots, which a top-level ``shots`` sets over ``protocol.shots``."""
    proto = data.get("protocol")
    if proto is None:
        proto = {}
    elif not isinstance(proto, Mapping):
        raise ScenarioError("protocol: must be a JSON object")
    if "shots" in data:
        shots = _integer("shots", data["shots"])
    else:
        shots = _integer("protocol.shots", proto.get("shots", 0))
    dephase = proto.get("dephase_times")
    config = _protocol_config(
        proto.get("mode", "projective"),
        None if dephase is None else _integers("protocol.dephase_times", dephase) or None,
        proto.get("clumsiness"),
        shots,
    )
    return config, shots


def _protocol_config(mode, dephase_times, clumsiness, shots: int) -> ProtocolConfig:
    """The config of the parsed ``dephase_times`` and ``shots`` with ``mode`` and the ``clumsiness`` spec."""
    return _field("protocol", ProtocolConfig, mode, dephase_times,
                  _field("protocol.clumsiness", _parse_clumsiness, clumsiness), shots)


def _parse_checks(data: Mapping[str, Any]) -> tuple[str, ...]:
    checks = data.get("checks", ())
    if not isinstance(checks, (list, tuple)):
        raise ScenarioError(f"checks: must be a list, got {checks!r}")
    checks = tuple(str(c).upper() for c in checks)
    unknown = [c for c in checks if c not in KNOWN_CHECKS]
    if unknown:
        raise ScenarioError(f"checks: unknown identifiers {unknown}; expected from {KNOWN_CHECKS}")
    if len(set(checks)) != len(checks):
        raise ScenarioError("checks: identifiers must be distinct")
    return checks


def _parse_seed(data: Mapping[str, Any]) -> int:
    seed = _integer("seed", data.get("seed", 0))
    if seed < 0:
        raise ScenarioError(f"seed: must be a non-negative integer, got {seed}")
    return seed


def _parse_derive(data: Mapping[str, Any]) -> bool:
    derive = data.get("derive_lower_moments", False)
    if not isinstance(derive, bool):
        raise ScenarioError(f"derive_lower_moments: must be true or false, got {derive!r}")
    return derive


_ABSENT = object()


def _parse_dimension(data: Mapping[str, Any]) -> int:
    dim = _integer("dimension", data.get("dimension", 2))
    if dim < 2:
        raise ScenarioError(f"dimension must be >= 2, got {dim}")
    return dim


# The top-level keys a full parse reads, in its order, where ``shots`` goes with ``protocol``.
_SCENARIO_KEYS = ("dimension", "initial_state", "hamiltonian", "observable", "schedule", "protocol", "checks",
                  "shots", "seed", "derive_lower_moments")


def _parse_fields(data: Mapping[str, Any], dim: int, keys: Collection[str] | None) -> dict[str, Any]:
    """The ``Scenario`` fields that the top-level ``keys`` of ``data`` set, in a full parse's order; ``None`` is all.

    ``shots`` and ``protocol`` set the config and shots together.
    """
    fields: dict[str, Any] = {}
    for name, parse, default in (
        ("initial_state", _parse_state, "ground"),
        ("hamiltonian", _parse_hamiltonian, {"preset": "precession"}),
        ("observable", _parse_observable, "sigma_z"),
    ):
        if keys is None or name in keys:
            spec = data.get(name, _ABSENT)
            fields[name] = _field(name, parse, default if spec is _ABSENT else spec, dim)
    if keys is None or "schedule" in keys:
        fields["schedule"] = _parse_schedule(data)
    if keys is None or "protocol" in keys or "shots" in keys:
        fields["config"], fields["shots"] = _parse_protocol(data)
    if keys is None or "checks" in keys:
        fields["checks"] = _parse_checks(data)
    if keys is None or "seed" in keys:
        fields["seed"] = _parse_seed(data)
    if keys is None or "derive_lower_moments" in keys:
        fields["derive_lower_moments"] = _parse_derive(data)
    return fields


def _changed_fields(data: Mapping[str, Any], template: Scenario, keys: Collection[str]) -> dict[str, Any]:
    """The fields that the top-level ``keys`` of ``data``, a dict derived from ``template.raw``, set.

    They are parsed at the template's dimension, unless ``dimension`` is
    among the keys: then it is parsed first, as a full parse does, and at
    another dimension the state, Hamiltonian and observable are parsed again.
    """
    if "dimension" not in keys:
        return _parse_fields(data, template.dimension, keys)
    dim = _parse_dimension(data)
    if dim != template.dimension:
        keys = {*keys, "initial_state", "hamiltonian", "observable"}
    return dict(_parse_fields(data, dim, keys), dimension=dim)


def _with_fields(template: Scenario, raw: dict, fields: Mapping[str, Any]) -> Scenario:
    """``template`` with ``raw`` and the parsed ``fields`` over its own, as ``Scenario(...)`` would hold them."""
    scenario = object.__new__(Scenario)
    held = scenario.__dict__
    held.update(template.__dict__)
    held.update(fields)
    held["raw"] = raw
    return scenario


def scenario_from_dict(data: Mapping[str, Any], template: Scenario | None = None) -> Scenario:
    """Validate a scenario dict; every error names the offending field.

    ``template`` is a scenario parsed earlier from a dict that ``data`` was
    derived from.  Only the top-level keys whose objects differ from the
    template's dict, present in one and not the other or not the same
    object, are parsed.  Every other field is the template's parsed value:
    state, Hamiltonian and observable at the same dimension; schedule,
    config and shots (``protocol`` with ``shots``), checks, seed and moment
    source at any.  These parsed without error, so the first error and its
    message are those of a template-free parse.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    raw = dict(data)
    if template is None:
        dim = _parse_dimension(raw)
        return Scenario(dimension=dim, raw=raw, **_parse_fields(raw, dim, None))
    old = template.raw
    keys = {name for name, value in raw.items() if old.get(name, _ABSENT) is not value}
    keys.update(old.keys() - raw.keys())
    return _with_fields(template, raw, _changed_fields(raw, template, keys))


def _read_json(path: str | Path, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    return scenario_from_dict(_read_json(path, "scenario"))


def load_sweep(path: str | Path) -> SweepSpec:
    data = _read_json(path, "sweep")
    if not isinstance(data, dict):
        raise ScenarioError("sweep: the file must hold a JSON object")
    if "scenario" not in data:
        raise ScenarioError("sweep: missing 'scenario' template")
    parameter = data.get("parameter")
    if not parameter or not isinstance(parameter, str):
        raise ScenarioError("sweep: 'parameter' must be a non-empty dotted path")
    values = data.get("values")
    if not isinstance(values, list) or not values:
        raise ScenarioError("sweep: 'values' must be a non-empty list")
    template = scenario_from_dict(data["scenario"])  # validated eagerly, parsed once
    return SweepSpec(
        template=data["scenario"], parameter=parameter, values=tuple(values), scenario=template
    )


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _verdict(conditions: Sequence[ConditionResult], witnesses: Sequence[WitnessReport]) -> str:
    all_ok = all(c.verdict == "satisfied" for c in conditions) and all(
        w.verdict == "non-invasive" for w in witnesses
    )
    return "all_satisfied" if all_ok else "violations"


def run_certification(scenario: Scenario) -> dict:
    """Execute every experiment a scenario's checks require and certify.

    Returns the full report: every probability table, moment, margin, witness
    and verdict, plus the seed and exact/empirical mode.  Deterministic for a
    fixed scenario and seed.
    """
    s = scenario
    tables, moments, conditions, witnesses = _certify(_RowSet([s]), 0)
    return {
        "seed": s.seed,
        "mode": "empirical" if s.shots > 0 else "exact",
        "shots": s.shots,
        "checks": list(s.checks),
        "experiments": {k: table_to_json(t) for k, t in sorted(tables.items())},
        "moments": (
            {_times_name(k): v for k, v in sorted(moments.values.items())} if moments else {}
        ),
        "conditions": [c.to_json() for c in conditions],
        "witnesses": [w.to_json() for w in witnesses],
        "verdict": _verdict(conditions, witnesses),
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _row_data(template: Mapping[str, Any], parameter: str, value) -> dict:
    """The template with ``value`` set at ``parameter``; only the dicts along the path are copied.

    An absent or null field on the path becomes a new object; any other
    field there that is not an object raises ``ScenarioError``.
    """
    data = dict(template)
    if parameter == "schedule.gap":
        try:
            m = len(template.get("schedule", [])) or 3
        except TypeError as exc:
            raise ScenarioError(f"schedule.gap: {exc}") from exc
        gap = _number("schedule.gap", value)
        data["schedule"] = [gap * (k + 1) for k in range(m)]
        return data
    parts = parameter.split(".")
    node = data
    for i, part in enumerate(parts[:-1]):
        nxt = node.get(part)
        if nxt is not None and not isinstance(nxt, dict):
            field = ".".join(parts[: i + 1])
            raise ScenarioError(f"{parameter}: {field} is a {type(nxt).__name__}, not a JSON object")
        nxt = dict(nxt or {})
        node[part] = nxt
        node = nxt
    node[parts[-1]] = value
    return data


def _parser_keys(where: str, node) -> tuple[str, ...] | None:
    """The keys the parser of the object at path ``where`` reads, or ``None`` where they are not fixed.

    An absent or null protocol or clumsiness counts, since ``_row_data``
    makes it an object.
    """
    if where == "protocol" or where == "protocol.clumsiness":
        if node is None or isinstance(node, dict):
            return _PROTOCOL_KEYS if where == "protocol" else _CLUMSINESS_KEYS
    elif isinstance(node, dict):
        if where == "hamiltonian" and "preset" in node:
            return _PRESET_KEYS
        if where == "observable" and "projectors" in node:
            return _PROJECTOR_KEYS
    return None


def _swept_object(template: Mapping[str, Any], parameter: str) -> str:
    """What every row of a ``parameter`` sweep of ``template`` parses again: a top-level key or ``protocol.clumsiness``.

    That is the deepest parsed object the path lands in: ``schedule`` for
    ``schedule.gap``, ``protocol.clumsiness`` for a key of the clumsiness,
    and else the top-level key the path starts with, whose fields
    ``_changed_fields`` parses (``protocol`` and ``shots`` both parse the
    protocol; ``dimension`` parses state, Hamiltonian and observable too
    when it changes).  On every
    object along the path whose keys are fixed, the key the path names must
    be one its parser reads, or ``ScenarioError`` names the parameter, the
    object and those keys.  The rest of a path into any other field (a list,
    a matrix, a preset name) is left to ``_row_data`` and the field's parser.
    """
    if parameter == "schedule.gap":
        return "schedule"
    parts = parameter.split(".")
    where, keys, node = "the scenario", _SCENARIO_KEYS, template
    for depth, part in enumerate(parts):
        if part not in keys:
            raise ScenarioError(f"{parameter}: {part!r} is not a key of {where}; its parser reads {', '.join(keys)}")
        where = ".".join(parts[: depth + 1])
        node = None if node is None else node.get(part)
        keys = _parser_keys(where, node)
        if keys is None:
            break
    if parts[0] == "protocol" and len(parts) > 2 and parts[1] == "clumsiness":
        return "protocol.clumsiness"
    return parts[0]


def _row_fields(target: str, data: dict, template: Scenario) -> dict[str, Any]:
    """The fields of a sweep row whose path lands in ``target``, parsed from the row's ``data``.

    Every other field is the template's, which parsed without error, so the
    row's first error and its message are those of a template-free parse.
    """
    if target != "protocol.clumsiness":
        return _changed_fields(data, template, (target,))
    c = template.config  # the rest of the config, as ``_parse_protocol`` read it from the template
    return {"config": _protocol_config(c.mode, c.dephase_times, data["protocol"].get("clumsiness"), template.shots)}


def _sweep_row(rows: _RowSet, row: int, value) -> dict:
    """One sweep row: its margins and verdict from its group's columns."""
    try:
        margins, satisfied = _certify_grouped(rows, row)
    except ValidationError as exc:
        return {"value": value, "margins": {}, "verdict": "error", "error": str(exc)}
    verdict = "all_satisfied" if satisfied else "violations"
    return {"value": value, "margins": margins, "verdict": verdict, "error": ""}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the scenario at every swept value; one row per value, in sweep order.

    The template is parsed once: ``spec.scenario`` when ``load_sweep`` has
    parsed it already.  The swept path is resolved once, before any row,
    against the template dict (``_swept_object``): to the deepest parsed
    object it lands in, which is ``schedule`` (also for ``schedule.gap``),
    ``protocol.clumsiness`` (its ``kind``, ``strength`` or ``generator``),
    ``protocol`` (its ``mode``, ``dephase_times`` or ``shots``, and the
    top-level ``shots``), or else the top-level field itself (``dimension``
    with the state, Hamiltonian and observable, when it changes).  A path
    that names a key no parser reads, in the scenario, the protocol, the
    clumsiness, a preset Hamiltonian or a projector observable, makes every
    row an error row that names the parameter, the object and the keys its
    parser reads.  Each row copies only the dicts along the path, runs only
    that object's parser and takes every other parsed field from the
    template, so a sweep shares one eigendecomposition; a row's errors read
    as a template-free parse's.  The rows are split into groups
    before any row runs: rows that differ only in schedule times or
    clumsiness strength and share their checks and moment source form one
    group, which runs all its experiments in one walk; rows of equal times
    walk as one row until their kicks differ, or throughout.  Every
    row is evaluated as a column of its group: the first row of a group that
    asks computes every row's moments, variances, margins and verdicts from
    the group's (R, N) arrays, accumulating in the scalar code's order, and
    builds no per-row table.  At finite shots the arrays hold each row's
    sampled frequencies, and sampling stays per row: each row draws its own
    multinomials from its own child seeds, in its own certification's
    order.  Rows that share a seed share its child seeds and their generator
    states (each child seed is derived from (seed, draw index) and seeded
    once per sweep, and each draw restores its state).  Rows whose checks
    differ share no walk, and where the cap on a call's entries binds, a
    group is sized by the whole schedule.  Every row equals
    ``run_certification`` on its own scenario, bit for bit.  A row that
    fails, including one whose value is malformed or whose exact table fails
    validation, carries its error message in the ``error`` field and the
    sweep continues.
    """
    template = spec.scenario
    if template is None:
        try:
            template = scenario_from_dict(spec.template)
        except ValidationError:
            template = None  # the rows may still be valid; each one reports its own errors
    scenarios: list[Scenario | str] = []
    try:
        target = _swept_object(spec.template, spec.parameter)
    except ScenarioError as exc:
        scenarios = [str(exc)] * len(spec.values)
    else:
        for value in spec.values:
            try:
                data = _row_data(spec.template, spec.parameter, value)
                if template is None:
                    scenarios.append(scenario_from_dict(data))
                else:
                    scenarios.append(_with_fields(template, data, _row_fields(target, data, template)))
            except ValidationError as exc:
                # Only the message: a kept exception's traceback would hold this
                # frame, and with it every row, until the garbage collector runs.
                scenarios.append(str(exc))
    rows = _RowSet(scenarios)
    return [_sweep_row(rows, row, value) for row, value in enumerate(spec.values)]


def sweep_to_csv(rows: Sequence[dict]) -> str:
    """One row per swept value: value column, condition-id margin columns, error column.

    A number value is written as a float, a bool as ``false`` or ``true``
    and ``None`` as ``null``, as JSON writes them.  A value cell holding a
    comma or a quote (a list-valued sweep) is quoted, with its quotes
    doubled; any other value is written as it stands.  The margin columns
    are every row's condition ids in first-seen order.  A row whose margins
    hold exactly these ids in this order, as every row of a one-group sweep
    does, writes its margins as one join; any other row looks each id up and
    leaves a cell empty where it has no margin.
    """
    seen: dict[str, Any] = {}
    for row in rows:
        seen.update(row["margins"])  # an id seen before keeps its place
    ids = tuple(seen)
    lines = [",".join(["value"] + [f'"{c}"' for c in ids] + ["error"])]
    for row in rows:
        value = row["value"]
        if isinstance(value, bool):
            cell = "true" if value else "false"
        elif value is None:
            cell = "null"
        elif isinstance(value, (int, float)):
            cell = repr(float(value))
        else:
            cell = str(value)
        cells = ['"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell]
        margins = row["margins"]
        if ids and tuple(margins) == ids:
            cells.append(",".join(map(repr, margins.values())))
        else:
            cells.extend(repr(margins[cid]) if cid in margins else "" for cid in ids)
        err = str(row["error"]).replace('"', "'")
        cells.append(f'"{err}"' if err else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report emission and entry point
# ---------------------------------------------------------------------------


# JSON output is written here in one pass rather than by ``json.dumps(...,
# indent=2)``, which runs the stdlib's pure-Python encoder whenever ``indent``
# is set.  The text is the same, byte for byte.
_FLOAT_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# A benchmark report holds 67-120 dicts of at most 11 shapes, 21 over all 210,
# so each shape's sorted keys are memoised; the bound only guards against
# unbounded growth.
@functools.lru_cache(maxsize=1024)
def _sorted_prefixes(shape: tuple) -> tuple[tuple[str, str], ...] | None:
    """A dict's keys, in insertion order, sorted and each with its encoded '"key": ' prefix.

    ``None`` if a key is not a str.
    """
    if not all(type(key) is str for key in shape):
        return None
    return tuple((key, encode_basestring_ascii(key) + ": ") for key in sorted(shape))


def _write_json(value: Any, out: list[str], pad: str) -> None:
    """Append the text of ``value`` to ``out``; ``pad`` is a newline and the current indent.

    str, int, float, bool and None are written as the stdlib writes them; a
    dict with str keys, a list and a tuple item by item.  Anything else (an
    empty container, a numpy scalar, a set, a dict with a non-str key) is
    handed to ``json.dumps`` with the same options, re-indented to ``pad``:
    the same text, or the same ``TypeError``.  Values must form a tree: a
    container that holds itself recurses until ``RecursionError``.
    """
    t = type(value)
    if t is str:
        out.append(encode_basestring_ascii(value))
    elif t is float:
        text = float.__repr__(value)
        out.append(_FLOAT_CONSTANTS.get(text, text))
    elif t is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif t is bool:
        out.append("true" if value else "false")
    elif t is dict and value and (items := _sorted_prefixes(tuple(value))) is not None:
        inner = pad + "  "
        comma = "," + inner
        start = len(out)
        for key, prefix in items:
            out.append(comma)
            out.append(prefix)
            _write_json(value[key], out, inner)
        out[start] = "{" + inner
        out.append(pad + "}")
    elif (t is list or t is tuple) and value:
        inner = pad + "  "
        comma = "," + inner
        start = len(out)
        for item in value:
            out.append(comma)
            _write_json(item, out, inner)
        out[start] = "[" + inner
        out.append(pad + "]")
    else:
        # JSON strings hold no raw newline, so every newline here is indentation.
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", pad))


def _report_to_json(report: Any) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    out: list[str] = []
    _write_json(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _report_to_csv(report: dict) -> str:
    lines = ["id,kind,margin,stderr,verdict"]
    for cond in report["conditions"]:
        stderr = repr(cond["stderr"]) if "stderr" in cond else ""
        lines.append(f'"{cond["id"]}",condition,{cond["margin"]!r},{stderr},{cond["verdict"]}')
    for wit in report["witnesses"]:
        lines.append(f'"{wit["id"]}",witness,{wit["max_abs"]!r},,{wit["verdict"]}')
    return "\n".join(lines) + "\n"


def _open_untruncated(path: str, flags: int) -> int:
    """``os.open`` with the flags ``open`` asks for, less ``O_TRUNC``, and ``open``'s mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or as UTF-8 over the file ``out``.

    An existing file is overwritten in place and then cut to the new length,
    which is cheaper than truncating it to zero first; the file ends up holding
    exactly the new bytes either way.  Only a regular file is cut, so
    ``/dev/null`` and pipes work as before.
    """
    if not out:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        with open(out, "wb", opener=_open_untruncated) as f:
            f.write(data)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(len(data))
    except OSError as exc:
        raise ScenarioError(f"cannot write output file {out}: {exc}") from exc


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """``scenario`` with the ``--shots`` and ``--seed`` given over its file's; only the fields they set are parsed."""
    overrides = {name: value for name in ("shots", "seed") if (value := getattr(args, name)) is not None}
    if not overrides:
        return scenario
    data = {**scenario.raw, **overrides}
    return _with_fields(scenario, data, _changed_fields(data, scenario, overrides))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lgcert",
        description="Simulate measurement protocols on few-level systems and certify macrorealism conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "csv")):
        p.add_argument("--shots", type=int, default=None, help="override shot count (0 = exact)")
        p.add_argument("--seed", type=int, default=None, help="override the random seed")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=None, help="output format")

    p_cert = sub.add_parser("certify", help="run a scenario's checks and emit the report")
    p_cert.add_argument("scenario", help="scenario JSON file")
    add_common(p_cert)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario over a parameter sweep")
    p_sweep.add_argument("sweep", help="sweep JSON file")
    add_common(p_sweep)

    p_oracle = sub.add_parser("oracle", help="dump the raw experiment tables only")
    p_oracle.add_argument("scenario", help="scenario JSON file")
    add_common(p_oracle, ("json",))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "certify":
            scenario = _apply_overrides(load_scenario(args.scenario), args)
            report = run_certification(scenario)
            fmt = args.format or "json"
            _emit(_report_to_json(report) if fmt == "json" else _report_to_csv(report), args.out)
            return 0 if report["verdict"] == "all_satisfied" else 1

        if args.command == "oracle":
            scenario = _apply_overrides(load_scenario(args.scenario), args)
            report = run_certification(scenario)
            payload = {
                "seed": report["seed"],
                "mode": report["mode"],
                "shots": report["shots"],
                "experiments": report["experiments"],
            }
            _emit(_report_to_json(payload), args.out)
            return 0

        # sweep
        spec = load_sweep(args.sweep)
        template = _apply_overrides(spec.scenario, args)
        if template is not spec.scenario:
            spec = SweepSpec(template.raw, spec.parameter, spec.values, scenario=template)
        rows = run_sweep(spec)
        fmt = args.format or "csv"
        if fmt == "csv":
            _emit(sweep_to_csv(rows), args.out)
        else:
            _emit(_report_to_json(rows), args.out)
        return 1 if any(row["verdict"] == "violations" for row in rows) else 0
    except (ScenarioError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
