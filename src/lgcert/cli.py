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
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

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
from .macrocert import _CHECKS, ConditionResult, WitnessReport, _certify

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
    mat = matrix_from_json(spec, "initial_state")
    if mat.shape[0] != dim:
        raise ScenarioError(
            f"initial_state: matrix dimension {mat.shape[0]} does not match dimension {dim}"
        )
    return DensityOperator(mat)


def _parse_hamiltonian(spec, dim: int) -> Hamiltonian:
    if isinstance(spec, Mapping) and "preset" in spec:
        if spec["preset"] != "precession":
            raise ScenarioError(f"hamiltonian: unknown preset {spec['preset']!r}")
        if dim != 2:
            raise ScenarioError("hamiltonian: preset 'precession' requires dimension 2")
        return Hamiltonian.precession(float(spec.get("frequency", 1.0)))
    mat = matrix_from_json(spec, "hamiltonian")
    if mat.shape[0] != dim:
        raise ScenarioError(
            f"hamiltonian: matrix dimension {mat.shape[0]} does not match dimension {dim}"
        )
    return Hamiltonian(mat)


def _parse_observable(spec, dim: int) -> Observable:
    if isinstance(spec, str):
        if spec != "sigma_z":
            raise ScenarioError(f"observable: unknown preset {spec!r}")
        if dim != 2:
            raise ScenarioError("observable: preset 'sigma_z' requires dimension 2")
        return DichotomicObservable.sigma_z()
    if isinstance(spec, Mapping) and "projectors" in spec:
        projs = tuple(
            matrix_from_json(p, f"observable projector {i}")
            for i, p in enumerate(spec["projectors"])
        )
        labels = tuple(int(x) for x in spec.get("labels", range(1, len(projs) + 1)))
        obs: Observable = ManyValuedObservable(projs, labels)
    else:
        obs = DichotomicObservable(matrix_from_json(spec, "observable"))
    if obs.dim != dim:
        raise ScenarioError(f"observable: dimension {obs.dim} does not match dimension {dim}")
    return obs


def _parse_clumsiness(spec) -> ClumsinessModel:
    if spec is None:
        return ClumsinessModel.none()
    if not isinstance(spec, Mapping):
        raise ScenarioError("protocol.clumsiness: must be a JSON object")
    kind = spec.get("kind", "none")
    if kind == "none":
        return ClumsinessModel.none()
    if kind == "depolarizing":
        return ClumsinessModel.depolarizing(float(spec["strength"]))
    if kind == "unitary_kick":
        return ClumsinessModel.unitary_kick(
            float(spec["strength"]),
            matrix_from_json(spec["generator"], "clumsiness generator"),
        )
    raise ScenarioError(f"protocol.clumsiness: unknown kind {kind!r}")


_ABSENT = object()


def scenario_from_dict(data: Mapping[str, Any], template: Scenario | None = None) -> Scenario:
    """Validate a scenario dict; every error names the offending field.

    ``template`` is a scenario parsed earlier from a dict that ``data`` was
    derived from (a sweep row from its template).  Where ``data`` holds the
    very object the template parsed its initial state, Hamiltonian or
    observable from, at the same dimension, the template's parsed value is
    reused, so sweep rows share one eigendecomposition.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    try:
        dim = int(data.get("dimension", 2))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"dimension: {exc}") from exc
    if dim < 2:
        raise ScenarioError(f"dimension must be >= 2, got {dim}")

    def parsed(name: str, parse, default):
        spec = data.get(name, _ABSENT)
        if template is not None and template.dimension == dim and spec is template.raw.get(name, _ABSENT):
            return getattr(template, name)
        return _field(name, parse, default if spec is _ABSENT else spec, dim)

    state = parsed("initial_state", _parse_state, "ground")
    h = parsed("hamiltonian", _parse_hamiltonian, {"preset": "precession"})
    obs = parsed("observable", _parse_observable, "sigma_z")

    try:
        schedule = Schedule(tuple(float(t) for t in data["schedule"]))
    except KeyError:
        raise ScenarioError("schedule: missing") from None
    except (TypeError, ValueError, ValidationError) as exc:
        raise ScenarioError(f"schedule: {exc}") from exc

    proto = data.get("protocol", {}) or {}
    if not isinstance(proto, Mapping):
        raise ScenarioError("protocol: must be a JSON object")
    try:
        shots = int(data.get("shots", proto.get("shots", 0)))
        config = ProtocolConfig(
            mode=proto.get("mode", "projective"),
            dephase_times=tuple(proto["dephase_times"]) if proto.get("dephase_times") else None,
            clumsiness=_field("protocol.clumsiness", _parse_clumsiness, proto.get("clumsiness")),
            shots=shots,
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, ValidationError) as exc:
        raise ScenarioError(f"protocol: {exc}") from exc

    try:
        checks = tuple(str(c).upper() for c in data.get("checks", ()))
    except TypeError as exc:
        raise ScenarioError(f"checks: {exc}") from exc
    unknown = [c for c in checks if c not in KNOWN_CHECKS]
    if unknown:
        raise ScenarioError(f"checks: unknown identifiers {unknown}; expected from {KNOWN_CHECKS}")
    if len(set(checks)) != len(checks):
        raise ScenarioError("checks: identifiers must be distinct")

    try:
        seed = int(data.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"seed: {exc}") from exc
    if seed < 0:
        raise ScenarioError(f"seed: must be a non-negative integer, got {seed}")
    derive = data.get("derive_lower_moments", False)
    if not isinstance(derive, bool):
        raise ScenarioError(f"derive_lower_moments: must be true or false, got {derive!r}")

    return Scenario(
        dimension=dim,
        initial_state=state,
        hamiltonian=h,
        observable=obs,
        schedule=schedule,
        config=config,
        checks=checks,
        shots=shots,
        seed=seed,
        derive_lower_moments=derive,
        raw=dict(data),
    )


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
    """The template with ``value`` set at ``parameter``; only the dicts along the path are copied."""
    data = dict(template)
    if parameter == "schedule.gap":
        try:
            m = len(template.get("schedule", [])) or 3
            gap = float(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"schedule.gap: {exc}") from exc
        data["schedule"] = [gap * (k + 1) for k in range(m)]
        return data
    parts = parameter.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        nxt = dict(nxt) if isinstance(nxt, dict) else {}
        node[part] = nxt
        node = nxt
    node[parts[-1]] = value
    return data


def _sweep_row(rows: _RowSet, row: int, value) -> dict:
    try:
        _, _, conditions, witnesses = _certify(rows, row)
    except ValidationError as exc:
        return {"value": value, "margins": {}, "verdict": "error", "error": str(exc)}
    margins: dict[str, float] = {}
    for cond in conditions:
        margins[cond.condition] = cond.margin
    for wit in witnesses:
        margins[wit.condition] = wit.max_abs
    return {"value": value, "margins": margins, "verdict": _verdict(conditions, witnesses), "error": ""}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the scenario at every swept value; one row per value, in sweep order.

    The template is parsed once: ``spec.scenario`` when ``load_sweep`` has
    parsed it already.  Each row copies only the dicts along the swept path
    and reuses the template's parsed state, Hamiltonian and observable
    wherever its subtree is the template's own, so a ``schedule.gap`` or
    clumsiness-strength sweep shares one eigendecomposition.  Rows that
    differ only in schedule times or clumsiness strength run each experiment
    in one kernel call, filled by the first row that asks.  Rows that share
    a seed share its child seeds and their generator states: each child is
    spawned and seeded once per sweep, and each row's draws restore those
    states in the row's own order.  Sampling and checks stay per row, so
    every row equals ``run_certification`` on its own scenario.  A row that
    fails, including one whose value is malformed, carries its error message
    in the ``error`` field and the sweep continues.
    """
    template = spec.scenario
    if template is None:
        try:
            template = scenario_from_dict(spec.template)
        except ValidationError:
            template = None  # the rows may still be valid; each one reports its own errors
    scenarios: list[Scenario | str] = []
    for value in spec.values:
        try:
            data = _row_data(spec.template, spec.parameter, value)
            scenarios.append(scenario_from_dict(data, template))
        except ValidationError as exc:
            # Only the message: a kept exception's traceback would hold this
            # frame, and with it every row, until the garbage collector runs.
            scenarios.append(str(exc))
    rows = _RowSet(scenarios)
    return [_sweep_row(rows, row, value) for row, value in enumerate(spec.values)]


def sweep_to_csv(rows: Sequence[dict]) -> str:
    """One row per swept value: value column, condition-id margin columns, error column.

    A value cell holding a comma or a quote (a list-valued sweep) is quoted,
    with its quotes doubled; any other value is written as it stands.
    """
    ids: list[str] = []
    for row in rows:
        for cid in row["margins"]:
            if cid not in ids:
                ids.append(cid)
    lines = [",".join(["value"] + [f'"{c}"' for c in ids] + ["error"])]
    for row in rows:
        value = row["value"]
        cell = repr(float(value)) if isinstance(value, (int, float)) else str(value)
        cells = ['"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell]
        for cid in ids:
            cells.append(repr(row["margins"][cid]) if cid in row["margins"] else "")
        err = str(row["error"]).replace('"', "'")
        cells.append(f'"{err}"' if err else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report emission and entry point
# ---------------------------------------------------------------------------


def _report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _report_to_csv(report: dict) -> str:
    lines = ["id,kind,margin,stderr,verdict"]
    for cond in report["conditions"]:
        stderr = repr(cond["stderr"]) if "stderr" in cond else ""
        lines.append(f'"{cond["id"]}",condition,{cond["margin"]!r},{stderr},{cond["verdict"]}')
    for wit in report["witnesses"]:
        lines.append(f'"{wit["id"]}",witness,{wit["max_abs"]!r},,{wit["verdict"]}')
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.shots is None and args.seed is None:
        return scenario
    data = dict(scenario.raw)
    if args.shots is not None:
        data["shots"] = args.shots
    if args.seed is not None:
        data["seed"] = args.seed
    return scenario_from_dict(data, template=scenario)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lgcert",
        description="Simulate measurement protocols on few-level systems and certify macrorealism conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--shots", type=int, default=None, help="override shot count (0 = exact)")
        p.add_argument("--seed", type=int, default=None, help="override the random seed")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None, help="output format")

    p_cert = sub.add_parser("certify", help="run a scenario's checks and emit the report")
    p_cert.add_argument("scenario", help="scenario JSON file")
    add_common(p_cert)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario over a parameter sweep")
    p_sweep.add_argument("sweep", help="sweep JSON file")
    add_common(p_sweep)

    p_oracle = sub.add_parser("oracle", help="dump the raw experiment tables only")
    p_oracle.add_argument("scenario", help="scenario JSON file")
    add_common(p_oracle)
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
            _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
        return 1 if any(row["verdict"] == "violations" for row in rows) else 0
    except (ScenarioError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
