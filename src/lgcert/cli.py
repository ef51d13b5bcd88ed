"""Scenario ingestion, experiment orchestration, and report emission.

A scenario JSON file declares the system (state, Hamiltonian, observable),
the measurement schedule, the protocol configuration, and the macrorealism
checks to run.  Each moment entering a check is measured in its own
experiment with a fresh initial state, exactly as the certification protocol
demands; an opt-in flag derives lower moments from one sequential table for
comparison studies instead.

Exit codes: 0 = ran with every check satisfied, 1 = ran with violations (the
interesting physics case), 2 = input or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

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
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    _assembled_inrm_table,
    experiment_distribution,
    sample_counts,
    table_to_json,
)
from . import macrocert
from .macrocert import (
    ConditionResult,
    InequalityReport,
    MomentSet,
    WitnessReport,
    candidate_probability,
    check_lg2,
    check_lg3,
    check_lg4,
    check_nonnegativity,
    check_nsit,
    moments_from_single_table,
    moments_from_tables,
)

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

KNOWN_CHECKS = ("LG2", "LG3", "LG4", "NSIT", "NSIT3", "NONNEG3", "NONNEG4", "MONO", "APPENDIX")

STATE_PRESETS = ("maximally_mixed", "ground", "plus_x")


class ScenarioError(ValidationError):
    """A scenario or sweep file failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    dimension: int
    initial_state: DensityOperator
    hamiltonian: Hamiltonian
    observable: Observable
    schedule: Schedule
    config: ProtocolConfig
    checks: tuple[str, ...]
    shots: int
    seed: int
    derive_lower_moments: bool = False
    raw: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    template: Mapping[str, Any]
    parameter: str
    values: tuple[Any, ...]


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def _parse_state(spec, dim: int) -> DensityOperator:
    try:
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
    except ScenarioError:
        raise
    except ValidationError as exc:
        raise ScenarioError(f"initial_state: {exc}") from exc


def _parse_hamiltonian(spec, dim: int) -> Hamiltonian:
    try:
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
    except ScenarioError:
        raise
    except (ValidationError, TypeError, ValueError) as exc:
        raise ScenarioError(f"hamiltonian: {exc}") from exc


def _parse_observable(spec, dim: int) -> Observable:
    try:
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
    except ScenarioError:
        raise
    except (ValidationError, TypeError, ValueError) as exc:
        raise ScenarioError(f"observable: {exc}") from exc


def _parse_clumsiness(spec) -> ClumsinessModel:
    if spec is None:
        return ClumsinessModel.none()
    try:
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
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ScenarioError(f"protocol.clumsiness: {exc}") from exc


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    try:
        dim = int(data.get("dimension", 2))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"dimension: {exc}") from exc
    if dim < 2:
        raise ScenarioError(f"dimension must be >= 2, got {dim}")

    state = _parse_state(data.get("initial_state", "ground"), dim)
    h = _parse_hamiltonian(data.get("hamiltonian", {"preset": "precession"}), dim)
    obs = _parse_observable(data.get("observable", "sigma_z"), dim)

    try:
        schedule = Schedule(tuple(float(t) for t in data["schedule"]))
    except KeyError:
        raise ScenarioError("schedule: missing") from None
    except (TypeError, ValueError, ValidationError) as exc:
        raise ScenarioError(f"schedule: {exc}") from exc

    proto = data.get("protocol", {}) or {}
    try:
        shots = int(data.get("shots", proto.get("shots", 0)))
        config = ProtocolConfig(
            mode=proto.get("mode", "projective"),
            dephase_times=tuple(proto["dephase_times"]) if proto.get("dephase_times") else None,
            clumsiness=_parse_clumsiness(proto.get("clumsiness")),
            shots=shots,
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, ValidationError) as exc:
        raise ScenarioError(f"protocol: {exc}") from exc

    checks = tuple(str(c).upper() for c in data.get("checks", ()))
    unknown = [c for c in checks if c not in KNOWN_CHECKS]
    if unknown:
        raise ScenarioError(f"checks: unknown identifiers {unknown}; expected from {KNOWN_CHECKS}")
    if len(set(checks)) != len(checks):
        raise ScenarioError("checks: identifiers must be distinct")

    try:
        seed = int(data.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"seed: {exc}") from exc

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
        derive_lower_moments=bool(data.get("derive_lower_moments", False)),
        raw=dict(data),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return scenario_from_dict(data)


def load_sweep(path: str | Path) -> SweepSpec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read sweep file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"sweep file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if "scenario" not in data:
        raise ScenarioError("sweep: missing 'scenario' template")
    parameter = data.get("parameter")
    if not parameter or not isinstance(parameter, str):
        raise ScenarioError("sweep: 'parameter' must be a non-empty dotted path")
    values = data.get("values")
    if not values:
        raise ScenarioError("sweep: 'values' must be a non-empty list")
    scenario_from_dict(data["scenario"])  # validate the template eagerly
    return SweepSpec(template=data["scenario"], parameter=parameter, values=tuple(values))


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

_CHECK_MIN_TIMES = {
    "LG2": 3,
    "LG3": 3,
    "LG4": 4,
    "NONNEG3": 3,
    "NONNEG4": 4,
    "NSIT": 2,
    "NSIT3": 3,
    "MONO": 2,
    "APPENDIX": 2,
}

_MOMENT_REQUIREMENTS = {
    "LG3": [(1, 2), (2, 3), (1, 3)],
    "LG2": [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)],
    "LG4": [(1, 2), (2, 3), (3, 4), (1, 4)],
    "NONNEG3": [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)],
    "NONNEG4": [
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        (1, 2, 3, 4),
    ],
}


def _times_name(times: Sequence[int]) -> str:
    return "".join(str(i) for i in times)


class _ExperimentRunner:
    """Runs and caches the independent experiments a scenario needs.

    Every sampled experiment draws its own child seed from the scenario seed
    in execution order, so identical scenarios reproduce byte-identical
    reports.
    """

    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.tables: dict[str, OutcomeTable] = {}
        self._seed_root = np.random.SeedSequence(scenario.seed)

    def _next_seed(self) -> int:
        return int(self._seed_root.spawn(1)[0].generate_state(1)[0])

    def experiment(
        self,
        measured: tuple[int, ...],
        mechanism: tuple[int, ...] | None = None,
        clumsiness: ClumsinessModel | None = None,
        key: str | None = None,
    ) -> OutcomeTable:
        """One independent experiment reading out the given schedule times.

        ``mechanism`` (master 1-based times, default: the protocol's own
        resolution) places the diagonalization; ``clumsiness`` defaults to the
        scenario's channel, injected before the experiment's first
        measurement.
        """
        s = self.s
        if mechanism is None:
            mechanism = tuple(sorted(s.config.resolved_dephase_times(measured, len(s.schedule))))
        if clumsiness is None:
            clumsiness = s.config.clumsiness
        if key is None:
            key = _times_name(measured) + ("" if not mechanism else "_blind" + _times_name(mechanism))
            if clumsiness.is_trivial and not s.config.clumsiness.is_trivial:
                key += "_clean"
        if key in self.tables:
            return self.tables[key]

        mode = s.config.mode
        inrm = mode in ("inrm", "inrm_dephased")
        if inrm and (len(measured) < 2 or not set(mechanism) <= set(measured)):
            # A single read-out has no detectors, and a mechanism at a
            # non-detector time is not expressible with them; run the
            # entrywise-equal projective counterpart on the master schedule.
            inrm = False
            mode = "projective" if mode == "inrm" else "projective_dephased"
        config = ProtocolConfig(mode=mode, dephase_times=mechanism, clumsiness=clumsiness, shots=s.shots)
        args = (s.initial_state, s.hamiltonian, s.observable, s.schedule, measured, config)
        if inrm:
            # Detectors sit at the measured times; every configuration draws
            # its own child seed.
            if not isinstance(s.observable, DichotomicObservable):
                raise ScenarioError("protocol: INRM modes require a dichotomic observable")
            table = _assembled_inrm_table(*args, self._next_seed)
        else:
            table = experiment_distribution(*args)
            if s.shots > 0:
                table = sample_counts(table, s.shots, self._next_seed())
        self.tables[key] = table
        return table

    def nsit_pair(self) -> tuple[OutcomeTable, OutcomeTable]:
        """The two-time NSIT experiment pair on the first two schedule times."""
        s = self.s
        mech = tuple(sorted(s.config.resolved_dephase_times((1, 2), len(s.schedule))))
        pair = self.experiment((1, 2), mechanism=mech, key="nsit:12")
        # The companion run makes no measurement at t1, so it carries no
        # clumsiness; the diagonalization mechanism stays in place.
        companion_key = "nsit:2" + ("" if not mech else "_blind" + _times_name(mech))
        companion = self.experiment(
            (2,), mechanism=mech, clumsiness=ClumsinessModel.none(), key=companion_key
        )
        return pair, companion


def run_certification(scenario: Scenario) -> dict:
    """Execute every experiment a scenario's checks require and certify.

    Returns the full report: every probability table, moment, margin, witness
    and verdict, plus the seed and exact/empirical mode.  Deterministic for a
    fixed scenario and seed.
    """
    s = scenario
    n_times = len(s.schedule)
    for check in s.checks:
        if n_times < _CHECK_MIN_TIMES[check]:
            needed = _MOMENT_REQUIREMENTS.get(check)
            detail = f" (missing experiments at times {needed})" if needed else ""
            raise ScenarioError(
                f"checks: {check} needs at least {_CHECK_MIN_TIMES[check]} schedule times, got {n_times}{detail}"
            )

    runner = _ExperimentRunner(s)
    moment_times: list[tuple[int, ...]] = []
    for check in s.checks:
        for times in _MOMENT_REQUIREMENTS.get(check, []):
            if times not in moment_times:
                moment_times.append(times)

    moments: MomentSet | None = None
    if moment_times:
        if s.derive_lower_moments:
            top = tuple(range(1, max(max(t) for t in moment_times) + 1))
            full = runner.experiment(top)
            moments = moments_from_single_table(full)
        else:
            sources = {times: runner.experiment(times) for times in sorted(moment_times)}
            moments = moments_from_tables(sources, n=min(n_times, 4))

    conditions: list[ConditionResult] = []
    witnesses: list[WitnessReport] = []

    def extend(report: InequalityReport) -> None:
        conditions.extend(report.entries)

    for check in s.checks:
        if check == "LG3":
            extend(check_lg3(moments))
        elif check == "LG2":
            extend(check_lg2(moments))
        elif check == "LG4":
            extend(check_lg4(moments))
        elif check in ("NONNEG3", "NONNEG4"):
            n = 3 if check == "NONNEG3" else 4
            sub = MomentSet(
                n=n,
                values={k: v for k, v in moments.values.items() if max(k) <= n},
                variances={k: v for k, v in moments.variances.items() if max(k) <= n},
            )
            extend(check_nonnegativity(candidate_probability(sub)))
        elif check == "NSIT":
            pair, companion = runner.nsit_pair()
            witnesses.append(check_nsit(pair, companion, (1,), condition="NSIT-(2;12)"))
        elif check == "NSIT3":
            # Complete three-time set: the full run keeps its clumsiness, the
            # reduced reference runs are clean, and the blind mechanism sits at
            # every detector time that is not read out (plus the detector times
            # of the full run, where it is harmless).
            use_mech = s.config.uses_mechanism
            clean = ClumsinessModel.none()
            p123 = runner.experiment((1, 2, 3), mechanism=(1, 2) if use_mech else ())
            p23 = runner.experiment((2, 3), mechanism=(1,) if use_mech else (), clumsiness=clean)
            p13 = runner.experiment((1, 3), mechanism=(2,) if use_mech else (), clumsiness=clean)
            p3 = runner.experiment((3,), mechanism=(1, 2) if use_mech else (), clumsiness=clean)
            witnesses.append(check_nsit(p23, p3, (1,), condition="NSIT-(3;23)"))
            witnesses.append(check_nsit(p123, p13, (2,), condition="NSIT-(13;123)"))
            witnesses.append(check_nsit(p123, p23, (1,), condition="NSIT-(23;123)"))
        elif check == "MONO":
            pair, companion = runner.nsit_pair()
            extend(macrocert.check_monotonicity(pair, companion))
        elif check == "APPENDIX":
            extend(
                macrocert.check_appendix_identities(
                    s.initial_state, s.hamiltonian, s.observable, s.schedule[0], s.schedule[1]
                )
            )

    all_ok = all(c.verdict == "satisfied" for c in conditions) and all(
        w.verdict == "non-invasive" for w in witnesses
    )
    return {
        "seed": s.seed,
        "mode": "empirical" if s.shots > 0 else "exact",
        "shots": s.shots,
        "checks": list(s.checks),
        "experiments": {k: table_to_json(t) for k, t in sorted(runner.tables.items())},
        "moments": (
            {_times_name(k): v for k, v in sorted(moments.values.items())} if moments else {}
        ),
        "conditions": [c.to_json() for c in conditions],
        "witnesses": [w.to_json() for w in witnesses],
        "verdict": "all_satisfied" if all_ok else "violations",
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _set_path(data: dict, path: str, value) -> None:
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _scenario_with_value(template: Mapping[str, Any], parameter: str, value) -> Scenario:
    data = json.loads(json.dumps(dict(template)))  # deep copy via JSON round trip
    if parameter == "schedule.gap":
        m = len(template.get("schedule", [])) or 3
        data["schedule"] = [float(value) * (k + 1) for k in range(m)]
    else:
        _set_path(data, parameter, value)
    return scenario_from_dict(data)


def _sweep_row(template: Mapping[str, Any], parameter: str, value) -> dict:
    try:
        scenario = _scenario_with_value(template, parameter, value)
        report = run_certification(scenario)
        margins: dict[str, float] = {}
        for cond in report["conditions"]:
            margins[cond["id"]] = cond["margin"]
        for wit in report["witnesses"]:
            margins[wit["id"]] = wit["max_abs"]
        return {"value": value, "margins": margins, "verdict": report["verdict"], "error": ""}
    except (ScenarioError, ValidationError) as exc:
        return {"value": value, "margins": {}, "verdict": "error", "error": str(exc)}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the scenario at every swept value, one row after another, in sweep order.

    A failing row carries its error message in the ``error`` field and the
    sweep continues.
    """
    return [_sweep_row(spec.template, spec.parameter, value) for value in spec.values]


def sweep_to_csv(rows: Sequence[dict]) -> str:
    """One row per swept value: value column, condition-id margin columns, error column."""
    ids: list[str] = []
    for row in rows:
        for cid in row["margins"]:
            if cid not in ids:
                ids.append(cid)
    lines = [",".join(["value"] + [f'"{c}"' for c in ids] + ["error"])]
    for row in rows:
        value = row["value"]
        cells = [repr(float(value)) if isinstance(value, (int, float)) else str(value)]
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
    return scenario_from_dict(data)


def main(argv: Sequence[str] | None = None) -> int:
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

    args = parser.parse_args(argv)

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
        if args.shots is not None or args.seed is not None:
            template = dict(spec.template)
            if args.shots is not None:
                template["shots"] = args.shots
            if args.seed is not None:
                template["seed"] = args.seed
            spec = SweepSpec(template=template, parameter=spec.parameter, values=spec.values)
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
