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
import functools
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
    _experiment_probabilities,
    _experiment_table,
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
    if not isinstance(spec, Mapping):
        raise ScenarioError("protocol.clumsiness: must be a JSON object")
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
        return parse(default if spec is _ABSENT else spec, dim)

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
            clumsiness=_parse_clumsiness(proto.get("clumsiness")),
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


def _batch_signature(s: Scenario) -> tuple:
    """What rows must share for one kernel call to serve them all.

    Rows with equal signatures differ only in schedule times and clumsiness
    strength.  The parsed state, Hamiltonian and observable count by
    identity: sweep rows share the template's objects.  A kick generator's
    shape is part of it so that a row with a mismatched generator fails on
    its own.
    """
    c = s.config
    generator = c.clumsiness.generator
    return (
        id(s.initial_state),
        id(s.hamiltonian),
        id(s.observable),
        c.mode,
        c.dephase_times,
        len(s.schedule),
        c.clumsiness.kind,
        c.clumsiness.is_trivial,
        None if generator is None else generator.shape,
        s.shots,
    )


# Rows per kernel call are capped so that one call's final branch stack holds
# at most this many complex entries (16 MB), unless a single row needs more.
_BATCH_ENTRIES = 1 << 20


def _experiment_config(
    s: Scenario, measured: tuple[int, ...], mechanism: tuple[int, ...], clean: bool
) -> ProtocolConfig:
    """How one experiment of scenario ``s`` runs.

    A single read-out has no INRM detectors, and a mechanism at a
    non-detector time is not expressible with them; such experiments run the
    entrywise-equal projective counterpart on the master schedule.
    """
    mode = s.config.mode
    if mode in ("inrm", "inrm_dephased") and (
        len(measured) < 2 or not set(mechanism) <= set(measured)
    ):
        mode = "projective" if mode == "inrm" else "projective_dephased"
    clumsiness = ClumsinessModel.none() if clean else s.config.clumsiness
    return ProtocolConfig(mode=mode, dephase_times=mechanism, clumsiness=clumsiness, shots=s.shots)


class _RowSet:
    """The parsed rows of a sweep, or the one row of a single certification.

    ``scenarios`` holds each row's scenario, or the message of the error its
    parsing raised.  The first row to ask for an experiment runs it in one
    kernel call for itself and every later row with the same batch
    signature, and keeps the later rows' exact probabilities, one (R, N)
    array per call, until each row asks for them.

    It also owns finite-shot seeding.  Per scenario seed it keeps one
    ``SeedSequence`` root, spawned one child at a time, and the child seeds
    drawn so far; per child seed, the initial state of its PCG64 stream.
    Rows that share a seed (all rows of a sweep, unless the seed is swept)
    therefore spawn and seed each child once.  The caches live as long as
    the row set, which is one ``run_certification`` or ``run_sweep`` call.
    """

    def __init__(self, scenarios: Sequence[Scenario | str]):
        self.scenarios = list(scenarios)
        self._signatures = [
            _batch_signature(s) if isinstance(s, Scenario) else None for s in self.scenarios
        ]
        self._pending: dict[tuple, tuple[list[tuple[int, ...]], np.ndarray]] = {}
        self._children: dict[int, tuple[np.random.SeedSequence, list[int]]] = {}
        self._states: dict[int, dict] = {}
        self._rng: np.random.Generator | None = None

    def scenario(self, row: int) -> Scenario:
        s = self.scenarios[row]
        if isinstance(s, str):
            raise ScenarioError(s)
        return s

    def probabilities(
        self, row: int, request: tuple, config: ProtocolConfig
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Outcome tuples and one row's exact, unclamped probabilities for one experiment.

        ``request`` is the experiment's ``(measured, mechanism, clean)`` and
        ``config`` the row's ``_experiment_config`` for it.
        """
        ready = self._pending.pop((row, request), None)
        if ready is not None:
            return ready
        measured, _, clean = request
        s = self.scenarios[row]
        signature = self._signatures[row]
        group = [j for j in range(row, len(self.scenarios)) if self._signatures[j] == signature]
        branches = len(s.observable.outcomes) ** len(measured)
        group = group[: max(1, _BATCH_ENTRIES // (branches * s.dimension**2))]
        rows = [self.scenarios[j] for j in group]
        outcomes, raw = _experiment_probabilities(
            s.initial_state,
            s.hamiltonian,
            [s.observable] * len(s.schedule),
            [r.schedule for r in rows],
            measured,
            config,
            [config.clumsiness if clean else r.config.clumsiness for r in rows],
        )
        for position, j in enumerate(group[1:], start=1):
            self._pending[(j, request)] = (outcomes, raw[position])
        return outcomes, raw[0]

    def generator(self, seed: int, index: int) -> np.random.Generator:
        """A generator at the start of the stream of ``seed``'s ``index``-th child seed.

        The stream is ``np.random.default_rng(child)`` for the child seed
        ``SeedSequence(seed).spawn(index + 1)[index]`` reduces to.  A stream
        seen before is restored into one shared generator from its cached
        initial state, so the generator returned is valid until the next call.
        """
        entry = self._children.get(seed)
        if entry is None:
            entry = self._children[seed] = (np.random.SeedSequence(seed), [])
        root, children = entry
        while len(children) <= index:
            children.append(int(root.spawn(1)[0].generate_state(1)[0]))
        child = children[index]
        state = self._states.get(child)
        if state is None:
            bits = np.random.PCG64(child)
            self._states[child] = bits.state
            rng = np.random.Generator(bits)
            if self._rng is None:
                self._rng = rng
            return rng
        self._rng.bit_generator.state = state
        return self._rng


class _ExperimentRunner:
    """Runs and caches the independent experiments one row's scenario needs.

    Every sampled experiment draws its own child seed from the scenario seed
    in execution order (the runner keeps only the draw index; the row set
    spawns and seeds), so identical scenarios reproduce byte-identical
    reports, whether the row runs alone or within a sweep.
    """

    def __init__(self, rows: _RowSet, row: int):
        self.rows = rows
        self.row = row
        self.s = rows.scenario(row)
        self.tables: dict[str, OutcomeTable] = {}
        # Exact probabilities per (measured, mechanism, clean): experiments
        # under different keys (a moment's and the NSIT pair's) may share one.
        self._exact: dict[tuple, tuple[list[tuple[int, ...]], np.ndarray]] = {}
        self._draws = 0

    def _next_generator(self) -> np.random.Generator:
        rng = self.rows.generator(self.s.seed, self._draws)
        self._draws += 1
        return rng

    def experiment(
        self,
        measured: tuple[int, ...],
        mechanism: tuple[int, ...] | None = None,
        clean: bool = False,
        key: str | None = None,
    ) -> OutcomeTable:
        """One independent experiment reading out the given schedule times.

        ``mechanism`` (master 1-based times, default: the protocol's own
        resolution) places the diagonalization; the scenario's clumsiness
        channel is injected before the experiment's first measurement unless
        ``clean``.
        """
        s = self.s
        if mechanism is None:
            mechanism = tuple(sorted(s.config.resolved_dephase_times(measured, len(s.schedule))))
        if key is None:
            key = _times_name(measured) + ("" if not mechanism else "_blind" + _times_name(mechanism))
            if clean and not s.config.clumsiness.is_trivial:
                key += "_clean"
        if key in self.tables:
            return self.tables[key]

        config = _experiment_config(s, measured, mechanism, clean)
        if config.mode in ("inrm", "inrm_dephased") and not isinstance(
            s.observable, DichotomicObservable
        ):
            raise ScenarioError("protocol: INRM modes require a dichotomic observable")
        request = (measured, mechanism, clean)
        if request not in self._exact:
            self._exact[request] = self.rows.probabilities(self.row, request, config)
        outcomes, raw = self._exact[request]
        # Detectors sit at the measured times; every INRM configuration draws
        # its own child seed.
        table = _experiment_table(
            outcomes, raw, [s.observable] * len(s.schedule), measured, config, self._next_generator
        )
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
        companion = self.experiment((2,), mechanism=mech, clean=True, key=companion_key)
        return pair, companion


def _certify(
    rows: _RowSet, row: int
) -> tuple[dict[str, OutcomeTable], MomentSet | None, list[ConditionResult], list[WitnessReport]]:
    """Run every experiment one row's checks require; return tables, moments, conditions, witnesses."""
    s = rows.scenario(row)
    n_times = len(s.schedule)
    for check in s.checks:
        if n_times < _CHECK_MIN_TIMES[check]:
            needed = _MOMENT_REQUIREMENTS.get(check)
            detail = f" (missing experiments at times {needed})" if needed else ""
            raise ScenarioError(
                f"checks: {check} needs at least {_CHECK_MIN_TIMES[check]} schedule times, got {n_times}{detail}"
            )

    runner = _ExperimentRunner(rows, row)
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
            p123 = runner.experiment((1, 2, 3), mechanism=(1, 2) if use_mech else ())
            p23 = runner.experiment((2, 3), mechanism=(1,) if use_mech else (), clean=True)
            p13 = runner.experiment((1, 3), mechanism=(2,) if use_mech else (), clean=True)
            p3 = runner.experiment((3,), mechanism=(1, 2) if use_mech else (), clean=True)
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
    return runner.tables, moments, conditions, witnesses


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
        m = len(template.get("schedule", [])) or 3
        try:
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
