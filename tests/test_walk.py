"""The prefix-shared walk against the per-experiment kernel it replaced.

A row group plans every experiment its certification runs (``_plan``),
then runs them all in one walk over the trie of their op sequences
(``protocols._walk``).  Every leaf must equal what the per-experiment kernel
(``tests/kernel_reference.py``) gives for that experiment, bit for bit, and
an experiment whose run fails must fail with the same error.  These tests
check that for every golden certification, every ``SWEEPS`` group and a
seeded grid of dimensions, schedule lengths, modes and clumsiness channels,
with many-valued observables and explicit mechanism times, at one row and
at seven.  They pin the conjugation steps and step-matrices the walk saves
on the golden certifications, one ``unitary_for`` call per certification,
and the walk's peak memory against the per-experiment kernel's.  Siblings
that take the same step share one conjugation of their parent's stack, so
a walk conjugates once per distinct (parent, step) pair of its trie: this
is checked on the golden certifications and on the benchmark's
certify-exact inputs of seed 1 (468 conjugations for 780 nodes).  Rows of
equal times (strength and seed sweeps) walk as one row until a kick of
differing models widens the stack: seven such rows must equal the reference
in every mode and clumsiness channel, and the matrices they save are pinned.
A read-out lays its branches out outcome-major, so each leaf permutes its
entries back into product order: read-outs of 4, 3 and 2 outcomes and INRM
trace read-outs must keep every entry at its outcome tuple.
"""

from __future__ import annotations

import gc
import importlib.util
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kernel_reference
from lgcert import protocols
from lgcert import cli
from lgcert.cli import SweepSpec, load_scenario, run_certification
from lgcert.macrocert import _CHECKS, _plan, _require_times
from lgcert.protocols import MODES, ProtocolConfig, Schedule, _Failure, _RowSet
from lgcert.qcore import ClumsinessModel, ManyValuedObservable, ValidationError, matrix_to_json

from conftest import (
    random_density,
    random_dichotomic,
    random_hamiltonian,
    random_hermitian,
    random_times,
    random_unitary,
)
from test_sweep_batch import SWEEPS, many_valued_template, random_template

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

# Per golden certification: the walk's conjugation steps and step-matrices
# (the branch count B of each step's input stack, summed), then the same for
# the per-experiment kernel over the experiments the certification reads.
COUNTS = {
    "readme_precession": (22, 53, 51, 92),
    "d2_ancilla_blind": (37, 77, 60, 104),
    "d4_ancilla_blind": (37, 77, 60, 104),
    "d4_unitary_kick": (37, 77, 60, 104),
    "d16_inrm": (30, 63, 47, 82),
    "d4_inrm_dephased_shots": (33, 67, 49, 85),
}

KERNEL_CHECKS = ["LG2", "LG3", "LG4", "NONNEG3", "NONNEG4", "NSIT", "NSIT3", "MONO"]


@pytest.fixture
def walked(monkeypatch):
    """The leaves of every walk, in call order."""
    leaves: list[dict] = []
    walk = protocols._walk

    def recorded(*args):
        result = walk(*args)
        leaves.append(result)
        return result

    monkeypatch.setattr(protocols, "_walk", recorded)
    return leaves


def reference(group, request):
    """The per-experiment kernel's outcomes and probabilities for ``request``, or its error's type and message."""
    try:
        return kernel_reference.group_request(group, request)
    except ValidationError as exc:
        return type(exc), str(exc)


def same(leaf, expected) -> bool:
    if isinstance(leaf, _Failure):
        return (leaf.kind, leaf.message) == expected
    (outcomes, raw), (want_outcomes, want_raw) = leaf, expected
    return outcomes == want_outcomes and raw.shape == want_raw.shape and raw.tobytes() == want_raw.tobytes()


def row_set(spec: SweepSpec, monkeypatch) -> _RowSet:
    """The row set ``run_sweep`` builds for ``spec``, before any row runs."""
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_sweep_row", lambda rows, row, value: rows)
        return cli.run_sweep(spec)[0]


def groups(rows: _RowSet) -> list:
    """The row set's groups whose certification walks: every check has the times it needs."""
    found = {}
    for placed in rows._placed:
        if placed is not None:
            found.setdefault(id(placed[0]), placed[0])
    out = []
    for group in found.values():
        try:
            _require_times(group.s)
        except ValidationError:
            continue
        out.append(group)
    return out


def assert_leaves_match(rows: _RowSet, walked) -> int:
    """Walk every group's plan; each leaf must equal the reference.  Returns the leaves that ran."""
    ran = 0
    for group in groups(rows):
        plan = _plan(group)
        walked.clear()
        group.walk(plan)
        assert len(walked) == 1
        leaves = walked[0]
        assert set(leaves) == set(plan)
        for request, leaf in leaves.items():
            assert same(leaf, reference(group, request)), request
            ran += not isinstance(leaf, _Failure)
    return ran


@pytest.mark.parametrize("name", COUNTS)
def test_golden_certification_leaves_equal_the_reference(name, walked):
    rows = _RowSet([load_scenario(GOLDEN / f"{name}.json")])
    assert assert_leaves_match(rows, walked) > 0


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_group_leaves_equal_the_reference(name, walked, monkeypatch):
    template, parameter, values = SWEEPS[name]
    rows = row_set(SweepSpec(template=template, parameter=parameter, values=tuple(values)), monkeypatch)
    assert_leaves_match(rows, walked)


def grid_template(seed, d, m, mode, clumsiness, checks, many_valued=False):
    template = (many_valued_template if many_valued else random_template)(seed, d, mode, checks)
    template = dict(template, schedule=[0.4 * (k + 1) for k in range(m)])
    return dict(template, protocol=dict(template["protocol"], clumsiness=clumsiness))


def clumsiness_channel(kind, d, seed):
    if kind == "none":
        return {"kind": "none"}
    if kind == "depolarizing":
        return {"kind": "depolarizing", "strength": 0.1}
    return {"kind": "unitary_kick", "strength": 0.3,
            "generator": matrix_to_json(random_hermitian(np.random.default_rng(seed), d))}


def grid_rows(template, n_rows, monkeypatch):
    return row_set(SweepSpec(template=template, parameter="schedule.gap",
                             values=tuple(0.3 + 0.11 * k for k in range(n_rows))), monkeypatch)


@pytest.mark.parametrize("clumsiness", ["none", "depolarizing", "unitary_kick"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 4, 16])
def test_seeded_grid_leaves_equal_the_reference(d, m, mode, clumsiness, walked, monkeypatch):
    seed = 1000 * d + 100 * m + MODES.index(mode)
    checks = [c for c in KERNEL_CHECKS if _CHECKS[c].min_times <= m]
    template = grid_template(seed, d, m, mode, clumsiness_channel(clumsiness, d, seed), checks)
    if clumsiness == "depolarizing":
        template["derive_lower_moments"] = True
    for n_rows in (1, 7):
        assert assert_leaves_match(grid_rows(template, n_rows, monkeypatch), walked) > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [2, 4])
def test_many_valued_leaves_equal_the_reference(d, mode, walked, monkeypatch):
    # INRM modes reject the observable while planning, and must fail alike
    template = grid_template(7 * d, d, 3, mode, {"kind": "depolarizing", "strength": 0.05},
                             ["LG3", "NSIT", "NSIT3", "MONO"], many_valued=True)
    for n_rows in (1, 7):
        assert_leaves_match(grid_rows(template, n_rows, monkeypatch), walked)


@pytest.mark.parametrize("dephase_times", [[1], [2], [1, 3], [2, 4], [5]])
@pytest.mark.parametrize("mode", MODES)
def test_explicit_dephase_times_leaves_equal_the_reference(mode, dephase_times, walked, monkeypatch):
    # [5] exceeds the schedule: every experiment's planning fails alike
    template = grid_template(31, 4, 4, mode, {"kind": "depolarizing", "strength": 0.05}, KERNEL_CHECKS)
    template["protocol"]["dephase_times"] = dephase_times
    for n_rows in (1, 7):
        assert_leaves_match(grid_rows(template, n_rows, monkeypatch), walked)


@pytest.mark.parametrize("name", COUNTS)
def test_the_walk_shares_every_prefix(name, monkeypatch):
    walk_steps: list[int] = []
    advance = protocols._advance

    def counted(stack, *args):
        walk_steps.append(stack.shape[1])
        return advance(stack, *args)

    unitary_calls: list[int] = []
    unitary_for = protocols.unitary_for

    def counted_unitaries(h, t):
        unitary_calls.append(len(t))
        return unitary_for(h, t)

    asked: list[tuple] = []
    table = protocols._ColumnRunner.table

    def recorded(self, request):
        if request not in asked:
            asked.append(request)
        return table(self, request)

    monkeypatch.setattr(protocols, "_advance", counted)
    monkeypatch.setattr(protocols, "unitary_for", counted_unitaries)
    monkeypatch.setattr(protocols._ColumnRunner, "table", recorded)
    scenario = load_scenario(GOLDEN / f"{name}.json")
    run_certification(scenario)
    assert len(unitary_calls) == 1

    monkeypatch.setattr(kernel_reference, "STEPS", [])
    group = _RowSet([scenario]).group(0)[0]
    for request in asked:
        kernel_reference.group_request(group, request)
    reference_steps = kernel_reference.STEPS
    counts = (len(walk_steps), sum(walk_steps), len(reference_steps), sum(reference_steps))
    assert counts == COUNTS[name]


def traced_peak(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_walk_holds_about_one_path_at_the_batch_cap(monkeypatch):
    # d = 16 and four dichotomic read-outs: 4096 entries per row, so the
    # default cap puts 256 rows in the first group
    template = grid_template(5, 16, 4, "ancilla_blind", {"kind": "depolarizing", "strength": 0.05},
                             KERNEL_CHECKS)
    rows = grid_rows(template, 257, monkeypatch)
    group = rows.group(0)[0]
    assert len(group.scenarios) == 256
    plan = _plan(group)
    reference_peak = traced_peak(lambda: [kernel_reference.group_request(group, r) for r in dict.fromkeys(plan)])
    walk_peak = traced_peak(lambda: group.walk(plan))
    assert walk_peak <= 1.1 * reference_peak


# Rows of equal times: a strength sweep with distinct strengths, one with
# equal strengths (a model per row), and a seed sweep (one model, shared).
EQUAL_TIMES = {
    "distinct": ("protocol.clumsiness.strength", [0.05 * (k + 1) for k in range(7)]),
    "equal": ("protocol.clumsiness.strength", [0.15] * 7),
    "shared": ("seed", list(range(1, 8))),
}


def equal_time_rows(template, rows, monkeypatch):
    parameter, values = EQUAL_TIMES[rows]
    return row_set(SweepSpec(template=template, parameter=parameter, values=tuple(values)), monkeypatch)


@pytest.mark.parametrize("rows", EQUAL_TIMES)
@pytest.mark.parametrize("clumsiness", ["none", "depolarizing", "unitary_kick"])
@pytest.mark.parametrize("mode", MODES)
def test_equal_time_rows_leaves_equal_the_reference(mode, clumsiness, rows, walked, monkeypatch):
    seed = 500 + 10 * MODES.index(mode)
    template = grid_template(seed, 4, 4, mode, clumsiness_channel(clumsiness, 4, seed), KERNEL_CHECKS)
    row_groups = equal_time_rows(template, rows, monkeypatch)
    assert [len(group.scenarios) for group in groups(row_groups)] == [7]
    assert assert_leaves_match(row_groups, walked) > 0


@pytest.mark.parametrize("rows", EQUAL_TIMES)
@pytest.mark.parametrize("mode", MODES)
def test_equal_time_rows_with_many_valued_observable_leaves_equal_the_reference(mode, rows, walked, monkeypatch):
    template = grid_template(41, 4, 3, mode, {"kind": "depolarizing", "strength": 0.05},
                             ["LG3", "NSIT", "NSIT3", "MONO"], many_valued=True)
    assert_leaves_match(equal_time_rows(template, rows, monkeypatch), walked)


@pytest.mark.parametrize("rows", EQUAL_TIMES)
@pytest.mark.parametrize("dephase_times", [[1], [2, 4], [1, 3]])
@pytest.mark.parametrize("mode", MODES)
def test_equal_time_rows_with_explicit_dephase_times_leaves_equal_the_reference(
    mode, dephase_times, rows, walked, monkeypatch
):
    template = grid_template(43, 4, 4, mode, clumsiness_channel("unitary_kick", 4, 43), KERNEL_CHECKS)
    template["protocol"]["dephase_times"] = dephase_times
    assert assert_leaves_match(equal_time_rows(template, rows, monkeypatch), walked) > 0


def golden_sweep(name: str, parameter: str | None = None, values=()) -> SweepSpec:
    """A golden sweep, or a sweep of ``parameter`` over ``values`` on a golden certification's scenario."""
    data = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    if parameter is None:
        return SweepSpec(data["scenario"], data["parameter"], tuple(data["values"]))
    return SweepSpec(data, parameter, tuple(values))


# Per sweep: the matrices its walks produce (R x B of every node's output
# stack, summed), first as they were when every node was as wide as its
# group, then as the walk produces them.  A gap sweep's rows differ in their
# times, so it saves nothing.
MATRICES = {
    "golden-strength": (golden_sweep("d4_strength_sweep_blind"), (343, 248)),
    "kick-strength": (golden_sweep("d4_unitary_kick", "protocol.clumsiness.strength",
                                   [0.02 * k for k in range(1, 40)]), (5343, 4545)),
    "seed": (golden_sweep("d4_inrm_dephased_shots", "seed", range(1, 30)), (3683, 127)),
    "gap": (golden_sweep("readme_gap_sweep"), (198, 198)),
}


@pytest.mark.parametrize("name", MATRICES)
def test_rows_of_equal_times_share_their_nodes(name, monkeypatch):
    widths: list[tuple[int, int, int]] = []  # per node: its group's rows, then its output stack's R and B
    walk, advance = protocols._walk, protocols._advance

    def counted_walk(rho, h, times, *args):
        widths.append((len(times), 0, 0))
        return walk(rho, h, times, *args)

    def counted_advance(*args):
        stack = advance(*args)
        widths.append((widths[-1][0], *stack.shape[:2]))
        return stack

    monkeypatch.setattr(protocols, "_walk", counted_walk)
    monkeypatch.setattr(protocols, "_advance", counted_advance)
    spec, expected = MATRICES[name]
    cli.run_sweep(spec)
    assert (sum(rows * b for rows, _, b in widths), sum(r * b for _, r, b in widths)) == expected


def walk_counts(run, monkeypatch) -> list[tuple[int, int, int, int]]:
    """Per walk of ``run()``: its nodes and conjugations, then the trie nodes and the distinct (parent, step) pairs of its paths."""
    found: list[list] = []
    walk, advance = protocols._walk, protocols._advance

    def recorded_walk(rho, h, times, clumsiness, paths):
        found.append([paths, []])
        return walk(rho, h, times, clumsiness, paths)

    def recorded_advance(stack, *args):
        found[-1][1].append(stack)  # kept alive, so that distinct stacks have distinct ids
        return advance(stack, *args)

    monkeypatch.setattr(protocols, "_walk", recorded_walk)
    monkeypatch.setattr(protocols, "_advance", recorded_advance)
    run()
    counts = []
    for paths, stacks in found:
        keys = [[key for key, _ in path] for path in paths.values() if not isinstance(path, _Failure)]
        nodes = {tuple(path[: k + 1]) for path in keys for k in range(len(path))}
        pairs = {(tuple(path[:k]), path[k][0]) for path in keys for k in range(len(path))}
        counts.append((len(stacks), len({id(stack) for stack in stacks}), len(nodes), len(pairs)))
    return counts


def benchmark_scenarios(workload: str, seed: int, tmp_path) -> list[Path]:
    """The scenario files the benchmark's generator writes for ``workload`` at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return [inp["path"] for inp in generate.generate(workload, seed, tmp_path)]


def test_leaves_of_many_valued_read_outs_are_in_product_order():
    # read-outs of 4, 3 and 2 outcomes: a leaf left in the walk's outcome-major
    # branch order would put its entries at the wrong outcome tuples
    rng = np.random.default_rng(71)
    basis = random_unitary(rng, 4)
    projectors = [np.outer(v, v.conj()) for v in basis.T]
    observables = [
        ManyValuedObservable(tuple(projectors), (5, -1, 2, 0)),
        ManyValuedObservable((projectors[0], projectors[1], projectors[2] + projectors[3]), (3, 1, 2)),
        random_dichotomic(rng, 4),
    ]
    rho, h = random_density(rng, 4), random_hamiltonian(rng, 4)
    schedules = [Schedule(random_times(rng, 3)) for _ in range(7)]
    clumsiness = [ClumsinessModel.depolarizing(eps) for eps in rng.uniform(0.0, 0.2, size=7)]
    for mode, measured in (("projective", (1, 2, 3)), ("projective_dephased", (1, 2, 3)), ("projective", (1, 3))):
        args = (rho, h, observables, schedules, measured, ProtocolConfig(mode=mode), clumsiness)
        outcomes, raw = kernel_reference.walk_probabilities(*args)
        assert outcomes == list(itertools.product(*(observables[i - 1].outcomes for i in measured)))
        assert same((outcomes, raw), kernel_reference.experiment_probabilities(*args)), (mode, measured)


def test_leaves_of_inrm_trace_read_outs_are_in_product_order():
    rng = np.random.default_rng(72)
    q = random_dichotomic(rng, 4)
    rho, h = random_density(rng, 4), random_hamiltonian(rng, 4)
    schedules = [Schedule(random_times(rng, 4)) for _ in range(7)]
    clumsiness = [ClumsinessModel.depolarizing(0.05)] * 7
    for mode, measured in (("inrm", (1, 2, 3, 4)), ("inrm_dephased", (1, 2, 4)), ("inrm", (2, 3))):
        args = (rho, h, [q] * 4, schedules, measured, ProtocolConfig(mode=mode), clumsiness)
        outcomes, raw = kernel_reference.walk_probabilities(*args)
        assert outcomes == list(itertools.product(*[q.outcomes] * len(measured)))
        assert same((outcomes, raw), kernel_reference.experiment_probabilities(*args)), (mode, measured)


# Per golden certification: the nodes of its walks, then their conjugations.
CONJUGATIONS = {
    "readme_precession": (22, 15),
    "d2_ancilla_blind": (37, 20),
    "d4_ancilla_blind": (37, 20),
    "d4_unitary_kick": (37, 20),
    "d16_inrm": (30, 19),
    "d4_inrm_dephased_shots": (33, 22),
}


@pytest.mark.parametrize("name", CONJUGATIONS)
def test_siblings_of_one_step_share_their_conjugation(name, monkeypatch):
    scenario = load_scenario(GOLDEN / f"{name}.json")
    counts = walk_counts(lambda: run_certification(scenario), monkeypatch)
    for advanced, conjugated, nodes, pairs in counts:
        assert (advanced, conjugated) == (nodes, pairs)
    assert tuple(map(sum, zip(*counts)))[:2] == CONJUGATIONS[name]


def test_benchmark_certifications_conjugate_once_per_parent_and_step(tmp_path, monkeypatch):
    paths = benchmark_scenarios("certify-exact", 1, tmp_path)
    counts = walk_counts(lambda: [run_certification(load_scenario(p)) for p in paths], monkeypatch)
    for advanced, conjugated, nodes, pairs in counts:
        assert (advanced, conjugated) == (nodes, pairs)
    assert tuple(map(sum, zip(*counts)))[:2] == (780, 468)
