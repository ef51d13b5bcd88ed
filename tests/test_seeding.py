"""Finite-shot seeding and the one-pass INRM table.

A sweep's row set derives each child seed of a scenario seed once, from
(seed, index) as a ``SeedSequence`` spawn key, and caches the child's PCG64
initial state; every later draw from that child restores the state into a
shared generator.  These tests pin the spawn-key child to the one
``SeedSequence(seed).spawn`` gives, pin the streams to those a fresh
``np.random.default_rng(child)`` gives, pin the one-pass INRM shot table to
``assemble_inrm`` over individually sampled configurations, and count
children derived and seedings per sweep, including across two sweeps in one
process, which must not share anything.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcert.cli import SweepSpec, _RowSet, run_certification, run_sweep, scenario_from_dict
from lgcert.protocols import (
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    _sample_partial,
    assemble_inrm,
    inrm_distribution,
    sample_counts,
)
from lgcert.qcore import ClumsinessModel

from conftest import random_density, random_dichotomic, random_hamiltonian, random_times
from kernel_reference import walk_probabilities, walk_table
from test_sweep_batch import D2_INRM_SHOTS


def child_seed(seed: int, index: int) -> int:
    """The index-th child seed as a fresh SeedSequence spawns it."""
    return int(np.random.SeedSequence(seed).spawn(index + 1)[index].generate_state(1)[0])


def spawned_state(seed: int, index: int) -> list[int]:
    """``generate_state(1)`` of the index-th child ``SeedSequence(seed).spawn`` gives, spawning one at a time."""
    root = np.random.SeedSequence(seed)
    for _ in range(index):
        root.spawn(1)
    return root.spawn(1)[0].generate_state(1).tolist()


SEEDS = [0, 2**31 - 1, 2**32, 2**64 + 5, 2**200 + 17]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", range(41))
def test_spawn_key_child_is_the_spawned_child(seed, index):
    got = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1).tolist()
    assert got == spawned_state(seed, index)


@pytest.mark.parametrize("seed", SEEDS)
def test_index_past_the_spawn_counter_does_not_wrap(seed):
    # SeedSequence.spawn counts its children in 32 bits, so no spawn reaches index 2^32;
    # the spawn key keeps that index apart from 0 and 2^32 - 1, and the row set draws from it
    states = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1).tolist() for i in (0, 2**32 - 1, 2**32)]
    assert states[2] not in states[:2]
    child = int(np.random.SeedSequence(seed, spawn_key=(2**32,)).generate_state(1)[0])
    got = _RowSet([]).generator(seed, 2**32).integers(2**63, size=4)
    assert got.tolist() == np.random.default_rng(child).integers(2**63, size=4).tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**256), index=st.integers(0, 40))
def test_spawn_key_child_is_the_spawned_child_for_random_seeds(seed, index):
    assert np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1).tolist() == spawned_state(seed, index)


pvals_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=9
).filter(lambda p: sum(p) > 0)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=3),
    order=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=12),
    pvals=pvals_strategy,
    shots=st.integers(1, 10**6),
)
def test_restored_generator_is_the_fresh_child_stream(seeds, order, pvals, shots):
    rows = _RowSet([])
    weights = np.array(pvals) / sum(pvals)
    # draws visit children out of order and revisit them, across several seeds
    for which, index in order:
        seed = seeds[which % len(seeds)]
        got = rows.generator(seed, index).multinomial(shots, weights)
        want = np.random.default_rng(child_seed(seed, index)).multinomial(shots, weights)
        assert got.tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), pvals=pvals_strategy, shots=st.integers(1, 10**5))
def test_sample_counts_accepts_a_seed_or_a_restored_generator(seed, pvals, shots):
    labels = tuple(range(len(pvals), 0, -1))
    table = OutcomeTable(
        slots=(labels,), probabilities={(v,): p / sum(pvals) for v, p in zip(labels, pvals)}
    )
    rows = _RowSet([])
    rows.generator(seed, 0)  # first use caches the state; the second restores it
    by_seed = sample_counts(table, shots, child_seed(seed, 0))
    by_state = sample_counts(table, shots, rows.generator(seed, 0))
    assert list(by_seed.probabilities.items()) == list(by_state.probabilities.items())


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("mode", ["inrm", "inrm_dephased"])
@pytest.mark.parametrize("shots", [0, 1000])
def test_inrm_table_is_assembled_configurations(m, mode, shots):
    rng = np.random.default_rng(100 * m + shots)
    d = 2 if m < 4 else 4
    rho, h, q = random_density(rng, d), random_hamiltonian(rng, d), random_dichotomic(rng, d)
    schedule = Schedule(random_times(rng, m))
    config = ProtocolConfig(mode=mode, clumsiness=ClumsinessModel.depolarizing(0.1), shots=shots)
    measured = tuple(range(1, m + 1))
    seeds = [child_seed(23, i) for i in range(2 ** (m - 1))]

    outcomes, raw = walk_probabilities(
        rho, h, [q] * m, [schedule], measured, config, [config.clumsiness]
    )
    draws = iter(seeds)
    table = walk_table(
        outcomes, raw[0], [q] * m, measured, config, lambda: np.random.default_rng(next(draws))
    )

    exact = replace(config, shots=0)
    partials = [
        inrm_distribution(rho, h, q, schedule, couplings, exact)
        for couplings in itertools.product((1, -1), repeat=m - 1)
    ]
    if shots:
        partials = [_sample_partial(p, shots, seed) for p, seed in zip(partials, seeds)]
    expected = replace(assemble_inrm(partials), slot_times=measured)
    # same entries in the same order: summation order reaches the moments
    assert list(table.probabilities.items()) == list(expected.probabilities.items())
    assert (table.slots, table.kind, table.shots, table.slot_times) == (
        expected.slots, expected.kind, expected.shots, expected.slot_times,
    )


@pytest.fixture
def counted_seeding(monkeypatch):
    """Counts child seeds derived (each SeedSequence built with a spawn key) and every PCG64 seeded."""
    counts = {"spawned": 0, "seeded": 0}

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, entropy=None, *, spawn_key=(), **kwargs):
            counts["spawned"] += bool(spawn_key)
            super().__init__(entropy, spawn_key=spawn_key, **kwargs)

    class CountingPCG64(np.random.PCG64):
        def __init__(self, seed=None):
            counts["seeded"] += 1
            super().__init__(seed)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    return counts


def gap_sweep(points: int) -> SweepSpec:
    gaps = tuple(0.2 + 0.03 * k for k in range(points))
    return SweepSpec(template=D2_INRM_SHOTS, parameter="schedule.gap", values=gaps)


def test_one_seed_sweep_spawns_one_rows_worth(counted_seeding):
    run_certification(scenario_from_dict(D2_INRM_SHOTS))
    one_row = dict(counted_seeding)
    assert one_row["spawned"] > 0 and one_row["seeded"] == one_row["spawned"]

    for counter in counted_seeding:
        counted_seeding[counter] = 0
    rows = run_sweep(gap_sweep(64))
    assert all(r["verdict"] != "error" for r in rows)
    assert counted_seeding == one_row


def test_caches_do_not_outlive_a_sweep(counted_seeding):
    first = run_sweep(gap_sweep(8))
    first_counts = dict(counted_seeding)
    for counter in counted_seeding:
        counted_seeding[counter] = 0
    second = run_sweep(gap_sweep(8))
    assert counted_seeding == first_counts
    assert second == first


def test_seed_sweep_seeds_each_distinct_seed(counted_seeding):
    run_certification(scenario_from_dict(D2_INRM_SHOTS))
    per_seed = counted_seeding["spawned"]
    for counter in counted_seeding:
        counted_seeding[counter] = 0
    run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="seed", values=(7, 3, 7, 11, 3)))
    assert counted_seeding == {"spawned": 3 * per_seed, "seeded": 3 * per_seed}
