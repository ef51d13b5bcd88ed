"""Outside-in tracing of lgcert's layers for the benchmark's traced run.

``Tracer.install`` rebinds every module-global reference to each traced
public function across the loaded ``lgcert.*`` modules, so calls made inside
the package go through a wrapper that records one span; ``numpy.linalg.eigh``
is wrapped to count calls only.  ``uninstall`` puts every original back.
Nothing under ``src/`` is edited.

A span is (id, name, start_ns, end_ns, parent, op_id).  The parent comes from
a thread-local stack; a span opened on a thread with an empty stack (one of
``run_sweep``'s pool workers) takes the innermost open span of the thread
that started the op, so sweep rows nest under ``run_sweep``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Traced function -> the per-layer group its self time and calls count towards.
GROUPS = {
    "qcore.unitary_for": "qcore.unitary",
    "qcore.evolve_matrix": "qcore.channel",
    "qcore.dephase_matrix": "qcore.channel",
    "qcore.apply_clumsiness_matrix": "qcore.channel",
    "protocols.experiment_distribution": "protocols.experiment",
    "protocols.inrm_distribution": "protocols.inrm",
    "protocols.assemble_inrm": "protocols.inrm",
    "protocols.blind_measurement_via_ancilla": "protocols.ancilla",
    "protocols.sample_counts": "protocols.sample",
    "protocols.table_to_json": "protocols.table_json",
    "macrocert.moments_from_tables": "macrocert.moments",
    "macrocert.moments_from_single_table": "macrocert.moments",
    "macrocert.candidate_probability": "macrocert.checks",
    "macrocert.check_lg2": "macrocert.checks",
    "macrocert.check_lg3": "macrocert.checks",
    "macrocert.check_lg4": "macrocert.checks",
    "macrocert.check_nonnegativity": "macrocert.checks",
    "macrocert.check_nsit": "macrocert.checks",
    "macrocert.check_monotonicity": "macrocert.checks",
    "macrocert.check_appendix_identities": "macrocert.appendix",
    "macrocert.feasible_completion": "macrocert.fm",
    "cli.load_scenario": "cli.parse",
    "cli.load_sweep": "cli.parse",
    "cli.scenario_from_dict": "cli.parse",
    "cli.run_certification": "cli.run_self",
    "cli.main": "cli.main_self",
    "cli.run_sweep": "cli.sweep",
    "cli._sweep_row": "cli.sweep_row",
}
TIMED = ("qcore.unitary", "qcore.channel", "protocols.experiment", "protocols.inrm",
         "protocols.ancilla", "protocols.sample", "protocols.table_json", "macrocert.moments",
         "macrocert.checks", "macrocert.appendix", "macrocert.fm", "cli.parse", "cli.run_self",
         "cli.main_self")
COUNTED = ("qcore.unitary", "protocols.experiment", "protocols.inrm", "protocols.ancilla",
           "protocols.sample")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.eigh_ops: list[int | None] = []
        self.op_id: int | None = None
        self._op_ids = itertools.count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> None:
        """Tag the spans that follow with a new op id; call on the op's own thread."""
        self.op_id = next(self._op_ids)
        self._op_stack = self._stack()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            top = stack or self._op_stack
            parent = top[-1] if top else None
            sid = next(self._ids)
            op_id = self.op_id
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, op_id))

        return traced

    def install(self) -> None:
        wrappers = {}
        for name in GROUPS:
            module, attr = name.split(".")
            fn = getattr(sys.modules[f"lgcert.{module}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lgcert" and not mod_name.startswith("lgcert."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            self.eigh_ops.append(self.op_id)
            return eigh(*args, **kwargs)

        self._restore.append((np.linalg, "eigh", eigh))
        np.linalg.eigh = counted_eigh

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op_id": op_id}) + "\n")

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Per-layer totals divided by ``n_ops``: self ms, call counts, sweep overlap.

        A span's self time is its duration minus the union of its child
        spans' intervals, so pool rows running side by side are not
        subtracted twice.
        """
        children = defaultdict(list)
        for sid, name, start, end, parent, op_id in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        wall_ns = defaultdict(int)
        for sid, name, start, end, parent, op_id in self.spans:
            group = GROUPS[name]
            covered, cursor = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            self_ns[group] += end - start - covered
            wall_ns[group] += end - start
            calls[group] += 1
        out = {"qcore.eigh_calls": len(self.eigh_ops) / n_ops}
        for group in COUNTED:
            out[f"{group}_calls"] = calls[group] / n_ops
        for group in TIMED:
            out[f"{group}_ms"] = self_ns[group] / 1e6 / n_ops
        out["cli.sweep_overlap"] = (wall_ns["cli.sweep_row"] / wall_ns["cli.sweep"]
                                    if wall_ns["cli.sweep"] else 0.0)
        return out
