import argparse
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

import lgcert.cli as cli
from lgcert.cli import (
    ScenarioError,
    SweepSpec,
    _apply_overrides,
    load_scenario,
    load_sweep,
    main,
    run_certification,
    run_sweep,
    scenario_from_dict,
    sweep_to_csv,
)
from lgcert.qcore import matrix_to_json


def lg3_scenario(**overrides):
    data = {
        "dimension": 2,
        "initial_state": "maximally_mixed",
        "hamiltonian": {"preset": "precession", "frequency": 1.0},
        "observable": "sigma_z",
        "schedule": [np.pi / 3, 2 * np.pi / 3, np.pi],
        "protocol": {"mode": "projective"},
        "checks": ["LG3"],
        "shots": 0,
        "seed": 0,
    }
    data.update(overrides)
    return data


def nsit_scenario(**overrides):
    data = {
        "dimension": 2,
        "initial_state": "ground",
        "hamiltonian": {"preset": "precession", "frequency": 1.0},
        "observable": "sigma_z",
        "schedule": [np.pi / 2, np.pi],
        "protocol": {"mode": "projective_dephased", "clumsiness": {"kind": "none"}},
        "checks": ["NSIT"],
        "shots": 0,
        "seed": 0,
    }
    data.update(overrides)
    return data


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_trace_invariant_named_in_error(self, tmp_path):
        bad = lg3_scenario(
            initial_state=[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.49, 0.0]]]
        )
        path = write_json(tmp_path, "bad.json", bad)
        with pytest.raises(ScenarioError, match="initial_state.*trace"):
            load_scenario(path)

    def test_schedule_ordering_named_in_error(self, tmp_path):
        path = write_json(tmp_path, "bad.json", lg3_scenario(schedule=[2.0, 1.0]))
        with pytest.raises(ScenarioError, match="schedule.*increasing"):
            load_scenario(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 2,\n  "schedule": [1.0,,]\n}', encoding="utf-8")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))

    def test_maximally_mixed_preset(self, tmp_path):
        s = load_scenario(write_json(tmp_path, "ok.json", lg3_scenario()))
        np.testing.assert_allclose(s.initial_state.matrix, np.eye(2) / 2.0, atol=1e-15)

    def test_unknown_check_rejected(self):
        with pytest.raises(ScenarioError, match="unknown identifiers"):
            scenario_from_dict(lg3_scenario(checks=["LG9"]))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ScenarioError, match="preset"):
            scenario_from_dict(lg3_scenario(initial_state="excited"))


class TestRunCertification:
    def test_lg3_equal_gap_violation(self):
        report = run_certification(scenario_from_dict(lg3_scenario()))
        margins = {c["id"]: c["margin"] for c in report["conditions"]}
        assert margins["LG3-2"] == pytest.approx(-0.5, abs=1e-10)
        violated = [c["id"] for c in report["conditions"] if c["verdict"] == "violated"]
        assert violated == ["LG3-2"]
        assert report["verdict"] == "violations"
        assert report["mode"] == "exact"

    def test_lg3_empirical_within_three_stderr(self):
        report = run_certification(scenario_from_dict(lg3_scenario(shots=10**5, seed=42)))
        entry = next(c for c in report["conditions"] if c["id"] == "LG3-2")
        assert entry["verdict"] == "violated"
        assert abs(entry["margin"] + 0.5) <= 3 * entry["stderr"]
        assert report["mode"] == "empirical"

    def test_nsit_dephased_noninvasive(self):
        report = run_certification(scenario_from_dict(nsit_scenario()))
        wit = report["witnesses"][0]
        assert wit["id"] == "NSIT-(2;12)"
        assert wit["max_abs"] <= 1e-12
        assert wit["verdict"] == "non-invasive"
        assert report["verdict"] == "all_satisfied"

    def test_nsit_projective_invasive(self):
        report = run_certification(
            scenario_from_dict(nsit_scenario(protocol={"mode": "projective"}))
        )
        wit = report["witnesses"][0]
        assert wit["defects"]["+1"] == pytest.approx(-0.5, abs=1e-10)
        assert wit["verdict"] == "invasive"

    def test_experiment_isolation_one_table_per_moment(self):
        scenario = scenario_from_dict(lg3_scenario(checks=["LG2", "LG3"]))
        report = run_certification(scenario)
        assert set(report["experiments"]) == {"1", "2", "3", "12", "23", "13"}
        assert set(report["moments"]) == {"1", "2", "3", "12", "23", "13"}

    def test_derive_lower_moments_shares_one_experiment(self):
        report = run_certification(
            scenario_from_dict(lg3_scenario(checks=["LG2", "LG3"], derive_lower_moments=True))
        )
        assert set(report["experiments"]) == {"123"}

    def test_report_completeness_and_reproducibility(self):
        scenario = scenario_from_dict(
            lg3_scenario(checks=["LG2", "LG3", "NONNEG3", "NSIT", "MONO", "APPENDIX"], shots=2000, seed=7)
        )
        a = json.dumps(run_certification(scenario), sort_keys=True)
        b = json.dumps(run_certification(scenario), sort_keys=True)
        assert a == b
        report = json.loads(a)
        ids = [c["id"] for c in report["conditions"]]
        assert len(ids) == len(set(ids))
        assert sum(1 for i in ids if i.startswith("LG2-")) == 12
        assert sum(1 for i in ids if i.startswith("LG3-")) == 4
        assert sum(1 for i in ids if i.startswith("NONNEG-")) == 8
        assert sum(1 for i in ids if i.startswith("MONO-")) == 4
        assert [w["id"] for w in report["witnesses"]] == ["NSIT-(2;12)"]

    def test_inrm_mode_matches_projective_exact(self):
        plain = run_certification(scenario_from_dict(lg3_scenario()))
        inrm = run_certification(scenario_from_dict(lg3_scenario(protocol={"mode": "inrm"})))
        for a, b in zip(plain["conditions"], inrm["conditions"]):
            assert a["id"] == b["id"]
            assert a["margin"] == pytest.approx(b["margin"], abs=1e-12)

    def test_lg4_needs_four_times(self):
        with pytest.raises(ScenarioError, match="LG4 needs at least 4"):
            run_certification(scenario_from_dict(lg3_scenario(checks=["LG4"])))

    def test_nsit3_dephased_all_zero(self):
        scenario = scenario_from_dict(
            nsit_scenario(schedule=[0.7, 1.4, 2.3], checks=["NSIT3"])
        )
        report = run_certification(scenario)
        assert {w["id"] for w in report["witnesses"]} == {
            "NSIT-(3;23)", "NSIT-(13;123)", "NSIT-(23;123)",
        }
        assert all(w["max_abs"] <= 1e-12 for w in report["witnesses"])
        assert report["verdict"] == "all_satisfied"

    def test_nsit3_under_inrm_dephased_all_zero(self):
        # the blind at a non-detector time runs through the entrywise-equal
        # projective counterpart, so the complete set still closes exactly
        scenario = scenario_from_dict(
            nsit_scenario(
                schedule=[0.7, 1.4, 2.3],
                checks=["NSIT3"],
                protocol={"mode": "inrm_dephased"},
            )
        )
        report = run_certification(scenario)
        assert all(w["max_abs"] <= 1e-12 for w in report["witnesses"])

    def test_clumsy_scenario_keeps_clean_references_separate(self):
        # LG3 moment experiments carry the clumsiness channel; the NSIT3
        # reference runs are clean and must not share cached tables with them
        scenario = scenario_from_dict(
            lg3_scenario(
                checks=["LG3", "NSIT3"],
                protocol={
                    "mode": "projective",
                    "clumsiness": {"kind": "depolarizing", "strength": 0.2},
                },
                initial_state="ground",
            )
        )
        report = run_certification(scenario)
        exps = report["experiments"]
        assert "23" in exps and "23_clean" in exps and "13" in exps and "13_clean" in exps
        assert exps["23"]["probabilities"] != exps["23_clean"]["probabilities"]


class TestSweep:
    def test_gap_sweep_with_error_rows(self):
        spec = SweepSpec(
            template=lg3_scenario(),
            parameter="schedule.gap",
            values=(0.0, np.pi / 6, np.pi / 3, np.pi / 2),
        )
        rows = run_sweep(spec)
        assert [r["value"] for r in rows] == [0.0, np.pi / 6, np.pi / 3, np.pi / 2]
        # tau = 0 collapses the schedule, which the schedule invariant rejects
        assert rows[0]["error"] != "" and "schedule" in rows[0]["error"]
        at_third = rows[2]["margins"]
        assert at_third["LG3-2"] == pytest.approx(-0.5, abs=1e-10)
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith('value,"LG3-1","LG3-2","LG3-3","LG3-4"')
        assert len(lines) == 5

    def test_clumsiness_sweep_witness_column(self):
        template = nsit_scenario(schedule=[np.pi / 3, 2 * np.pi / 3])
        template["protocol"] = {
            "mode": "projective_dephased",
            "clumsiness": {"kind": "depolarizing", "strength": 0.0},
        }
        spec = SweepSpec(
            template=template,
            parameter="protocol.clumsiness.strength",
            values=(0.0, 0.05, 0.1),
        )
        rows = run_sweep(spec)
        witness = [row["margins"]["NSIT-(2;12)"] for row in rows]
        assert witness[0] <= 1e-12
        assert witness[1] > 1e-6 and witness[2] > witness[1]
        assert witness[1] == pytest.approx(0.05 / 8.0, abs=1e-10)

    def test_empty_values_rejected(self, tmp_path):
        path = write_json(
            tmp_path, "sweep.json", {"scenario": lg3_scenario(), "parameter": "seed", "values": []}
        )
        with pytest.raises(ScenarioError, match="values"):
            load_sweep(path)

    def test_non_numeric_gap_becomes_error_row(self, tmp_path):
        sweep_path = write_json(
            tmp_path,
            "sweep.json",
            {"scenario": lg3_scenario(), "parameter": "schedule.gap", "values": [np.pi / 3, "abc"]},
        )
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", sweep_path, "--out", str(out_path)]) == 1  # the pi/3 row violates
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        assert lines[2].startswith("abc,") and "schedule.gap" in lines[2]
        rows = run_sweep(load_sweep(sweep_path))
        assert rows[0]["verdict"] == "violations"
        assert rows[1]["verdict"] == "error" and rows[1]["error"].startswith("schedule.gap: ")

    @pytest.mark.parametrize(
        "parameter, value, field",
        [
            ("checks", 5, "checks: "),
            ("protocol", "projective", "protocol: "),
            ("protocol.clumsiness", "none", "protocol.clumsiness: "),
        ],
    )
    def test_wrongly_typed_value_becomes_error_row(self, parameter, value, field):
        spec = SweepSpec(template=lg3_scenario(), parameter=parameter, values=(value,))
        (row,) = run_sweep(spec)
        assert row["verdict"] == "error" and row["error"].startswith(field)

    def test_non_list_values_exit_two(self, tmp_path, capsys):
        sweep_path = write_json(
            tmp_path, "sweep.json", {"scenario": lg3_scenario(), "parameter": "schedule.gap", "values": 5}
        )
        assert main(["sweep", sweep_path]) == 2
        assert capsys.readouterr().err == "error: sweep: 'values' must be a non-empty list\n"
        assert main(["sweep", write_json(tmp_path, "number.json", 5)]) == 2
        assert "JSON object" in capsys.readouterr().err


class TestMainEntryPoint:
    def test_certify_exit_codes_and_output(self, tmp_path, capsys):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario())
        out_path = tmp_path / "report.json"
        code = main(["certify", scenario_path, "--out", str(out_path)])
        assert code == 1  # violations: the interesting physics case
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["verdict"] == "violations"

        ok_path = write_json(tmp_path, "nsit.json", nsit_scenario())
        assert main(["certify", ok_path, "--out", str(tmp_path / "ok.json")]) == 0

    def test_certify_csv_format(self, tmp_path):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario())
        out_path = tmp_path / "report.csv"
        main(["certify", scenario_path, "--format", "csv", "--out", str(out_path)])
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("id,kind,margin,stderr,verdict\n")
        assert '"LG3-2",condition' in text

    def test_certify_byte_identical_reports(self, tmp_path):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario(shots=5000, seed=9))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["certify", scenario_path, "--out", str(out_a)])
        main(["certify", scenario_path, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_shots_and_seed_overrides(self, tmp_path):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario())
        out_path = tmp_path / "emp.json"
        main(["certify", scenario_path, "--shots", "1000", "--seed", "5", "--out", str(out_path)])
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["mode"] == "empirical" and report["shots"] == 1000 and report["seed"] == 5

    def test_oracle_dumps_tables_only(self, tmp_path, capsys):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario())
        assert main(["oracle", scenario_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"seed", "mode", "shots", "experiments"}
        assert "12" in payload["experiments"]

    def test_sweep_csv_emission(self, tmp_path):
        sweep_path = write_json(
            tmp_path,
            "sweep.json",
            {
                "scenario": lg3_scenario(),
                "parameter": "schedule.gap",
                "values": [np.pi / 6, np.pi / 3],
            },
        )
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", sweep_path, "--out", str(out_path)])
        assert code == 1  # the pi/3 row violates
        text = out_path.read_text(encoding="utf-8")
        assert "\r" not in text
        assert len(text.strip().split("\n")) == 3

    def test_invalid_input_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", lg3_scenario(schedule=[2.0, 1.0, 3.0]))
        assert main(["certify", path]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["certify", "/nonexistent/scenario.json"]) == 2


class TestParseOnce:
    """Parsing happens once per scenario: sweep templates and overridden scenarios reuse it."""

    @staticmethod
    def matrix_scenario():
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return lg3_scenario(
            hamiltonian=matrix_to_json((a + a.conj().T) / 2),
            initial_state=matrix_to_json(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)),
            checks=["LG3", "NSIT"],
        )

    def test_sweep_parses_template_once(self, tmp_path, monkeypatch):
        calls = []
        parsers = ("_parse_state", "_parse_hamiltonian", "_parse_observable", "_parse_protocol")
        for name in parsers:
            parse = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, parse=parse, name=name: calls.append(name) or parse(*args))
        values = [np.pi / 6, np.pi / 3, 0.9, -0.4]
        path = write_json(
            tmp_path, "sweep.json",
            {"scenario": lg3_scenario(), "parameter": "schedule.gap", "values": values},
        )
        main(["sweep", path, "--out", str(tmp_path / "sweep.csv")])
        assert sorted(calls) == sorted(parsers)

    def test_invalid_sweep_template_exits_two(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "sweep.json",
            {"scenario": lg3_scenario(schedule=[2.0, 1.0, 3.0]), "parameter": "seed", "values": [1]},
        )
        assert main(["sweep", path]) == 2
        assert capsys.readouterr().err == (
            "error: schedule: schedule times must be strictly increasing, got 2.0 then 1.0\n"
        )

    def test_overrides_reuse_parsed_matrices(self, tmp_path):
        data = self.matrix_scenario()
        scenario = scenario_from_dict(data)
        overridden = _apply_overrides(scenario, argparse.Namespace(shots=1000, seed=5))
        assert overridden.hamiltonian is scenario.hamiltonian
        assert overridden.initial_state is scenario.initial_state
        assert overridden.observable is scenario.observable
        assert (overridden.shots, overridden.seed) == (1000, 5)

        # the bytes equal those of a file that sets shots and seed itself
        flags = write_json(tmp_path, "flags.json", data)
        inline = write_json(tmp_path, "inline.json", dict(data, shots=1000, seed=5))
        main(["certify", flags, "--shots", "1000", "--seed", "5", "--out", str(tmp_path / "a.json")])
        main(["certify", inline, "--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        sweep = {"parameter": "schedule.gap", "values": [0.3, 0.7]}
        flags = write_json(tmp_path, "flags_sweep.json", dict(sweep, scenario=data))
        inline = write_json(
            tmp_path, "inline_sweep.json", dict(sweep, scenario=dict(data, shots=1000, seed=5))
        )
        main(["sweep", flags, "--shots", "1000", "--seed", "5", "--out", str(tmp_path / "a.csv")])
        main(["sweep", inline, "--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict(lg3_scenario(seed=-1))
        path = write_json(tmp_path, "lg3.json", lg3_scenario())
        assert main(["certify", path, "--shots", "100", "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err
        sweep = write_json(
            tmp_path, "sweep.json",
            {"scenario": lg3_scenario(shots=100), "parameter": "seed", "values": [4, -1]},
        )
        rows = run_sweep(load_sweep(sweep))
        assert rows[0]["error"] == "" and rows[1]["error"].startswith("seed:")

    def test_invalid_sweep_override_exits_two(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "sweep.json",
            {"scenario": lg3_scenario(), "parameter": "schedule.gap", "values": [0.5]},
        )
        assert main(["sweep", path, "--shots", "-1"]) == 2
        assert "shots must be non-negative" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


class TestOutputFile:
    """``--out`` overwrites a file in place and cuts it to the new length; a failed write exits 2."""

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=[f"{c['command']}-{c['output']}" for c in GOLDEN_CASES]
    )
    def test_overwrite_leaves_exactly_the_new_bytes(self, case, tmp_path):
        want = (GOLDEN / case["output"]).read_bytes()
        argv = [case["command"], str(GOLDEN / case["input"]), *case.get("args", [])]
        before = {
            "no file": None,
            "longer file": b"\xff" * (len(want) + 4096),  # fails if the stale tail is not cut
            "shorter file": b"z" * (len(want) // 2),
            "its own bytes": want,
        }
        for name, old in before.items():
            out = tmp_path / f"{name}.out"
            if old is not None:
                out.write_bytes(old)
            assert main([*argv, "--out", str(out)]) == case["exit_code"], name
            assert out.read_bytes() == want, name
        assert main([*argv, "--out", os.devnull]) == case["exit_code"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        scenario_path = write_json(tmp_path, "nsit.json", nsit_scenario())
        out = tmp_path / "report.json"
        assert main(["certify", scenario_path, "--out", str(out)]) == 0
        with open(tmp_path / "plain.json", "w", encoding="utf-8"):
            pass
        assert out.stat().st_mode == (tmp_path / "plain.json").stat().st_mode

    @pytest.mark.parametrize("where", ["missing directory", "directory", "/dev/full"])
    def test_unwritable_output_exits_two(self, where, tmp_path, capsys):
        out = {
            "missing directory": str(tmp_path / "missing" / "report.json"),
            "directory": str(tmp_path),
            "/dev/full": "/dev/full",
        }[where]
        if where == "/dev/full" and not os.path.exists(out):
            pytest.skip("no /dev/full on this platform")
        scenario_path = write_json(tmp_path, "nsit.json", nsit_scenario())
        assert main(["certify", scenario_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {out}: ") and err.endswith("\n")
        assert err.count("\n") == 1

    def test_output_without_permission_exits_two(self, tmp_path, capsys, monkeypatch):
        # a superuser may write anywhere, so the operating system's refusal is simulated
        def refuse(path, flags, mode=0o777):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        scenario_path = write_json(tmp_path, "nsit.json", nsit_scenario())
        out = str(tmp_path / "report.json")
        monkeypatch.setattr(cli.os, "open", refuse)
        assert main(["certify", scenario_path, "--out", out]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            f"error: cannot write output file {out}: [Errno {errno.EACCES}] "
            f"{os.strerror(errno.EACCES)}: '{out}'\n"
        )
        assert not os.path.exists(out)

    def test_oracle_rejects_csv_format(self, tmp_path, capsys):
        scenario_path = write_json(tmp_path, "lg3.json", lg3_scenario())
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", scenario_path, "--format", "csv"])
        assert exit_info.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert main(["oracle", scenario_path, "--format", "json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"seed", "mode", "shots", "experiments"}


class TestShotsLimit:
    """``shots`` above 2**63 - 1, which numpy's multinomial cannot take, is a validation error naming shots."""

    TOO_MANY = 2**63

    def test_shots_override_exits_two(self, capsys):
        path = str(GOLDEN / "readme_precession.json")
        assert main(["certify", path, "--shots", str(self.TOO_MANY), "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shots must be at most 2**63 - 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["top level", "protocol"])
    def test_scenario_shots_rejected(self, where):
        data = lg3_scenario()
        if where == "top level":
            data["shots"] = self.TOO_MANY
        else:
            del data["shots"]
            data["protocol"] = {"mode": "projective", "shots": self.TOO_MANY}
        with pytest.raises(ScenarioError, match=r"shots must be at most 2\*\*63 - 1"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("where", ["top level", "protocol"])
    def test_largest_shots_still_runs(self, where):
        data = lg3_scenario(seed=3)
        if where == "top level":
            data["shots"] = self.TOO_MANY - 1
        else:
            del data["shots"]
            data["protocol"] = {"mode": "projective", "shots": self.TOO_MANY - 1}
        report = run_certification(scenario_from_dict(data))
        assert report["mode"] == "empirical" and report["shots"] == self.TOO_MANY - 1

    def test_sweep_row_above_the_limit_is_an_error_row(self):
        rows = run_sweep(SweepSpec(template=lg3_scenario(), parameter="shots", values=(0, 100, 2**64)))
        assert [r["error"] for r in rows[:2]] == ["", ""] and all(r["margins"] for r in rows[:2])
        assert rows[2]["verdict"] == "error" and "shots must be at most 2**63 - 1" in rows[2]["error"]


class TestProtocolField:
    """Only an absent ``protocol`` or ``null`` means the default projective protocol."""

    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["empty list", "zero", "false", "empty string"])
    def test_falsy_non_object_rejected(self, value):
        with pytest.raises(ScenarioError, match="^protocol: must be a JSON object$"):
            scenario_from_dict(lg3_scenario(protocol=value))

    def test_null_and_absent_mean_the_default(self):
        absent = lg3_scenario()
        del absent["protocol"]
        for data in (absent, lg3_scenario(protocol=None)):
            assert scenario_from_dict(data).config.mode == "projective"


def test_null_sweep_value_is_written_as_json_writes_it():
    spec = SweepSpec(template=nsit_scenario(), parameter="protocol.dephase_times", values=(None, [1], [2]))
    rows = run_sweep(spec)
    assert [line.split(",")[0] for line in sweep_to_csv(rows).splitlines()[1:]] == ["null", "[1]", "[2]"]


class TestSweptPath:
    """A swept path runs through objects: a present field on it that is not one makes an error row."""

    @pytest.mark.parametrize(
        ("parameter", "field", "kind"),
        [("schedule.1", "schedule", "list"), ("initial_state.kind", "initial_state", "str")],
    )
    def test_non_object_on_the_path_is_an_error_row(self, parameter, field, kind):
        rows = run_sweep(SweepSpec(template=lg3_scenario(), parameter=parameter, values=(1, 2)))
        assert [r["verdict"] for r in rows] == ["error", "error"]
        assert [r["error"] for r in rows] == [f"{parameter}: {field} is a {kind}, not a JSON object"] * 2

    @pytest.mark.parametrize(
        ("parameter", "message"),
        [
            ("protocol.clumsiness.strenght",
             "'strenght' is not a key of protocol.clumsiness; its parser reads kind, strength, generator"),
            ("protocol.mdoe", "'mdoe' is not a key of protocol; its parser reads mode, dephase_times, clumsiness, shots"),
            ("dimenson", "'dimenson' is not a key of the scenario; its parser reads dimension, initial_state, "
                         "hamiltonian, observable, schedule, protocol, checks, shots, seed, derive_lower_moments"),
            ("hamiltonian.frequncy", "'frequncy' is not a key of hamiltonian; its parser reads preset, frequency"),
            ("observable.label", "'label' is not a key of observable; its parser reads projectors, labels"),
        ],
    )
    def test_a_key_no_parser_reads_makes_every_row_an_error_row(self, parameter, message):
        template = lg3_scenario(protocol={"mode": "projective_dephased", "clumsiness": {"kind": "depolarizing",
                                                                                      "strength": 0.1}})
        if parameter.startswith("observable."):
            template["observable"] = {"projectors": [matrix_to_json(np.diag([1.0, 0.0])),
                                                     matrix_to_json(np.diag([0.0, 1.0]))]}
        rows = run_sweep(SweepSpec(template=template, parameter=parameter, values=(0.0, 0.3, "x")))
        assert [(r["verdict"], r["margins"], r["error"]) for r in rows] == [("error", {}, f"{parameter}: {message}")] * 3

    def test_the_listed_keys_are_the_keys_the_parsers_read(self):
        class Reads(dict):
            """A dict that records every key read from it."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.read = set()

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                self.read.add(key)
                return super().__contains__(key)

        # every object whose keys are listed, in the form whose parser reads all of them
        generator = matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))
        clumsiness = Reads(kind="unitary_kick", strength=0.1, generator=generator)
        protocol = Reads(mode="projective_dephased", dephase_times=[1], clumsiness=clumsiness, shots=10)
        hamiltonian = Reads(preset="precession", frequency=1.0)
        observable = Reads(projectors=[matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
                           labels=[1, -1])
        data = lg3_scenario(hamiltonian=hamiltonian, observable=observable, protocol=protocol)
        del data["shots"]  # so that the protocol's are read
        scenario = Reads(data)
        cli._parse_fields(scenario, cli._parse_dimension(scenario), None)
        assert scenario.read == set(cli._SCENARIO_KEYS)
        assert protocol.read == set(cli._PROTOCOL_KEYS)
        assert clumsiness.read == set(cli._CLUMSINESS_KEYS)
        assert hamiltonian.read == set(cli._PRESET_KEYS)
        assert observable.read == set(cli._PROJECTOR_KEYS)

    @pytest.mark.parametrize("protocol", [{"mode": "projective"}, None, "absent"])
    def test_a_key_of_a_new_protocol_or_clumsiness_object_is_checked_too(self, protocol):
        template = lg3_scenario(protocol=protocol)
        if protocol == "absent":
            del template["protocol"]
        (row,) = run_sweep(SweepSpec(template=template, parameter="protocol.clumsiness.strenght", values=(0.1,)))
        assert row["error"].startswith("protocol.clumsiness.strenght: 'strenght' is not a key of protocol.clumsiness;")

    @pytest.mark.parametrize("protocol", ["absent", None])
    def test_absent_or_null_field_becomes_an_object(self, protocol):
        data = lg3_scenario()
        if protocol == "absent":
            del data["protocol"]
        else:
            data["protocol"] = protocol
        rows = run_sweep(SweepSpec(template=data, parameter="protocol.mode", values=("projective",)))
        want = run_certification(scenario_from_dict(lg3_scenario()))
        assert rows[0]["error"] == "" and rows[0]["margins"] == {c["id"]: c["margin"] for c in want["conditions"]}
