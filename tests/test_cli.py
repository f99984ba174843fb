"""Command line behaviour, driven through main(argv)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cipid import SolverError, canonical, load_distribution, save_distribution, wms_synergy
from cipid import channels, cli
from cipid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_output_is_name_tab_value(self, capsys):
        code, out, err = run(
            capsys, "measure", "--dist", "corpus:XOR",
            "--measure", "i_total", "--measure", "s_ci",
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["i_total\t1.000000", "s_ci\t1.000000"]

    def test_and_union_information(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--dist", "corpus:AND", "--measure", "i_cup_ci",
        )
        assert code == 0
        assert out == "i_cup_ci\t0.540852\n"

    def test_file_path_input(self, capsys, tmp_path):
        path = tmp_path / "xor.dist"
        save_distribution(canonical("XOR"), path)
        code, out, _ = run(capsys, "measure", "--dist", str(path), "--measure", "s_ci")
        assert code == 0
        assert out == "s_ci\t1.000000\n"

    def test_s_d_on_the_projection_fault_input(self, capsys, tmp_path):
        """The old projected descent exited 3 on this file."""
        counts = [59, 142, 90, 33, 189, 2, 1, 196, 223, 1, 63, 1]
        cells = [(t, a, b) for t in range(3) for a in range(2) for b in range(2)]
        path = tmp_path / "fault.dist"
        path.write_text("T Y1 Y2 p\n" + "".join(
            f"{t} {a} {b} {n}/1000\n" for (t, a, b), n in zip(cells, counts)))
        code, out, err = run(capsys, "measure", "--dist", str(path), "--measure", "s_d")
        assert code == 0, err
        assert out.startswith("s_d\t")

    def test_triangle_sources_where_an_ipf_start_stalled(self, capsys, triangle_file):
        """The coupling start was an IPF fit, which exited 3 on this file."""
        code, out, err = run(
            capsys, "measure", "--dist", str(triangle_file), "--sources", "Y1,Y2;Y1,Y3;Y2,Y3",
            "--measure", "i_cup_vk", "--measure", "s_d",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "i_cup_vk\t0.278576"
        assert lines[1].startswith("s_d\t")

    def test_file_with_a_byte_order_mark_finds_its_default_target(self, capsys, tmp_path):
        path = tmp_path / "xor.dist"
        path.write_text("T Y1 Y2 p\n0 0 0 1/4\n1 0 1 1/4\n1 1 0 1/4\n0 1 1 1/4\n",
                        encoding="utf-8-sig")
        code, out, err = run(capsys, "measure", "--dist", str(path), "--measure", "s_ci")
        assert code == 0, err
        assert out == "s_ci\t1.000000\n"

    @pytest.mark.parametrize("measure", ["s_d", "i_cup_vk"])
    def test_unconverged_union_minimization_exits_3(self, capsys, monkeypatch, measure):
        monkeypatch.setattr(channels, "_barrier_newton", lambda w, a, s, x0, *rest: (x0, 1.0))
        code, out, err = run(capsys, "measure", "--dist", "corpus:AND", "--measure", measure)
        assert code == 3
        assert out == ""
        assert "gap 1.000e+00" in err

    def test_unconverged_redundancy_climb_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "degradation_redundancy", unconverged_redundancy)
        code, out, err = run(capsys, "measure", "--dist", "corpus:AND", "--measure", "i_cap_d")
        assert code == 3
        assert out == ""
        assert "iteration cap" in err

    def test_values_before_a_solver_error_are_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "degradation_redundancy", unconverged_redundancy)
        code, out, err = run(
            capsys, "measure", "--dist", "corpus:AND",
            "--measure", "i_total", "--measure", "i_cap_d",
        )
        assert code == 3
        assert out == "i_total\t0.811278\n"
        assert "iteration cap" in err

    @pytest.mark.parametrize("measure", ["i_cap_d", "i_cup_vk", "s_d"])
    def test_unconverged_solve_names_its_bracket(self, capsys, monkeypatch, measure):
        reports = []

        def unconverged(solve):
            def stopped(*args, **kwargs):
                reports.append(dataclasses.replace(solve(*args, **kwargs), converged=False))
                return reports[-1]
            return stopped

        monkeypatch.setattr(cli, "degradation_redundancy", unconverged(channels.degradation_redundancy))
        monkeypatch.setattr(channels, "vk_union_information", unconverged(channels.vk_union_information))
        code, out, err = run(capsys, "measure", "--dist", "corpus:BOOM", "--measure", measure)
        [rep] = reports
        assert code == 3
        assert out == ""
        assert f"the optimum lies in [{rep.lower:.6f}, {rep.upper:.6f}] bits" in err
        assert "iteration cap" in err

    def test_a_value_that_rounds_to_zero_prints_unsigned(self, capsys, tmp_path):
        """Draws 811 and 154 of axioms.random_distribution(default_rng(5)).
        On the first the top Williams-Beer atom rounds to -1.1e-16 and is
        clamped; on the second s_wms, which is signed, rounds to -1.1e-16."""
        top_atom = tmp_path / "top_atom.dist"
        top_atom.write_text(
            "T Y1 Y2 p\n0 0 0 0.1640874982365702\n0 1 1 0.43275041731840264\n"
            "1 0 0 0.24001211642934253\n1 2 0 0.0844620926279495\n1 2 1 0.0786878753877352\n"
        )
        wms = tmp_path / "wms.dist"
        wms.write_text(
            "T Y1 Y2 p\n0 0 0 0.340800799321231\n0 0 1 0.05074399349675174\n"
            "1 0 0 0.3888254198459399\n1 0 1 0.21962978733607727\n"
        )
        assert run(capsys, "measure", "--dist", str(top_atom), "--measure", "s_wb")[1] == "s_wb\t0.000000\n"
        assert run(capsys, "measure", "--dist", str(wms), "--measure", "s_wms")[1] == "s_wms\t0.000000\n"
        d = load_distribution(wms)
        assert wms_synergy(d, d.varset("T")) < 0.0

    def test_every_name_is_checked_before_any_is_computed(self, capsys):
        code, out, err = run(
            capsys, "measure", "--dist", "corpus:AND",
            "--measure", "i_total", "--measure", "bogus",
        )
        assert code == 2
        assert out == ""
        assert "unknown measure 'bogus'" in err

    def test_a_repeated_name_is_computed_once(self, capsys, monkeypatch):
        calls = []
        real = cli.MEASURES["i_total"]

        def counted(ctx):
            calls.append(1)
            return real(ctx)

        monkeypatch.setitem(cli.MEASURES, "i_total", counted)
        code, out, _ = run(
            capsys, "measure", "--dist", "corpus:AND",
            "--measure", "i_total", "--measure", "i_total",
        )
        assert code == 0
        assert out == "i_total\t0.811278\ni_total\t0.811278\n"
        assert len(calls) == 1

    def test_source_grouping(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--dist", "corpus:AND",
            "--sources", "Y1,Y2", "--measure", "s_ci",
        )
        assert code == 0
        assert out == "s_ci\t0.000000\n"

    def test_multi_variable_target(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--dist", "corpus:TARGET_MONO_CI",
            "--target", "T,Z", "--measure", "i_cup_ci",
        )
        assert code == 0
        assert out == "i_cup_ci\t0.902202\n"

    @pytest.mark.parametrize("target, code, shown", [
        (None, 0, "i_total\t2.000000\n"),
        ("T1", 0, "i_total\t2.000000\n"),
        ("T2", 0, "i_total\t1.000000\n"),
        ("", 2, "error: target specification is empty\n"),
    ])
    def test_a_corpus_entry_supplies_its_default_target(self, capsys, target, code, shown):
        """COPY_XOR_TARGETS predicts T1, the pair copy, unless --target names another."""
        flag = [] if target is None else ["--target", target]
        got, out, err = run(
            capsys, "measure", "--dist", "corpus:COPY_XOR_TARGETS", "--measure", "i_total", *flag,
        )
        assert (got, out + err) == (code, shown)

    def test_parametric_dist(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--dist", "corpus:ADAPTED_XOR", "--r", "1",
            "--measure", "s_ci",
        )
        assert code == 0
        assert out == "s_ci\t1.000000\n"


class TestUsageErrors:
    def test_unknown_measure(self, capsys):
        code, _, err = run(capsys, "measure", "--dist", "corpus:XOR", "--measure", "bogus")
        assert code == 2
        assert "unknown measure" in err

    def test_unknown_corpus_name(self, capsys):
        code, _, err = run(capsys, "measure", "--dist", "corpus:NOPE", "--measure", "s_ci")
        assert code == 2
        assert "error:" in err

    def test_r_on_a_file(self, capsys, tmp_path):
        path = tmp_path / "xor.dist"
        save_distribution(canonical("XOR"), path)
        code, _, err = run(
            capsys, "measure", "--dist", str(path), "--r", "0.5", "--measure", "s_ci",
        )
        assert code == 2

    def test_a_file_without_T_needs_a_target(self, capsys, tmp_path):
        path = tmp_path / "ab.dist"
        path.write_text("A B p\n0 0 1/2\n1 1 1/2\n")
        code, out, err = run(capsys, "measure", "--dist", str(path), "--measure", "i_total")
        assert code == 2
        assert out == ""
        assert "no default target" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "measure", "--dist", str(tmp_path / "absent.dist"),
            "--measure", "s_ci",
        )
        assert code == 2

    def test_nan_mass_in_a_file(self, capsys, tmp_path):
        path = tmp_path / "nan.dist"
        path.write_text("T Y1 Y2 p\n0 0 0 1\n0 1 1 nan\n")
        code, out, err = run(capsys, "measure", "--dist", str(path), "--measure", "s_ci")
        assert code == 2
        assert out == ""
        assert "line 3" in err

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.dist"
        path.write_bytes(b"T Y1 p\n0 0 0.5\n\xff\xfe 1 0.5\n")
        code, out, err = run(capsys, "measure", "--dist", str(path), "--measure", "i_total")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 3:")

    def test_unknown_target_variable(self, capsys):
        code, _, err = run(
            capsys, "measure", "--dist", "corpus:XOR", "--target", "Q",
            "--measure", "s_ci",
        )
        assert code == 2

    def test_unknown_family(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--family", "NOPE", "--grid", "0,1",
            "--measure", "s_ci", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert err.endswith(
            "unknown family 'NOPE'; available: ADAPTED_REDUCED_OR, ADAPTED_XOR, ADAPTED_XOR_V2\n"
        )

    def test_bad_grid(self, capsys, tmp_path):
        for grid in ("", "0,two", "0:1:1", "0,1.5"):
            code, _, _ = run(
                capsys, "sweep", "--family", "ADAPTED_XOR", "--grid", grid,
                "--measure", "s_ci", "--out", str(tmp_path / "o.csv"),
            )
            assert code == 2, grid

    def test_unknown_table_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "bogus-table"])
        assert exc.value.code == 2


_RESULTS_CASES = (
    "XOR", "AND", "COPY", "RDNXOR", "RDNUNQXOR",
    "XORDUPLICATE", "ANDDUPLICATE", "XORLOSES", "XORMULTICOAL",
)
_S_WB_GAPS = ("XORDUPLICATE", "ANDDUPLICATE", "XORMULTICOAL")

_ROWS = {
    "results-table": [
        (case, measure,
         "skipped" if measure == "s_sd"
         else "FAIL" if measure == "s_wb" and case in _S_WB_GAPS else "ok")
        for case in _RESULTS_CASES
        for measure in ("s_wb", "s_wms", "delta_i", "s_d", "s_sd", "s_ci")
    ],
    "worked-examples": [
        ("T-equals-Y1", "atom_R", "ok"),
        ("T-equals-Y1", "atom_U1", "ok"),
        ("T-equals-Y1", "atom_U2", "ok"),
        ("T-equals-Y1", "atom_S", "ok"),
        ("COPY", "atom_R", "ok"),
        ("COPY", "atom_U1", "ok"),
        ("COPY", "atom_U2", "ok"),
        ("COPY", "atom_S", "ok"),
        ("BOOM", "i_cap_d", "ok"),
        ("BOOM", "printed_q_feasible", "ok"),
        ("BOOM", "printed_q_information", "ok"),
        ("TWEAKED_COPY", "atom_U1", "ok"),
        ("TWEAKED_COPY", "atom_U2", "ok"),
        ("TWEAKED_COPY", "atom_S", "ok"),
    ],
    "counterexamples": [
        ("TARGET_MONO_CI", "i_cup_ci(T)", "ok"),
        ("TARGET_MONO_CI", "i_cup_ci(T,Z)", "ok"),
        ("TARGET_MONO_CI", "enrichment_decreases", "ok"),
        ("TARGET_MONO_AND", "i_cap_d(T)", "ok"),
        ("TARGET_MONO_AND", "i_cap_d(T,Z)", "ok"),
        ("COPY_XOR_TARGETS", "s_ci(T1)", "ok"),
        ("COPY_XOR_TARGETS", "s_ci(T2)", "ok"),
        ("ADAPTED_XOR", "s_ci(r=0.25)", "FAIL"),
        ("ADAPTED_XOR", "s_ci endpoint average", "ok"),
        ("ADAPTED_XOR", "midpoint_above_average", "ok"),
        ("ADAPTED_XOR_V2", "s_d(r=0.25)", "FAIL"),
        ("ADAPTED_XOR_V2", "s_d endpoint average", "FAIL"),
        ("ADAPTED_XOR_V2", "midpoint_above_average", "FAIL"),
    ],
}


def unconverged_redundancy(*args, **kwargs):
    return dataclasses.replace(channels.degradation_redundancy(*args, **kwargs), converged=False)


@pytest.mark.parametrize("value, shown", [
    (True, "yes"), (False, "no"), (0.5, "0.500000"), (-1.1e-16, "0.000000"),
    (-0.0, "0.000000"), (-4e-7, "0.000000"), (-6e-7, "-0.000001"), (-0.123, "-0.123000"),
])
def test_one_format_for_every_printed_value(value, shown):
    assert cli._fmt(value) == shown


def reproduce_cells(out):
    """(case, measure, status) of each row of a reproduce table, by column position."""
    return [
        (ln[:18].strip(), ln[19:45].strip(), ln[73:].split(" ")[0])
        for ln in out.splitlines()[2:]
    ]


class TestReproduce:
    @pytest.mark.parametrize("table", sorted(_ROWS))
    def test_every_row_in_order(self, capsys, table):
        code, out, _ = run(capsys, "reproduce", table)
        rows = _ROWS[table]
        assert code == (1 if any(status == "FAIL" for *_, status in rows) else 0)
        assert reproduce_cells(out) == rows

    def test_solver_error_fails_the_rows_that_need_it(self, capsys, monkeypatch):
        def broken(ctx):
            raise SolverError("stub solver failure")

        monkeypatch.setitem(cli.MEASURES, "s_d", broken)
        code, out, _ = run(capsys, "reproduce", "counterexamples")
        assert code == 1
        errored = [ln.split()[0] for ln in out.splitlines() if "FAIL (stub solver failure)" in ln]
        assert errored == ["ADAPTED_XOR_V2"] * 3
        assert reproduce_cells(out)[-3:] == [
            ("ADAPTED_XOR_V2", "s_d(r=0.25)", "FAIL"),
            ("ADAPTED_XOR_V2", "s_d endpoint average", "FAIL"),
            ("ADAPTED_XOR_V2", "midpoint_above_average", "FAIL"),
        ]
        assert all(" error " in ln for ln in out.splitlines()[-3:])

    def test_worked_examples_solve_each_redundancy_once(self, capsys, monkeypatch):
        calls = []
        real = cli.degradation_redundancy

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "degradation_redundancy", counted)
        run(capsys, "reproduce", "worked-examples")
        assert len(calls) == 4

    def test_unconverged_redundancy_fails_its_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "degradation_redundancy", unconverged_redundancy)
        code, out, _ = run(capsys, "reproduce", "worked-examples")
        assert code == 1
        failed = [(case, label) for case, label, status in reproduce_cells(out) if status == "FAIL"]
        assert failed == [
            (case, label) for case, label, _ in _ROWS["worked-examples"]
            if label.startswith("atom_") or label == "i_cap_d"
        ]
        assert out.count("iteration cap") == len(failed)

    def test_a_failed_measure_is_solved_once_per_input(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli, "degradation_redundancy", lambda *a, **k: calls.append(1) or unconverged_redundancy(*a, **k)
        )
        run(capsys, "reproduce", "worked-examples")
        # T-equals-Y1, COPY, BOOM and TWEAKED_COPY each solve once
        assert len(calls) == 4

    def test_worked_examples_all_ok(self, capsys):
        code, out, _ = run(capsys, "reproduce", "worked-examples")
        assert code == 0
        assert "FAIL" not in out
        assert out.count(" ok") >= 14

    def test_results_table_flags_only_the_known_gaps(self, capsys):
        code, out, _ = run(capsys, "reproduce", "results-table")
        assert code == 1
        failing = [ln.split()[:2] for ln in out.splitlines() if ln.endswith("FAIL")]
        assert failing == [
            ["XORDUPLICATE", "s_wb"],
            ["ANDDUPLICATE", "s_wb"],
            ["XORMULTICOAL", "s_wb"],
        ]

    def test_counterexamples_flag_the_known_gaps(self, capsys):
        code, out, _ = run(capsys, "reproduce", "counterexamples")
        assert code == 1
        failing = [ln.split()[0] for ln in out.splitlines() if ln.endswith("FAIL")]
        assert failing == ["ADAPTED_XOR", "ADAPTED_XOR_V2", "ADAPTED_XOR_V2", "ADAPTED_XOR_V2"]


class TestSweep:
    def test_csv_shape_and_endpoint(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--family", "ADAPTED_XOR", "--grid", "0:1:5",
            "--measure", "s_ci", "--measure", "i_cup_ci", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "r,s_ci,i_cup_ci"
        assert len(lines) == 6
        assert lines[1].startswith("0,")
        assert lines[-1].split(",")[0] == "1"
        assert lines[-1].split(",")[1] == "1.000000"

    @pytest.mark.parametrize("grid, stop", [("0.2:1:12", "1"), ("0:0.3:38", "0.3")])
    def test_a_range_ends_on_its_stop(self, capsys, monkeypatch, tmp_path, grid, stop):
        """start + (count-1)*step rounds past stop on these ranges."""
        seen = []
        monkeypatch.setattr(cli, "canonical", lambda name, r: (seen.append(r), canonical(name, r))[1])
        path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--family", "ADAPTED_XOR", "--grid", grid,
            "--measure", "i_total", "--out", str(path),
        )
        assert code == 0, err
        assert seen[-1] == float(stop)
        assert path.read_text().splitlines()[-1].split(",")[0] == stop

    def test_an_exact_range_keeps_its_points(self):
        """The benchmark's 0:0.5:3 grid, whose points are exact, is unchanged."""
        assert cli._parse_grid("0:0.5:3") == [0.0, 0.25, 0.5]

    def test_runs_are_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "sweep", "--family", "ADAPTED_REDUCED_OR",
                "--grid", "0,0.5,1", "--measure", "i_cup_ci", "--measure", "s_d",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_a_value_that_rounds_to_zero_is_written_unsigned(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(cli.MEASURES, "s_wms", lambda ctx: -1.1e-16)
        path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--family", "ADAPTED_XOR", "--grid", "0",
            "--measure", "s_wms", "--out", str(path),
        )
        assert code == 0
        assert path.read_text().splitlines() == ["r,s_wms", "0,0.000000"]

    def test_solver_error_leaves_the_old_file(self, capsys, monkeypatch, tmp_path):
        calls = []

        def fails_at_the_second_point(ctx):
            calls.append(1)
            if len(calls) == 2:
                raise SolverError("stub solver failure")
            return 0.0

        monkeypatch.setitem(cli.MEASURES, "s_ci", fails_at_the_second_point)
        path = tmp_path / "sweep.csv"
        path.write_text("kept\n")
        code, _, err = run(
            capsys, "sweep", "--family", "ADAPTED_XOR", "--grid", "0,0.5,1",
            "--measure", "s_ci", "--out", str(path),
        )
        assert code == 3
        assert "stub solver failure" in err
        assert path.read_text() == "kept\n"


class TestAxioms:
    def test_small_run_is_clean(self, capsys):
        code, out, _ = run(capsys, "axioms", "--trials", "2", "--seed", "7")
        assert code == 0
        assert "VIOLATED" not in out
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all(ln.endswith("ok") and "violations" in ln for ln in lines)

    def test_reruns_match(self, capsys):
        _, first, _ = run(capsys, "axioms", "--trials", "2", "--seed", "3")
        _, second, _ = run(capsys, "axioms", "--trials", "2", "--seed", "3")
        assert first == second

    @pytest.mark.xfail(strict=True, reason=(
        "degradation_leq raises SolverError (residual 8.437e-08) "
        "on a garbling of the degradation_data_processing check, so the run exits 3"))
    def test_a_garbling_check_gets_a_verdict(self, capsys):
        code, out, err = run(capsys, "axioms", "--trials", "10", "--seed", "1941329042")
        assert code in (0, 1), err
        assert len(out.strip().splitlines()) == 12


@pytest.mark.parametrize("argv", [
    ["measure", "--dist", "corpus:AND", "--measure", "i_cap_d", "--seed", "-1"],
    ["reproduce", "worked-examples", "--seed", "-1"],
    ["axioms", "--trials", "2", "--seed", "-1"],
])
def test_negative_seed_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: seed must be non-negative, got -1\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("cipid ")


def test_successive_calls_match_fresh_processes(capsys, tmp_path):
    """The parser is built once per process; each call still parses only its own arguments."""
    calls = [
        ["measure", "--dist", "corpus:AND", "--measure", "i_total", "--measure", "s_ci"],
        ["sweep", "--family", "ADAPTED_XOR", "--grid", "0,1", "--measure", "s_ci",
         "--out", str(tmp_path / "in_process.csv")],
        ["measure", "--dist", "corpus:XOR", "--measure", "imin"],
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = []
    for argv in calls:
        argv = [a.replace("in_process", "fresh") for a in argv]
        done = subprocess.run([sys.executable, "-m", "cipid.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        fresh.append((done.returncode, done.stdout))
    assert in_process == fresh
    assert in_process[2][1] == "imin\t0.000000\n"
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_import_leaves_scipy_out():
    """The package and its CLI import numpy only; scipy would add tens of MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, cipid, cipid.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
