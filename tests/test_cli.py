import gc
import json
import platform
import sys
from array import array
from pathlib import Path

import pytest

from checked import LinkedList, cli, less, rangealg
from checked.cli import BENCH_CSV_HEADER, BENCH_SCENARIOS, main, run_bench
from checked.demos import DEMO_NAMES, demo_cases, run_demo
from checked.narrowing import I32, ConstraintError, NarrowError
from checked.reflectlayout import register_record, registered_record_names


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestNarrowCheck:
    def test_negative_into_unsigned(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "i32", "u32", "-2")
        assert status == 1
        assert out.strip() == "can_narrow=true will_narrow=true convert=ERROR"

    def test_same_type(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "i32", "i32", "7")
        assert status == 0
        assert out.strip() == "can_narrow=false will_narrow=false convert=7"

    def test_fractional_double(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "f64", "i32", "7.8")
        assert status == 1
        assert out.strip() == "can_narrow=true will_narrow=true convert=ERROR"

    def test_checked_but_fitting_value(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "i32", "i16", "7")
        assert status == 0
        assert out.strip() == "can_narrow=true will_narrow=false convert=7"

    def test_nan_is_an_f64_value(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "f64", "f64", "nan")
        assert status == 0
        assert out.strip() == "can_narrow=false will_narrow=false convert=nan"

    def test_nan_does_not_narrow_to_f32(self, capsys):
        status, out, _ = run(capsys, "narrow", "check", "f64", "f32", "nan")
        assert status == 1
        assert out.strip() == "can_narrow=true will_narrow=true convert=ERROR"

    def test_unknown_type_is_a_usage_error(self, capsys):
        status, _, err = run(capsys, "narrow", "check", "i128", "i32", "7")
        assert status == 2 and "i128" in err

    def test_unparsable_value_is_a_usage_error(self, capsys):
        status, _, err = run(capsys, "narrow", "check", "i32", "i16", "2000000000000")
        assert status == 2 and "range" in err

    def test_inexact_float_literal_is_a_usage_error(self, capsys):
        status, _, err = run(capsys, "narrow", "check", "sf16", "i32", "301")
        assert status == 2 and "sf16" in err


class TestNarrowTable:
    def test_shape_and_cells(self, capsys):
        status, out, _ = run(capsys, "narrow", "table")
        assert status == 0
        lines = out.strip().splitlines()
        header = lines[0].split()
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert header[0] == "i8" and len(rows) == len(header)
        assert rows["i32"][header.index("u32")] == "Y"
        assert rows["i16"][header.index("i32")] == "N"
        for name in header:
            assert rows[name][header.index(name)] == "N"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "narrow", "table")
        _, second, _ = run(capsys, "narrow", "table")
        assert first == second


class TestBench:
    def test_csv_contract(self, capsys):
        status, out, _ = run(capsys, "bench", "raw-arith", "--iters", "10000")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        scenario, iters, ns, baseline = lines[1].split(",")
        assert scenario == "raw-arith" and int(iters) == 10000
        assert float(ns) > 0 and float(baseline) > 0

    # a sort of 4096 elements each, or 600
    SORTS_4096 = ("sort-bytes", "sort-ints", "sort-wide", "sort-array", "sort-view", "sort-linked",
                  "sort-array-compared")

    @pytest.mark.parametrize("scenario, store, counted", [("sort-ints", list, True), ("sort-wide", list, False),
                                                          ("sort-array", lambda d: array("i", d), True),
                                                          ("sort-view", lambda d: memoryview(bytearray(d)), True),
                                                          ("sort-linked", LinkedList, True)])
    def test_sort_scenarios_take_their_paths(self, scenario, store, counted):
        """`sort-ints` and `sort-linked` sort a list and a `LinkedList` by
        counting, `sort-wide`, whose last element is 256, fails the gate at
        its dump's last record and is compared, and `sort-array` and
        `sort-view` count an `array('i')` and a `memoryview` of a
        `bytearray`, proved by their element types."""
        space = {}
        exec(cli._BENCHES[scenario][0], space)
        data = space["data"]
        assert len(data) == 4096 and max(data[:-1]) < 256 and set(map(type, data)) == {int}
        assert (rangealg._counted(store(data), data, less) is not None) is counted

    def test_sort_array_compared_is_under_the_counting_threshold(self, monkeypatch):
        """`sort-array-compared` sorts 600 random bytes in an `array('i')`: too
        few to count, so the gate is never entered and the window is compared."""
        space = dict(vars(cli))
        setup, statement, baseline = cli._BENCHES["sort-array-compared"]
        exec(setup, space)
        data = space["data"]
        assert len(data) == 600 < rangealg._COUNT_MIN and max(data) < 256 and set(map(type, data)) == {int}
        monkeypatch.setattr(rangealg, "_counted", lambda *args: pytest.fail("the gate was entered"))
        exec(statement, space)
        assert baseline == "sorted(data)"

    def test_all_scenarios_run(self):
        scenarios = ("convert-same", "convert-narrowable", "number-arith", "number-arith-bare", "raw-arith",
                     "span-index", "span-sort", "convert-checked", "format-render",
                     "number-construct", "number-compare", "span-write", "sort-forward",
                     "convert-f32", "layout-of", "span-bounds", "convert-to", "cast-f32", "span-iter",
                     "span-nested", "record-register", "convert-refused", "sort-bytes", "sort-ints",
                     "sort-wide", "sort-array", "sort-view", "sort-linked", "sort-array-compared")
        assert BENCH_SCENARIOS == scenarios
        for scenario in scenarios:
            iters = 200 if scenario in self.SORTS_4096 else 20000
            record = run_bench(scenario, iters)
            assert record.iters == iters
            assert record.ns_per_op >= 0 and record.baseline_ns_per_op > 0

    def test_record_register_leaves_the_registry_as_it_was(self):
        names = registered_record_names()
        record = run_bench("record-register", 50)
        assert record.ns_per_op > 0 and record.baseline_ns_per_op > 0
        assert registered_record_names() == names and "BenchRecord" not in names

    def test_record_register_baseline_builds_the_same_layout(self, registry):
        record = register_record("BenchRecord", cli._RECORD_FIELDS)
        space = {"PRIMITIVE_LAYOUTS": cli.PRIMITIVE_LAYOUTS, "_RECORD_FIELDS": cli._RECORD_FIELDS}
        exec(cli._BENCHES["record-register"][2], space)
        assert space["x"] == ([tuple(d) for d in record.layout], record.size)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_kept(self, enabled):
        was_enabled = gc.isenabled()
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            run_bench("raw-arith", 1000)
            assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()

    def test_convert_same_refuses_a_pair_with_a_checker(self, monkeypatch):
        # The staged pattern times a bare assignment only for a pair that
        # never narrows; a checker for i32 -> i32 must stop the run.
        monkeypatch.setitem(I32.checks, I32, lambda value: False)
        with pytest.raises(RuntimeError, match="per-value test"):
            run_bench("convert-same", 1000)

    def test_convert_refused_times_a_refusal(self):
        # The set-up checks that its value is refused; a value u16 holds
        # stops the run.
        setup = cli._BENCHES["convert-refused"][0]
        space = dict(vars(cli))
        exec(setup, space)
        with pytest.raises(NarrowError):
            cli.convert(space["v"], cli.U16)
        with pytest.raises(RuntimeError, match="fits u16"):
            exec(setup.replace("70000", "7000"), space)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_run_bench_refuses_no_iterations(self, iters):
        with pytest.raises(ValueError, match="positive"):
            run_bench("raw-arith", iters)

    def test_bad_iters(self, capsys):
        status, _, err = run(capsys, "bench", "raw-arith", "--iters", "0")
        assert status == 2 and "iters" in err

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_bad_repeat(self, capsys, repeat):
        status, out, err = run(capsys, "bench", "raw-arith", "--iters", "10", "--repeat", repeat)
        assert status == 2 and "repeat" in err and out == ""

    def test_repeat_rows_are_the_fastest_loop_and_json_adds_the_median(self, capsys, monkeypatch, tmp_path):
        built, calls = [], []

        class ScriptedTimer:
            """Each statement's rounds take these ns per operation, in turn."""

            script = {"x = a + b": (600, 200, 400), "x = p + q": (250, 100, 160)}

            def __init__(self, stmt, setup, globals):
                built.append(stmt)
                self.stmt = stmt
                self.ns = iter(self.script[stmt])

            def timeit(self, number):
                calls.append((self.stmt, number))
                return next(self.ns) * number / 1e9

        monkeypatch.setattr(cli.timeit, "Timer", ScriptedTimer)
        path = tmp_path / "bench.json"
        status, out, _ = run(capsys, "bench", "number-arith", "--iters", "1000",
                             "--repeat", "3", "--json", str(path))
        assert status == 0
        assert out == BENCH_CSV_HEADER + "\nnumber-arith,1000,200.000,100.000\n"
        assert built == ["x = a + b", "x = p + q"]  # each timer is built once
        assert calls == [("x = a + b", 1000), ("x = p + q", 1000)] * 3  # rounds alternate
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["python"] == platform.python_version()
        assert report["platform"] == platform.platform()
        assert report["commit"] == cli._source_commit()
        assert list(report["scenarios"]) == ["number-arith"]
        row = report["scenarios"]["number-arith"]
        assert row["iters"] == 1000 and row["repeat"] == 3
        assert row["ns_min"] == pytest.approx(200) and row["ns_median"] == pytest.approx(400)
        assert row["baseline_ns_min"] == pytest.approx(100) and row["baseline_ns_median"] == pytest.approx(160)
        assert row["ratio"] == pytest.approx(2)
        # the per-round ratios are 2.4, 2 and 2.5: neither min over min nor
        # median over median
        assert row["ratio_median"] == pytest.approx(2.4)

    def test_all_runs_every_scenario_under_one_header(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        status, out, _ = run(capsys, "bench", "all", "--iters", "200", "--repeat", "2", "--json", str(path))
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == list(BENCH_SCENARIOS)
        scenarios = json.loads(path.read_text(encoding="utf-8"))["scenarios"]
        assert list(scenarios) == list(BENCH_SCENARIOS)
        for row in scenarios.values():
            assert row["repeat"] == 2 and 0 <= row["ns_min"] <= row["ns_median"]
            assert row["ratio"] == row["ns_min"] / row["baseline_ns_min"]
            assert row["ratio_median"] > 0

    def test_unwritable_json_path_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "bench.json"
        status, _, err = run(capsys, "bench", "raw-arith", "--iters", "10", "--json", str(path))
        assert status == 2 and "cannot write" in err and not path.exists()

    def test_source_commit_reads_git_head(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "checked" / "cli.py"))
        assert cli._source_commit() is None  # no checkout
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="ascii")
        assert cli._source_commit() is None  # a ref with no commit yet
        (git / "refs" / "heads" / "main").write_text("ab" * 20 + "\n", encoding="ascii")
        assert cli._source_commit() == "ab" * 20
        (git / "HEAD").write_text("cd" * 20 + "\n", encoding="ascii")  # detached
        assert cli._source_commit() == "cd" * 20
        # after ``git pack-refs``: the branch is a line of packed-refs only
        (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="ascii")
        (git / "refs" / "heads" / "main").unlink()
        assert cli._source_commit() is None  # no loose ref and no packed-refs
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted \n"
            f"{'12' * 20} refs/heads/mainline\n{'ef' * 20} refs/heads/main\n^{'34' * 20}\n",
            encoding="ascii")
        assert cli._source_commit() == "ef" * 20
        (git / "HEAD").write_text("ref: refs/heads/other\n", encoding="ascii")
        assert cli._source_commit() is None  # a branch in neither place


def _report(path, **scenarios):
    """A ``bench --json`` report holding ``name=(ratio, ns_min)`` or
    ``name=(ratio, ns_min, ratio_median)`` rows."""
    rows = {name: dict(zip(("ratio", "ns_min", "ratio_median"), row)) for name, row in scenarios.items()}
    path.write_text(json.dumps({"python": "3", "scenarios": rows}), encoding="utf-8")
    return str(path)


class TestBenchDiff:
    def test_reports_ratios_and_the_ns_min_change(self, capsys, tmp_path):
        old = _report(tmp_path / "old.json", **{"number-arith": (30.0, 400.0), "span-index": (6.5, 120.0),
                                                "raw-arith": (1.0, 20.0), "gone": (2.0, 50.0),
                                                "convert-same": (1.0, 0.0)})
        new = _report(tmp_path / "new.json", **{"span-index": (6.0, 132.0), "number-arith": (27.25, 350.0),
                                                "raw-arith": (1.0, 0.0), "layout-of": (3.125, 61.0),
                                                "convert-same": (1.0, 9.0)})
        status, out, err = run(capsys, "bench", "diff", old, new)
        assert status == 0 and err == ""
        assert out.splitlines() == [
            cli.BENCH_DIFF_CSV_HEADER,
            "number-arith,30.000,27.250,-12.5%,n/a,n/a",  # reports without ratio_median
            "span-index,6.500,6.000,+10.0%,n/a,n/a",
            "raw-arith,1.000,1.000,-100.0%,n/a,n/a",
            "gone,2.000,missing,n/a,n/a,missing",
            "convert-same,1.000,1.000,n/a,n/a,n/a",  # no change from a zero ns_min
            "layout-of,missing,3.125,n/a,missing,n/a",
        ]

    def test_reports_both_ratio_medians(self, capsys, tmp_path):
        old = _report(tmp_path / "old.json", **{"span-sort": (2.5, 3300.0, 2.4), "span-index": (6.5, 120.0),
                                                "gone": (2.0, 50.0, 1.875)})
        new = _report(tmp_path / "new.json", **{"span-sort": (2.25, 3000.0, 2.3), "span-index": (6.0, 132.0, 5.5),
                                                "layout-of": (3.125, 61.0, 3.0)})
        status, out, err = run(capsys, "bench", "diff", old, new)
        assert status == 0 and err == ""
        assert out.splitlines() == [
            "scenario,old_ratio,new_ratio,ns_min_change,old_ratio_median,new_ratio_median",
            "span-sort,2.500,2.250,-9.1%,2.400,2.300",
            "span-index,6.500,6.000,+10.0%,n/a,5.500",  # only the new report has it
            "gone,2.000,missing,n/a,1.875,missing",
            "layout-of,missing,3.125,n/a,missing,3.000",
        ]

    def test_a_bench_json_file_diffs_against_itself(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert run(capsys, "bench", "raw-arith", "--iters", "100", "--json", str(path))[0] == 0
        status, out, _ = run(capsys, "bench", "diff", str(path), str(path))
        assert status == 0
        assert out.splitlines()[1].startswith("raw-arith,1.000,1.000,+0.0%,")
        old_median, new_median = out.splitlines()[1].split(",")[4:]
        assert old_median == new_median and float(old_median) > 0

    @pytest.mark.parametrize("text, problem", [
        ("{", "not a bench --json report"),
        ("[1, 2]", "not a bench --json report"),
        ('{"python": "3"}', "no key 'scenarios'"),
        ('{"scenarios": [1]}', "not a bench --json report"),
        ('{"scenarios": {"raw-arith": {"ratio": 1.0}}}', "no key 'ns_min'"),
        ('{"scenarios": {"raw-arith": {"ratio": "fast", "ns_min": 1.0}}}', "not a bench --json report"),
        ('{"scenarios": {"raw-arith": {"ratio": 1.0, "ns_min": 1.0, "ratio_median": "fast"}}}',
         "not a bench --json report"),
    ])
    def test_a_malformed_report_is_a_usage_error(self, capsys, tmp_path, text, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        good = _report(tmp_path / "good.json", **{"raw-arith": (1.0, 20.0)})
        for argv in ((good, str(bad)), (str(bad), good)):
            status, out, err = run(capsys, "bench", "diff", *argv)
            assert status == 2 and out == "" and problem in err and "bad.json" in err

    def test_an_unreadable_report_is_a_usage_error(self, capsys, tmp_path):
        good = _report(tmp_path / "good.json", **{"raw-arith": (1.0, 20.0)})
        status, out, err = run(capsys, "bench", "diff", good, str(tmp_path / "missing.json"))
        assert status == 2 and out == "" and "cannot read" in err
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
        status, _, err = run(capsys, "bench", "diff", good, str(tmp_path / "binary.json"))
        assert status == 2 and "not a bench --json report" in err

    @pytest.mark.parametrize("argv", [("bench", "diff"), ("bench", "diff", "a.json"),
                                      ("bench", "diff", "a", "b", "c"), ("bench", "raw-arith", "extra"),
                                      ("bench", "diff", "--src", "src"),
                                      ("bench", "diff", "--src", "src", "nope"),
                                      ("bench", "diff", "span-sort.json", "--src", "src", "span-sort"),
                                      ("bench", "span-sort", "--src", "src", "span-sort"),
                                      ("bench", "diff", "--src", "src", "span-sort", "--iters", "0"),
                                      ("bench", "diff", "--src", "no-such-tree", "span-sort")])
    def test_report_count_is_checked(self, capsys, argv):
        status, out, _ = run(capsys, *argv)
        assert status == 2 and out == ""


SRC = str(Path(cli.__file__).resolve().parents[1])  # the directory holding this checked package


class TestBenchDiffSrc:
    def test_rounds_alternate_and_report_paired_ratios(self, capsys, monkeypatch):
        calls = []

        class ScriptedTimer:
            """Each tree's rounds take these ns per operation, in turn."""

            script = {"new": iter((90, 120, 100, 80)), "old": iter((100, 100, 100, 100))}

            def __init__(self, stmt, setup, globals):
                assert (setup, stmt) == cli._BENCHES["span-sort"][:2]
                self.tree = "new" if globals is vars(cli) else "old"
                assert self.tree == "new" or globals["sort"].__module__ == "_checked_old.rangealg"

            def timeit(self, number):
                calls.append((self.tree, number))
                return next(self.script[self.tree]) * number / 1e9

        monkeypatch.setattr(cli.timeit, "Timer", ScriptedTimer)
        status, out, err = run(capsys, "bench", "diff", "--src", SRC, "span-sort",
                               "--iters", "10", "--repeat", "4")
        assert status == 0 and err == ""
        assert calls == [("new", 10), ("old", 10), ("old", 10), ("new", 10)] * 2
        # the paired ratios are 0.9, 1.2, 1.0 and 0.8; two rounds are won
        assert out.splitlines() == [cli.BENCH_SRC_DIFF_CSV_HEADER, "span-sort,10,4,0.950,0.875,1.050,2"]

    @pytest.mark.parametrize("cli_source, problem", [(None, "No module named '_checked_old.cli'"),
                                                     ("", "span-sort does not run on the tree in")])
    def test_a_tree_that_cannot_run_a_scenario_is_a_usage_error(self, capsys, tmp_path, cli_source, problem):
        (tmp_path / "checked").mkdir()
        (tmp_path / "checked" / "__init__.py").write_text("", encoding="utf-8")
        if cli_source is not None:
            (tmp_path / "checked" / "cli.py").write_text(cli_source, encoding="utf-8")
        status, out, err = run(capsys, "bench", "diff", "--src", str(tmp_path), "span-sort", "--iters", "10")
        assert status == 2 and problem in err
        assert out == ("" if cli_source is None else cli.BENCH_SRC_DIFF_CSV_HEADER + "\n")

    def test_a_tree_against_itself_reads_about_one(self, capsys):
        status, out, err = run(capsys, "bench", "diff", "--src", SRC, "span-sort", "sort-array-compared",
                               "--iters", "1000", "--repeat", "9")
        assert status == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == cli.BENCH_SRC_DIFF_CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["span-sort", "sort-array-compared"]
        for line in lines[1:]:
            _, iters, rounds, median, q1, q3, won = line.split(",")
            assert (iters, rounds) == ("1000", "9") and 0 <= int(won) <= 9
            assert float(q1) <= float(median) <= float(q3)
            assert 0.9 <= float(median) <= 1.1, line
        old = sys.modules["_checked_old.cli"]
        assert old.sort is not cli.sort and old.sort.__module__ == "_checked_old.rangealg"


class TestDemo:
    @pytest.mark.parametrize("which", DEMO_NAMES)
    def test_each_demo_passes(self, capsys, which):
        status, out, _ = run(capsys, "demo", which)
        assert status == 0
        assert "FAIL" not in out and "ok " in out

    def test_all(self, capsys):
        status, out, _ = run(capsys, "demo", "all")
        assert status == 0
        for which in DEMO_NAMES:
            assert f"== demo {which} ==" in out

    def test_deviation_is_reported_and_fails(self):
        # The runner compares against recorded expectations; a wrong
        # expectation must be flagged, not smoothed over.
        results = run_demo("fmt")
        assert all(r.ok for r in results)
        broken = results[0].__class__(results[0].label, "something else", results[0].actual)
        assert not broken.ok

    def test_a_deviating_row_prints_fail_and_exits_1(self, capsys, monkeypatch):
        row = run_demo("fmt")[0]
        monkeypatch.setattr(cli, "run_demo", lambda which: [row, row._replace(expected="something else")])
        status, out, _ = run(capsys, "demo", "fmt")
        assert status == 1
        assert out.splitlines() == ["== demo fmt ==", f"ok   {row.label}: {row.actual}",
                                    f"FAIL {row.label}: got {row.actual} expected something else"]

    def test_an_unknown_demo_name_is_a_constraint_error(self):
        with pytest.raises(ConstraintError, match="nope"):
            demo_cases("nope")

    def test_unknown_demo_rejected_by_parser(self):
        with pytest.raises(SystemExit) as info:
            main(["demo", "nope"])
        assert info.value.code == 2


class TestLayout:
    def test_known_record(self, capsys):
        status, out, _ = run(capsys, "layout", "X")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "record X size=32"
        assert lines[1] == "a offset=0 size=1"
        assert lines[2] == "b offset=4 size=4"
        assert lines[3] == "c offset=8 size=24"

    def test_unknown_record(self, capsys):
        status, _, err = run(capsys, "layout", "NoSuchRecord")
        assert status == 2 and "NoSuchRecord" in err


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
